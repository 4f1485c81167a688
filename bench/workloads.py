"""Benchmark workloads: `outwalk run` configs generated from code.

Every config is written out as text with `master_seed` and `paths` in
it, so it goes through `parse_config` and its validation exactly like a
user's file; the CLI's `--seed` / `--paths` overrides are never used.

Measures:

* NIEL, the uniform measure on the 24 elementary Nielsen moves of F_3:
  x_i -> x_i x_j^{+-1} and x_i -> x_j^{+-1} x_i (i != j);
* TRANSVECTIONS, the uniform measure on the 12 elementary transvections
  E_ij^{+-1} of SL(3, Z), the abelianizations of the NIEL moves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

RANK = 3
GENERATORS = "abc"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an experiment kind plus its sizes.

    Config r of a run is built with `master_seed = config_seed(name,
    seed, r)`, so each config brings fresh paths and a run averages over
    many of them.  `rep_s` is the nominal wall time of one repetition
    (process start to exit) on the 2-CPU reference machine; it converts
    `--seconds` into a fixed repetition count, so two programs measured
    with the same arguments run identical inputs.
    """

    name: str
    kind: str
    n_max: int
    paths: int
    rep_s: float
    why: str
    letter_budget: int | None = None
    k_max: int | None = None

    def config_text(self, master_seed: int, out: str) -> str:
        lines = [
            f"kind = {self.kind}",
            f"n_max = {self.n_max}",
            f"paths = {self.paths}",
            f"master_seed = {master_seed}",
            f"out = {out}",
        ]
        if self.k_max is not None:
            lines.append(f"k_max = {self.k_max}")
        if self.letter_budget is not None:
            lines.append(f"letter_budget = {self.letter_budget}")
        if self.kind.startswith("matrix-"):
            lines += transvection_measure_lines()
        else:
            lines += niel_measure_lines()
        return "\n".join(lines) + "\n"

    def params(self) -> dict:
        return {
            "kind": self.kind,
            "n_max": self.n_max,
            "paths": self.paths,
            "letter_budget": self.letter_budget,
            "k_max": self.k_max,
            "rep_s": self.rep_s,
        }


def config_seed(workload: str, seed: int, rep: int) -> int:
    """64-bit master_seed of repetition `rep` of a run with `--seed seed`."""
    digest = hashlib.sha256(f"{workload}/{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _letter(i: int, sign: int) -> str:
    return GENERATORS[i] if sign > 0 else GENERATORS[i].upper()


def _assignments(images: dict) -> str:
    return "; ".join(
        f"{g}->{images.get(k, g)}" for k, g in enumerate(GENERATORS)
    )


def niel_moves() -> list:
    """(map, inverse) texts of the 24 elementary Nielsen moves of F_3."""
    moves = []
    for i in range(RANK):
        for j in range(RANK):
            if i == j:
                continue
            for sign in (1, -1):
                xi, xj, xj_inv = GENERATORS[i], _letter(j, sign), _letter(j, -sign)
                moves.append(({i: xi + xj}, {i: xi + xj_inv}))  # x_i -> x_i x_j^e
                moves.append(({i: xj + xi}, {i: xj_inv + xi}))  # x_i -> x_j^e x_i
    return [(_assignments(f), _assignments(b)) for f, b in moves]


def niel_measure_lines() -> list:
    moves = niel_moves()
    weight = repr(1 / len(moves))
    lines = [f"rank = {RANK}"]
    for g, (fwd, inv) in enumerate(moves):
        lines += [f"gen.{g}.map = {fwd}", f"gen.{g}.inv = {inv}", f"gen.{g}.weight = {weight}"]
    return lines


def transvections() -> list:
    """The 12 elementary transvections I + e E_ij of SL(3, Z), as row lists."""
    out = []
    for i in range(RANK):
        for j in range(RANK):
            if i == j:
                continue
            for sign in (1, -1):
                m = [[int(r == c) for c in range(RANK)] for r in range(RANK)]
                m[i][j] = sign
                out.append(m)
    return out


def transvection_measure_lines() -> list:
    mats = transvections()
    weight = repr(1 / len(mats))
    lines = [f"dim = {RANK}"]
    for g, m in enumerate(mats):
        lines += [f"gen.{g}.matrix = {m}", f"gen.{g}.weight = {weight}"]
    return lines


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="drift-niel",
            kind="drift",
            n_max=44,
            paths=48,
            rep_s=2.7,
            why=(
                "drift on NIEL: compose in WalkPath.advance plus dist over "
                "long words, shallow seam cancellation, heavy-tailed paths"
            ),
        ),
        Workload(
            name="spectral-niel",
            kind="spectral",
            n_max=32,
            paths=16,
            k_max=4,
            letter_budget=200_000,
            rep_s=4.0,
            why=(
                "stretch brackets on NIEL: powers under a letter budget, deep "
                "telescoping cancellation in free reduction, downgraded brackets"
            ),
        ),
        Workload(
            name="guivarch-sl3",
            kind="matrix-guivarch",
            n_max=1200,
            paths=4,
            rep_s=3.3,
            why=(
                "big-integer 3x3 products and Gelfand squarings only; no "
                "word-layer call, so word-kernel changes must leave it unchanged"
            ),
        ),
    )
}
