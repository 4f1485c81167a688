"""Flat key-value experiment configs.

Grammar: one `key = value` per line, `#` comments and blank lines
ignored.  Keys: kind, rank, dim, n_max, paths, k_max, master_seed,
letter_budget, bit_budget, out, vector; measure entries gen.<i>.map,
gen.<i>.inv, gen.<i>.weight (automorphisms) or gen.<i>.matrix,
gen.<i>.weight (matrices); seed words word.<i>.

parse_config(format_config(cfg)) round-trips exactly; runs embed the
resolved config, less its `out` path, in the output header, so every
CSV names its own provenance.  `validate` fills in only the defaults a
kind reads: `letter_budget` for word kinds, `bit_budget` for matrix
kinds and `k_max` for `spectral` and `stretch`; a key left unset stays
None and out of the header.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .free_group import (DEFAULT_LETTER_BUDGET, CyclicWord, ParseError, cyclic_reduce, least_rotation,
                         parse_word, word_to_str)
from .automorphisms import InverseCheckError, parse_automorphism, automorphism_to_str
from .matrix_oracle import DEFAULT_BIT_BUDGET, parse_matrix
from .spectral import DEFAULT_K_MAX
from .walk_engine import ProbMeasure, WALK_K_MAX

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "validate", "format_config",
           "build_measure"]

KINDS = {
    "drift",
    "conjugacy",
    "spectral",
    "gromov",
    "matrix-guivarch",
    "matrix-furstenberg",
    "distance",
    "stretch",
    "delta",
}

WALK_KINDS = {"drift", "conjugacy", "spectral", "gromov", "delta"}
MATRIX_KINDS = {"matrix-guivarch", "matrix-furstenberg"}
SINGLE_KINDS = {"distance", "stretch"}
ONE_PATH_KINDS = SINGLE_KINDS | {"delta"}

_INT_KEYS = ("rank", "dim", "n_max", "paths", "k_max", "master_seed",
             "letter_budget", "bit_budget")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    rank: int | None = None
    dim: int | None = None
    n_max: int | None = None
    paths: int = 1
    k_max: int | None = None
    master_seed: int = 0
    letter_budget: int | None = None
    bit_budget: int | None = None
    out: str | None = None
    vector: tuple | None = None
    gens: list = field(default_factory=list)  # dicts: map/inv or matrix, weight
    words: list = field(default_factory=list)  # seed word strings


def parse_config(text: str) -> ExperimentConfig:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    if "kind" not in pairs:
        raise ConfigError("missing required key 'kind'")
    kind = pairs.pop("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind: unknown experiment kind {kind!r}")
    cfg = ExperimentConfig(kind=kind)

    for key in _INT_KEYS:
        if key in pairs:
            try:
                setattr(cfg, key, int(pairs.pop(key)))
            except ValueError:
                raise ConfigError(f"{key}: expected an integer") from None
    if "out" in pairs:
        cfg.out = pairs.pop("out")
    if "vector" in pairs:
        try:
            vec = ast.literal_eval(pairs.pop("vector"))
            cfg.vector = tuple(int(x) for x in vec)
        except (ValueError, SyntaxError, TypeError):
            raise ConfigError("vector: expected an integer list like [1,0]") from None

    gens = {}
    words = {}
    for key in sorted(pairs):
        value = pairs[key]
        parts = key.split(".")
        if parts[0] == "gen" and len(parts) == 3 and parts[2] in ("map", "inv", "weight", "matrix"):
            try:
                idx = int(parts[1])
            except ValueError:
                raise ConfigError(f"{key}: bad generator index") from None
            gens.setdefault(idx, {})[parts[2]] = value
        elif parts[0] == "word" and len(parts) == 2:
            try:
                words[int(parts[1])] = value
            except ValueError:
                raise ConfigError(f"{key}: bad seed word index") from None
        else:
            raise ConfigError(f"unknown key {key!r}")
    if gens and sorted(gens) != list(range(len(gens))):
        raise ConfigError("gen.<i> indices must be 0..k-1 without gaps")
    if words and sorted(words) != list(range(len(words))):
        raise ConfigError("word.<i> indices must be 0..k-1 without gaps")
    cfg.gens = [gens[i] for i in sorted(gens)]
    cfg.words = [words[i] for i in sorted(words)]
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    """Check values and fill in kind-dependent defaults; rerun after edits."""
    if cfg.letter_budget is not None and cfg.letter_budget <= 0:
        raise ConfigError("letter_budget: must be positive")
    if cfg.bit_budget is not None and cfg.bit_budget <= 0:
        raise ConfigError("bit_budget: must be positive")
    if not 0 <= cfg.master_seed < 2**64:
        raise ConfigError("master_seed: must fit in 64 bits")
    if cfg.out is not None and (cfg.out != cfg.out.strip() or len(cfg.out.splitlines()) > 1):
        # format_config writes it as one `out = ...` line, which must parse back
        raise ConfigError("out: must be one line without surrounding whitespace")
    if not cfg.gens:
        raise ConfigError("gen.0.*: at least one measure atom is required")
    if cfg.kind in SINGLE_KINDS and len(cfg.gens) > 1:
        raise ConfigError(f"gen.1: a {cfg.kind} config takes one map, gen.0 only")
    if cfg.kind in MATRIX_KINDS:
        if cfg.dim is None:
            raise ConfigError("dim: required for matrix experiments")
        for i, g in enumerate(cfg.gens):
            if "matrix" not in g:
                raise ConfigError(f"gen.{i}.matrix: required for matrix experiments")
    else:
        if cfg.rank is None:
            raise ConfigError("rank: required for automorphism experiments")
        if cfg.rank < 2:
            raise ConfigError("rank: must be at least 2")
        for i, g in enumerate(cfg.gens):
            if "map" not in g or "inv" not in g:
                raise ConfigError(f"gen.{i}.map/gen.{i}.inv: both images and inverse "
                                  "images are required")
    if cfg.kind in WALK_KINDS or cfg.kind in MATRIX_KINDS:
        low = 3 if cfg.kind == "delta" else 1  # delta needs four orbit points
        if cfg.n_max is None or cfg.n_max < low:
            raise ConfigError(f"n_max: required and must be >= {low}")
        if cfg.paths < 1:
            raise ConfigError("paths: must be >= 1")
    if cfg.kind in ONE_PATH_KINDS and cfg.paths != 1:
        # the run reads one map or one path; more would be ignored
        raise ConfigError(f"paths: a {cfg.kind} run has exactly one path")
    if cfg.kind == "conjugacy" and not cfg.words:
        raise ConfigError("word.0: conjugacy experiments need seed words")
    if cfg.kind == "matrix-furstenberg":
        if cfg.vector is None:
            raise ConfigError("vector: required for matrix-furstenberg")
        if len(cfg.vector) != cfg.dim or not any(cfg.vector):
            raise ConfigError("vector: must be a nonzero vector of length dim")
    if cfg.k_max is not None and cfg.k_max < 1:
        raise ConfigError("k_max: must be >= 1")
    if cfg.kind == "stretch" and cfg.k_max is not None and cfg.k_max < 2:
        raise ConfigError("k_max: must be >= 2 for stretch brackets")
    if cfg.kind in MATRIX_KINDS:
        if cfg.bit_budget is None:
            cfg.bit_budget = DEFAULT_BIT_BUDGET
    elif cfg.letter_budget is None:
        cfg.letter_budget = DEFAULT_LETTER_BUDGET
    if cfg.k_max is None and cfg.kind in ("spectral", "stretch"):
        cfg.k_max = DEFAULT_K_MAX if cfg.kind == "stretch" else WALK_K_MAX


def build_measure(cfg: ExperimentConfig) -> ProbMeasure:
    support = []
    weights = []
    single = cfg.kind in SINGLE_KINDS
    for i, g in enumerate(cfg.gens):
        if "weight" in g:
            try:
                w = float(g["weight"])
            except ValueError:
                raise ConfigError(f"gen.{i}.weight: expected a number") from None
        elif single:
            w = 1.0
        else:
            raise ConfigError(f"gen.{i}.weight: required")
        weights.append(w)
        if cfg.kind in MATRIX_KINDS:
            try:
                m = parse_matrix(g["matrix"])
            except ValueError as e:
                raise ConfigError(f"gen.{i}.matrix: {e}") from None
            if m.n != cfg.dim:
                raise ConfigError(f"gen.{i}.matrix: dimension {m.n} != dim {cfg.dim}")
            support.append(m)
        else:
            try:
                a = parse_automorphism(f"{g['map']} | {g['inv']}", cfg.rank)
            except (ParseError, InverseCheckError, ValueError) as e:
                raise ConfigError(f"gen.{i}.map: {e}") from None
            support.append(a)
    try:
        return ProbMeasure(tuple(support), tuple(weights))
    except ValueError as e:
        raise ConfigError(f"gen.*.weight: {e}") from None


def seed_words(cfg: ExperimentConfig) -> list[CyclicWord]:
    """Cyclically reduced seed classes; two seeds of one conjugacy class
    (the same least rotation) would write the same rows twice."""
    out, classes = [], {}
    for i, text in enumerate(cfg.words):
        try:
            w = parse_word(text, cfg.rank)
        except ParseError as e:
            raise ConfigError(f"word.{i}: {e}") from None
        if len(w) == 0:
            raise ConfigError(f"word.{i}: seed word must be nontrivial")
        g = cyclic_reduce(w)
        key = least_rotation(g)
        if key in classes:
            raise ConfigError(f"word.{i}: {word_to_str(g)!r} is conjugate to word.{classes[key]}")
        classes[key] = i
        out.append(g)
    return out


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config inverts it exactly."""
    lines = [f"kind = {cfg.kind}"]
    for key in _INT_KEYS:
        value = getattr(cfg, key)
        if value is not None:
            lines.append(f"{key} = {value}")
    if cfg.vector is not None:
        lines.append(f"vector = {list(cfg.vector)}")
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    for i, g in enumerate(cfg.gens):
        for sub in ("map", "inv", "matrix", "weight"):
            if sub in g:
                lines.append(f"gen.{i}.{sub} = {g[sub]}")
    for i, w in enumerate(cfg.words):
        lines.append(f"word.{i} = {w}")
    return "\n".join(lines) + "\n"
