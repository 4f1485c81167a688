"""Flat key-value experiment configs.

Grammar: one `key = value` per line, `#` comments and blank lines
ignored.  Keys: kind, rank, dim, n_max, paths, k_max, master_seed,
letter_budget, bit_budget, out, vector; measure entries gen.<i>.map,
gen.<i>.inv, gen.<i>.weight (automorphisms) or gen.<i>.matrix,
gen.<i>.weight (matrices); seed words word.<i>.

`KIND_TABLE` names, for each kind, the settings it reads and the value
`validate` fills in for each one a config leaves unset.  A config that
sets anything else (a setting, or a measure line of the other family)
is refused, so a resolved config holds exactly what bounded its run.
parse_config(format_config(cfg)) round-trips exactly; runs embed the
resolved config, less its `out` path, in the output header, so every
CSV names its own provenance.

The defaults of the word kinds come from `defaults`, and the map and
word parsers are imported where a map (`build_measure`) or a seed word
(`seed_words`) is parsed: a matrix config loads no module of the word
layer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .defaults import DEFAULT_K_MAX, DEFAULT_LETTER_BUDGET, WALK_K_MAX
from .matrix_oracle import DEFAULT_BIT_BUDGET, parse_matrix
from .walk_engine import ProbMeasure

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "validate", "format_config",
           "build_measure"]

_INT_KEYS = ("rank", "dim", "n_max", "paths", "k_max", "master_seed",
             "letter_budget", "bit_budget")


@dataclass(frozen=True)
class Kind:
    """What one experiment kind reads from a config.

    `size` is `rank` for a measure on automorphisms of F_rank (gen.<i>.map
    and gen.<i>.inv) or `dim` for one on dim x dim matrices
    (gen.<i>.matrix).  `settings` are the keywords of the kind's runner
    (`cli.RUNNERS`), each with the value `validate` fills in when a config
    leaves it unset (None: the config must set it).  A kind that reads no
    `n_max` takes no walk but one map, gen.0, whose weight may be left out.
    """

    size: str
    settings: dict

    @property
    def lines(self) -> tuple:
        return ("matrix",) if self.size == "dim" else ("map", "inv")

    @property
    def walks(self) -> bool:
        return "n_max" in self.settings


_WALK = {"n_max": None, "paths": 1, "master_seed": 0}
_LETTERS = {"letter_budget": DEFAULT_LETTER_BUDGET}
_BITS = {"bit_budget": DEFAULT_BIT_BUDGET}

KIND_TABLE = {
    "drift": Kind("rank", {**_WALK, **_LETTERS}),
    "conjugacy": Kind("rank", {**_WALK, **_LETTERS, "words": None}),
    "spectral": Kind("rank", {**_WALK, **_LETTERS, "k_max": WALK_K_MAX}),
    "gromov": Kind("rank", {**_WALK, **_LETTERS}),
    "matrix-guivarch": Kind("dim", {**_WALK, **_BITS}),
    "matrix-furstenberg": Kind("dim", {**_WALK, **_BITS, "vector": None}),
    "distance": Kind("rank", {}),
    "stretch": Kind("rank", {**_LETTERS, "k_max": DEFAULT_K_MAX}),
}


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
    master_seed: int | None = None
    letter_budget: int | None = None
    bit_budget: int | None = None
    out: str | None = None
    vector: tuple | None = None
    gens: list = field(default_factory=list)  # dicts: map/inv or matrix, weight
    words: list = field(default_factory=list)  # seed word strings


# what a config that sets nothing holds: paths 1, no words, else None
_UNSET = vars(ExperimentConfig(kind=""))


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
    cfg = ExperimentConfig(kind=pairs.pop("kind"))

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
        except (ValueError, SyntaxError, TypeError):
            vec = None
        # type, not isinstance: a bool is an int, but True is no entry
        if not isinstance(vec, (list, tuple)) or not all(type(x) is int for x in vec):
            raise ConfigError("vector: expected an integer list like [1,0]")
        cfg.vector = tuple(vec)

    gens = {}
    words = {}
    named = {}  # (family, index, field) -> the key that set it
    for key, value in pairs.items():
        parts = key.split(".")
        if parts[0] == "gen" and len(parts) == 3 and parts[2] in ("map", "inv", "weight", "matrix"):
            error = "bad generator index"
        elif parts[0] == "word" and len(parts) == 2:
            error = "bad seed word index"
        else:
            raise ConfigError(f"unknown key {key!r}")
        try:
            idx = int(parts[1])
        except ValueError:
            raise ConfigError(f"{key}: {error}") from None
        # int() reads gen.1 and gen.01 as one index: one line must not overwrite the other
        first = named.setdefault((parts[0], idx, *parts[2:]), key)
        if first != key:
            raise ConfigError(f"{key}: same setting as {first}")
        if parts[0] == "gen":
            gens.setdefault(idx, {})[parts[2]] = value
        else:
            words[idx] = value
    if gens and sorted(gens) != list(range(len(gens))):
        raise ConfigError("gen.<i> indices must be 0..k-1 without gaps")
    if words and sorted(words) != list(range(len(words))):
        raise ConfigError("word.<i> indices must be 0..k-1 without gaps")
    cfg.gens = [gens[i] for i in sorted(gens)]
    cfg.words = [words[i] for i in sorted(words)]
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    """Check values and fill in the defaults of the settings cfg.kind reads
    (`KIND_TABLE`); refuse every other setting.  Rerun after edits."""
    kind = KIND_TABLE.get(cfg.kind)
    if kind is None:
        raise ConfigError(f"kind: unknown experiment kind {cfg.kind!r}")
    reads = {kind.size: None, **kind.settings}
    for name in (*_INT_KEYS, "vector", "words"):
        key = "word.0" if name == "words" else name
        if getattr(cfg, name) != _UNSET[name]:
            if name not in reads:
                raise ConfigError(f"{key}: a {cfg.kind} run does not read it")
        elif name in reads:
            if reads[name] is None:
                raise ConfigError(f"{key}: required for a {cfg.kind} run")
            setattr(cfg, name, reads[name])
    least = {"rank": 2, "dim": 1, "n_max": 1, "paths": 1, "k_max": 1,
             "letter_budget": 1, "bit_budget": 1}
    for name, low in least.items():
        value = getattr(cfg, name)
        if value is not None and value < low:
            raise ConfigError(f"{name}: must be >= {low}")
    if cfg.rank is not None and cfg.rank > 26:
        # maps and words are written in the letters a-z
        raise ConfigError("rank: must be <= 26")
    if cfg.master_seed is not None and not 0 <= cfg.master_seed < 2**64:
        raise ConfigError("master_seed: must fit in 64 bits")
    if cfg.vector is not None and (len(cfg.vector) != cfg.dim or not any(cfg.vector)):
        raise ConfigError("vector: must be a nonzero vector of length dim")
    if cfg.out is not None and (cfg.out != cfg.out.strip() or len(cfg.out.splitlines()) != 1):
        # format_config writes it as one `out = ...` line, which must parse back;
        # an empty path, no line, would run the experiment and write nothing
        raise ConfigError("out: must be one nonempty line without surrounding whitespace")
    if not cfg.gens:
        raise ConfigError("gen.0.*: at least one measure atom is required")
    if not kind.walks and len(cfg.gens) > 1:
        raise ConfigError(f"gen.1: a {cfg.kind} config takes one map, gen.0 only")
    for i, g in enumerate(cfg.gens):
        for sub in g:
            if sub != "weight" and sub not in kind.lines:
                raise ConfigError(f"gen.{i}.{sub}: a {cfg.kind} run does not read it")
        missing = [f"gen.{i}.{sub}" for sub in kind.lines if sub not in g]
        if missing:
            raise ConfigError(f"{'/'.join(missing)}: required for a {cfg.kind} run")


def build_measure(cfg: ExperimentConfig) -> ProbMeasure:
    kind = KIND_TABLE[cfg.kind]
    support = []
    weights = []
    for i, g in enumerate(cfg.gens):
        if "weight" in g:
            try:
                w = float(g["weight"])
            except ValueError:
                raise ConfigError(f"gen.{i}.weight: expected a number") from None
        elif not kind.walks:
            w = 1.0
        else:
            raise ConfigError(f"gen.{i}.weight: required")
        weights.append(w)
        if kind.size == "dim":
            try:
                m = parse_matrix(g["matrix"])
            except ValueError as e:
                raise ConfigError(f"gen.{i}.matrix: {e}") from None
            if m.n != cfg.dim:
                raise ConfigError(f"gen.{i}.matrix: dimension {m.n} != dim {cfg.dim}")
            if m.det() not in (-1, 1):
                raise ConfigError(f"gen.{i}.matrix: determinant {m.det()} is not +-1")
            support.append(m)
        else:
            from .automorphisms import parse_automorphism

            try:
                a = parse_automorphism(f"{g['map']} | {g['inv']}", cfg.rank)
            except ValueError as e:  # ParseError and InverseCheckError included
                raise ConfigError(f"gen.{i}.map: {e}") from None
            support.append(a)
    try:
        return ProbMeasure(tuple(support), tuple(weights))
    except ValueError as e:
        raise ConfigError(f"gen.*.weight: {e}") from None


def seed_words(words: list, rank: int) -> list:
    """Cyclically reduced seed classes of F_rank, as `CyclicWord`s; two
    seeds of one conjugacy class (the same least rotation) would write the
    same rows twice."""
    from .free_group import ParseError, cyclic_reduce, least_rotation, parse_word, word_to_str

    out, classes = [], {}
    for i, text in enumerate(words):
        try:
            w = parse_word(text, rank)
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
    """Canonical text form; parse_config inverts it exactly.  A one-map
    kind reads no `paths`, so its `paths = 1` is left out."""
    kind = KIND_TABLE[cfg.kind]
    lines = [f"kind = {cfg.kind}"]
    for key in _INT_KEYS:
        value = getattr(cfg, key)
        if value is not None and key in (kind.size, *kind.settings):
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
