"""outwalk: Monte Carlo experiments on random walks over free-group
automorphisms and integer matrix groups, with exact word and matrix
arithmetic and certified stretch-factor brackets.

The public names below load on first use (PEP 562): `import outwalk`,
and so `from outwalk import cli`, imports no layer, and reading a name
imports only the module that defines it.
"""

# module -> the public names it defines
_PUBLIC = {
    "free_group": ("CyclicWord", "Word", "WordBudgetExceeded", "cyclic_reduce", "parse_word",
                   "reduce", "word_to_str"),
    "automorphisms": ("Automorphism", "InverseCheckError", "abelianization", "apply",
                      "compose", "cyclic_images", "identity_automorphism", "invert",
                      "parse_automorphism"),
    "outer_metric": ("candidates", "dist", "log_stretch", "sym_dist"),
    "spectral": ("StretchBracket", "bracket", "stretch_lower", "stretch_ratio"),
    "matrix_oracle": ("BitBudgetExceeded", "IntMatrix", "MatrixBracket", "log_norm",
                      "spectral_radius"),
    "walk_engine": ("EstimateSeries", "ProbMeasure", "WalkPath", "furstenberg_experiment",
                    "guivarch_experiment", "sample_path"),
    "word_walks": ("conjugacy_growth_experiment", "drift_experiment",
                   "gromov_decay_experiment", "spectral_experiment"),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
