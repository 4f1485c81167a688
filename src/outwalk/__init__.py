"""outwalk: Monte Carlo experiments on random walks over free-group
automorphisms and integer matrix groups, with exact word and matrix
arithmetic and certified stretch-factor brackets."""

from .free_group import (
    CyclicWord,
    Word,
    WordBudgetExceeded,
    cyclic_reduce,
    parse_word,
    reduce,
    word_to_str,
)
from .automorphisms import (
    Automorphism,
    InverseCheckError,
    abelianization,
    apply,
    compose,
    cyclic_images,
    identity_automorphism,
    invert,
    parse_automorphism,
)
from .outer_metric import (
    candidates,
    dist,
    log_stretch,
    sym_dist,
)
from .spectral import StretchBracket, bracket, stretch_lower, stretch_ratio
from .matrix_oracle import (
    BitBudgetExceeded,
    IntMatrix,
    MatrixBracket,
    log_norm,
    spectral_radius,
)
from .walk_engine import (
    EstimateSeries,
    ProbMeasure,
    WalkPath,
    conjugacy_growth_experiment,
    drift_experiment,
    furstenberg_experiment,
    gromov_decay_experiment,
    guivarch_experiment,
    sample_path,
    spectral_experiment,
)

__version__ = "0.1.0"
