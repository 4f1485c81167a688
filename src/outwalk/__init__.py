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
    FiniteMetricSample,
    candidates,
    dist,
    four_point_delta,
    gromov_product,
    highness_ratio,
    log_stretch,
    sym_dist,
)
from .spectral import StretchBracket, bracket, stretch_lower, stretch_ratio, stretch_upper
from .matrix_oracle import (
    BitBudgetExceeded,
    IntMatrix,
    MatrixBracket,
    guivarch_series,
    log_norm,
    mat_mul,
    spectral_radius,
    vector_growth,
)
from .walk_engine import (
    EstimateSeries,
    ProbMeasure,
    WalkPath,
    conjugacy_growth_experiment,
    drift_experiment,
    gromov_decay_experiment,
    matrix_experiments,
    sample_path,
    spectral_experiment,
)

__version__ = "0.1.0"
