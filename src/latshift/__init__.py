"""Randomized rank-1 lattice quadrature with exact finite-bit analysis.

The package builds rank-1 lattice rules in exact dyadic arithmetic,
randomizes them three ways (idealized real shifts, finite-bit grid shifts,
and scalar index shifts into an embedded extension), computes the exact
bias/variance/third-moment of the finite randomizations by exhaustive
enumeration, cross-checks everything against dual-lattice Fourier series,
and searches for generating vectors that do well at both embedded levels.
"""

from .bits import (
    BitSource,
    FileBitSource,
    OsEntropyBitSource,
    SeededBitSource,
    load_bit_file,
    parse_bit_source,
)
from .cbc import EmbeddedMerit, MeritValue, cbc_construct, embedded_merit, merit
from .dual import (
    CumulantSet,
    SeriesResult,
    TruncationBox,
    cp_variance_series,
    dual_points,
    mean_cumulants,
    shift_error_series,
    third_moment_series,
)
from .errors import BitsExhaustedError, GuardLimitError, IdentityCheckError
from .functions import PeriodicFunction, ProductBernoulliFn, bernoulli2
from .lattice import DyadicPoint, EmbeddedPair, GeneratingVector, Rank1Rule, korobov_vector
from .moments import (
    MomentReport,
    extended_rule_value,
    moments_grid_shift,
    moments_scalar_shift,
    rectangle_rule_mean,
)
from .shifts import (
    GridShift,
    RealShift,
    ReplicateEstimate,
    ScalarShift,
    estimate_mean,
    eval_grid_shifted,
    eval_real_shifted,
    eval_rule,
    eval_scalar_shifted,
    grid_evaluator,
    scalar_evaluator,
)

__version__ = "0.1.0"

__all__ = [
    "BitSource",
    "BitsExhaustedError",
    "CumulantSet",
    "DyadicPoint",
    "EmbeddedMerit",
    "EmbeddedPair",
    "FileBitSource",
    "GeneratingVector",
    "GridShift",
    "GuardLimitError",
    "IdentityCheckError",
    "MeritValue",
    "MomentReport",
    "OsEntropyBitSource",
    "PeriodicFunction",
    "ProductBernoulliFn",
    "Rank1Rule",
    "RealShift",
    "ReplicateEstimate",
    "ScalarShift",
    "SeededBitSource",
    "SeriesResult",
    "TruncationBox",
    "bernoulli2",
    "cbc_construct",
    "cp_variance_series",
    "dual_points",
    "embedded_merit",
    "estimate_mean",
    "eval_grid_shifted",
    "eval_real_shifted",
    "eval_rule",
    "eval_scalar_shifted",
    "extended_rule_value",
    "grid_evaluator",
    "korobov_vector",
    "load_bit_file",
    "mean_cumulants",
    "merit",
    "moments_grid_shift",
    "moments_scalar_shift",
    "parse_bit_source",
    "rectangle_rule_mean",
    "scalar_evaluator",
    "shift_error_series",
    "third_moment_series",
]
