"""Learn sparse mixtures of bit strings from deletion-channel traces.

The pipeline: unbiased moment estimators evaluated on a complex grid,
one integer least-squares solve of the joint Prony system for the
integer coefficients of the elementary symmetric polynomials, exact
integer factoring to read the support strings back out, and one
least-squares fit of the mixture weights, kept only if it reproduces
every moment estimate.
"""

from .core import (
    ProblemParams,
    BitString,
    SparseDistribution,
    ParameterError,
    tv_distance,
)
from .channel import ChannelConfig
from .recovery import RecoveryConfig, RecoveryResult, recover

__all__ = [
    "ProblemParams",
    "BitString",
    "SparseDistribution",
    "ParameterError",
    "tv_distance",
    "ChannelConfig",
    "RecoveryConfig",
    "RecoveryResult",
    "recover",
]
