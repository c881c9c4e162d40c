"""Learn sparse mixtures of bit strings from deletion-channel traces.

The pipeline: unbiased moment estimators evaluated on a complex grid,
a conditioned Hankel (Prony) solve for elementary symmetric polynomial
values, recovery of their integer coefficients by weighted least squares
and rounding, exact integer factoring to read the support strings back
out, and one least-squares fit of the mixture weights, kept only if it
reproduces every moment estimate.
"""

from .core import (
    ProblemParams,
    BitString,
    SparseDistribution,
    ParameterError,
    eval_poly,
    tv_distance,
    power_sum,
)
from .channel import Trace, ChannelConfig, SubsampleConfig
from .recovery import RecoveryConfig, RecoveryResult, recover

__all__ = [
    "ProblemParams",
    "BitString",
    "SparseDistribution",
    "ParameterError",
    "eval_poly",
    "tv_distance",
    "power_sum",
    "Trace",
    "ChannelConfig",
    "SubsampleConfig",
    "RecoveryConfig",
    "RecoveryResult",
    "recover",
]
