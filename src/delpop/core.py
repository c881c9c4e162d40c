"""Problem parameters, bit strings, sparse mixtures, and the polynomial
encoding P(z; x) = sum_i x_i z^i.

Bits are indexed from 1: the coefficient of z^1 is the first bit.  A
SparseDistribution is a mixture of distinct n-bit strings with positive
weights summing to one; the support is kept sorted lexicographically so
equality and total-variation distance are canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class ParameterError(ValueError):
    """Invalid argument or configuration value."""


class RecoveryFailedError(RuntimeError):
    """No candidate distribution survived the pipeline."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CorruptInputError(RuntimeError):
    """The recovered characteristic polynomial does not split into distinct
    integer roots that decode to n-bit strings.  Noisy coefficients give
    this routinely, and the pipeline reports it as "factoring failed"."""


WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProblemParams:
    """Instance parameters: string length n, sparsity bound ell, retention
    probability p, target TV error eps.  No function of the package reads
    eps; the field stays, validated, because callers such as the benchmark
    harness, the envelope probe and the tests construct ProblemParams with
    it."""

    n: int
    ell: int
    p: float
    eps: float = 0.1

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.ell, int) and self.ell >= 1):
            raise ParameterError(f"ell must be a positive integer, got {self.ell!r}")
        if not (0.0 < self.p < 1.0):
            raise ParameterError(f"p must lie in (0,1), got {self.p!r}")
        if not (0.0 < self.eps < 1.0):
            raise ParameterError(f"eps must lie in (0,1), got {self.eps!r}")


@dataclass(frozen=True, order=True)
class BitString:
    """An n-bit string; bits[i] is x_{i+1} in the 1-based convention."""

    bits: tuple

    def __post_init__(self):
        if not all(b in (0, 1) for b in self.bits):
            raise ParameterError("bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def from_string(cls, s: str) -> "BitString":
        if not s or any(c not in "01" for c in s):
            raise ParameterError(f"not a bit string: {s!r}")
        return cls(tuple(int(c) for c in s))

    @property
    def n(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class SparseDistribution:
    """Mixture over distinct BitStrings with positive weights summing to 1.

    The constructor canonicalizes by sorting the support lexicographically
    (weights permuted along).  A weight sum off by more than 1e-12 is an
    error; silent renormalization is refused.
    """

    support: tuple
    weights: tuple

    def __post_init__(self):
        support = tuple(self.support)
        weights = tuple(float(a) for a in self.weights)
        if len(support) == 0:
            raise ParameterError("empty support")
        if len(support) != len(weights):
            raise ParameterError("support and weights lengths differ")
        ns = {x.n for x in support}
        if len(ns) != 1:
            raise ParameterError("support strings have differing lengths")
        if len(set(support)) != len(support):
            raise ParameterError("support strings must be distinct")
        if not all(a > 0 for a in weights):  # NaN fails too
            raise ParameterError("weights must be positive")
        total = sum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ParameterError(f"weights sum to {total}, not 1")
        order = sorted(range(len(support)), key=lambda i: support[i])
        object.__setattr__(self, "support", tuple(support[i] for i in order))
        object.__setattr__(self, "weights", tuple(weights[i] for i in order))

    @property
    def n(self) -> int:
        return self.support[0].n

    def prob(self, x: BitString) -> float:
        for xi, ai in zip(self.support, self.weights):
            if xi == x:
                return ai
        return 0.0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "support": [str(x) for x in self.support],
            "weights": list(self.weights),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SparseDistribution":
        try:
            n = obj["n"]
            if isinstance(n, bool) or not isinstance(n, (int, float)) or not float(n).is_integer():
                raise ValueError(f"n = {n!r} is not an integer")
            n = int(n)
            support = tuple(BitString.from_string(s) for s in obj["support"])
            weights = tuple(float(a) for a in obj["weights"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"malformed distribution object: {exc}")
        if any(x.n != n for x in support):
            raise ParameterError("support string length disagrees with n")
        return cls(support, weights)


def load_distribution(path) -> SparseDistribution:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParameterError(f"distribution file is not JSON: {exc}")
    return SparseDistribution.from_json_dict(obj)


def save_distribution(d: SparseDistribution, path) -> None:
    with open(path, "w") as fh:
        json.dump(d.to_json_dict(), fh, indent=2)
        fh.write("\n")


def eval_poly(x: BitString, z: complex) -> complex:
    """P(z; x) = sum_{i=1..n} x_i z^i, by Horner from the top coefficient."""
    acc = 0.0 + 0.0j
    for b in reversed(x.bits):
        acc = (acc + b) * z
    return acc


def tv_distance(d0: SparseDistribution, d1: SparseDistribution) -> float:
    """Total-variation distance: half the l1 gap over the support union."""
    if d0.n != d1.n:
        raise ParameterError("distributions over different string lengths")
    keys = set(d0.support) | set(d1.support)
    return 0.5 * sum(abs(d0.prob(x) - d1.prob(x)) for x in keys)


def power_sum(d: SparseDistribution, z: complex, k: int) -> complex:
    """b_k = sum_i a_i P(z; x^(i))^k; b_0 equals the weight sum (1)."""
    if k < 0:
        raise ParameterError("k must be nonnegative")
    return sum(a * eval_poly(x, z) ** k for x, a in zip(d.support, d.weights))
