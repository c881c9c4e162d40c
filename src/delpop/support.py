"""From symmetric polynomials to support strings, exactly.

Each string x maps to the integer y = P(2; x) = sum_i x_i 2^i — its own
binary expansion shifted up one bit.  The recovered sigma_k evaluated at
z = 2 are the elementary symmetric functions of the y's, so

    prod_i (z - y_i) = z^l - Q_1(2) z^(l-1) + ... + (-1)^l Q_l(2)

is a monic integer polynomial with distinct nonnegative integer roots.
Roots are recovered with exact big-integer arithmetic: each root found by
a high-precision solver is rounded to the nearest integer, checked exactly
by Horner's rule, and divided out exactly before the next root is sought.
A rounded root that does not check, or a repeated root, means upstream
recovery was wrong and is reported as corrupt input.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .core import BitString, CorruptInputError, ParameterError
from .coeffs import SymmetricPolynomial


@dataclass(frozen=True)
class EncodedSupport:
    """Distinct integers y_i = P(2; x^(i)); bit 0 of each is always 0."""

    encodings: tuple

    def __post_init__(self):
        ys = tuple(int(y) for y in self.encodings)
        if len(set(ys)) != len(ys):
            raise CorruptInputError("encodings must be pairwise distinct")
        if any(y < 0 for y in ys):
            raise CorruptInputError("encodings must be nonnegative")
        object.__setattr__(self, "encodings", ys)


@dataclass(frozen=True)
class MonicIntegerPolynomial:
    """coeffs[i] is the z^i coefficient; leading coefficient must be 1."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        if not cs or cs[-1] != 1:
            raise ParameterError("polynomial must be monic")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def eval_int(coeffs, x: int) -> int:
    """Exact value at integer x of the polynomial with ascending integer
    coefficients `coeffs`, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def encode_string(x: BitString) -> int:
    """y = P(2; x) = sum_i x_i 2^i, exactly."""
    y = 0
    for i, b in enumerate(x.bits, start=1):
        if b:
            y += 1 << i
    return y


def decode_string(y: int, n: int) -> BitString:
    """Read bits 1..n of y; bit 0 must be 0 and y must fit in n bits."""
    y = int(y)
    if y < 0 or y > (1 << (n + 1)) - 2:
        raise CorruptInputError(f"encoding {y} out of range for n={n}")
    if y & 1:
        raise CorruptInputError(f"encoding {y} has bit 0 set")
    return BitString(tuple((y >> i) & 1 for i in range(1, n + 1)))


def assemble_char_poly(sigmas) -> MonicIntegerPolynomial:
    """z^l - Q_1(2) z^(l-1) + ... + (-1)^l Q_l(2), with each Q_k = sigma_k
    evaluated at 2 in exact integer arithmetic."""
    sigmas = list(sigmas)
    lp = len(sigmas)
    for k, s in enumerate(sigmas, start=1):
        if not isinstance(s, SymmetricPolynomial) or s.k != k:
            raise ParameterError("sigmas must be sigma_1..sigma_l in order")
    coeffs = [0] * (lp + 1)
    coeffs[lp] = 1
    for k, s in enumerate(sigmas, start=1):
        coeffs[lp - k] = (-1) ** k * eval_int(s.coeffs, 2)
    return MonicIntegerPolynomial(tuple(coeffs))


def _deflate(coeffs, root):
    """Quotient of the ascending coefficients `coeffs` by (z - root), by
    synthetic division; exact when root is a root."""
    d = len(coeffs) - 1
    quot = [0] * d
    quot[d - 1] = coeffs[d]
    for i in range(d - 1, 0, -1):
        quot[i - 1] = coeffs[i] + root * quot[i]
    return quot


def _approx_roots(coeffs):
    """The roots of the polynomial with ascending integer coefficients
    `coeffs`, each rounded to the nearest integer."""
    bits = max(int(c).bit_length() for c in coeffs)
    with mpmath.workdps(40 + bits):
        roots = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(coeffs)], maxsteps=500, extraprec=200
        )
        return sorted(int(mpmath.nint(mpmath.re(r))) for r in roots)


def integer_roots(poly: MonicIntegerPolynomial, n: int) -> EncodedSupport:
    """All roots of a monic polynomial promised to split into distinct
    linear factors over the nonnegative integers (each root < 2^(n+1)).
    Each rounded approximate root in that range is checked exactly and
    divided out; input that does not split so is corrupt."""
    coeffs = list(poly.coeffs)
    limit = 1 << (n + 1)
    roots = []
    while len(coeffs) > 1:
        found = next(
            (y for y in _approx_roots(coeffs) if 0 <= y < limit and eval_int(coeffs, y) == 0),
            None,
        )
        if found is None:
            raise CorruptInputError("no exact integer root located; upstream recovery wrong")
        if found in roots:
            raise CorruptInputError("repeated root; support strings must be distinct")
        roots.append(found)
        coeffs = _deflate(coeffs, found)
    return EncodedSupport(tuple(sorted(roots)))


def decode_support(enc: EncodedSupport, n: int):
    """Decode all encodings; output sorted lexicographically by string."""
    return tuple(sorted(decode_string(y, n) for y in enc.encodings))
