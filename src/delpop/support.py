"""From symmetric polynomials to support strings, exactly.

Each string x maps to the integer y = P(2; x) = sum_i x_i 2^i — its own
binary expansion shifted up one bit.  The recovered sigma_k evaluated at
z = 2 are the elementary symmetric functions of the y's, so

    f(z) = prod_i (z - y_i) = z^l - Q_1(2) z^(l-1) + ... + (-1)^l Q_l(2)

is a monic integer polynomial with distinct nonnegative integer roots
below 2^(n+1).  The roots are found in Python integers alone, largest
first, by Newton's method from above.  All roots of f, f' and f'' lie at
or below the largest root, so above it f is positive, increasing and
convex: each Newton step x <- x - max(floor(f(x)/f'(x)), 1) stays at or
above that integer root and reaches it exactly.  The root is divided out
exactly and the search restarts from it on the quotient.  Input that
breaks the promise — f(x) < 0, f'(x) <= 0 or x < 0 along the way, a
repeated root, or no root within the step cap — was recovered wrongly
upstream and is reported as corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BitString, CorruptInputError, ParameterError
from .coeffs import SymmetricPolynomial


@dataclass(frozen=True)
class MonicIntegerPolynomial:
    """coeffs[i] is the z^i coefficient; leading coefficient must be 1."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        if not cs or cs[-1] != 1:
            raise ParameterError("polynomial must be monic")
        object.__setattr__(self, "coeffs", cs)


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


def _value_and_slope(coeffs, x: int):
    """f(x) and f'(x), exactly, in one Horner pass over the ascending
    coefficients `coeffs`."""
    f = df = 0
    for c in reversed(coeffs):
        df = df * x + f
        f = f * x + c
    return f, df


def _largest_root(coeffs, x: int, steps: int):
    """The largest root of `coeffs` by at most `steps` integer Newton steps
    down from x, which must be at or above it; None when the polynomial
    shows that its roots are not all real with an integer largest root."""
    for _ in range(steps):
        if x < 0:
            return None
        f, df = _value_and_slope(coeffs, x)
        if f == 0:
            return x
        if f < 0 or df <= 0:
            return None
        x -= max(f // df, 1)
    return None


def integer_roots(poly: MonicIntegerPolynomial, n: int) -> tuple:
    """All roots of a monic polynomial promised to split into distinct
    linear factors over the nonnegative integers (each root < 2^(n+1)),
    as a sorted tuple of distinct ints.

    Roots come largest first.  Each search starts at the smaller of the
    Cauchy bound 1 + max|c_i| and the last root found (2^(n+1) - 1 for the
    first), so it can only find a root in range.  At degree d, f/f' is at
    least 1/d of the distance to the largest root, so a step shrinks the
    distance's excess over d to under 1 - 1/d of itself; below d + 1,
    each step takes at least one off.  So d * (n + 2) + 1 steps, d times
    the bit length of 2^(n+1) plus one, always suffice; input that does
    not split so is corrupt."""
    coeffs = list(poly.coeffs)
    limit = 1 << (n + 1)
    hi = limit - 1
    roots = []
    while len(coeffs) > 1:
        start = min(1 + max(abs(c) for c in coeffs[:-1]), hi)
        found = _largest_root(coeffs, start, (len(coeffs) - 1) * limit.bit_length() + 1)
        if found is None:
            raise CorruptInputError("no exact integer root located; upstream recovery wrong")
        if found in roots:
            raise CorruptInputError("repeated root; support strings must be distinct")
        roots.append(found)
        coeffs = _deflate(coeffs, found)
        hi = found
    return tuple(sorted(roots))


def decode_support(encodings, n: int):
    """Decode the integers y_i = P(2; x^(i)) that `integer_roots` returns;
    output sorted lexicographically by string."""
    return tuple(sorted(decode_string(y, n) for y in encodings))


def factor_support(sigmas, n: int):
    """The support strings of sigma_1..sigma_l', read from the integer
    roots of their characteristic polynomial; raises CorruptInputError
    when it does not split into distinct encodings of n-bit strings."""
    return decode_support(integer_roots(assemble_char_poly(sigmas), n), n)
