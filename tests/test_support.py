import numpy as np
import pytest

from delpop import support
from delpop.coeffs import SymmetricPolynomial
from delpop.core import BitString, CorruptInputError, ParameterError
from delpop.support import (
    MonicIntegerPolynomial,
    assemble_char_poly,
    decode_string,
    decode_support,
    encode_string,
    eval_int,
    factor_support,
    integer_roots,
)
from oracles import exact_sigma_coeffs, random_bitstring, random_support


def test_encode_examples():
    assert encode_string(BitString.from_string("10")) == 2
    assert encode_string(BitString.from_string("1010")) == 2 + 8
    assert encode_string(BitString.from_string("0000")) == 0


def test_decode_examples():
    assert decode_string(0, 3) == BitString.from_string("000")
    assert decode_string(2, 2) == BitString.from_string("10")
    assert decode_string(10, 4) == BitString.from_string("1010")


def test_decode_rejects_bad_encodings():
    with pytest.raises(CorruptInputError):
        decode_string(3, 4)  # bit 0 set
    with pytest.raises(CorruptInputError):
        decode_string(1 << 6, 4)  # out of range for n = 4
    with pytest.raises(CorruptInputError):
        decode_string(-2, 4)


def test_encode_decode_roundtrip_large_n():
    rng = np.random.default_rng(13)
    for n in (1, 7, 33, 100, 256):
        for _ in range(10):
            x = random_bitstring(rng, n)
            assert decode_string(encode_string(x), n) == x


def test_monic_polynomial_validation():
    MonicIntegerPolynomial((-6, 1))
    with pytest.raises(ParameterError):
        MonicIntegerPolynomial((1, 2))
    with pytest.raises(ParameterError):
        MonicIntegerPolynomial(())


def test_assemble_char_poly_single():
    s1 = SymmetricPolynomial(1, (0, 1, 0, 1))  # sigma_1(2) = 2 + 8 = 10
    poly = assemble_char_poly([s1])
    assert poly.coeffs == (-10, 1)


def test_assemble_char_poly_cross_pair():
    # support {10, 01}: sigma_1(2) = 6, sigma_2(2) = 8 -> z^2 - 6 z + 8
    s1 = SymmetricPolynomial(1, (0, 1, 1))
    s2 = SymmetricPolynomial(2, (0, 0, 0, 1))
    poly = assemble_char_poly([s1, s2])
    assert poly.coeffs == (8, -6, 1)
    # signs alternate per Vieta with nonnegative roots
    signs = [c for c in reversed(poly.coeffs) if c != 0]
    assert all((a > 0) != (b > 0) for a, b in zip(signs, signs[1:]))


def test_assemble_rejects_out_of_order_sigmas():
    s2 = SymmetricPolynomial(2, (0, 0, 0, 1))
    with pytest.raises(ParameterError):
        assemble_char_poly([s2])


def test_integer_roots_examples():
    assert integer_roots(MonicIntegerPolynomial((-5, 1)), 4) == (5,)
    assert integer_roots(MonicIntegerPolynomial((8, -6, 1)), 4) == (2, 4)
    assert integer_roots(MonicIntegerPolynomial((6, -5, 1)), 2) == (2, 3)


def test_integer_roots_rejects_non_splitting_input():
    with pytest.raises(CorruptInputError):
        integer_roots(MonicIntegerPolynomial((7, -6, 1)), 4)  # roots not integers
    with pytest.raises(CorruptInputError):
        integer_roots(MonicIntegerPolynomial((4, -4, 1)), 4)  # repeated root 2


def test_char_poly_vanishes_on_encodings():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        lp = int(rng.integers(1, min(5, 2 ** n - 1) + 1))
        support = random_support(rng, n, lp)
        sigmas = [
            SymmetricPolynomial(k, exact_sigma_coeffs(support, k, n))
            for k in range(1, lp + 1)
        ]
        char = assemble_char_poly(sigmas)
        for x in support:
            assert eval_int(char.coeffs, encode_string(x)) == 0


def test_full_roundtrip_random_sets():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(2, 65))
        lp = int(rng.integers(1, min(5, 2 ** n) + 1))
        support = random_support(rng, n, lp)
        sigmas = [
            SymmetricPolynomial(k, exact_sigma_coeffs(support, k, n))
            for k in range(1, lp + 1)
        ]
        char = assemble_char_poly(sigmas)
        enc = integer_roots(char, n)
        assert decode_support(enc, n) == support
        assert factor_support(sigmas, n) == support


def _poly_with_roots(roots):
    """Ascending coefficients of prod (z - r)."""
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return MonicIntegerPolynomial(tuple(coeffs))


def _step_cap(degree, n):
    """Newton steps integer_roots may take over all roots of a degree-d
    polynomial: d' * (n + 2) + 1 for the quotient of each degree d'."""
    return sum(d * (n + 2) + 1 for d in range(1, degree + 1))


@pytest.fixture
def newton_steps(monkeypatch):
    """Counts the exact evaluations integer_roots makes, one per step."""
    steps = [0]
    evaluate = support._value_and_slope

    def counted(coeffs, x):
        steps[0] += 1
        return evaluate(coeffs, x)

    monkeypatch.setattr(support, "_value_and_slope", counted)
    return steps


def test_integer_roots_returns_the_encodings_it_was_built_from(newton_steps):
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 65))
        lp = int(rng.integers(1, min(6, 2 ** n) + 1))
        encodings = sorted(encode_string(x) for x in random_support(rng, n, lp))
        newton_steps[0] = 0
        assert integer_roots(_poly_with_roots(encodings), n) == tuple(encodings)
        assert newton_steps[0] <= _step_cap(lp, n)


_NO_ROOT = "no exact integer root"


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ((1, 0, 1), _NO_ROOT),  # z^2 + 1: no real root
        ((7, -6, 1), _NO_ROOT),  # irrational roots 3 +- sqrt(2)
        ((-32, 1), _NO_ROOT),  # root 2^(n+1)
        ((4, 1), _NO_ROOT),  # negative root
        ((4, -4, 1), "repeated root"),  # (z - 2)^2
        ((-4, 1, -4, 1), _NO_ROOT),  # (z - 4)(z^2 + 1)
    ],
)
def test_integer_roots_stops_on_corrupt_input_within_the_step_cap(coeffs, message, newton_steps):
    n = 4
    with pytest.raises(CorruptInputError, match=message):
        integer_roots(MonicIntegerPolynomial(coeffs), n)
    assert newton_steps[0] <= _step_cap(len(coeffs) - 1, n)


def test_integer_roots_fails_after_dividing_out_the_integer_root(monkeypatch):
    # (z - 4)(z^2 + 1): 4 is found and divided out, then z^2 + 1 fails
    quotients = []
    deflate = support._deflate

    def recorded(coeffs, root):
        quotients.append(deflate(coeffs, root))
        return quotients[-1]

    monkeypatch.setattr(support, "_deflate", recorded)
    with pytest.raises(CorruptInputError, match="no exact integer root"):
        integer_roots(MonicIntegerPolynomial((-4, 1, -4, 1)), 4)
    assert quotients == [[1, 0, 1]]
