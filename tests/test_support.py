import numpy as np
import pytest

from delpop.coeffs import SymmetricPolynomial
from delpop.core import BitString, CorruptInputError, ParameterError
from delpop.support import (
    EncodedSupport,
    MonicIntegerPolynomial,
    assemble_char_poly,
    decode_string,
    decode_support,
    encode_string,
    eval_int,
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


def test_encoded_support_distinctness():
    with pytest.raises(CorruptInputError):
        EncodedSupport((4, 4))
    with pytest.raises(CorruptInputError):
        EncodedSupport((-2,))


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
    assert integer_roots(MonicIntegerPolynomial((-5, 1)), 4).encodings == (5,)
    got = integer_roots(MonicIntegerPolynomial((8, -6, 1)), 4)
    assert got.encodings == (2, 4)
    got = integer_roots(MonicIntegerPolynomial((6, -5, 1)), 2)
    assert got.encodings == (2, 3)


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
