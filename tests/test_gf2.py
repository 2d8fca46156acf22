"""Field arithmetic: the product tables against a carry-less reference."""

import numpy as np
import pytest

from winavc import gf2
from winavc.codec import HashParams, poly_hash

FIELD_BITS = range(1, gf2.MAX_FIELD_BITS + 1)


def clmul(a: int, b: int) -> int:
    """Carry-less product of two polynomials over GF(2)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def clmod(a: int, mod: int) -> int:
    """Remainder of one polynomial modulo another over GF(2)."""
    while a.bit_length() >= mod.bit_length():
        a ^= mod << (a.bit_length() - mod.bit_length())
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, clmod(a, b)
    return a


def x_pow_2e(e: int, f: int) -> int:
    v = 0b10
    for _ in range(e):
        v = clmod(clmul(v, v), f)
    return v


def is_irreducible(f: int, n: int) -> bool:
    """Rabin's criterion over GF(2)."""
    if x_pow_2e(n, f) != clmod(0b10, f):
        return False
    factors = set()
    m, d = n, 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    return all(poly_gcd(x_pow_2e(n // p, f) ^ 0b10, f) == 1 for p in factors)


def test_all_reduction_polys_irreducible():
    assert sorted(gf2.REDUCTION_POLY) == list(FIELD_BITS)
    for k, f in gf2.REDUCTION_POLY.items():
        assert f.bit_length() == k + 1
        if k == 1:
            continue  # degree-1 moduli are trivially irreducible
        assert is_irreducible(f, k), f"degree {k} modulus {f:#x}"


def test_clmul_basics():
    assert clmul(0b11, 0b11) == 0b101  # (x+1)^2 = x^2 + 1 over GF(2)
    assert clmul(0, 0b1011) == 0
    assert clmod(0b100, 0b111) == 0b11  # x^2 mod (x^2+x+1) = x+1


@pytest.mark.parametrize("k", FIELD_BITS)
def test_table_matches_carryless_reference(k):
    q = 1 << k
    mul = gf2.mul_table(k)
    assert mul.shape == (q, q) and mul.dtype == np.uint8
    expect = [[clmod(clmul(a, b), gf2.REDUCTION_POLY[k]) for b in range(q)] for a in range(q)]
    assert np.array_equal(mul, expect)


@pytest.mark.parametrize("k", FIELD_BITS)
def test_field_axioms_exhaustive(k):
    mul = gf2.mul_table(k)
    elems = np.arange(1 << k)
    assert np.array_equal(mul[:, 1], elems)
    assert not mul[:, 0].any()
    assert np.array_equal(mul, mul.T)
    sums = elems[:, None] ^ elems[None, :]  # b + c for every pair
    for a in elems:
        row = mul[a]
        assert np.array_equal(row[mul], mul[row])  # a(bc) = (ab)c
        assert np.array_equal(row[sums], row[:, None] ^ row[None, :])  # a(b+c) = ab + ac


@pytest.mark.parametrize("k", FIELD_BITS)
def test_every_nonzero_element_invertible(k):
    # no zero divisors: each nonzero row permutes 1..q-1, so it holds a 1
    q = 1 << k
    assert np.array_equal(np.sort(gf2.mul_table(k)[1:, 1:], axis=1),
                          np.broadcast_to(np.arange(1, q), (q - 1, q - 1)))


def test_degrees_outside_one_to_eight_rejected():
    for k in (0, 9, 16):
        with pytest.raises(ValueError, match="field degree"):
            gf2.mul_table(k)
    with pytest.raises(ValueError):
        gf2.mul_table(4)[0, 0] = 1  # the cached table is read-only


def test_element_validation():
    hp = HashParams(field_bits=4, chunk_count=2)
    for chunks, r1, r2 in (([16, 1], 0, 1), ([1, -1], 0, 1), ([1, 1], 16, 1),
                           ([1, 1], 0, -1), ([1.5, 1], 0, 1)):
        with pytest.raises(ValueError):
            poly_hash(chunks, r1, r2, hp)
