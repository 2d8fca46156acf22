"""GF(2^k) multiplication tables for the polynomial hash, k = 1..8.

A product is the carry-less (shift-xor) product of the operands reduced
modulo a fixed irreducible polynomial per field size, so the modulus fixes
every product.  mul_table(k) holds all of them; addition is xor.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_FIELD_BITS = 8

# Low-weight irreducible polynomials, one per degree (bitmask includes the
# leading term).  The test suite checks that each table has no zero divisors.
REDUCTION_POLY = {
    1: 0b10,            # x
    2: 0b111,           # x^2 + x + 1
    3: 0b1011,          # x^3 + x + 1
    4: 0b10011,         # x^4 + x + 1
    5: 0b100101,        # x^5 + x^2 + 1
    6: 0b1000011,       # x^6 + x + 1
    7: 0b10000011,      # x^7 + x + 1
    8: 0x11B,           # x^8 + x^4 + x^3 + x + 1
}


@functools.cache
def mul_table(k: int) -> np.ndarray:
    """Read-only (2^k, 2^k) uint8 table of products: mul_table(k)[a, b] = a*b."""
    if k not in REDUCTION_POLY:
        raise ValueError(f"field degree must be in 1..{MAX_FIELD_BITS}, got {k}")
    elems = np.arange(1 << k, dtype=np.int32)
    a, b = elems[:, None], elems[None, :]
    prod = np.zeros((elems.size, elems.size), dtype=np.int32)
    for i in range(k):
        prod ^= np.where((b >> i) & 1, a << i, 0)
    # clear the degrees k..2k-2 from the top down
    for d in range(2 * k - 2, k - 1, -1):
        prod ^= np.where((prod >> d) & 1, REDUCTION_POLY[k] << (d - k), 0)
    table = prod.astype(np.uint8)
    table.setflags(write=False)
    return table
