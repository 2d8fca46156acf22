"""Capacity of the weight-constrained bit-flip channel, two ways.

The max-min solver should land on H(p * w) - H(p): the jammer's best move
is to act like a binary symmetric channel at his full weight budget, and
the encoder's best input law sits at her full weight budget.
"""

import numpy as np

from winavc import (
    Channel,
    ConstraintSet,
    bitflip_list_capacity,
    list_capacity,
    oblivious_capacity,
)

xor = Channel.xor()

print("input cap w | state cap p | solver    | closed form | upper - lower")
print("-" * 68)
for w in (0.1, 0.2, 0.3, 0.4):
    for p in (0.05, 0.15, 0.25):
        res = list_capacity(
            ConstraintSet.weight_cap(w), ConstraintSet.weight_cap(p), xor
        )
        closed = bitflip_list_capacity(w, p)
        print(
            f"{w:11.2f} | {p:11.2f} | {res.value:.6f} | {closed:.6f}   | "
            f"{res.upper - res.lower:.2e}"
        )

# The optimizing laws sit at the caps: the encoder spends her whole budget,
# the jammer spends his.
res = list_capacity(ConstraintSet.weight_cap(0.3), ConstraintSet.weight_cap(0.1), xor)
print()
print("at (w, p) = (0.3, 0.1):")
print("  argmax input law :", np.round(res.argmax_px.probs, 6))
print("  argmin state law :", np.round(res.argmin_qs.probs, 6))

# Unique decoding pays when the best input law is spoofable: with w <= p
# every admissible input is symmetrizable and the restricted capacity is 0.
for w, p in ((0.2, 0.1), (0.1, 0.2)):
    obl = oblivious_capacity(
        ConstraintSet.weight_cap(w), ConstraintSet.weight_cap(p), xor
    )
    tag = " (all admissible inputs symmetrizable)" if obl.all_symmetrizable_evidence else ""
    print(f"unique-decoding capacity at (w={w}, p={p}): {obl.value:.6f}{tag}")
