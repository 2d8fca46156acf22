"""The interleaved buffer layout for jammer windows shorter than encoder windows.

When the jammer's windows are shorter than the encoder's, alpha = w_s/w_x
<= 1, the buffer phases mix a heavy type-1 law (admissible only on the
ratio-enlarged input set) with a cheap type-2 law so that every encoder
window still averages out inside the input set, while every jammer-length
sub-window of key material stays informative.  Each window holds w_s type-1
and w_x - w_s type-2 symbols; the window lengths alone fix the layout.
"""

import math

import numpy as np

from winavc import Distribution, interleave_allocation
from winavc.codec import CodecParams, make_phase_plan, type1_window_fractions

w_x, w_s, lam_frac = 16, 8, 0.25
alpha = w_s / w_x

print(f"w_x={w_x}, alpha={alpha}, lambda={lam_frac} "
      f"(l = {round(lam_frac * w_s)})\n")
print("buffer windows ramp the type-1 block in, one l-step per window:")
for i in range(5):
    s1, _ = interleave_allocation(w_x, w_s, lam_frac, i)
    row = ["1" if j in set(s1.tolist()) else "." for j in range(w_x)]
    print(f"  window {i}: {''.join(row)}")
s1, _ = interleave_allocation(w_x, w_s, lam_frac, math.ceil(1 / lam_frac))
row = ["1" if j in set(s1.tolist()) else "." for j in range(w_x)]
print(f"  key phase: {''.join(row)}  (block rule)")

# only the layout fields shape the plan; the laws here are placeholders
plan = make_phase_plan(CodecParams(
    layout="thm2", n1=64, message_bits=4,
    p_x=Distribution.bernoulli(0.1), lam_frac=lam_frac,
    t1=Distribution.bernoulli(0.25), t2=Distribution.bernoulli(0.125),
    key_len=w_s,
), w_x, w_s)
fr = type1_window_fractions(plan)
print(f"\nsliding type-1 fraction over the whole buffer+key region:")
print(f"  min {fr.min():.4f}  max {fr.max():.4f}  "
      f"(claimed range [{alpha}, {alpha * (1 + lam_frac)}])")

hist, edges = np.histogram(fr, bins=6, range=(alpha, alpha * (1 + lam_frac)))
for h, lo, hi in zip(hist, edges, edges[1:]):
    print(f"  [{lo:.3f}, {hi:.3f}): {'#' * int(1 + 40 * h / fr.size)} {h}")
