"""Sliding-window checks, guard words, and expurgation at a glance."""

import numpy as np

from winavc import ConstraintSet, expurgate, guard_word, verify_windows

gamma = ConstraintSet.weight_cap(0.25)

# A sequence is admissible when EVERY length-w window has a type inside the
# constraint set, not just the overall histogram.
good = [1, 0, 0, 0, 1, 0, 0, 0]
bad = [1, 1, 0, 0, 0, 0, 0, 0]  # same overall weight, but clustered
for seq in (good, bad):
    rep = verify_windows(seq, 4, gamma)
    print(seq, "->", "ok" if rep.valid else f"violation at start {rep.first_violation()}")

# Guard words realize a target type deterministically and keep every
# sufficiently long window close to it: within b/L in total variation.
counts = np.array([3, 1])
b = counts.sum()
gw = guard_word(counts, 20)
print()
print("guard word for type (3/4, 1/4), length 20:", gw.tolist())
print("base block length:", b)
for L in (4, 8, 16):
    worst = 0.0
    for start in range(gw.size - L + 1):
        win = gw[start : start + L]
        emp = np.bincount(win, minlength=2) / L
        worst = max(worst, 0.5 * np.abs(emp - counts / b).sum())
    print(f"  window length {L:2d}: worst TV deviation {worst:.4f} "
          f"(bound {b / L:.4f})")

# Random codebooks lose only the rare codeword whose windows fluctuate past
# the cap; the margin between the sampling law and the cap controls how rare.
rng = np.random.default_rng(0)
print()
for weight in (0.10, 0.15, 0.20):
    words = (rng.random((2000, 256)) < weight).astype(np.int8)
    _, stats = expurgate(words, 64, ConstraintSet.weight_cap(0.25))
    print(f"i.i.d. Bern({weight:.2f}) vs cap 0.25, w_x=64: "
          f"removed fraction {stats.removed_fraction:.4f}")

# Straddling windows matter too: a codeword can be clean internally yet
# violate a window that reaches into the following guard word.
word = np.zeros((1, 12), dtype=np.int8)
word[0, -1] = 1
suffix = np.array([1, 0, 0], dtype=np.int8)
_, alone = expurgate(word, 4, gamma)
_, with_suffix = expurgate(word, 4, gamma, suffix_context=suffix)
print()
print(f"codeword alone: removed {alone.removed}; "
      f"with straddle into [1,0,0]: removed {with_suffix.removed}")
