"""One full transmission, phase by phase.

Message -> (message, hash) list-codeword | guard word | key codeword, then
the decoder walks it backwards: list-decode, recover the keys, keep the one
list entry whose hash checks out.
"""

import numpy as np

from winavc import (
    CodecParams,
    Distribution,
    bitflip_spec,
    build_three_phase_codec,
    hamming_budget,
)
from winavc.core import channel_sample_rows
from winavc.jammers import iid_jammer_rows

rng = np.random.default_rng(7)
# XOR channel, input weight <= 0.3 and state weight <= 0.05 in every 64-window
spec = bitflip_spec(0.3, 0.05, 704, 64, 64)
lam, xor, w_s = spec.lam, spec.channel, spec.w_s

params = CodecParams(
    layout="thm1", n1=512, message_bits=6, field_bits=6,
    p_x=Distribution.bernoulli(0.10), key_type=Distribution.bernoulli(0.12),
    key_len=128,
)
codec, build_stats = build_three_phase_codec(params, spec, rng)

plan = codec.plan
print(f"segments: list codeword {plan.n1} | guard {plan.phase2_len} | "
      f"keys {plan.phase3_len}  (total {plan.total_length})")
print(f"messages kept: {codec.message_count} of {build_stats['messages_built']} "
      f"(phase-1 removal {build_stats['phase1_removed_fraction']:.2%})")
print(f"key pairs kept: {codec.key_code.ids.size} of {build_stats['key_total']}")
# the key code decodes to its nearest codeword and keeps no budget of its own;
# this is the most corruption an admissible jammer can put on the key segment
key_radius = hamming_budget(plan.phase3_len, w_s, lam).radius
print(f"decoding budgets: phase-1 radius {codec.budget1.radius}, "
      f"key radius {key_radius}")

m = codec.draw_message(rng)
r1, r2 = codec.key_code.draw_keys(rng)
x = codec.encode_rows([m], [r1], [r2])[0]
print(f"\nsent message id {int(codec.message_ids[m])} with keys (r1, r2) = ({r1}, {r2})")

jam = iid_jammer_rows(Distribution.bernoulli(0.04), plan.total_length, w_s, lam, [rng])[0]
print(f"jammer: i.i.d. Bern(0.04), accepted after {jam.rejections} rejected draws, "
      f"{int(jam.states.sum())} flips")

y = channel_sample_rows([x], [jam.states], xor, [rng])
res = codec.decode_rows(y)[0]
print(f"\ndecode: status={res.status}, message id {res.message_id}, "
      f"keys {res.keys}, list size {res.list_size}")
assert res.message_id == int(codec.message_ids[m])

# Push the jammer to his absolute window budget: 3 flips per disjoint
# 64-window, everywhere.  Decoding still succeeds: that is the point of
# the budget-ball radius.
s = np.zeros(plan.total_length, dtype=np.int8)
for base in range(0, plan.total_length - w_s + 1, w_s):
    s[base + rng.choice(w_s, size=3, replace=False)] = 1
res = codec.decode_rows([x ^ s])[0]
print(f"\nunder maximal admissible jamming ({int(s.sum())} flips): "
      f"status={res.status}, message id {res.message_id}")
assert res.message_id == int(codec.message_ids[m])
