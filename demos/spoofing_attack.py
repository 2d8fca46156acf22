"""Why the weight budgets decide everything: the spoofing attack, both ways.

If codewords are admissible state sequences (w <= p), the jammer replays a
random codeword and the receiver faces two equally plausible transmissions;
no code at positive rate survives.  If w > p the same move violates his
window budget and he forfeits.
"""

from winavc import (
    CodecParams,
    Distribution,
    ExperimentConfig,
    JammerParams,
    bitflip_spec,
    run_trials,
)


def experiment(w, p, jam_kind, **code_kw):
    spec = bitflip_spec(w, p, 640, 128, 128)
    code = CodecParams(
        layout="thm1", n1=256, message_bits=4, field_bits=3,
        key_len=128, **code_kw,
    )
    config = ExperimentConfig(
        spec=spec, code=code, jammer=JammerParams(kind=jam_kind),
        trials=400, master_seed=99,
    )
    return run_trials(config, keep_records=False)


# Symmetrizable regime: the encoder's budget (5%) is inside the jammer's
# (10%), so codewords are themselves admissible jamming sequences.  The
# key phase cannot be protected either; we build it anyway to watch the
# attack land.
weak = dict(
    p_x=Distribution.bernoulli(0.02),
    key_type=Distribution.bernoulli(0.02),
    allow_symmetrizable_key_type=True,
)
stats = experiment(0.05, 0.1, "spoof", **weak)
print("symmetrizable regime (w=0.05 <= p=0.1), spoof jammer:")
print(f"  forfeits: {stats.jam_forfeits}/400   average error: {stats.err_avg:.3f}")
print(f"  outcomes: {stats.outcome_counts}")

stats = experiment(0.05, 0.1, "symmetrize", **weak)
print("\nsame regime, symmetrizing jammer (LP witness map):")
print(f"  average error: {stats.err_avg:.3f}")

# Even a silent jammer leaves the decoder ambiguous here: every admissible
# codeword pair sits within twice the jamming budget, so the budget ball
# around any output contains rivals.  Decoding integrity is structurally
# gone, which is exactly why this regime has zero capacity.
stats = experiment(0.05, 0.1, "none", **weak)
print(f"\nsame code, silent jammer: average error {stats.err_avg:.3f}")
print(f"  outcomes: {stats.outcome_counts}")

# Non-symmetrizable regime: the identical attack is inadmissible, so the
# jammer forfeits every trial and the decoder never errs.
strong = dict(
    p_x=Distribution.bernoulli(0.10),
    key_type=Distribution.bernoulli(0.12),
)
stats = experiment(0.3, 0.05, "spoof", **strong)
print("\nnon-symmetrizable regime (w=0.3 > p=0.05), spoof jammer:")
print(f"  forfeits: {stats.jam_forfeits}/400   average error: {stats.err_avg:.3f}")
