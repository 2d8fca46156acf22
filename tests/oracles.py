"""Closed-form oracles and reference computations that the tests check the solvers against."""

from winavc.core import Channel, Distribution, _mi_from_induced, induced_channel


def bitflip_symmetrizable(w: float, p: float) -> bool:
    """Closed-form oracle for the weight-constrained XOR channel.

    The dominant input type Bern(w) is symmetrizable exactly when w <= p
    (boundary included); both weights must be below 1/2.
    """
    if not (0.0 <= w < 0.5 and 0.0 <= p < 0.5):
        raise ValueError(f"weights must lie in [0, 0.5), got w={w}, p={p}")
    return w <= p


def mutual_information(p_x: Distribution, q_s: Distribution, channel: Channel) -> float:
    """I(x; y) in bits under the product law P_x Q_s W(y|x,s)."""
    if p_x.size != channel.num_inputs:
        raise ValueError("input distribution does not match channel")
    return _mi_from_induced(p_x.probs, induced_channel(q_s, channel))
