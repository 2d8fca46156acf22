"""Closed-form oracles that the tests check the solvers against."""


def bitflip_symmetrizable(w: float, p: float) -> bool:
    """Closed-form oracle for the weight-constrained XOR channel.

    The dominant input type Bern(w) is symmetrizable exactly when w <= p
    (boundary included); both weights must be below 1/2.
    """
    if not (0.0 <= w < 0.5 and 0.0 <= p < 0.5):
        raise ValueError(f"weights must lie in [0, 0.5), got w={w}, p={p}")
    return w <= p
