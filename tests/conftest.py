"""Suite-wide hypothesis profile: reproducible examples, no per-example deadline."""

import numpy as np
import pytest
from hypothesis import settings

from winavc import jammers

settings.register_profile("winavc", derandomize=True, deadline=None)
settings.load_profile("winavc")


class _ConstantUniforms:
    """Stands in for a numpy Generator whose every uniform is u."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, self.u)
        out[...] = self.u
        return out


@pytest.fixture(params=[0.0, float(np.nextafter(1.0, 0.0))], ids=["u-zero", "u-top"])
def edge_rng(request):
    """A generator at either edge of [0, 1): uniforms all 0, or all the largest double below 1."""
    return _ConstantUniforms(request.param)


class JamRounds:
    """The rows of every jammer round, in order: each round is the list of
    Generators one recording draw was called with."""

    def __init__(self):
        self.rounds: list[list] = []

    def wrap(self, draw):
        """draw, recording the Generators of each call as one round."""
        def record(rngs):
            self.rounds.append(list(rngs))
            return draw(rngs)
        return record

    def spans(self) -> dict:
        """id(Generator) -> (first, last) round it was drawn in, in order of entry;
        asserts that each was drawn in every round between."""
        seen: dict[int, list[int]] = {}
        for k, rngs in enumerate(self.rounds):
            for rng in rngs:
                seen.setdefault(id(rng), []).append(k)
        for ks in seen.values():
            assert ks == list(range(ks[0], ks[-1] + 1))
        return {key: (ks[0], ks[-1]) for key, ks in seen.items()}


@pytest.fixture
def jam_rounds(monkeypatch):
    """A JamRounds that records every i.i.d. jammer round: each sampler that
    iid_jammer_rows builds is wrapped in its draw."""
    recorder = JamRounds()
    build = jammers._sparse_iid_sampler
    monkeypatch.setattr(jammers, "_sparse_iid_sampler",
                        lambda *args: recorder.wrap(build(*args)))
    return recorder
