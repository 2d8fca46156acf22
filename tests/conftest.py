"""Suite-wide hypothesis profile: reproducible examples, no per-example deadline."""

import numpy as np
import pytest
from hypothesis import settings

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
