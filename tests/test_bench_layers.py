"""The benchmark's traced names still resolve against the library."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# bench/layers.py still lists harness.list_capacity, which the harness no longer imports
STALE = {"winavc.harness.list_capacity"}


def test_every_traced_name_resolves(monkeypatch):
    # looks the names up without install(), which would rewrap library attributes
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    unresolved = {
        f"{owner.__name__}.{attr}"
        for _, targets in layers.LAYERS.values()
        for owner, attr in targets
        if getattr(owner, attr, None) is None
    }
    assert unresolved <= STALE
