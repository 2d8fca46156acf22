"""The benchmark's traced names still resolve against the library."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# bench/layers.py still lists these names, which the library no longer has
STALE = {
    "winavc.harness.list_capacity",  # the harness no longer imports list_capacity
    "winavc.jammers.iid_jammer",  # deleted; jammers.iid_jammer_rows is the entry point
    "ThreePhaseCodec.encode",  # deleted; ThreePhaseCodec.encode_rows is the entry point
    "ThreePhaseCodec.decode",  # deleted; ThreePhaseCodec.decode_rows is the entry point
    "winavc.codec.list_decode",  # deleted; ThreePhaseCodec.decode_rows calls codec._ranked_lists
    "KeyCode.decode",  # deleted; KeyCode.decode_rows is the entry point
    "winavc.harness.block_channel_sample",  # deleted; the harness calls channel_sample_rows
    "winavc.codec.windows_valid",  # deleted; callers read verify_windows(...).valid
}


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
