"""Every narrative demo runs to completion and prints what it always printed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout, recorded before the unused knobs became
# constants; a refactor or speed-up may not move them.  The roundtrip demo's
# was re-recorded when the i.i.d. jammer began restarting each candidate
# after its first violating window, which changes its seeded stream, and
# with the spoofing demo's when the i.i.d. jammer began drawing its states
# by geometric gaps and each trial began drawing from one Generator.  Those
# two and the sweep demo's were re-recorded when codebooks began drawing
# through the same sparse kernel.  The bit-flip capacity demo's was
# re-recorded when its last column became the certified width upper - lower
# in place of the one-sided gap estimate, and again when the saddle solver's
# two bounds began to differ by rounding (about 3e-17) in 4 of its 12 rows.
STDOUT_DIGESTS = {
    "capacity_bitflip": "384ca316d5a21c7612d60a1997a5c59ead862894e0a356ef54ff647f8cb51d74",
    "guard_words_and_windows": "246675071b009e3b37852bbddf68709a92b2fe39c1b91c1df86fb0113fa4375e",
    "interleaved_layout": "a4e1ef8a7f6707b5fe6bb81c8fbe7387f51f73967c0c1092523134be23af990a",
    "spoofing_attack": "df82b26fceb128470fc1c1b4ad3d3a218816743488af8360e768732d98ae7eb5",
    "sweep_csv": "878b7c0e055fc6f4f133b3267a6581b0e16304870fb5ce143ac4e882c9aab238",
    "symmetrizability_map": "60a8a80cf2ef0f34812acb30321b17d2b8c7a1d7a49aa3a572ce83d5c6c9cdaa",
    "three_phase_roundtrip": "f7faaec11869d75847850af6f3001fb237139cc8588c6b6426619908eca6f1fc",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.stem]
