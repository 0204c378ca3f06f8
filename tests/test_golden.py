"""Fixed-seed outputs of every subcommand, pinned against checked-in files.

``tests/golden/<case>.json`` is a small config and ``tests/golden/<case>/``
holds the files it writes.  A case is named ``<command>`` or
``<command>_<variant>``, so one subcommand can have several configs.  CSVs
must match byte for byte; JSON must match exactly except floats, which must
agree to rtol 1e-12.  To regenerate a case after an intended output change
(and explain every changed value in CHANGES.md), run from the repository
root, for example for ``simulate``:

    c=simulate; OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m diffnet ${c%%_*} \\
        --config tests/golden/$c.json --out tests/golden/$c
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import diffnet

GOLDEN = Path(__file__).parent / "golden"
CASES = (
    "simulate",  # ATC with noisy links
    "simulate_smoothing_tsa",
    "simulate_smoothing_warmup",  # leading zero taps: the warm-up fallback
    "simulate_adaptive_weights",
    "simulate_consensus_lms",
    "simulate_general",
    "analyze",
    "compare",
    "consensus",
    "rls",
    "kalman",
)

RUN_ALL = """
import sys
from diffnet import cli
golden, out = sys.argv[1:3]
for case in sys.argv[3:]:
    command = case.split("_", 1)[0]
    status = cli.main([command, "--config", f"{golden}/{case}.json", "--out", f"{out}/{case}"])
    print(case, status)
"""


def _assert_json_close(got, want, where):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_every_subcommand_reproduces_its_golden_outputs(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(diffnet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ALL, str(GOLDEN), str(tmp_path), *CASES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [w for c in CASES for w in (c, "0")], proc.stderr
    for case in CASES:
        want_dir, got_dir = GOLDEN / case, tmp_path / case
        assert sorted(p.name for p in got_dir.iterdir()) == sorted(p.name for p in want_dir.iterdir())
        for want in want_dir.iterdir():
            got = got_dir / want.name
            if want.suffix == ".csv":
                assert got.read_bytes() == want.read_bytes(), f"{case}/{want.name} differs"
            else:
                _assert_json_close(json.loads(got.read_text()), json.loads(want.read_text()),
                                   f"{case}/{want.name}")
