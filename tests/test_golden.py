"""`tools/golden.py` reproduces the eight hashes in `tests/golden.txt` at the
default BLAS thread count and with `OPENBLAS_NUM_THREADS=1`.

The rows hash the CLI's deterministic outputs: two toy trainings, a forward
pass with decode, selftest, gradcheck, eval, two ROI-planner replays and the
`bench` table.
golden.py runs each in a fresh process, so the thread count is set before
numpy loads. A change that moves a hash on purpose updates
`tests/golden.txt` and says why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("threads", [None, "1"], ids=["default_threads", "one_thread"])
def test_golden_hashes_match(threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden.py"),
         "--expect", str(ROOT / "tests" / "golden.txt")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
