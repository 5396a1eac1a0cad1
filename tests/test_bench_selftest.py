"""The benchmark's self-test passes against this lmint: a change to the
library API that bench/ reads (a renamed function, a deleted exception)
fails here, not only on the next benchmark run."""
import subprocess
import sys
from pathlib import Path

import pytest

# Its heterodyne displacement check reads scipy's chi-square quantiles.
pytest.importorskip("scipy")

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest passed")
