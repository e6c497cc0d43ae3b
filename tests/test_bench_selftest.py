"""The benchmark's self-test passes on the package as it stands, so a change
that breaks a workload, the oracle or a check fails here first."""

import pathlib
import subprocess
import sys

SELFTEST = pathlib.Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    # toy sizes of every workload through the real checks, then each
    # deliberately wrong answer through them; about 2 s
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
