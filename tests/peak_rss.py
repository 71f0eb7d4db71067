"""Peak resident memory of one CLI run in a fresh interpreter.

A run's VmHWM is read from procfs after its output is flushed, so a test
can bound how a command's memory grows with its input by comparing two
runs that differ only in size.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_PEAK_RSS_CHILD = """
import sys
from dispositions_sim.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(code, peak.split()[1], file=sys.stderr)
"""

needs_procfs = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs VmHWM from procfs"
)


def peak_rss_kib(argv, expected_code):
    """Peak RSS, in KiB, of ``dispositions-sim argv`` run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    code, peak_kib = result.stderr.splitlines()[-1].split()
    assert code == str(expected_code), result.stderr
    return int(peak_kib)
