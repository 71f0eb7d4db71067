"""Peak resident memory of one CLI run in a fresh interpreter.

The child starts the package as ``python -m dispositions_sim`` does, so the
run is the shipped process, collector settings included. Its VmHWM is read
from procfs as it exits, so a test can bound how a command's memory grows
with its input by comparing two runs that differ only in size.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_PEAK_RSS_CHILD = """
import runpy, sys
try:
    runpy.run_module("dispositions_sim", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        peak = next(line for line in status if line.startswith("VmHWM:"))
    print(peak.split()[1], file=sys.stderr)
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
    assert result.returncode == expected_code, result.stderr
    return int(result.stderr.splitlines()[-1])
