"""Peak resident memory of one CLI run in a fresh interpreter.

The run is the shipped process, started by ``cli_process``. A prelude sends
its stdout to the null device, so that the tens of MB a large run prints are
not kept by the test, and reads its VmHWM from procfs as it exits. A test can
then bound how a command's memory grows with its input by comparing two runs
that differ only in size.
"""

from pathlib import Path

import pytest

import cli_process

_PEAK_RSS_AT_EXIT = """\
import atexit
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
def report_peak():
    with open("/proc/self/status") as status:
        peak = next(line for line in status if line.startswith("VmHWM:"))
    print(peak.split()[1], file=sys.stderr)
atexit.register(report_peak)
"""

needs_procfs = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs VmHWM from procfs"
)


def peak_rss_kib(argv, expected_code):
    """Peak RSS, in KiB, of ``dispositions-sim argv`` run in a fresh interpreter."""
    code, _, err = cli_process.run(argv, prelude=_PEAK_RSS_AT_EXIT)
    assert code == expected_code, err
    return int(err.splitlines()[-1])
