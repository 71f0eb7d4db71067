"""The CLI in a child process, started as users start it.

Each child runs ``prelude``, Python code that patches or watches the run, and
then the entry that ``python -m dispositions_sim`` and the ``dispositions-sim``
script both use: ``__main__.run``, with the collector off and the heap frozen
at exit. It starts as the leader of a new session, so its process group holds
every sweep worker it forks, and ``finish`` checks that none outlives it.
"""

import os
import signal
import subprocess
import sys

import pytest

_CHILD = """\
import os, runpy, sys
{prelude}
runpy.run_module("dispositions_sim", run_name="__main__", alter_sys=True)
"""


def start(argv, threads=None, prelude=""):
    """Start ``dispositions-sim argv`` under DISPOSITIONS_SIM_THREADS=``threads``
    (unset if None), after ``prelude``, which may use ``os`` and ``sys``; its
    stdout and stderr are pipes."""
    env = dict(os.environ, DISPOSITIONS_SIM_THREADS=threads)
    if threads is None:
        del env["DISPOSITIONS_SIM_THREADS"]
    return subprocess.Popen([sys.executable, "-c", _CHILD.format(prelude=prelude), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)


def finish(proc):
    """``proc``'s (stdout, stderr), read until every holder of its pipes, each worker
    too, has exited; then no process of its group is left. A run still going after
    60 s is killed with its workers, and fails the test."""
    try:
        out, err = proc.communicate(timeout=60)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return out, err


def run(argv, threads=None, prelude=""):
    """(exit code, stdout, stderr) of a started and finished run, output as bytes."""
    proc = start(argv, threads, prelude)
    out, err = finish(proc)
    return proc.returncode, out, err
