"""Child interpreters, each started as the CLI is started.

A child runs Python ``code`` with ``args`` (``python``); a CLI child runs
``prelude``, Python code that patches or watches the run, and then the entry
that ``python -m dispositions_sim`` and the ``dispositions-sim`` script both
use: ``__main__.run``, with the collector off and the heap frozen at exit
(``start`` and ``run``). Every child starts as the leader of a new session, so
its process group holds every sweep worker it forks, and ``finish`` checks
that none outlives it.
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


def _popen(code, args, threads):
    """``python -c code args`` with DISPOSITIONS_SIM_THREADS=``threads`` (unset if None)."""
    env = dict(os.environ, DISPOSITIONS_SIM_THREADS=threads)
    if threads is None:
        del env["DISPOSITIONS_SIM_THREADS"]
    return subprocess.Popen([sys.executable, "-c", code, *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)


def start(argv, threads=None, prelude=""):
    """Start ``dispositions-sim argv`` after ``prelude``, which may use ``os`` and
    ``sys``; its stdout and stderr are pipes."""
    return _popen(_CHILD.format(prelude=prelude), argv, threads)


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


def python(code, *args, threads=None):
    """(exit code, stdout, stderr), as bytes, of a started and finished ``python -c``."""
    proc = _popen(code, args, threads)
    out, err = finish(proc)
    return proc.returncode, out, err


def run(argv, threads=None, prelude=""):
    """(exit code, stdout, stderr) of a started and finished CLI run."""
    return python(_CHILD.format(prelude=prelude), *argv, threads=threads)
