"""Package surface and start-up contract: the lazily loaded public names,
``--version``, the commands that must run without importing numpy (all but
``simulate``), the modules that no start-up path loads, the size of the
source, what the benchmark harness needs of the package, and that every child
interpreter starts through ``cli_process``."""

import json
import re
import sys
from pathlib import Path

import pytest

import cli_process
import dispositions_sim
from dispositions_sim.cli import main
from reference import README_ANALYTIC, README_SWEEP, REFERENCE_FLAGS

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = ROOT / "src" / "dispositions_sim"
SOURCE_LINE_LIMIT = 1200

# Makes any later ``import numpy`` raise ImportError in the child.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"


def assert_numpy_free(argv):
    """The CLI run gives the same bytes and exit code with numpy blocked; returns them."""
    free = cli_process.run(argv)
    assert cli_process.run(argv, prelude=BLOCK_NUMPY) == free
    return free


# --- the public names ---------------------------------------------------------


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dispositions_sim import *", namespace)
    assert set(dispositions_sim.__all__) <= namespace.keys()


def test_dir_lists_every_public_name():
    assert set(dispositions_sim.__all__) <= set(dir(dispositions_sim))


def test_lazy_name_is_the_defining_modules_object():
    assert dispositions_sim.estimate_eus is dispositions_sim.montecarlo.estimate_eus
    assert dispositions_sim.RngStream is dispositions_sim.encounter.RngStream
    for name in dispositions_sim.__all__:
        if name != "__version__":
            obj = getattr(dispositions_sim, name)
            assert obj.__module__.startswith("dispositions_sim."), name
            assert getattr(sys.modules[obj.__module__], name) is obj


def test_unknown_attribute_raises_the_standard_error():
    message = "module 'dispositions_sim' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
        dispositions_sim.no_such_name
    assert not hasattr(dispositions_sim, "no_such_name")


# --- --version ----------------------------------------------------------------


def test_version_flag_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr() == (f"dispositions-sim {dispositions_sim.__version__}\n", "")


def test_package_version_matches_pyproject():
    declared = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert declared is not None
    assert dispositions_sim.__version__ == declared.group(1)


# --- the process entry --------------------------------------------------------

# Replaces ``cli.main`` with a stub that prints whether the collector is on and
# returns 3; at exit, prints whether the heap was frozen by then.
ENTRY_SPY = """\
import atexit, gc
from dispositions_sim import cli
cli.main = lambda: print(gc.isenabled()) or 3
atexit.register(lambda: print(gc.get_freeze_count() > 0))
"""


def test_console_script_and_python_m_start_in_one_run():
    """The installed script's target is the ``run`` that ``python -m`` calls,
    which calls ``cli.main`` with the collector off and freezes the heap after."""
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)\n\n", PYPROJECT.read_text(), re.M | re.S)
    assert scripts is not None
    assert scripts.group(1) == 'dispositions-sim = "dispositions_sim.__main__:run"'
    assert cli_process.run([], prelude=ENTRY_SPY) == (3, b"False\nTrue\n", b"")


# --- numpy-free paths ---------------------------------------------------------


def test_package_import_needs_no_numpy():
    # dir() of a fresh import lists the lazy names without loading them.
    code = (
        "import dispositions_sim as d\n"
        "print(d.__version__, sorted(set(d.__all__) - set(dir(d))))\n"
    )
    free = cli_process.python(code)
    assert cli_process.python(BLOCK_NUMPY + code) == free
    assert free == (0, f"{dispositions_sim.__version__} []\n".encode(), b"")


def test_analytic_needs_no_numpy():
    argv = ["analytic", *REFERENCE_FLAGS, "--r", "0.5"]
    assert assert_numpy_free(argv) == (0, README_ANALYTIC.encode(), b"")


def test_evolve_needs_no_numpy():
    argv = ["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "200"]
    code, out, err = assert_numpy_free(argv)
    assert (code, err) == (0, b"")
    assert out.splitlines()[-1].startswith(b'# {"interior_threshold": ')


@pytest.mark.parametrize(
    "argv", [["--help"], *([c, "--help"] for c in ("analytic", "simulate", "sweep", "evolve"))]
)
def test_help_needs_no_numpy(argv):
    code, out, err = assert_numpy_free(argv)
    assert (code, err) == (0, b"")
    assert out.startswith(b"usage: dispositions-sim ")


def test_version_needs_no_numpy():
    version_line = f"dispositions-sim {dispositions_sim.__version__}\n"
    assert assert_numpy_free(["--version"]) == (0, version_line.encode(), b"")


def test_usage_errors_need_no_numpy(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"vnc": "abc"}))
    cases = [
        (["analytic", "--vnc", "abc"], "error: argument --vnc: invalid float value: 'abc'\n"),
        (["analytic", "--config", str(config), "--vc", "0.75", "--p", "0.8", "--q", "0.1",
          "--r", "0.5"], "error: config key \"vnc\" must be a number, got 'abc'\n"),
        (["analytic", "--vnc", "0.8", "--vc", "0.5", "--p", "0.8", "--q", "0.1", "--r", "0.5"],
         "OrderingViolation: require 0 < v_noncoop < v_coop < 1, got 0.8, 0.5\n"),
    ]
    for argv, line in cases:
        assert assert_numpy_free(argv) == (2, b"", line.encode())


@pytest.mark.parametrize(
    "axis, expected",
    [
        ("r=0.25:0.75:3", (0, README_SWEEP.encode(), b"")),
        ("r=0:2:3", (2, b"", b"InvalidProbability: r must lie in [0, 1], got 2.0\n")),
    ],
)
def test_sweep_needs_no_numpy(axis, expected):
    argv = ["sweep", *REFERENCE_FLAGS, "--axis", axis]
    assert assert_numpy_free(argv) == expected


def test_simulate_does_load_numpy():
    """The blocked runs above would pass vacuously if blocking did nothing:
    ``simulate``, which computes on arrays, must fail with numpy blocked."""
    argv = ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000"]
    code, out, err = cli_process.run(argv)
    assert (code, err) == (0, b"") and out
    code, out, err = cli_process.run(argv, prelude=BLOCK_NUMPY)
    assert (code, out) == (1, b"")
    assert err.startswith(b"internal error: ") and b"import of numpy halted" in err


# --- modules kept off the start-up path -------------------------------------

# At exit, writes to stderr the modules added to sys.modules since it ran.
MODULES_ADDED = """\
import atexit, sys
before = set(sys.modules)
atexit.register(lambda: sys.stderr.write(' '.join(sorted(set(sys.modules) - before))))
"""
# Each step is code for a fresh interpreter, or a CLI argv run by the shipped entry.
START_UP_STEPS = {
    "package": "import dispositions_sim",
    "cli": "import dispositions_sim.cli",
    "analytic": ["analytic", *REFERENCE_FLAGS, "--r", "0.5"],
    "evolve": ["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "200"],
    "sweep": ["sweep", *REFERENCE_FLAGS, "--axis", "r=0.25:0.75:3"],
}


def modules_added(step, threads=None):
    """The modules that ``step``, code or a CLI argv, adds to a fresh interpreter's
    sys.modules."""
    if isinstance(step, str):
        code, _, err = cli_process.python(MODULES_ADDED + step)
    else:
        code, _, err = cli_process.run(step, threads, MODULES_ADDED)
    assert code == 0, err
    return set(err.decode().split())


@pytest.mark.parametrize(
    "step, submodules",
    [("import dispositions_sim", set()),
     ("from dispositions_sim import cm_rational", {"analytic", "core"})],
    ids=["package", "one-name"],
)
def test_package_loads_only_the_modules_of_the_names_used(step, submodules):
    added = modules_added(step)
    loaded = {name for name in added if name.startswith("dispositions_sim.")}
    assert loaded == {f"dispositions_sim.{module}" for module in submodules}
    assert "numpy" not in added


@pytest.mark.parametrize("step", START_UP_STEPS.values(), ids=START_UP_STEPS)
def test_start_up_loads_neither_dataclasses_nor_inspect(step):
    added = modules_added(step)
    assert "dispositions_sim" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_loads_no_thread_pool(threads):
    """The Monte Carlo helpers are plain threads: a multi-block ``simulate``
    loads neither ``concurrent.futures`` nor what it would bring along."""
    argv = ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "200000", "--seed", "3"]
    added = modules_added(argv, threads)
    assert {"dispositions_sim.montecarlo", "numpy"} <= added
    assert not added & {"concurrent.futures", "logging", "queue"}


# At exit, writes to stderr whether dispositions_sim.montecarlo was in sys.modules
# when numpy was first looked for. A finished import moves its module to the end
# of sys.modules, so the order of that dict cannot tell.
MONTECARLO_BEFORE_NUMPY = """\
import atexit
class Probe:
    seen = []
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == 'numpy' and not cls.seen:
            cls.seen.append('dispositions_sim.montecarlo' in sys.modules)
sys.meta_path.insert(0, Probe)
atexit.register(lambda: sys.stderr.write(repr(Probe.seen)))
"""


def test_simulate_compiles_montecarlo_before_numpy_loads():
    """``simulate`` imports ``montecarlo`` before numpy, so that module's source,
    when no bytecode is cached, compiles before numpy's memory is taken."""
    argv = ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000"]
    code, out, err = cli_process.run(argv, prelude=MONTECARLO_BEFORE_NUMPY)
    assert (code, err) == (0, b"[True]")
    assert json.loads(out)["n_trials"] == 1000


def test_an_explicit_import_does_load_dataclasses():
    """The diffs above would pass vacuously if a module they look for were
    loaded before them, or if they missed what a step loads."""
    assert {"dataclasses", "inspect"} <= modules_added("import dataclasses")


def test_an_explicit_import_does_load_the_thread_pool():
    """As above, for the modules that ``simulate`` must not load."""
    added = modules_added("import concurrent.futures.thread")
    assert {"concurrent.futures", "logging", "queue"} <= added


# --- source size --------------------------------------------------------------


def test_source_stays_within_its_line_limit():
    """``cat src/dispositions_sim/*.py | wc -l`` stays at or below the limit:
    wc counts newline bytes, so a last line without one does not count."""
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    counts = {path.name: path.read_bytes().count(b"\n") for path in paths}
    lines = sum(counts.values())
    assert lines <= SOURCE_LINE_LIMIT, f"src/ is {lines} lines: {counts}"


# --- child processes ----------------------------------------------------------


def test_only_cli_process_starts_child_interpreters():
    """Every child interpreter of the tests, a CLI run or a probe, is started by
    ``cli_process``, which kills it after 60 s and checks that none of its
    processes is left."""
    importers = {path.name for path in (ROOT / "tests").glob("*.py")
                 if re.search(r"^(import|from) subprocess\b", path.read_text(), re.M)}
    assert importers == {"cli_process.py"}


# --- benchmark harness --------------------------------------------------------

# Puts the benchmark harness on the child's sys.path.
BENCHMARKS_ON_PATH = f"import sys; sys.path.insert(0, {str(ROOT / 'benchmarks')!r})\n"

# Prints, one a line, the tracer targets that do not resolve, looked up as
# ``tracer.install`` looks them up.
UNRESOLVED_TRACER_TARGETS = BENCHMARKS_ON_PATH + """\
import run, tracer
missing = {name for owner, attr, name, _, _ in tracer._patches()
           if (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None)) is None}
print(*sorted(missing), sep='\\n')
"""


def test_benchmark_harness_imports_and_its_tracer_targets_resolve():
    """``benchmarks/run.py`` and ``tracer.py`` import what they use of the
    package, so a change to ``src/`` that removes one fails here, not in a
    benchmark run. Every call site the tracer wraps must resolve too, or its
    span and counter would read 0 without an error. ``montecarlo.estimate_eus``
    is the known miss: cli imports estimate_eus per call, so the tracer's
    ``cli.estimate_eus`` target is absent."""
    code, out, err = cli_process.python(UNRESOLVED_TRACER_TARGETS)
    assert (code, err) == (0, b"")
    assert set(out.decode().split()) == {"montecarlo.estimate_eus"}


# Runs ``simulate`` through ``cli.main`` under the benchmark's tracer, stdout
# sent to a sink with only ``write`` and ``flush`` as in a traced run, and
# prints the exit code and the tracer's report as JSON.
TRACED_SIMULATE = BENCHMARKS_ON_PATH + """\
import contextlib, json, tracer
from dispositions_sim import cli
class Sink:
    def write(self, text): return len(text)
    def flush(self): pass
t = tracer.Tracer(); tracer.install(t)
with contextlib.redirect_stdout(Sink()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, **t.report()}))
"""
TRACED_SIMULATE_ARGV = ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "200001",
                        "--seed", "3"]


def test_tracer_counts_every_monte_carlo_draw_and_stream():
    """The benchmark reads ``encounter.draws`` and the stream spans of a traced
    run; a change to the Monte Carlo layer that zeroed or skewed them would
    raise no error. 200 001 trials are four blocks, the last one partial:
    three draws a trial, three ``uniforms`` calls and one ``block_streams``
    call a block."""
    code, out, err = cli_process.python(TRACED_SIMULATE, *TRACED_SIMULATE_ARGV, threads="1")
    assert (code, err) == (0, b"")
    report = json.loads(out)
    assert report["code"] == 0
    assert report["counts"]["encounter.draws"] == 3 * 200_001
    assert report["spans"]["encounter.uniforms"][0] == 12
    assert report["spans"]["montecarlo.block_streams"][0] == 4
