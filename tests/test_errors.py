"""The input-error contract: one exception base from library to exit code.

Every caller fault raises ``InvalidInput`` (or a subclass naming the model
check), and the CLI turns each into exit code 2 with exactly one stderr line
and no stdout.
"""

import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dispositions_sim import (
    InvalidInput,
    InvalidProbability,
    InvalidTrialCount,
    OrderingViolation,
    RngStream,
    TranslucencyParams,
    TranslucentPayoffs,
    estimate_eus,
    evolve,
)
from dispositions_sim import montecarlo
from dispositions_sim.montecarlo import resolve_workers
from reference import REFERENCE_FLAGS, reference_config, run_main


def read_only(array):
    array.flags.writeable = False
    return array


def test_input_errors_share_one_base():
    for check in (OrderingViolation, InvalidProbability, InvalidTrialCount):
        assert check.__bases__ == (InvalidInput,)
    assert InvalidInput.__bases__ == (ValueError,)


class TestLibraryChecks:
    """Each library check on a caller's argument raises ``InvalidInput`` itself."""

    def test_evolve_generations(self):
        pay = TranslucentPayoffs(v_noncoop=0.5, v_coop=0.75)
        t0 = TranslucencyParams(p=0.8, q=0.1, r=0.5)
        with pytest.raises(InvalidInput, match=r"^generations must be >= 1, got 0$"):
            evolve(pay, t0, 0)

    @pytest.mark.parametrize("value", [2.5, 2.0, "3", None, True, False],
                             ids=["float", "integral-float", "str", "none", "true", "false"])
    def test_evolve_generations_must_be_an_integer(self, value):
        pay = TranslucentPayoffs(v_noncoop=0.5, v_coop=0.75)
        t0 = TranslucencyParams(p=0.8, q=0.1, r=0.5)
        message = rf"^generations must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidInput, match=message):
            evolve(pay, t0, value)
        assert evolve(pay, t0, np.int64(3)) == evolve(pay, t0, 3)

    def test_rng_stream_guard(self):
        with pytest.raises(InvalidInput, match="must be non-negative"):
            RngStream(-1)

    @pytest.mark.parametrize(
        "args, message",
        [((1.5,), "seed must be an integer, got 1.5"),
         (("3",), "seed must be an integer, got '3'"),
         ((None,), "seed must be an integer, got None"),
         ((True,), "seed must be an integer, got True"),
         ((0, 1.5), "stream_id must be an integer, got 1.5")],
        ids=["float", "str", "none", "bool", "stream-id-float"],
    )
    def test_rng_stream_rejects_a_non_integer(self, args, message):
        with pytest.raises(InvalidInput, match=rf"^{re.escape(message)}$"):
            RngStream(*args)

    @pytest.mark.parametrize(
        "out",
        [
            np.empty(4, dtype=np.float32),
            np.empty(4, dtype=np.int64),
            np.empty(4)[::2],
            read_only(np.empty(4)),
            [0.0] * 4,
        ],
        ids=["float32", "int64", "strided", "read_only", "list"],
    )
    def test_uniforms_rejects_a_buffer_it_cannot_fill(self, out):
        # Only the prefix is ours; the rest is numpy's wording, which varies by version.
        with pytest.raises(InvalidInput, match=r"^out must be "):
            RngStream(0).uniforms(out)

    def test_worker_count(self, monkeypatch):
        with pytest.raises(InvalidInput, match=r"^worker count must be >= 0, got -2$"):
            resolve_workers(1, -2)
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", "two")
        with pytest.raises(InvalidInput, match="must be an integer, got 'two'"):
            resolve_workers(1)

    def test_negative_seed_rejected_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(montecarlo, "block_streams", no_blocks)
        cfg = reference_config()
        with pytest.raises(InvalidInput, match=r"^seed must be >= 0, got -1$"):
            estimate_eus(cfg, 10, -1)

    @pytest.mark.parametrize(
        "argument, value, error",
        [("n_trials", 1.5, InvalidTrialCount), ("seed", 1.5, InvalidInput),
         ("workers", 1.5, InvalidInput), ("workers", 2.0, InvalidInput),
         ("workers", float("nan"), InvalidInput), ("workers", "2", InvalidInput),
         ("n_trials", True, InvalidTrialCount), ("seed", False, InvalidInput),
         ("workers", True, InvalidInput)],
        ids=["n_trials-float", "seed-float", "workers-float", "workers-integral-float",
             "workers-nan", "workers-str", "n_trials-bool", "seed-bool", "workers-bool"],
    )
    def test_malformed_integer_argument_rejected_before_any_block(
        self, monkeypatch, argument, value, error
    ):
        """A float or string where ``estimate_eus`` takes an integer is the
        caller's fault, even when it would truncate to a valid count."""

        def no_blocks(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(montecarlo, "block_streams", no_blocks)
        cfg = reference_config()
        arguments = {"n_trials": 200_000, "seed": 0, "workers": 2, argument: value}
        with pytest.raises(error, match=rf"^{argument} must be an integer, got {value!r}$"):
            estimate_eus(cfg, **arguments)

    def test_numpy_integer_arguments_are_accepted(self):
        cfg = reference_config()
        numpy_ints = estimate_eus(cfg, np.int64(200_000), np.uint8(3), np.int32(2))
        assert numpy_ints == estimate_eus(cfg, 200_000, 3, 2)


# (argv, DISPOSITIONS_SIM_THREADS or None, the exact stderr line). "{dir}"
# stands for a temporary directory holding the config files below.
CONFIG_FILES = {"list.json": "[1]", "value.json": '{"r": "abc"}'}
SINGLE_FAULTS = {
    "missing-flag": (
        ["analytic", *REFERENCE_FLAGS], None, "error: missing required parameter --r"),
    # With p, q and r all missing, the one the command reads first is named.
    "missing-flags": (
        ["analytic", "--vnc", "0.5", "--vc", "0.75"], None,
        "error: missing required parameter --p"),
    "no-axis": (
        ["sweep", *REFERENCE_FLAGS], None,
        "error: sweep needs at least one --axis NAME=START:STOP:COUNT"),
    "config-missing": (
        ["analytic", *REFERENCE_FLAGS, "--r", "0.5", "--config", "{dir}/none.json"], None,
        "error: cannot read config file {dir}/none.json: "
        "[Errno 2] No such file or directory: '{dir}/none.json'"),
    "config-not-object": (
        ["analytic", "--config", "{dir}/list.json"], None,
        "error: config file {dir}/list.json must contain a JSON object"),
    "config-value": (
        ["analytic", *REFERENCE_FLAGS, "--config", "{dir}/value.json"], None,
        "error: config key \"r\" must be a number, got 'abc'"),
    "axis-spec": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1"], None,
        "error: bad axis spec 'r=0:1', expected NAME=START:STOP:COUNT"),
    "axis-name": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "z=0:1:3"], None,
        "error: unknown sweep axis 'z', expected one of p, q, r, v_noncoop, v_coop"),
    "axis-count": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:0"], None,
        "error: axis 'r' needs a positive point count"),
    "axis-twice": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:3", "--axis", "r=0:1:2"], None,
        "error: each parameter may be swept by at most one axis"),
    "axis-and-flag": (
        ["sweep", *REFERENCE_FLAGS, "--r", "0.5", "--axis", "r=0:1:3"], None,
        "error: parameter r is swept by an axis; drop the --r flag"),
    # A bad grid point fails with the line analytic prints there.
    "grid-point": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:2:3"], None,
        "InvalidProbability: r must lie in [0, 1], got 2.0"),
    # An infinite bound makes the axis's first point 0 * inf + START, a NaN.
    "axis-start-inf": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=1e400:1:3"], None,
        "InvalidProbability: r must lie in [0, 1], got nan"),
    "axis-stop-inf": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1e400:3"], None,
        "InvalidProbability: r must lie in [0, 1], got nan"),
    # 2**63 doubles could never be allocated: the axis fails before touching memory.
    "axis-past-memory": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:1000000000000000000"], None,
        "error: axis 'r' has too many points: 1000000000000000000"),
    "axis-past-intp": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:10000000000000000000"], None,
        "error: axis 'r' has too many points: 10000000000000000000"),
    # Three 16 MiB axes whose 2**63 rows pass the signed 64-bit row bound.
    "grid-past-intp": (
        ["sweep", "--vnc", "0.5", "--vc", "0.75", "--axis", "p=0:1:2097152",
         "--axis", "q=0:1:2097152", "--axis", "r=0:1:2097152"], None,
        f"error: sweep grid has more than {2**63 - 1} rows"),
    "ordering": (
        ["analytic", "--vnc", "0.8", "--vc", "0.75", "--p", "0.8", "--q", "0.1",
         "--r", "0.5"], None,
        "OrderingViolation: require 0 < v_noncoop < v_coop < 1, got 0.8, 0.75"),
    "probability": (
        ["analytic", "--vnc", "0.5", "--vc", "0.75", "--p", "2", "--q", "0.1",
         "--r", "0.5"], None,
        "InvalidProbability: p must lie in [0, 1], got 2.0"),
    "trial-count": (
        ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "0"], None,
        "InvalidTrialCount: n_trials must be >= 1, got 0"),
    "trial-count-past-int64": (
        ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", str(2**63)], None,
        f"InvalidTrialCount: n_trials must be <= {2**63 - 1}, got {2**63}"),
    "seed": (
        ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "10", "--seed", "-1"], None,
        "error: seed must be >= 0, got -1"),
    "generations": (
        ["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "0"], None,
        "error: generations must be >= 1, got 0"),
    "threads-not-int": (
        ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "10"], "abc",
        "error: DISPOSITIONS_SIM_THREADS must be an integer, got 'abc'"),
    "threads-negative": (
        ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "10"], "-1",
        "error: worker count must be >= 0, got -1"),
    # sweep reads the variable too, before it forks a worker or writes a byte.
    "sweep-threads-not-int": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:3"], "abc",
        "error: DISPOSITIONS_SIM_THREADS must be an integer, got 'abc'"),
    "sweep-threads-negative": (
        ["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:3"], "-1",
        "error: worker count must be >= 0, got -1"),
    "argparse-type": (
        ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1e3"], None,
        "error: argument --n: invalid int value: '1e3'"),
    "argparse-unknown": (
        ["analytic", *REFERENCE_FLAGS, "--r", "0.5", "--bogus"], None,
        "error: unrecognized arguments: --bogus"),
}


@pytest.mark.parametrize("argv, threads, line", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS)
def test_single_fault_exits_2_with_its_line(argv, threads, line, tmp_path, monkeypatch):
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    if threads is None:
        monkeypatch.delenv("DISPOSITIONS_SIM_THREADS", raising=False)
    else:
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", threads)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    assert run_main(argv) == (2, "", line.replace("{dir}", str(tmp_path)) + "\n")


def test_refused_worker_thread_exits_2_with_its_line(monkeypatch):
    """The OS refusing a Monte Carlo worker thread, as when
    DISPOSITIONS_SIM_THREADS asks for more threads than the process may
    start, is a bad thread count. The first start refuses, so no thread
    starts and no block runs."""

    class RefusingThread(threading.Thread):
        def start(self):
            raise RuntimeError("can't start new thread")

    monkeypatch.setattr(montecarlo, "Thread", RefusingThread)
    monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", "3")
    argv = ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", str(3 * montecarlo.BLOCK_TRIALS)]
    line = ("error: cannot start 3 Monte Carlo workers (DISPOSITIONS_SIM_THREADS=3): "
            "can't start new thread\n")
    assert run_main(argv) == (2, "", line)


def test_newline_in_an_echoed_input_is_escaped():
    code, out, err = run_main(["analytic", *REFERENCE_FLAGS, "--r", "0.5", "a\nb"])
    assert (code, out, err) == (2, "", "error: unrecognized arguments: a\\nb\n")


def test_one_point_axis_ignores_a_non_finite_stop():
    code, out, err = run_main(["sweep", *REFERENCE_FLAGS, "--axis", "r=0:inf:1"])
    assert (code, err) == (0, "")
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["0"]


# Hostile tokens for any flag. Counts that would run long (a huge --n,
# --generations or axis COUNT) are drawn small or given as examples below.
HOSTILE = ["nan", "inf", "-inf", "-0", "1e400", "-1e400", "", "abc", "0x1", "1e3",
           "2.5", str(-10**30), "-1", "0", "1", "0.5", "0.5\n", "a\nb"]
BIG_INTS = [str(10**30), str(2**63), "9" * 5000]
VALID_FLAGS = {
    "analytic": {"vnc": "0.5", "vc": "0.75", "p": "0.8", "q": "0.1", "r": "0.5"},
    "simulate": {"vnc": "0.5", "vc": "0.75", "p": "0.8", "q": "0.1", "r": "0.5",
                 "n": "100", "seed": "3"},
    "sweep": {"vnc": "0.5", "vc": "0.75", "p": "0.8", "q": "0.1", "axis": "r=0:1:3"},
    "evolve": {"vnc": "0.5", "vc": "0.75", "p": "0.8", "q": "0.1", "r0": "0.5",
               "generations": "20"},
}
STRAY_TOKENS = ["--bogus", "--v", "-x", "--n", "--r", "--", "--config", "abc", "x\ny"]


def number_tokens(low, high):
    return st.one_of(st.integers(low, high).map(str),
                     st.floats(low, high, allow_nan=False).map(repr))


@st.composite
def axis_specs(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["r", "r=", "r=0:1", "r=0:1:2:3", "=0:1:3", "r=::",
                                     "r=0:1:3.5", "r=0:1:1e2", " r = 0 : 1 : 2 "]))
    name = draw(st.sampled_from(["p", "q", "r", "r", "v_noncoop", "v_coop", "z", ""]))
    start, stop = (draw(st.one_of(number_tokens(0, 1), st.sampled_from(HOSTILE)))
                   for _ in range(2))
    count = draw(st.one_of(st.integers(-2, 50).map(str), st.sampled_from(HOSTILE)))
    return f"{name}={start}:{stop}:{count}"


def value_tokens(flag):
    if flag == "axis":
        return axis_specs()
    if flag == "n":
        tokens = st.integers(-3, 10**4).map(str)
    elif flag == "generations":
        tokens = st.integers(-3, 200).map(str)
    elif flag == "seed":
        tokens = st.one_of(st.integers(-3, 2**32).map(str), st.sampled_from(BIG_INTS))
    else:
        tokens = number_tokens(-2, 2)
    return st.one_of(tokens, st.sampled_from(HOSTILE))


@st.composite
def hostile_argv(draw):
    """A valid command line with up to three faults: a flag's value replaced,
    a flag dropped, an axis added, or a stray token inserted."""
    command = draw(st.sampled_from(sorted(VALID_FLAGS)))
    flags, axes, strays = dict(VALID_FLAGS[command]), [], []
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(VALID_FLAGS[command])))
        mutation = draw(st.sampled_from(["value", "value", "drop", "axis", "stray"]))
        if mutation == "value":
            flags[flag] = draw(value_tokens(flag))
        elif mutation == "drop":
            flags.pop(flag, None)
        elif mutation == "axis":
            axes += ["--axis", draw(axis_specs())]
        else:
            strays.append(draw(st.sampled_from(STRAY_TOKENS)))
    argv = [command, *(token for flag, value in flags.items() for token in (f"--{flag}", value))]
    argv += axes
    for stray in strays:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hostile_argv())
@example(["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:1000000000000000000"])
@example(["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:10000000000000000000"])
@example(["sweep", *REFERENCE_FLAGS, "--axis", f"r=0:1:{10**400}"])
@example(["sweep", "--vnc", "0.5", "--vc", "0.75", "--axis", "p=0:1:2097152",
          "--axis", "q=0:1:2097152", "--axis", "r=0:1:2097152"])
@example(["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", str(-10**30)])
@example(["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", str(-10**30)])
@example(["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "10", "--seed", str(10**30)])
def test_any_argv_exits_0_or_2_with_one_error_line(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2)
    assert "internal error" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
