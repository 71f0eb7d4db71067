"""Monte Carlo estimator: scalar-path equivalence, determinism, and
agreement with the closed forms it exists to check."""

import contextlib
import gc
import math
import os
import sys
import threading
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from dispositions_sim.analytic import translucent_eu_cm, translucent_eu_sm
from dispositions_sim.core import InvalidInput, resolve_workers
from dispositions_sim.encounter import EncounterConfig
from dispositions_sim import montecarlo
from dispositions_sim.montecarlo import InvalidTrialCount, TrialReport, estimate_eus
import pcg64
from reference import reference_config
from scalar_oracle import run_trial


def spec_streams(seed: int, block_index: int) -> list:
    """Block k's (partner, constrained-focal, straightforward-focal) streams,
    addressed (seed, 3k + j) for j = 0, 1, 2, from the pure-Python spec."""
    return [pcg64.stream(seed, 3 * block_index + j) for j in range(3)]


def reference_report(cfg: EncounterConfig, n_trials: int, seed: int) -> TrialReport:
    """Trial-by-trial estimator over ``scalar_oracle.run_trial``, the check on
    the vectorized block kernel. Partitions trials into the same blocks as
    estimate_eus and draws each block from the spec streams of its addresses."""
    cm_counts: Counter = Counter()
    sm_counts: Counter = Counter()
    start = 0
    block_index = 0
    while start < n_trials:
        trials = min(montecarlo.BLOCK_TRIALS, n_trials - start)
        streams = spec_streams(seed, block_index)
        for _ in range(trials):
            kind_cm, kind_sm = run_trial(cfg, *streams)
            cm_counts[kind_cm] += 1
            sm_counts[kind_sm] += 1
        start += trials
        block_index += 1

    v_nc, v_c = cfg.payoffs.v_noncoop, cfg.payoffs.v_coop
    payoff_cm = {"non_cooperation": v_nc, "cooperation": v_c, "exploitation": 0.0}
    payoff_sm = {"non_cooperation": v_nc, "defection": 1.0}

    def stats(counts, payoff_of):
        values = [payoff_of[kind] for kind in counts for _ in range(counts[kind])]
        arr = np.array(values)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0
        return mean, stderr

    mean_cm, stderr_cm = stats(cm_counts, payoff_cm)
    mean_sm, stderr_sm = stats(sm_counts, payoff_sm)
    histogram = {
        kind: cm_counts.get(kind, 0) + sm_counts.get(kind, 0)
        for kind in ("non_cooperation", "cooperation", "defection", "exploitation")
    }
    return TrialReport(
        n_trials=n_trials,
        mean_payoff_cm=mean_cm,
        mean_payoff_sm=mean_sm,
        stderr_cm=stderr_cm,
        stderr_sm=stderr_sm,
        outcome_histogram=histogram,
    )


def test_trial_report_record_contract(record_contract):
    # The histogram is a dict, so a report, like the dict, has no hash.
    record_contract(
        TrialReport,
        {
            "n_trials": 2,
            "mean_payoff_cm": 0.5,
            "mean_payoff_sm": 0.75,
            "stderr_cm": 0.0,
            "stderr_sm": 0.25,
            "outcome_histogram": {"non_cooperation": 3, "defection": 1},
        },
        "TrialReport(n_trials=2, mean_payoff_cm=0.5, mean_payoff_sm=0.75, stderr_cm=0.0, "
        "stderr_sm=0.25, outcome_histogram={'non_cooperation': 3, 'defection': 1})",
        hashable=False,
    )


# Each probability at 0 and at 1, where a draw's ``u < p`` test is never or
# always true, besides an interior point.
SCALAR_EQUIVALENCE_POINTS = {
    "interior": {},
    **{f"{name}={value}": {name: value} for name in "pqr" for value in (0.0, 1.0)},
}


class TestScalarEquivalence:
    @pytest.mark.parametrize(
        "changes", SCALAR_EQUIVALENCE_POINTS.values(), ids=SCALAR_EQUIVALENCE_POINTS.keys()
    )
    def test_single_block_matches_trial_loop(self, changes):
        """Vectorized counts equal resolving each trial with the scalar oracle."""
        cfg = reference_config(
            v_nc=0.37, v_c=0.81, **{"p": 0.6, "q": 0.3, "r": 0.45, **changes})
        report = estimate_eus(cfg, 10_000, seed=97)
        reference = reference_report(cfg, 10_000, seed=97)
        assert report.outcome_histogram == reference.outcome_histogram
        assert report.mean_payoff_cm == pytest.approx(reference.mean_payoff_cm, abs=1e-12)
        assert report.mean_payoff_sm == pytest.approx(reference.mean_payoff_sm, abs=1e-12)
        assert report.stderr_cm == pytest.approx(reference.stderr_cm, rel=1e-9)
        assert report.stderr_sm == pytest.approx(reference.stderr_sm, rel=1e-9)

    def test_multi_block_partitioning_matches_trial_loop(self, monkeypatch):
        """Block merging agrees with the loop when trials span many blocks."""
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 512)
        cfg = reference_config(p=0.55, q=0.25, r=0.3)
        report = estimate_eus(cfg, 3 * 512 + 123, seed=11)
        reference = reference_report(cfg, 3 * 512 + 123, seed=11)
        assert report.outcome_histogram == reference.outcome_histogram
        # Summed block counts reach callers (and json.dumps) as Python ints.
        assert {type(count) for count in report.outcome_histogram.values()} == {int}
        assert report.mean_payoff_cm == pytest.approx(reference.mean_payoff_cm, abs=1e-12)

    @pytest.mark.parametrize(
        "name, stream",
        [("r", 0), ("p", 1), ("q", 2), ("q", 1)],
        ids=["partner-r", "cm-focal-p", "sm-focal-q", "cm-exploited-q"],
    )
    def test_a_draw_equal_to_its_threshold_is_not_below_it(self, name, stream):
        """Each of the kernel's four compares is strict, as the scalar oracle's: a
        draw equal to r, p or q is not below it. The probability ``name`` is set to
        the block's own draw from ``stream`` (0 partner, 1 constrained focal, 2
        straightforward focal) at the first trial where that compare decides the
        outcome: the trial ends otherwise with a threshold one ulp above the draw."""
        trials, seed = 1000, 97
        draws = [[s.random() for _ in range(trials)] for s in spec_streams(seed, 0)]

        def config(value):
            values = {"p": 0.6, "q": 0.3, "r": 0.45, name: value}
            return reference_config(v_nc=0.37, v_c=0.81, **values)

        def outcome(value, t):
            streams = (SimpleNamespace(random=lambda u=row[t]: u) for row in draws)
            return run_trial(config(value), *streams)

        tie = next(config(u) for t, u in enumerate(draws[stream])
                   if outcome(u, t) != outcome(math.nextafter(u, 1.0), t))
        report = estimate_eus(tie, trials, seed=seed)
        assert report.outcome_histogram == reference_report(tie, trials, seed).outcome_histogram

    @pytest.mark.parametrize(
        "changes", SCALAR_EQUIVALENCE_POINTS.values(), ids=SCALAR_EQUIVALENCE_POINTS.keys()
    )
    def test_block_reads_only_fresh_draws_of_its_reused_row(self, monkeypatch, changes):
        """On a row of stale zeros, which would count as hits, and on masks
        stale all through, first all true and then all false, a full and then
        a partial block count what the scalar oracle counts trial by trial:
        each stream's draws are read before the next stream overwrites them,
        each mask entry is written before it is read, and nothing past the
        block's ``trials`` entries is read."""
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 4096)
        cfg = reference_config(
            v_nc=0.37, v_c=0.81, **{"p": 0.6, "q": 0.3, "r": 0.45, **changes})
        for block_index, trials in enumerate((4096, 2731)):
            streams = spec_streams(13, block_index)
            outcomes = Counter(run_trial(cfg, *streams) for _ in range(trials))
            for stale_mask in (True, False):
                row = np.zeros(montecarlo.BLOCK_TRIALS)
                partner, hits = np.full((2, montecarlo.BLOCK_TRIALS), stale_mask)
                counts = montecarlo._run_block(
                    cfg.params, 13, block_index, row[:trials], partner[:trials], hits[:trials]
                )
                assert counts.tolist() == [
                    sum(n for (cm, _), n in outcomes.items() if cm == "cooperation"),
                    sum(n for (cm, _), n in outcomes.items() if cm == "exploitation"),
                    sum(n for (_, sm), n in outcomes.items() if sm == "defection"),
                ], f"masks stale at {stale_mask}, {trials} trials"


class TestDegenerateConfigs:
    def test_no_recognition_is_exact_with_zero_variance(self):
        cfg = reference_config(v_nc=0.43, v_c=0.87, p=0.0, q=0.0, r=0.3)
        report = estimate_eus(cfg, 10_000, seed=1)
        assert report.mean_payoff_cm == 0.43
        assert report.mean_payoff_sm == 0.43
        assert report.stderr_cm == 0.0
        assert report.stderr_sm == 0.0
        assert report.outcome_histogram["non_cooperation"] == 20_000

    def test_certain_cooperation_is_exact(self):
        cfg = reference_config(v_nc=0.5, v_c=0.75, p=1.0, q=0.0, r=1.0)
        report = estimate_eus(cfg, 10_000, seed=1)
        assert report.mean_payoff_cm == 0.75
        assert report.outcome_histogram["cooperation"] == 10_000


class TestDeterminism:
    def test_identical_inputs_give_identical_reports(self):
        cfg = reference_config()
        assert estimate_eus(cfg, 50_000, seed=42) == estimate_eus(cfg, 50_000, seed=42)

    def test_worker_count_does_not_change_the_report(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 1000)
        cfg = reference_config()
        reports = [
            estimate_eus(cfg, 10_500, seed=3, workers=w) for w in (1, 2, 4, 8)
        ]
        assert all(report == reports[0] for report in reports)

    def test_env_var_controls_workers_without_changing_output(self, monkeypatch):
        cfg = reference_config()
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", "1")
        single = estimate_eus(cfg, 150_000, seed=9)
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", "4")
        pooled = estimate_eus(cfg, 150_000, seed=9)
        assert single == pooled

    def test_bad_env_var_is_an_error(self, monkeypatch):
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", "lots")
        with pytest.raises(ValueError):
            estimate_eus(reference_config(), 10, seed=0)


class TestWorkerRule:
    """W is the count passed, else DISPOSITIONS_SIM_THREADS; 0 or unset is the number of
    CPUs this process may run on. ``core.resolve_workers`` decides it for both pools."""

    @pytest.fixture(autouse=True)
    def eight_cpus_reported(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delenv("DISPOSITIONS_SIM_THREADS", raising=False)

    def test_automatic_count_reads_the_affinity_mask(self, monkeypatch):
        """Allowed one CPU of eight, the calling thread runs every block: no helper
        thread starts, and the report is the one-worker report."""
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        single = estimate_eus(reference_config(), 20 * 64 + 5, seed=4, workers=1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a helper thread was started")

        monkeypatch.setattr(montecarlo, "Thread", no_thread)
        unset = estimate_eus(reference_config(), 20 * 64 + 5, seed=4, workers=None)
        assert unset == single

    def test_without_an_affinity_mask_the_cpu_count_is_used(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_workers(100) == 8
        assert resolve_workers(5) == 5  # at most one worker per unit of work
        assert resolve_workers(0) == 1  # and never below one
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
        assert resolve_workers(100) == 1

    def test_a_count_given_is_obeyed_beyond_the_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers(100, 12) == 12
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", "12")
        assert resolve_workers(100) == 12
        assert resolve_workers(3) == 3


def record_blocks(monkeypatch, fail_at=None):
    """Wrap ``block_streams`` to log each block run as (index, thread id);
    the block ``fail_at`` raises instead of running."""
    runs = []
    original = montecarlo.block_streams

    def recording(seed, block_index):
        runs.append((block_index, threading.get_ident()))
        if block_index == fail_at:
            raise RuntimeError(f"block {block_index} failed")
        return original(seed, block_index)

    monkeypatch.setattr(montecarlo, "block_streams", recording)
    return runs


class TestDriver:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_every_block_runs_exactly_once(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        runs = record_blocks(monkeypatch)
        # Frequent thread switches make a lost or doubled block claim likely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            estimate_eus(reference_config(), 300 * 64 + 5, seed=2, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(index for index, _ in runs) == list(range(301))

    def test_one_worker_runs_every_block_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        runs = record_blocks(monkeypatch)
        estimate_eus(reference_config(), 50 * 64, seed=2, workers=1)
        assert len(runs) == 50
        assert {thread for _, thread in runs} == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failing_block_stops_the_other_workers(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        runs = record_blocks(monkeypatch, fail_at=4)
        with pytest.raises(RuntimeError, match="^block 4 failed$"):
            estimate_eus(reference_config(), 1000 * 64, seed=2, workers=workers)
        # Blocks 0-4, plus at most one more claimed by each other worker.
        assert 5 <= len(runs) <= workers + 4

    def test_helper_that_fails_to_start_stops_the_others(self, monkeypatch):
        """A helper thread that cannot start (as when the process is out of
        threads) stops the helpers already started, and the refusal is
        reported as a bad worker count."""
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        runs = record_blocks(monkeypatch)
        released = threading.Event()

        class SecondStartFails(threading.Thread):
            starts = 0

            def start(self):
                SecondStartFails.starts += 1
                if SecondStartFails.starts == 2:
                    raise RuntimeError("can't start new thread")
                super().start()

            def run(self):
                # The started helper claims blocks only once it is joined,
                # after the error has left the body of the driver's try.
                released.wait(60) and super().run()

            def join(self, timeout=None):
                released.set()
                super().join(timeout)

        monkeypatch.setattr(montecarlo, "Thread", SecondStartFails)
        workers = 3  # the calling thread and one started helper: 2 threads
        message = "^cannot start 3 Monte Carlo workers: can't start new thread$"
        with pytest.raises(InvalidInput, match=message):
            estimate_eus(reference_config(), 1000 * 64, seed=2, workers=workers)
        assert SecondStartFails.starts == 2
        assert len(runs) <= workers + 4

    def test_refused_thread_of_a_passed_count_does_not_name_the_variable(self, monkeypatch):
        """A worker count passed to ``estimate_eus`` is not DISPOSITIONS_SIM_THREADS's,
        even when that is set, so the refusal does not name it."""

        class RefusingThread(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        monkeypatch.setattr(montecarlo, "Thread", RefusingThread)
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", "5")
        message = "^cannot start 3 Monte Carlo workers: can't start new thread$"
        with pytest.raises(InvalidInput, match=message):
            estimate_eus(
                reference_config(), 3 * montecarlo.BLOCK_TRIALS, seed=2, workers=3)

    @pytest.mark.parametrize("fault", ["none", "failing_block", "refused_start"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_no_helper_outlives_the_call_or_reaches_excepthook(
        self, monkeypatch, workers, fault
    ):
        """Every helper that started is joined before ``estimate_eus`` returns
        or raises, and whatever a helper raises is handed to the caller, not
        to ``threading.excepthook`` (which would print it to stderr)."""
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        outcome = contextlib.nullcontext()
        if fault == "failing_block":
            record_blocks(monkeypatch, fail_at=4)
            outcome = pytest.raises(RuntimeError, match="^block 4 failed$")
        elif fault == "refused_start":

            class LastStartRefused(threading.Thread):
                """Starts all but the last helper, so the others must be joined."""
                starts = 0

                def start(self):
                    LastStartRefused.starts += 1
                    if LastStartRefused.starts == workers - 1:
                        raise RuntimeError("can't start new thread")
                    super().start()

            monkeypatch.setattr(montecarlo, "Thread", LastStartRefused)
            outcome = pytest.raises(InvalidInput, match="can't start new thread$")
        before = threading.enumerate()
        with outcome:
            estimate_eus(reference_config(), 1000 * 64, seed=2, workers=workers)
        assert threading.enumerate() == before
        assert hooked == []

    @pytest.mark.parametrize("workers", [2, 4])
    def test_what_a_helper_raises_reaches_the_caller(self, monkeypatch, workers):
        """Even an exception that is not an ``Exception`` (as ``SystemExit``
        or ``KeyboardInterrupt`` are not) is re-raised by ``estimate_eus``
        rather than handed to ``threading.excepthook``. The calling thread
        holds its first block until a helper has raised."""

        class Interrupt(BaseException):
            pass

        caller, interrupted = threading.get_ident(), threading.Event()
        original = montecarlo.block_streams

        def interrupt_the_helpers(seed, block_index):
            if threading.get_ident() != caller:
                interrupted.set()
                raise Interrupt
            interrupted.wait(60)
            return original(seed, block_index)

        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(montecarlo, "block_streams", interrupt_the_helpers)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        before = threading.enumerate()
        with pytest.raises(Interrupt):
            estimate_eus(reference_config(), 1000 * 64, seed=2, workers=workers)
        assert threading.enumerate() == before
        assert hooked == []

    def test_a_helper_whose_setup_fails_reaches_the_caller(self, monkeypatch):
        """A helper that cannot allocate its row and masks hands its error
        back like any other failure: raised by ``estimate_eus``, never passed
        to ``threading.excepthook``, and no thread outlives the call."""
        caller = threading.get_ident()

        class HelperCannotAllocate:
            """numpy, except that ``empty`` fails off the calling thread."""

            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                if threading.get_ident() != caller:
                    raise MemoryError("helper buffers")
                return np.empty(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(montecarlo, "np", HelperCannotAllocate())
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        before = threading.enumerate()
        with pytest.raises(MemoryError, match="^helper buffers$"):
            estimate_eus(reference_config(), 1000 * 64, seed=2, workers=2)
        assert threading.enumerate() == before
        assert hooked == []

    def test_the_calling_threads_failure_wins(self, monkeypatch):
        """When the calling thread and a helper both fail, the caller's own
        exception is raised, although the helper failed first. Each helper
        waits until the caller is inside a block, so the caller has claimed
        one before any helper fails."""

        class HelperFault(Exception):
            pass

        class CallerFault(Exception):
            pass

        caller = threading.get_ident()
        caller_in_block, helper_failed = threading.Event(), threading.Event()

        def both_fail(seed, block_index):
            if threading.get_ident() == caller:
                caller_in_block.set()
                helper_failed.wait(60)
                raise CallerFault
            caller_in_block.wait(60)
            helper_failed.set()
            raise HelperFault

        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(montecarlo, "block_streams", both_fail)
        with pytest.raises(CallerFault):
            estimate_eus(reference_config(), 1000 * 64, seed=2, workers=3)
        assert helper_failed.is_set()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_the_block_count(self, monkeypatch, workers):
        """What a block allocates is freed before the next one: a 1000-block call
        peaks below 64 KiB. A full collection runs first, so the peak does not rest
        on what earlier tests left behind."""
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        gc.collect()
        assert traced_peak(1000 * 64, workers) < 64 * 1024

    @pytest.mark.parametrize("workers", [1, 2])
    def test_working_set_is_one_draw_row_per_worker(self, workers):
        """At the real block size, a worker holds one reused row of draws
        (512 KiB) and two 64 KiB masks, not a buffer per stream."""
        assert traced_peak(8 * montecarlo.BLOCK_TRIALS + 17, workers) < workers * 1024 * 1024

    def test_a_warm_block_allocates_no_array(self):
        """On a row and masks already allocated, a full block allocates no
        array of its own: a single 64 KiB mask would exceed the bound."""
        row = np.empty(montecarlo.BLOCK_TRIALS)
        partner, hits = np.empty((2, montecarlo.BLOCK_TRIALS), bool)
        params = reference_config().params
        montecarlo._run_block(params, 0, 0, row, partner, hits)
        tracemalloc.start()
        try:
            montecarlo._run_block(params, 0, 1, row, partner, hits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


def traced_peak(n_trials: int, workers: int) -> int:
    """The ``tracemalloc`` peak of one ``estimate_eus`` call, in bytes, after an
    untraced warm-up call of the same size. The collector is off for both, so no
    collection between them changes what the traced call finds."""
    cfg = reference_config()
    enabled = gc.isenabled()
    gc.disable()
    try:
        estimate_eus(cfg, n_trials, seed=0, workers=workers)
        tracemalloc.start()
        try:
            estimate_eus(cfg, n_trials, seed=1, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        if enabled:
            gc.enable()


class TestOracleAgreement:
    def test_reference_config_matches_closed_forms(self):
        cfg = reference_config()
        report = estimate_eus(cfg, 10**6, seed=42)
        assert abs(report.mean_payoff_cm - 0.575) < 0.002
        assert abs(report.mean_payoff_sm - 0.525) < 0.002

    def test_random_configs_within_four_sigma(self):
        """|MC mean - closed form| <= 4 stderr over 20 random configurations."""
        rng = np.random.default_rng(7)
        for index in range(20):
            v_nc = rng.uniform(0.05, 0.9)
            v_c = rng.uniform(v_nc + 0.05, 0.99)
            p = rng.uniform(0.05, 0.95)
            q = rng.uniform(0.05, 0.95)
            r = rng.uniform(0.05, 0.95)
            cfg = reference_config(v_nc=v_nc, v_c=v_c, p=p, q=q, r=r)
            report = estimate_eus(cfg, 10**5, seed=1000 + index)
            eu_cm = translucent_eu_cm(cfg.payoffs, cfg.params)
            eu_sm = translucent_eu_sm(cfg.payoffs, cfg.params)
            assert abs(report.mean_payoff_cm - eu_cm) <= 4 * report.stderr_cm, (
                f"config {index}: CM mean off by more than 4 sigma"
            )
            assert abs(report.mean_payoff_sm - eu_sm) <= 4 * report.stderr_sm, (
                f"config {index}: SM mean off by more than 4 sigma"
            )
            assert 0.0 <= report.mean_payoff_cm <= 1.0
            assert 0.0 <= report.mean_payoff_sm <= 1.0
            assert report.stderr_cm >= 0.0 and report.stderr_sm >= 0.0

    def test_histogram_consistency(self):
        """Cooperation frequency tracks r*p; counts cover every encounter, under
        the four outcome keys in their JSON order."""
        cfg = reference_config(p=0.8, q=0.1, r=0.5)
        n = 10**5
        report = estimate_eus(cfg, n, seed=5)
        assert list(report.outcome_histogram) == [
            "non_cooperation", "cooperation", "defection", "exploitation"
        ]
        assert sum(report.outcome_histogram.values()) == 2 * n
        coop_rate = report.outcome_histogram["cooperation"] / n
        rp = cfg.params.r * cfg.params.p
        half_width = 2.576 * np.sqrt(rp * (1 - rp) / n)
        assert abs(coop_rate - rp) <= half_width


class TestValidation:
    @pytest.mark.parametrize("bad_n", [0, -5])
    def test_non_positive_trial_count_rejected(self, bad_n):
        with pytest.raises(InvalidTrialCount):
            estimate_eus(reference_config(), bad_n, seed=0)

    def test_the_largest_trial_count_passes_the_check(self, monkeypatch):
        """2**63 - 1 trials, the most the int64 counts hold, reach the first block;
        one more is refused before any block runs."""
        record_blocks(monkeypatch, fail_at=0)
        with pytest.raises(RuntimeError, match="^block 0 failed$"):
            estimate_eus(reference_config(), 2**63 - 1, seed=0, workers=1)
        with pytest.raises(InvalidTrialCount):
            estimate_eus(reference_config(), 2**63, seed=0, workers=1)

    def test_single_trial_allowed(self):
        report = estimate_eus(reference_config(), 1, seed=0)
        assert report.n_trials == 1
        assert report.stderr_cm == 0.0
        assert sum(report.outcome_histogram.values()) == 2
