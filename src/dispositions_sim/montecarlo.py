"""Monte Carlo estimation of the two dispositions' expected utilities.

Serves as the independent check on the closed forms in ``analytic``: a
focal agent is paired against a population containing constrained
maximizers in fraction r, and each trial resolves the encounter twice,
once with the focal agent constrained and once straightforward, using
independent recognition draws but the same sampled partner. ``_run_block``
applies the encounter rules, a block of trials at a time.

Trials are partitioned into fixed-size blocks. Block k draws from three
dedicated streams derived from (seed, 3k), (seed, 3k+1) and (seed, 3k+2)
for partner sampling, constrained-focal recognition and
straightforward-focal recognition respectively, so results are
bit-identical for a given seed no matter how many workers run the blocks.
Because every encounter payoff is one of the four outcome levels, block
results are integer outcome counts; means and standard errors are
recovered from the counts, which keeps degenerate configurations (for
example p = q = 0) exact.

The worker count W is ``core.resolve_workers``'s, as the sweep's is. The
calling thread and W - 1 helper threads run one routine: it claims blocks
from one shared counter and hands back their summed counts, or whatever
stopped it. The calling thread's result comes first, so its failure wins.
The helpers are plain threads, joined before ``estimate_eus`` returns, so
no thread pool is loaded; a thread the OS refuses stops the others and is
reported as a bad worker count (``core.refused``), as a refused sweep fork
is. Each worker allocates, once, one row of ``BLOCK_TRIALS`` doubles
(512 KiB) and two boolean masks of 64 KiB: a block draws into its view of
that row, which its three streams fill in turn, and compares into its views
of the masks, so a block allocates no array but its three counts; memory
grows with the worker count, not the trial count.
"""

from __future__ import annotations

from collections import namedtuple
from math import sqrt
from threading import Lock, Thread

import numpy as np

from .core import InvalidInput, TranslucencyParams, _index, _Record, refused, resolve_workers
from .encounter import EncounterConfig, RngStream

BLOCK_TRIALS = 65_536


class InvalidTrialCount(InvalidInput):
    """The requested number of trials is not a positive integer."""


class TrialReport(_Record, namedtuple("TrialReport", "n_trials mean_payoff_cm mean_payoff_sm "
                                                     "stderr_cm stderr_sm outcome_histogram")):
    """Aggregated estimates from one Monte Carlo run.

    ``outcome_histogram`` counts the focal agent's outcomes over all
    resolved encounters (two per trial), keyed ``"non_cooperation"``,
    ``"cooperation"``, ``"defection"`` and ``"exploitation"`` in that order,
    so its values sum to 2 * n_trials. Being a dict, it leaves the report
    unhashable.
    """

    __slots__ = ()


def block_streams(seed: int, block_index: int) -> tuple[RngStream, RngStream, RngStream]:
    """The (partner, constrained-focal, straightforward-focal) streams of a block."""
    k = 3 * block_index
    return RngStream(seed, k), RngStream(seed, k + 1), RngStream(seed, k + 2)


def _run_block(
    params: TranslucencyParams, seed: int, block_index: int,
    row: np.ndarray, partner: np.ndarray, hits: np.ndarray,
) -> np.ndarray:
    """The block's ``(cm_coop, cm_exploited, sm_defect)`` counts, vectorized.

    A trial's partner is constrained when its partner draw is below r.
    Two constrained agents cooperate when their recognition draw is below
    p; in a mixed pair the constrained agent is exploited when the draw is
    below q; every other encounter is mutual non-cooperation.

    Every encounter consumes exactly one uniform draw from its stream,
    including the defector-vs-defector case (the draw is discarded there).
    A trial thus keeps its random numbers when only the disposition
    assignment changes, which stabilizes paired comparisons across
    experiment variants. The counts equal those of the scalar oracle,
    ``tests/scalar_oracle.py``, run trial by trial over the same streams
    (asserted by the test suite). ``row``, ``partner`` and ``hits`` are the
    block's views of its worker's reused draw row and two boolean masks, one
    entry per trial, whatever they held before. The three streams draw into
    ``row`` in turn, each used up before the next overwrites it; ``partner``
    keeps the partner compare and ``hits`` takes every other, so a block
    allocates no array but its counts.
    """
    partner_rng, cm_rng, sm_rng = block_streams(seed, block_index)
    p, q, r = params

    np.less(partner_rng.uniforms(row), r, out=partner)
    u_cm_focal = cm_rng.uniforms(row)
    np.less(u_cm_focal, p, out=hits)
    cm_coop = np.count_nonzero(np.logical_and(partner, hits, out=hits))
    # Exploited: u < q with a straightforward partner (bools compare as True > False).
    cm_exploited = np.count_nonzero(np.greater(np.less(u_cm_focal, q, out=hits), partner, out=hits))
    np.less(sm_rng.uniforms(row), q, out=hits)
    sm_defect = np.count_nonzero(np.logical_and(partner, hits, out=hits))
    return np.array([cm_coop, cm_exploited, sm_defect])


def _mean_and_stderr(counts: dict[float, int], n: int) -> tuple[float, float]:
    """Mean and standard error of a payoff taking finitely many values.

    Computed from exact integer counts: mean = sum v * (c_v / n). The
    sample variance uses the unbiased n-1 divisor and is clamped at zero
    against cancellation noise.
    """
    mean = sum(value * (count / n) for value, count in counts.items() if count)
    if n < 2:
        return mean, 0.0
    second_moment = sum(
        value * value * (count / n) for value, count in counts.items() if count
    )
    variance = max(0.0, (second_moment - mean * mean) * (n / (n - 1)))
    return mean, sqrt(variance / n)


def estimate_eus(
    cfg: EncounterConfig,
    n_trials: int,
    seed: int,
    workers: int | None = None,
) -> TrialReport:
    """Estimate both dispositions' expected payoffs from sampled encounters.

    Deterministic given (cfg, n_trials, seed): block boundaries and their
    streams depend only on the seed and block index, and integer counts
    merge associatively, so the worker count never changes the report.

    Raises:
        InvalidTrialCount: if n_trials is not an integer, or n_trials < 1 or
            n_trials > 2**63 - 1.
        InvalidInput: if seed is not an integer or < 0, the worker count is
            malformed or < 0, or the OS refuses a worker thread.
    """
    n_trials = _index(n_trials, "n_trials", InvalidTrialCount)
    seed = _index(seed, "seed")
    if n_trials < 1:
        raise InvalidTrialCount(f"n_trials must be >= 1, got {n_trials}")
    if n_trials > np.iinfo(np.int64).max:  # the outcome counts are int64
        raise InvalidTrialCount(
            f"n_trials must be <= {np.iinfo(np.int64).max}, got {n_trials}"
        )
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")

    n_blocks = -(-n_trials // BLOCK_TRIALS)
    n_workers = resolve_workers(n_blocks, workers)
    unclaimed = iter(range(n_blocks))
    claim_lock = Lock()

    def stop() -> None:
        """Leave nothing to claim, so every worker stops after its current block."""
        nonlocal unclaimed
        with claim_lock:
            unclaimed = iter(())

    def drain() -> np.ndarray | BaseException:
        """Run unclaimed blocks until none are left; their summed counts, or
        whatever stopped this worker (so nothing reaches threading.excepthook)."""
        try:
            row, partner, hits = np.empty(BLOCK_TRIALS), *np.empty((2, BLOCK_TRIALS), bool)
            counts = np.zeros(3, dtype=np.int64)
            while True:
                with claim_lock:
                    index = next(unclaimed, None)
                if index is None:
                    return counts
                trials = n_trials - index * BLOCK_TRIALS
                counts += _run_block(cfg.params, seed, index,
                                     row[:trials], partner[:trials], hits[:trials])
        except BaseException as exc:
            return exc
        finally:
            stop()  # a worker that fails or is interrupted stops the others

    # The calling thread drains too; its result goes first, so its failure wins.
    results = []  # each worker's counts, or whatever stopped it
    helpers = []  # the started threads only, as only those can be joined
    try:
        for _ in range(n_workers - 1):
            thread = Thread(target=lambda: results.append(drain()))
            thread.start()
            helpers.append(thread)
        results.insert(0, drain())
    except RuntimeError as exc:  # the OS refused a thread
        raise refused(n_workers, "Monte Carlo", exc, workers) from exc
    finally:
        stop()
        for thread in helpers:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    counts = sum(results)

    # Each trial has one outcome per focal disposition, so non-cooperation
    # takes whatever trials the other outcomes leave.
    cm_coop, cm_exploited, sm_defect = counts.tolist()
    cm_noncoop = n_trials - cm_coop - cm_exploited
    sm_noncoop = n_trials - sm_defect

    v_nc, v_c = cfg.payoffs
    mean_cm, stderr_cm = _mean_and_stderr({v_nc: cm_noncoop, v_c: cm_coop, 0.0: cm_exploited},
                                          n_trials)
    mean_sm, stderr_sm = _mean_and_stderr({v_nc: sm_noncoop, 1.0: sm_defect}, n_trials)

    histogram = {
        "non_cooperation": cm_noncoop + sm_noncoop,
        "cooperation": cm_coop,
        "defection": sm_defect,
        "exploitation": cm_exploited,
    }

    return TrialReport(
        n_trials=n_trials,
        mean_payoff_cm=mean_cm,
        mean_payoff_sm=mean_sm,
        stderr_cm=stderr_cm,
        stderr_sm=stderr_sm,
        outcome_histogram=histogram,
    )
