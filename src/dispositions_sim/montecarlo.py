"""Monte Carlo estimation of the two dispositions' expected utilities.

Serves as the independent check on the closed forms in ``analytic``: a
focal agent is paired against a population containing constrained
maximizers in fraction r, and each trial resolves the encounter twice,
once with the focal agent constrained and once straightforward, using
independent recognition draws but the same sampled partner.

Trials are partitioned into fixed-size blocks. Block k draws from three
dedicated streams derived from (seed, 3k), (seed, 3k+1) and (seed, 3k+2)
for partner sampling, constrained-focal recognition and
straightforward-focal recognition respectively, so results are
bit-identical for a given seed no matter how many workers run the blocks.
Because every encounter payoff is one of the four outcome levels, block
results are integer outcome counts; means and standard errors are
recovered from the counts, which keeps degenerate configurations (for
example p = q = 0) exact.

Worker count is taken from the DISPOSITIONS_SIM_THREADS environment
variable when not passed explicitly; 0 or unset means automatic. The
calling thread and W - 1 helper threads claim blocks from one shared
counter, each drawing into its own reused buffer, so memory grows with
the worker count and not with the number of trials.
"""

from __future__ import annotations

import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from math import sqrt

import numpy as np

from .core import Disposition, InvalidInput, OutcomeClass, _Record
from .encounter import EncounterConfig, RngStream, resolve_encounter

BLOCK_TRIALS = 65_536

_THREADS_ENV_VAR = "DISPOSITIONS_SIM_THREADS"


class InvalidTrialCount(InvalidInput):
    """The requested number of trials is not a positive integer."""


_REPORT_FIELDS = "n_trials mean_payoff_cm mean_payoff_sm stderr_cm stderr_sm outcome_histogram"


class TrialReport(_Record, namedtuple("TrialReport", _REPORT_FIELDS)):
    """Aggregated estimates from one Monte Carlo run.

    ``outcome_histogram`` counts the focal agent's outcome class over all
    resolved encounters (two per trial), so its values sum to
    2 * n_trials. Being a dict, it leaves the report unhashable.
    """

    __slots__ = ()


def block_streams(seed: int, block_index: int) -> tuple[RngStream, RngStream, RngStream]:
    """The (partner, constrained-focal, straightforward-focal) streams of a block."""
    base = 3 * block_index
    return (
        RngStream(seed, base),
        RngStream(seed, base + 1),
        RngStream(seed, base + 2),
    )


def _run_block(
    cfg: EncounterConfig, seed: int, block_index: int, trials: int, draws: np.ndarray
) -> np.ndarray:
    """The block's ``(cm_coop, cm_exploited, sm_defect)`` counts, vectorized.

    Consumes exactly one uniform per encounter from the per-purpose
    streams, matching the scalar ``resolve_encounter`` draw discipline,
    so the counts equal those of a trial-by-trial loop over the same
    streams (asserted by the test suite). The draws overwrite the first
    ``trials`` columns of the ``(3, BLOCK_TRIALS)`` buffer ``draws``.
    """
    u_partner, u_cm_focal, u_sm_focal = (
        rng.uniforms(trials, out) for rng, out in zip(block_streams(seed, block_index), draws)
    )
    p, q, r = cfg.params.p, cfg.params.q, cfg.params.r

    partner_is_cm = u_partner < r
    return np.array([
        np.count_nonzero(partner_is_cm & (u_cm_focal < p)),
        np.count_nonzero(~partner_is_cm & (u_cm_focal < q)),
        np.count_nonzero(partner_is_cm & (u_sm_focal < q)),
    ])


def run_trial(
    cfg: EncounterConfig,
    partner_rng: RngStream,
    cm_rng: RngStream,
    sm_rng: RngStream,
) -> tuple[OutcomeClass, OutcomeClass]:
    """Resolve one trial's two encounters, returning the focal outcome classes.

    This is the scalar definition the vectorized blocks must agree with:
    sample the partner disposition once, then resolve the encounter with
    the focal agent constrained and again straightforward, on independent
    recognition streams.
    """
    partner = (
        Disposition.CONSTRAINED
        if partner_rng.uniform() < cfg.params.r
        else Disposition.STRAIGHTFORWARD
    )
    cm_outcome, _ = resolve_encounter(Disposition.CONSTRAINED, partner, cfg, cm_rng)
    sm_outcome, _ = resolve_encounter(Disposition.STRAIGHTFORWARD, partner, cfg, sm_rng)
    return cm_outcome, sm_outcome


def resolve_workers(workers: int | None = None) -> int:
    """Worker count from the argument or DISPOSITIONS_SIM_THREADS (0 = auto)."""
    if workers is None:
        raw = os.environ.get(_THREADS_ENV_VAR, "0")
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidInput(
                f"{_THREADS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise InvalidInput(f"worker count must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _mean_and_stderr(
    counts: dict[float, int], n: int
) -> tuple[float, float]:
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
        InvalidTrialCount: if n_trials < 1 or n_trials > 2**63 - 1.
        InvalidInput: if seed < 0 or the worker count is malformed or < 0.
    """
    if n_trials < 1:
        raise InvalidTrialCount(f"n_trials must be >= 1, got {n_trials}")
    if n_trials > np.iinfo(np.int64).max:  # the outcome counts are int64
        raise InvalidTrialCount(
            f"n_trials must be <= {np.iinfo(np.int64).max}, got {n_trials}"
        )
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")

    n_blocks = -(-n_trials // BLOCK_TRIALS)
    n_workers = min(resolve_workers(workers), n_blocks)
    unclaimed = iter(range(n_blocks))
    claim_lock = threading.Lock()

    def stop() -> None:
        """Leave nothing to claim, so every worker stops after its current block."""
        nonlocal unclaimed
        with claim_lock:
            unclaimed = iter(())

    def drain() -> np.ndarray:
        """Run unclaimed blocks until none are left; their summed counts."""
        draws = np.empty((3, BLOCK_TRIALS))
        counts = np.zeros(3, dtype=np.int64)
        try:
            while True:
                with claim_lock:
                    index = next(unclaimed, None)
                if index is None:
                    return counts
                trials = min(BLOCK_TRIALS, n_trials - index * BLOCK_TRIALS)
                counts += _run_block(cfg, seed, index, trials, draws)
        finally:
            stop()  # a worker that fails or is interrupted stops the others

    # The calling thread drains too; with one worker no thread starts.
    with ThreadPoolExecutor(max(n_workers - 1, 1)) as pool:
        # A helper that fails to start stops those already started.
        try:
            helpers = [pool.submit(drain) for _ in range(n_workers - 1)]
            counts = drain()
        finally:
            stop()
        for helper in helpers:
            counts += helper.result()

    # Each trial has one outcome per focal disposition, so non-cooperation
    # takes whatever trials the other outcomes leave.
    cm_coop, cm_exploited, sm_defect = counts.tolist()
    cm_noncoop = n_trials - cm_coop - cm_exploited
    sm_noncoop = n_trials - sm_defect

    v_nc = cfg.payoffs.v_noncoop
    v_c = cfg.payoffs.v_coop
    mean_cm, stderr_cm = _mean_and_stderr(
        {v_nc: cm_noncoop, v_c: cm_coop, 0.0: cm_exploited},
        n_trials,
    )
    mean_sm, stderr_sm = _mean_and_stderr(
        {v_nc: sm_noncoop, 1.0: sm_defect},
        n_trials,
    )

    histogram = {
        OutcomeClass.NON_COOPERATION: cm_noncoop + sm_noncoop,
        OutcomeClass.COOPERATION: cm_coop,
        OutcomeClass.DEFECTION: sm_defect,
        OutcomeClass.EXPLOITATION: cm_exploited,
    }

    return TrialReport(
        n_trials=n_trials,
        mean_payoff_cm=mean_cm,
        mean_payoff_sm=mean_sm,
        stderr_cm=stderr_cm,
        stderr_sm=stderr_sm,
        outcome_histogram=histogram,
    )
