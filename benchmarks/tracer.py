"""Layer spans recorded from outside the package, by wrapping module attributes.

``install`` replaces the functions and constructors that one layer calls
in another with wrappers that time each call. A name is wrapped where the
caller looks it up (``cli.cm_rational``, not ``analytic.cm_rational``),
because ``from .x import y`` binds a copy in the caller's namespace. Spans
nest on a per-thread stack; a span's self time is its duration minus the
durations of its direct children, so the self times of all spans under
``cli.main`` add up to the time of ``main``. Traced calls run with one
Monte Carlo worker so that every span nests on one thread.

Run as a script, this file is the traced CLI: it installs the wrappers,
runs ``dispositions_sim.cli.main`` on its arguments, and writes a one-line
JSON report to stderr after ``REPORT_MARK``. A ``MAIN_MARK`` line on
stderr separates the start-up imports (reported by ``-X importtime``)
from the call itself.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable

from dispositions_sim import cli, dynamics, encounter, montecarlo

MAIN_MARK = "#bench-main"
REPORT_MARK = "#bench-report "

Amount = Callable[[tuple, Any], int]


class Tracer:
    """In-memory span totals: per span name, calls and total and self seconds."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.edges: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, counter: str | None = None, amount: Amount | None = None
    ) -> Callable:
        """``fn`` recording a span ``name`` per call; ``amount(args, result)``
        is added to ``counter``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            with self._lock:
                totals = self.spans.setdefault(name, [0, 0.0, 0.0])
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                edge = f"{parent}>{name}"
                self.edges[edge] = self.edges.get(edge, 0) + 1
                if counter is not None:
                    self.counts[counter] = self.counts.get(counter, 0) + amount(args, result)
            return result

        return traced

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "edges": self.edges}


def _patches() -> list[tuple[Any, str, str, str | None, Amount | None]]:
    """(owner, attribute, span name, counter, amount) for every wrapped call site."""
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "cmd_analytic", "cli.cmd_analytic", None, None),
        (cli, "cmd_simulate", "cli.cmd_simulate", None, None),
        (cli, "cmd_sweep", "cli.cmd_sweep", None, None),
        (cli, "cmd_evolve", "cli.cmd_evolve", None, None),
        (cli, "TranslucentPayoffs", "core.TranslucentPayoffs", None, None),
        (cli, "TranslucencyParams", "core.TranslucencyParams", None, None),
        (cli, "cm_rational", "analytic.cm_rational", None, None),
        (cli, "critical_ratio", "analytic.critical_ratio", None, None),
        (cli, "translucent_eu_cm", "analytic.translucent_eu_cm", None, None),
        (cli, "translucent_eu_sm", "analytic.translucent_eu_sm", None, None),
        (dynamics, "translucent_eu_cm", "analytic.translucent_eu_cm", None, None),
        (dynamics, "translucent_eu_sm", "analytic.translucent_eu_sm", None, None),
        (cli, "estimate_eus", "montecarlo.estimate_eus", None, None),
        (montecarlo, "block_streams", "montecarlo.block_streams", None, None),
        (encounter.RngStream, "__init__", "encounter.RngStream", None, None),
        (encounter.RngStream, "uniforms", "encounter.uniforms", "encounter.draws",
         lambda args, result: len(result)),
        (cli, "evolve", "dynamics.evolve", "dynamics.generations",
         lambda args, result: len(result.steps) - 1),
        (cli, "interior_threshold", "dynamics.interior_threshold", None, None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every call site that exists; return a function that restores them."""
    originals = []
    for owner, attr, name, counter, amount in _patches():
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            continue
        originals.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(name, fn, counter, amount))

    def restore() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore


class CountingStdout:
    """Passes writes through, counting characters and noting the first write."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.chars = 0
        self.first_write: float | None = None

    def write(self, text: str) -> int:
        if self.first_write is None:
            self.first_write = perf_counter()
        self.chars += len(text)
        return self.inner.write(text)

    def flush(self) -> None:
        self.inner.flush()


def _traced_main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    out = CountingStdout(sys.stdout)
    sys.stdout = out
    print(MAIN_MARK, file=sys.stderr, flush=True)
    t0 = perf_counter()
    rc = cli.main(argv)
    t1 = perf_counter()
    out.flush()
    report = tracer.report()
    report["main_s"] = t1 - t0
    report["first_write_s"] = None if out.first_write is None else out.first_write - t0
    report["bytes_out"] = out.chars
    print(REPORT_MARK + json.dumps(report), file=sys.stderr, flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(_traced_main(sys.argv[1:]))
