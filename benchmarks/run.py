"""Benchmark of the dispositions-sim CLI, run from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the CLI is started as a
child process on inputs generated from the seed, one invocation at a time,
for about S seconds, and every output is checked (see ``checks.py``). The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine and the
run.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the CLI runs under ``tracer.py`` instead, and the
metrics are per-layer self times and counts per operation (one call, or one
cycle of four calls for ``cli_short``); the self times add up to the traced
wall time. The program under test is the package in ``src/`` of the
checkout this file sits in; without it the run fails and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# The package under test is the one in this checkout; ``main`` rejects any
# other copy that an installed distribution might shadow it with.
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
from dispositions_sim import EncounterConfig, cli, estimate_eus  # noqa: E402
from dispositions_sim.montecarlo import BLOCK_TRIALS  # noqa: E402

import inputs  # noqa: E402
from checks import CheckFailed, check, op_inputs, sweep_rows  # noqa: E402
from tracer import MAIN_MARK, REPORT_MARK, Tracer, install  # noqa: E402

THREADS_ENV = "DISPOSITIONS_SIM_THREADS"

CALL_TIMEOUT_S = 60.0
SETUP_REPS = 9
SCALING_REPS = 3
OVERHEAD_BUDGET_S = 5.0
TAIL_BEYOND = 10
IMPORT_PREFIX = "import time:"
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import dispositions_sim; "
    "print(time.perf_counter() - t0); print(dispositions_sim.__file__)"
)
# ``python -m dispositions_sim`` that reports its own peak RSS on stderr at
# exit. The rusage of a reaped child is no use here: Linux keeps the peak of
# the image a process had before exec, and a child spawned with vfork reports
# this benchmark's own peak.
RSS_MARK = "#bench-rss "
CLI_CODE = f"""\
import runpy, sys
try:
    runpy.run_module("dispositions_sim", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("{RSS_MARK}" + hwm + "\\n")
"""


class SetupError(Exception):
    """The program under test cannot be found or imported."""


@dataclass
class Call:
    """One finished child process."""

    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], env: dict[str, str]) -> Call:
    """Run ``argv`` to completion, draining its pipes; time it from spawn to exit.

    A child still running after ``CALL_TIMEOUT_S`` is killed.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(out_fd, selectors.EVENT_READ)
            sel.register(err_fd, selectors.EVENT_READ)
            deadline = t0 + CALL_TIMEOUT_S
            while sel.get_map():
                left = deadline - perf_counter()
                if left <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status = os.waitpid(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Call(wall, proc.returncode, b"".join(chunks[out_fd]), b"".join(chunks[err_fd]))


def child_env(workers: int | None) -> dict[str, str]:
    """Environment that imports the package from this checkout; None = default workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(THREADS_ENV, None)
    if workers is not None:
        env[THREADS_ENV] = str(workers)
    return env


def cli_argv(op) -> list[str]:
    return [sys.executable, "-c", CLI_CODE, *op.argv()]


def split_rss(stderr: bytes) -> tuple[bytes, float]:
    """The CLI's own stderr, and its peak RSS in MiB from the last line."""
    head, _, last = stderr.rstrip(b"\n").rpartition(b"\n")
    if not last.startswith(RSS_MARK.encode()):
        raise ValueError("no peak RSS line on stderr")
    return head, int(last[len(RSS_MARK):]) / 1024


def traced_argv(op) -> list[str]:
    return [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"), *op.argv()]


def setup_sample() -> float:
    """Seconds of ``import dispositions_sim`` in a fresh interpreter."""
    call = spawn([sys.executable, "-c", SETUP_CODE], child_env(None))
    lines = call.stdout.decode().split("\n")
    if call.returncode != 0 or call.stderr or len(lines) != 3:
        raise SetupError(f"import failed: {call.stderr.decode()[-500:]}")
    if Path(lines[1]).resolve().parent != SRC / "dispositions_sim":
        raise SetupError(f"child imported {lines[1]}, not the checkout's package")
    return float(lines[0])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least TAIL_BEYOND samples beyond it. A run with too few calls for that
    to lie above the median reports the upper median: a higher percentile of
    so few calls swings by up to 40% between runs on a shared host."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n


def split_traced_stderr(stderr: bytes) -> tuple[list[str], dict]:
    """Start-up ``-X importtime`` lines and the tracer's report.

    Raises ValueError if stderr holds anything else.
    """
    imports, report, in_main = [], None, False
    for line in stderr.decode().splitlines():
        if line == MAIN_MARK:
            in_main = True
        elif line.startswith(REPORT_MARK) and report is None:
            report = json.loads(line[len(REPORT_MARK):])
        elif line.startswith(IMPORT_PREFIX):
            if not in_main and "imported package" not in line:
                imports.append(line)
        else:
            raise ValueError(f"unexpected stderr line {line[:200]!r}")
    if report is None:
        raise ValueError("no trace report")
    return imports, report


def import_layers(lines: list[str]) -> dict[str, float]:
    """numpy's cumulative import time, the package's own self time, and the rest."""
    total = numpy_s = pkg_s = 0.0
    for line in lines:
        self_us, cumulative_us, name = line[len(IMPORT_PREFIX):].split("|")
        self_s = int(self_us) / 1e6
        total += self_s
        if name.strip() == "numpy":
            numpy_s = int(cumulative_us) / 1e6
        if name.strip().startswith("dispositions_sim"):
            pkg_s += self_s
    return {
        "import.numpy_s": numpy_s,
        "import.pkg_self_s": pkg_s,
        "import.other_s": total - numpy_s - pkg_s,
    }


def layer_metrics(op, call: Call, imports: list[str], report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced call."""
    spans, counts, edges = report["spans"], report["counts"], report["edges"]

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_of(layer: str) -> float:
        return sum(s[2] for name, s in spans.items() if name.split(".")[0] == layer)

    metrics = import_layers(imports)
    metrics["process.other_s"] = call.wall_s - sum(metrics.values()) - spans["cli.main"][1]
    metrics["trace.wall_s"] = call.wall_s
    sweep = op.command == "sweep" and report["first_write_s"] is not None
    metrics.update({
        "cli.self_s": self_of("cli"),
        "cli.parse_s": spans["cli.main"][2],
        "cli.sweep_compute_s": report["first_write_s"] if sweep else 0.0,
        "cli.sweep_emit_s": report["main_s"] - report["first_write_s"] if sweep else 0.0,
        "cli.bytes_out": report["bytes_out"],
        "core.validations": calls("core.TranslucentPayoffs") + calls("core.TranslucencyParams"),
        "core.validate_s": self_of("core"),
        "analytic.self_s": self_of("analytic"),
        "analytic.cm_rational_calls": calls("analytic.cm_rational"),
        "analytic.cm_rational_s": total("analytic.cm_rational"),
        "analytic.critical_ratio_s": total("analytic.critical_ratio"),
        "encounter.self_s": self_of("encounter"),
        "encounter.rngstream_new_s": total("encounter.RngStream"),
        "encounter.uniforms_s": total("encounter.uniforms"),
        "encounter.draws": counts.get("encounter.draws", 0),
        "montecarlo.self_s": self_of("montecarlo"),
        "montecarlo.block_streams_s": total("montecarlo.block_streams"),
        "montecarlo.blocks": calls("montecarlo.block_streams"),
        "dynamics.self_s": self_of("dynamics"),
        "dynamics.evolve_s": total("dynamics.evolve"),
        "dynamics.generations": counts.get("dynamics.generations", 0),
        "dynamics.interior_threshold_s": total("dynamics.interior_threshold"),
        "dynamics.margin_evals": edges.get(
            "dynamics.interior_threshold>analytic.translucent_eu_cm", 0
        ),
    })
    return metrics


class Run:
    """Counts of attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")


def call_error(op, call: Call, offset: int, traced: bool) -> str | None:
    """Why a CLI call failed: exit code, unexpected stderr, or a failed check."""
    if call.returncode != 0:
        return f"exit code {call.returncode}: {call.stderr.decode()[-300:]}"
    try:
        if traced:
            split_traced_stderr(call.stderr)
            stderr = b""
        else:
            stderr, _ = split_rss(call.stderr)
    except ValueError as exc:
        return f"stderr: {exc}"
    if stderr:
        return f"stderr: {stderr.decode()[:300]}"
    try:
        check(op, call.stdout, offset)
    except CheckFailed as exc:
        return f"check failed: {exc}"
    return None


def worker_check(run: Run, workload, nproc: int) -> None:
    """simulate stdout must not depend on the worker count (outside timing)."""
    sims = [op for op in workload.ops if op.command == "simulate"]
    if not sims:
        return
    outs = [spawn(cli_argv(sims[0]), child_env(w)) for w in (1, nproc)]
    same = all(c.returncode == 0 for c in outs) and outs[0].stdout == outs[1].stdout
    run.record("worker check", None if same else f"stdout differs between 1 and {nproc} workers")


def loop(run: Run, workload, seconds: float, offset: int, traced: bool):
    """Run the ops in order until ``seconds`` have passed, stopping only after a
    whole operation (untraced) or a whole pass over the ops (traced), so that
    traced counts repeat exactly for a seed. Yields (op, call, error)."""
    ops = workload.ops
    stop_every = len(ops) if traced else workload.unit
    argv_of, env = (traced_argv, child_env(1)) if traced else (cli_argv, child_env(None))
    deadline = perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        call = spawn(argv_of(op), env)
        error = call_error(op, call, offset, traced)
        run.record(f"{op.command} #{i}", error)
        yield op, call, error
        i += 1
        if i % stop_every == 0 and perf_counter() >= deadline:
            return


def estimate_s(run: Run, op, workers: int) -> float:
    """Seconds of one in-process ``estimate_eus`` call on a simulate op's inputs."""
    n = int(op.flag("n"))
    t0 = perf_counter()
    report = estimate_eus(EncounterConfig(*op_inputs(op)), n, int(op.flag("seed")), workers=workers)
    elapsed = perf_counter() - t0
    ok = sum(report.outcome_histogram.values()) == 2 * n
    run.record("estimate_eus", None if ok else "histogram does not sum to 2n")
    return elapsed


def scaling_efficiency(run: Run, sims, nproc: int) -> float:
    """t1 / (W * tW) of in-process ``estimate_eus``, W the workers that get a block."""
    n = int(sims[0].flag("n"))
    workers = min(nproc, -(-n // BLOCK_TRIALS))
    estimate_s(run, sims[0], workers)
    picks = [sims[k % len(sims)] for k in range(SCALING_REPS)]
    t1 = statistics.median(estimate_s(run, op, 1) for op in picks)
    tw = statistics.median(estimate_s(run, op, workers) for op in picks)
    return t1 / (workers * tw)


class _Sink:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def inprocess_unit_s(run: Run, ops) -> float:
    """Seconds to run ``ops`` through ``cli.main`` in this process, one worker."""
    saved = os.environ.get(THREADS_ENV)
    os.environ[THREADS_ENV] = "1"
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(_Sink()):
            codes = [cli.main(op.argv()) for op in ops]
        elapsed = perf_counter() - t0
    finally:
        if saved is None:
            del os.environ[THREADS_ENV]
        else:
            os.environ[THREADS_ENV] = saved
    ok = all(code == 0 for code in codes)
    run.record("in-process main", None if ok else f"exit codes {codes}")
    return elapsed


def tracing_overhead_s(run: Run, workload) -> float:
    """Traced minus untraced in-process time of one operation (medians of pairs)."""
    ops = workload.ops[: workload.unit]
    plain, traced = [], []
    start = perf_counter()
    while len(plain) < 3 and (not plain or perf_counter() - start < OVERHEAD_BUDGET_S):
        plain.append(inprocess_unit_s(run, ops))
        restore = install(Tracer())
        try:
            traced.append(inprocess_unit_s(run, ops))
        finally:
            restore()
    return statistics.median(traced) - statistics.median(plain)


def machine(nproc: int) -> dict:
    """The machine and the code under test."""
    info: dict = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": None,
        "caches": {},
        "git_commit": None,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}{kind[0].lower() if level == '1' else ''}"] = (
                (index / "size").read_text().strip()
            )
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            info["git_commit"] = head.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def end_to_end(run: Run, workload, seconds: float, offset: int, nproc: int, info: dict) -> dict:
    """End-to-end metrics of the untraced loop.

    Set-up samples and, on mc_oracle, in-process ``estimate_eus`` calls are
    spread over the whole loop, so that every metric sees the same stretch
    of a host whose speed drifts over seconds.
    """
    mc = workload.name == "mc_oracle"
    if mc:
        estimate_s(run, workload.ops[0], 1)
    walls, rss, unit_walls, unit_wall, setup, mc_s = [], [], [], 0.0, [], []
    start = perf_counter()
    for i, (op, call, error) in enumerate(loop(run, workload, seconds, offset, traced=False)):
        walls.append(call.wall_s)
        if error is None:
            rss.append(split_rss(call.stderr)[1])
        unit_wall += call.wall_s
        if (i + 1) % workload.unit == 0:
            unit_walls.append(unit_wall)
            unit_wall = 0.0
        if mc:
            # One worker: the two-worker rate swings by 2x between runs on a
            # shared 2-CPU host; montecarlo.scaling_eff reports the parallel gain.
            mc_s.append(estimate_s(run, op, 1))
        if perf_counter() - start >= len(setup) * seconds / SETUP_REPS:
            setup.append(setup_sample())
    while len(setup) < SETUP_REPS:
        setup.append(setup_sample())
    info["setup_samples_s"] = setup

    if mc:
        info["work_unit"] = "Monte Carlo trials (in-process estimate_eus, one worker)"
        work_per_s = int(workload.ops[0].flag("n")) / statistics.median(mc_s)
    elif workload.name == "sweep_grid":
        info["work_unit"] = "sweep rows (CLI wall time)"
        work_per_s = sweep_rows(workload.ops[0]) / statistics.median(walls)
    else:
        info["work_unit"] = "CLI invocations (closed loop, median cycle of four)"
        work_per_s = workload.unit / statistics.median(unit_walls)

    tail_s, tail_pct, count = tail(walls)
    info["calls"] = count
    info["tail_percentile"] = tail_pct
    return {
        "setup_s": (statistics.median(setup), "s"),
        "call_p50_s": (statistics.median(walls), "s"),
        "call_tail_s": (tail_s, "s"),
        "work_per_s": (work_per_s, "1/s"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MiB"),
    }


def per_layer(run: Run, workload, seconds: float, offset: int, nproc: int, info: dict) -> dict:
    """Per-layer metrics per operation, from whole traced passes over the ops."""
    sums: dict[str, float] = {}
    n_ok = 0
    for op, call, error in loop(run, workload, seconds, offset, traced=True):
        if error is not None:
            continue
        n_ok += 1
        imports, report = split_traced_stderr(call.stderr)
        for name, value in layer_metrics(op, call, imports, report).items():
            sums[name] = sums.get(name, 0.0) + value
    units = max(n_ok, 1) / workload.unit
    metrics = {name: value / units for name, value in sums.items()}

    sims = [op for op in workload.ops if op.command == "simulate"]
    metrics["montecarlo.scaling_eff"] = scaling_efficiency(run, sims, nproc) if sims else 0.0
    metrics["trace.overhead_s"] = tracing_overhead_s(run, workload)
    info["trace_overhead_s"] = metrics["trace.overhead_s"]
    info["workers"] = 1
    out = {}
    for name, value in sorted(metrics.items()):
        if name.endswith("_s"):
            unit = "s"
        elif name == "cli.bytes_out":
            unit = "B"
        elif name == "montecarlo.scaling_eff":
            unit = "ratio"
        else:
            unit = "count"
        out[name] = (value, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if Path(cli.__file__).resolve().parent != SRC / "dispositions_sim":
            raise SetupError(f"imported {cli.__file__}, not the checkout's package")
        workload = inputs.build(args.workload, args.seed)
        # Also checks that children import the package from this checkout.
        setup_sample()
    except (SetupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    info = machine(nproc)
    info.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                workers=nproc)
    run = Run()
    worker_check(run, workload, nproc)
    measure = per_layer if args.trace else end_to_end
    # The seed also picks which sweep rows the checks re-derive.
    metrics = measure(run, workload, args.seconds, args.seed, nproc, info)
    info["failures"] = run.failures[:5]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
