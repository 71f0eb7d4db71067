"""Tests of the benchmark itself: its output checks, its inputs and its result line.

Run from the repository root with ``python3 -m pytest benchmarks``. The
last test runs every workload briefly, so this file takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from dispositions_sim import cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

NUMBER = re.compile(rb"\d[\d.]*(e[+-]?\d+)?")


def cli_stdout(op: inputs.Op) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(op.argv()) == 0
    return buffer.getvalue().encode()


def corrupted(out: bytes, start: int) -> bytes:
    digit = out[start] - ord("0")
    return out[:start] + str((digit + 1) % 10).encode() + out[start + 1 :]


def short_ops(seed: int = 3) -> dict[str, inputs.Op]:
    workload = inputs.build("cli_short", seed)
    return {op.command: op for op in workload.ops[: workload.unit]}


@pytest.mark.parametrize("command", inputs.SHORT_CYCLE)
def test_corrupted_digit_fails_check(command):
    op = short_ops()[command]
    out = cli_stdout(op)
    checks.check(op, out)
    starts = [m.start() for m in NUMBER.finditer(out)]
    if command == "sweep":
        # With 11 rows and offset 0 the check re-derives the first and last rows.
        lines = out.split(b"\n")
        first, last = len(lines[0]) + 1, len(out) - 1 - len(lines[-2])
        checked = ((first, first + len(lines[1])), (last, len(out) - 1))
        starts = [s for s in starts if any(a <= s < b for a, b in checked)]
    assert starts
    for start in starts:
        with pytest.raises(checks.CheckFailed):
            checks.check(op, corrupted(out, start))


def test_sweep_row_count_and_header_are_exact():
    op = short_ops()["sweep"]
    out = cli_stdout(op)
    lines = out.split(b"\n")
    with pytest.raises(checks.CheckFailed):
        checks.check(op, b"\n".join(lines[:-2] + [b""]))
    with pytest.raises(checks.CheckFailed):
        checks.check(op, out.replace(b"v_coop", b"v_cop", 1))


def test_sweep_check_samples_rows_from_offset():
    op = inputs.Op("sweep", (("vnc", "0.5"), ("vc", "0.75"), ("q", "0.1")), ("p=0:1:5", "r=0:1:3"))
    out = cli_stdout(op)
    lines = out.split(b"\n")
    lines[1 + 4] = lines[1 + 4].replace(b"0.5", b"0.6", 1)
    bad = b"\n".join(lines)
    checks.check(op, bad, offset=0)
    with pytest.raises(checks.CheckFailed):
        checks.check(op, bad, offset=4)


def test_evolve_threshold_comment_is_required():
    op = short_ops()["evolve"]
    out = cli_stdout(op)
    assert out.split(b"\n")[-2].startswith(b"# ")
    with pytest.raises(checks.CheckFailed):
        checks.check(op, b"\n".join(out.split(b"\n")[:-2] + [b""]))


def test_seed_reaches_the_inputs():
    for name in ("mc_oracle", "cli_short"):
        assert inputs.build(name, 1) == inputs.build(name, 1)
        assert inputs.build(name, 1).ops != inputs.build(name, 2).ops
    seeds = {op.flag("seed") for op in inputs.build("mc_oracle", 1).ops}
    assert len(seeds) == len(inputs.build("mc_oracle", 1).ops)
    # The sweep grid is fixed; the seed only moves which rows are re-derived.
    assert inputs.build("sweep_grid", 1) == inputs.build("sweep_grid", 2)


def test_short_points_converge_with_a_threshold():
    for op in inputs.build("cli_short", 5).ops:
        if op.command == "evolve":
            out = cli_stdout(op)
            assert out.split(b"\n")[-2].startswith(b"# ")
            assert out.count(b"\n") < inputs.SHORT_GENERATIONS + 2


LAYER_SELF_TIMES = (
    "import.numpy_s", "import.pkg_self_s", "import.other_s", "process.other_s",
    "cli.self_s", "core.validate_s", "analytic.self_s", "encounter.self_s",
    "montecarlo.self_s", "dynamics.self_s",
)
EXACT_COUNTS = {
    "mc_oracle": {"encounter.draws": 3 * inputs.MC_TRIALS, "montecarlo.blocks": 306,
                  "analytic.cm_rational_calls": 0},
    "sweep_grid": {"analytic.cm_rational_calls": 91809, "core.validations": 2 * 91809,
                   "encounter.draws": 0, "montecarlo.blocks": 0},
    "cli_short": {"encounter.draws": 3 * inputs.SHORT_SIM_TRIALS, "analytic.cm_rational_calls": 12,
                  "dynamics.margin_evals": 36},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_result_line_matches_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in spec["workloads"]}
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        accounted = sum(values[name] for name in LAYER_SELF_TIMES)
        assert accounted == pytest.approx(values["trace.wall_s"], rel=1e-9)
        for name, count in EXACT_COUNTS[workload].items():
            assert values[name] == count, name
    else:
        assert all(value > 0 for value in values.values())


def test_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "benchmarks" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli_short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
