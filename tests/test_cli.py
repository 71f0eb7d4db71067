"""Command-line interface: contracts, exit codes, and golden outputs."""

import contextlib
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cli_process
from dispositions_sim import cli
from dispositions_sim.cli import main
from dispositions_sim.montecarlo import BLOCK_TRIALS
from dispositions_sim.sweep import SWEEP_HEADER
from peak_rss import needs_procfs, peak_rss_kib
from reference import README_ANALYTIC, README_SWEEP, REFERENCE_FLAGS, run_main

GOLDEN = Path(__file__).parent / "golden"

# Each run's stdout, byte for byte. The only threshold comment, 0.25 at the
# reference payoffs and probabilities, is the exact root, so a more exactly
# rounded root formula leaves these files alone.
EVOLVE_GOLDENS = {
    "evolve_reference": [*REFERENCE_FLAGS, "--r0", "0.5", "--generations", "200"],
    "evolve_no_threshold": ["--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--q", "0",
                            "--r0", "0.5", "--generations", "200"],
    "evolve_subnormal_payoff": ["--vnc", "5e-324", "--vc", "0.5", "--p", "0", "--q", "0",
                                "--r0", "0.5", "--generations", "3"],
    "evolve_r0_zero": [*REFERENCE_FLAGS, "--r0", "0", "--generations", "200"],
    "evolve_r0_one": [*REFERENCE_FLAGS, "--r0", "1", "--generations", "200"],
}

# A valid config file per subcommand.
COMMAND_CONFIGS = {
    "analytic": {"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "r": 0.5},
    "simulate": {"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "r": 0.5, "n": 100},
    "sweep": {"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "axis": ["r=0:1:3"]},
    "evolve": {"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "r0": 0.5, "generations": 3},
}


class TestAnalyticCommand:
    def test_reference_point(self):
        code, out, _ = run_main(["analytic", *REFERENCE_FLAGS, "--r", "0.5"])
        assert code == 0
        record = json.loads(out)
        assert record["eu_cm"] == pytest.approx(0.575, abs=1e-12)
        assert record["eu_sm"] == pytest.approx(0.525, abs=1e-12)
        assert record["critical_ratio"] == pytest.approx(4.0, abs=1e-12)
        assert record["cm_rational"] is True

    def test_golden_output(self):
        _, out, _ = run_main(["analytic", *REFERENCE_FLAGS, "--r", "0.5"])
        assert out == README_ANALYTIC

    def test_invalid_ordering_exits_2(self):
        code, out, err = run_main(
            ["analytic", "--vnc", "0.7", "--vc", "0.6", "--p", "0.8", "--q", "0.1", "--r", "0.5"])
        assert code == 2
        assert out == ""
        assert "OrderingViolation" in err

    def test_no_recognition_collapse(self):
        code, out, _ = run_main(
            ["analytic", "--vnc", "0.5", "--vc", "0.75", "--p", "0", "--q", "0", "--r", "0.3"])
        assert code == 0
        record = json.loads(out)
        assert record["eu_cm"] == record["eu_sm"] == 0.5
        assert record["cm_rational"] is False

    def test_infinite_critical_ratio_serialized_as_inf_string(self):
        _, out, _ = run_main(["analytic", *REFERENCE_FLAGS, "--r", "0"])
        record = json.loads(out)  # stays valid JSON
        assert record["critical_ratio"] == "inf"


class TestSimulateCommand:
    def test_report_includes_analytic_values_and_deviations(self):
        code, out, _ = run_main(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "20000", "--seed", "42"])
        assert code == 0
        record = json.loads(out)
        assert record["analytic_eu_cm"] == pytest.approx(0.575, abs=1e-12)
        assert record["analytic_eu_sm"] == pytest.approx(0.525, abs=1e-12)
        assert record["deviation_cm"] == pytest.approx(
            abs(record["mean_payoff_cm"] - record["analytic_eu_cm"]), abs=1e-15
        )
        assert sum(record["outcome_histogram"].values()) == 2 * 20000

    def test_golden_output(self):
        _, out, _ = run_main(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000", "--seed", "42"])
        assert out == (
            '{"n_trials": 1000, "seed": 42, "mean_payoff_cm": 0.5745, '
            '"mean_payoff_sm": 0.524, "stderr_cm": 0.005808053329944854, '
            '"stderr_sm": 0.003381632066833317, "outcome_histogram": '
            '{"non_cooperation": 1489, "cooperation": 408, "defection": 48, '
            '"exploitation": 55}, "analytic_eu_cm": 0.575, "analytic_eu_sm": 0.525, '
            '"deviation_cm": 0.0004999999999999449, '
            '"deviation_sm": 0.0010000000000000009}\n'
        )

    def test_zero_trials_exits_2(self):
        code, _, err = run_main(["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "0"])
        assert code == 2
        assert "InvalidTrialCount" in err

    def test_negative_seed_exits_2(self):
        code, out, err = run_main(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "10", "--seed", "-1"])
        assert (code, out) == (2, "")
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("threads", ["abc", "-1"])
    def test_malformed_thread_count_exits_2(self, threads, monkeypatch):
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", threads)
        code, out, err = run_main(["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "10"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert threads in err

    def test_seed_defaults_to_zero(self):
        _, out_default, _ = run_main(["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000"])
        _, out_zero, _ = run_main(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000", "--seed", "0"])
        assert out_default == out_zero
        assert json.loads(out_default)["seed"] == 0


class TestSweepCommand:
    def test_reference_grid_critical_ratio_column(self):
        code, out, _ = run_main(["sweep", *REFERENCE_FLAGS, "--axis", "r=0.25:0.75:3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        ratios = [float(line.split(",")[8]) for line in lines[1:]]
        assert ratios == pytest.approx([8.0, 4.0, 2.0 + 2.0 / 3.0], abs=1e-12)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_golden_output(self):
        _, out, _ = run_main(["sweep", *REFERENCE_FLAGS, "--axis", "r=0.25:0.75:3"])
        assert out == README_SWEEP

    def test_numbers_round_trip_exactly(self):
        _, out, _ = run_main(
            ["sweep", "--vnc", "0.5", "--vc", "0.75", "--q", "0.1", "--r", "0.5",
             "--axis", "p=0.1:0.9:7"])
        for line in out.splitlines()[1:]:
            fields = line.split(",")
            margin = float(fields[7])
            eu_cm, eu_sm = float(fields[5]), float(fields[6])
            assert margin == eu_cm - eu_sm  # bit-exact after round-trip
            assert (margin > 0) == (fields[9] == "true")

    def test_two_axes_lexicographic_order(self):
        _, out, _ = run_main(
            ["sweep", "--vnc", "0.5", "--vc", "0.75", "--r", "0.5",
             "--axis", "p=0.2:0.8:2", "--axis", "q=0.1:0.3:2"])
        points = [(float(l.split(",")[0]), float(l.split(",")[1]))
                  for l in out.splitlines()[1:]]
        assert points == [(0.2, 0.1), (0.2, 0.3), (0.8, 0.1), (0.8, 0.3)]

    def test_single_point_grid(self):
        code, out, _ = run_main(["sweep", *REFERENCE_FLAGS, "--axis", "r=0.5:0.5:1"])
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_infinity_serialized_as_inf_literal(self):
        _, out, _ = run_main(["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:3"])
        first_row = out.splitlines()[1].split(",")
        assert first_row[8] == "inf"
        assert math.isinf(float(first_row[8]))

    def test_empty_grid_spec_exits_2(self):
        code, _, err = run_main(["sweep", *REFERENCE_FLAGS, "--r", "0.5"])
        assert code == 2
        assert "--axis" in err

    def test_invalid_grid_point_exits_2_naming_it(self):
        code, out, err = run_main(
            ["sweep", "--vc", "0.5", "--p", "0.8", "--q", "0.1", "--r", "0.5",
             "--axis", "v_noncoop=0.1:0.9:5"])
        assert code == 2
        assert out == ""  # nothing emitted before validation finished
        assert err == "OrderingViolation: require 0 < v_noncoop < v_coop < 1, got 0.5, 0.5\n"

    def test_axis_and_fixed_flag_conflict_exits_2(self):
        code, _, err = run_main(["sweep", *REFERENCE_FLAGS, "--r", "0.5", "--axis", "r=0:1:3"])
        assert code == 2
        assert "swept by an axis" in err

    def test_malformed_axis_exits_2(self):
        code, _, err = run_main(["sweep", *REFERENCE_FLAGS, "--axis", "r=0.25"])
        assert code == 2
        assert "bad axis spec" in err

    def test_unknown_axis_name_exits_2(self):
        code, _, err = run_main(["sweep", *REFERENCE_FLAGS, "--axis", "z=0:1:3"])
        assert code == 2
        assert "unknown sweep axis" in err


class TestEvolveCommand:
    def test_one_generation_gives_two_rows(self):
        code, out, _ = run_main(["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "generation,r,eu_cm,eu_sm"
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data) == 2
        assert data[0].split(",")[0] == "0"
        assert data[1].split(",")[0] == "1"

    def test_reference_trajectory_monotone_with_threshold_comment(self):
        code, out, _ = run_main(
            ["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "200"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("# ")
        # The closed-form root is exact here (2*0.1/0.8 has no rounding).
        assert lines[-1] == '# {"interior_threshold": 0.25}'
        shares = [float(l.split(",")[1]) for l in lines[1:-1]]
        assert all(a < b for a, b in zip(shares, shares[1:]))

    def test_fixed_start_stays_constant(self):
        _, out, _ = run_main(["evolve", *REFERENCE_FLAGS, "--r0", "1", "--generations", "5"])
        data = [l for l in out.splitlines()[1:] if not l.startswith("#")]
        assert all(line.split(",")[1] == "1" for line in data)

    def test_no_threshold_comment_when_absent(self):
        _, out, _ = run_main(
            ["evolve", "--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--q", "0",
             "--r0", "0.5", "--generations", "3"])
        assert not any(line.startswith("#") for line in out.splitlines())

    def test_invalid_generations_exits_2(self):
        code, _, _ = run_main(["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "0"])
        assert code == 2

    def test_subnormal_payoff_keeps_the_share(self):
        """Both fitnesses of a subnormal v_noncoop no longer underflow to zero."""
        code, out, err = run_main(
            ["evolve", "--vnc", "5e-324", "--vc", "0.5", "--p", "0", "--q", "0",
             "--r0", "0.5", "--generations", "3"])
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert rows and all(row.split(",")[1] == "0.5" for row in rows)


# p = 1e-9 moves the share by about 6e-11 a generation, far above the 1e-12 stop
# tolerance, so the run holds every requested generation.
EVOLVE_NEVER_CONVERGES = ["evolve", "--vnc", "0.5", "--vc", "0.75", "--p", "1e-9",
                          "--q", "0", "--r0", "0.5"]


@needs_procfs
def test_evolve_memory_per_generation_is_about_its_trajectory_step():
    """A generation costs its held ``TrajectoryStep``, not a copy of its row text too."""
    small, large = (
        peak_rss_kib([*EVOLVE_NEVER_CONVERGES, "--generations", str(n)], 0)
        for n in (10_000, 100_000)
    )
    assert (large - small) / (100_000 - 10_000) < 0.4, (small, large)


@pytest.mark.parametrize("name", sorted(EVOLVE_GOLDENS))
def test_evolve_golden_csv(name):
    code, out, err = run_main(["evolve", *EVOLVE_GOLDENS[name]])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_all_parameters(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "r": 0.5})
        )
        _, from_config, _ = run_main(["analytic", "--config", str(config)])
        _, from_flags, _ = run_main(["analytic", *REFERENCE_FLAGS, "--r", "0.5"])
        assert from_config == from_flags

    def test_flags_take_precedence_over_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "r": 0.5})
        )
        _, out, _ = run_main(["analytic", "--config", str(config), "--r", "0"])
        assert json.loads(out)["critical_ratio"] == "inf"

    def test_config_can_supply_sweep_axes(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1,
                        "axis": ["r=0.25:0.75:3"]})
        )
        code, out, _ = run_main(["sweep", "--config", str(config)])
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("axis", ["r=0:1:3", ["r=0:1:3", 5], {"r": "0:1:3"}])
    def test_config_axis_must_be_a_list_of_strings(self, axis, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "axis": axis})
        )
        code, out, err = run_main(["sweep", "--config", str(config)])
        assert (code, out) == (2, "")
        assert err.startswith('error: config key "axis" must be a list')
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("analytic", "vnc", "abc"),
            ("evolve", "generations", 2.7),
            ("simulate", "n", 2.5),
            ("simulate", "seed", 1.5),
            ("simulate", "n", "1e3"),  # read as --n 1e3 would be: not an int
            ("evolve", "generations", float("inf")),
            ("analytic", "p", True),
            ("simulate", "seed", False),
            ("analytic", "q", [0.1]),
            ("analytic", "r", {"value": 0.5}),
            pytest.param("analytic", "vc", 10**400, id="analytic-vc-huge_int"),
        ],
    )
    def test_malformed_config_value_exits_2(self, command, key, value, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**COMMAND_CONFIGS[command], key: value}))
        code, out, err = run_main([command, "--config", str(config)])
        assert (code, out) == (2, "")
        assert err.startswith(f'error: config key "{key}" must be ')
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, config_values, flags",
        [
            ("analytic", {"vnc": "0.5", "r": 1}, ["--vnc", "0.5", "--r", "1"]),
            ("simulate", {"n": 1e4, "seed": 7.0}, ["--n", "10000", "--seed", "7"]),
            ("simulate", {"n": "300", "seed": None}, ["--n", "300", "--seed", "0"]),
            ("evolve", {"generations": 3.0, "r0": "0.5"}, ["--generations", "3", "--r0", "0.5"]),
        ],
    )
    def test_config_values_read_like_flags(
        self, command, config_values, flags, tmp_path
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**COMMAND_CONFIGS[command], **config_values}))
        from_config = run_main([command, "--config", str(config)])
        from_flags = run_main([command, "--config", str(config), *flags])
        assert from_config == from_flags
        assert from_config[0] == 0

    def test_null_config_value_counts_as_absent(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**COMMAND_CONFIGS["analytic"], "q": None}))
        code, out, err = run_main(["analytic", "--config", str(config)])
        assert (code, out, err) == (2, "", "error: missing required parameter --q\n")

    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_config_key_that_names_no_flag_exits_2(self, command, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**COMMAND_CONFIGS[command], "sead": 5}))
        code, out, err = run_main([command, "--config", str(config)])
        assert (code, out, err) == (2, "", 'error: config key "sead" names no flag\n')

    @pytest.mark.parametrize(
        "command, foreign",
        [
            ("analytic", {"n": 7, "seed": 3, "axis": ["p=0:1:2"], "r0": 0.2, "generations": 2}),
            ("simulate", {"axis": ["p=0:1:2"], "r0": 0.2, "generations": 2}),
            ("sweep", {"n": 7, "seed": 3, "r0": 0.2, "generations": 2}),
            ("evolve", {"r": 0.2, "n": 7, "seed": 3, "axis": ["p=0:1:2"]}),
        ],
    )
    def test_config_key_of_another_commands_flag_is_ignored(
        self, command, foreign, tmp_path
    ):
        """One file serves all four commands: each reads its own flags only."""
        own, shared = tmp_path / "own.json", tmp_path / "shared.json"
        own.write_text(json.dumps(COMMAND_CONFIGS[command]))
        shared.write_text(json.dumps({**COMMAND_CONFIGS[command], **foreign}))
        from_shared = run_main([command, "--config", str(shared)])
        assert from_shared == run_main([command, "--config", str(own)])
        assert from_shared[0] == 0

    @pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100_000, b'{"vnc": 0.5'])
    def test_unreadable_config_exits_2(self, content, tmp_path):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        code, out, err = run_main(["analytic", "--config", str(config)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file") and err.count("\n") == 1

    def test_missing_config_file_exits_2(self):
        code, _, err = run_main(["analytic", "--config", "/nonexistent.json"])
        assert code == 2
        assert "config" in err


# Values small enough that every accepted config runs in milliseconds.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=2000),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-2.0, max_value=2000.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 2.5, 10**400]),
    st.sampled_from(["0.5", "1", "-1", "2.5", "1e3", "abc", "", " 0.25 ", "nan"]),
    st.text(max_size=6),
)
json_values = st.one_of(
    json_scalars,
    st.lists(st.one_of(json_scalars, st.sampled_from(["r=0:1:3", "p=0:1"])), max_size=3),
    st.dictionaries(st.text(max_size=3), json_scalars, max_size=2),
)


@st.composite
def config_files(draw):
    command = draw(st.sampled_from(sorted(COMMAND_CONFIGS)))
    config = dict(COMMAND_CONFIGS[command])
    for key in draw(st.sets(st.sampled_from(sorted(config)), min_size=1, max_size=2)):
        config[key] = draw(json_values)
    return command, config


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(config_files())
@example(("simulate", {**COMMAND_CONFIGS["simulate"], "n": 10**400}))
def test_any_config_file_exits_0_or_2_with_one_error_line(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config))
        code, _, err = run_main([command, "--config", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert err.count("\n") == 1
        assert not err.startswith("internal error")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("analytic", ["vnc", "vc", "p", "q", "r", "config"]),
        ("simulate", ["vnc", "vc", "p", "q", "r", "config", "n", "seed"]),
        ("sweep", ["vnc", "vc", "p", "q", "r", "config", "axis"]),
        ("evolve", ["vnc", "vc", "p", "q", "r0", "config", "generations"]),
    ],
)
def test_help_lists_flags_in_order(command, flags, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = re.findall(r"^ +--(\w+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == flags


class TestBrokenPipe:
    def test_reader_closing_early_exits_0_quietly(self):
        # About 3 MB of CSV: far more than a pipe buffers, so the writer
        # is still writing when the reader goes away.
        proc = cli_process.start(["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:20000"])
        header = proc.stdout.readline()
        proc.stdout.close()
        _, err = cli_process.finish(proc)
        assert header == (SWEEP_HEADER + "\n").encode()
        assert (proc.returncode, err) == (0, b"")


def test_unexpected_exception_exits_1_with_one_internal_error_line(monkeypatch):
    """An error that is not a bad input is a bug: exit 1, naming its type."""

    def boom(settings):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_analytic", boom)
    code, out, err = run_main(["analytic", *REFERENCE_FLAGS, "--r", "0.5"])
    assert (code, out, err) == (1, "", "internal error: RuntimeError: boom\n")


class TestDeterminism:
    def test_simulate_byte_identical_across_runs_and_thread_counts(self):
        argv = ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "200000",
                "--seed", "42"]
        runs = {threads: cli_process.run(argv, threads) for threads in (None, "1", "4")}
        for threads, (code, out, err) in runs.items():
            setting = f"DISPOSITIONS_SIM_THREADS={threads or '(unset)'}"
            assert code == 0, f"{setting}: exit {code}, stderr {err!r}"
            assert out == runs[None][1], f"{setting}: stdout differs from unset's"
        assert b"\r" not in runs[None][1]  # LF line endings only

    def test_sweep_byte_identical_across_runs(self):
        """Four q values, each with a span of ROWS_PER_WRITE rows and one of a single
        row: eight threads asked for give four processes of two spans each, which
        the CLI process relays in row order."""
        argv = ["sweep", "--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--axis", "q=0:1:4",
                "--axis", f"r=0:1:{cli.ROWS_PER_WRITE + 1}"]
        first = cli_process.run(argv, "1")
        second = cli_process.run(argv, "8")
        assert first == second


# Each run's (argv, DISPOSITIONS_SIM_THREADS or None, md5 of stdout). The sweep
# grids are the benchmark's 9 x 101 x 101 grid and a long r axis over two p
# values, whose two-row spans are each written in one call. The evolve run
# prints 10 002 lines, its rows in three slices. The simulate runs
# pin the JSON record, key order included; the multi-block one, whose last
# block is partial, runs under one and two workers.
SIMULATE_MULTI_BLOCK = ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000001",
                        "--seed", "7"]
MD5_PINS = {
    "sweep_grid": (["sweep", "--vc", "0.75", "--q", "0.1", "--axis", "v_noncoop=0.05:0.45:9",
                    "--axis", "p=0:1:101", "--axis", "r=0:1:101"],
                   None, "f3aa2a96a76a748db763fbe7219d860b"),
    "sweep_two_row_spans": (["sweep", "--vnc", "0.5", "--vc", "0.75", "--q", "0.1",
                             "--axis", "r=0:1:5000", "--axis", "p=0:1:2"],
                            None, "6d9545fc5e439db40cb41d271e9d6c59"),
    "evolve_three_slices": ([*EVOLVE_NEVER_CONVERGES, "--generations", "10000"],
                            None, "ebe69ffc50acf59d500b9c238f517daf"),
    "simulate": (["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "65536", "--seed", "1"],
                 None, "c1abd192520909db4b77735477d74b70"),
    "simulate_multi_block_1_worker": (SIMULATE_MULTI_BLOCK, "1",
                                      "065afe1fa60e66f24525f0ed6f87fa5d"),
    "simulate_multi_block_2_workers": (SIMULATE_MULTI_BLOCK, "2",
                                       "065afe1fa60e66f24525f0ed6f87fa5d"),
}


@pytest.mark.parametrize("name", sorted(MD5_PINS))
def test_stdout_matches_pinned_md5(name, monkeypatch):
    argv, threads, digest = MD5_PINS[name]
    if threads is None:
        monkeypatch.delenv("DISPOSITIONS_SIM_THREADS", raising=False)
    else:
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", threads)
    code, out, err = run_main(argv)
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == digest


@pytest.mark.skipif(sys.version_info < (3, 12), reason="the fork warning is new in 3.12")
def test_sweep_process_forks_its_workers_without_a_warning():
    """Python warns when a process with a second thread alive forks; the CLI
    process has no second thread when it forks its sweep workers."""
    argv, _, digest = MD5_PINS["sweep_grid"]
    code, out, err = cli_process.run(argv, "2", "import warnings; warnings.simplefilter('always')")
    assert (code, err) == (0, b"")
    assert hashlib.md5(out).hexdigest() == digest


# Calls cli.main with the collector off, as the process entry does, on each argv
# of the JSON list in its first argument, its stdout sent to the null device;
# after each call it prints on stderr the exit code and the count of unreachable
# objects gc.collect() finds.
COLLECTOR_OFF_CLI = """
import gc, json, os, sys
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
gc.disable()
from dispositions_sim.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(code, gc.collect(), file=sys.stderr)
"""


def _sweep_rows(p_count, r_count):
    return ["sweep", "--vnc", "0.5", "--vc", "0.75", "--q", "0.1",
            "--axis", f"p=0:1:{p_count}", "--axis", f"r=0:1:{r_count}"]


def _simulate_blocks(blocks):
    return ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", str(BLOCK_TRIALS * blocks)]


@pytest.mark.parametrize(
    "small, large",
    [
        (_sweep_rows(100, 100), _sweep_rows(400, 500)),  # 10^4 and 2 x 10^5 rows
        ([*EVOLVE_NEVER_CONVERGES, "--generations", "1000"],
         [*EVOLVE_NEVER_CONVERGES, "--generations", "100000"]),
        (_simulate_blocks(1), _simulate_blocks(30)),
    ],
    ids=["sweep", "evolve", "simulate"],
)
def test_collector_off_garbage_does_not_grow_with_size(small, large):
    """A CLI process runs with the cyclic collector off, so a command that left
    reference cycles per row, generation or block would grow without bound.
    After a warm-up ``simulate``, which imports numpy.random, what a call leaves
    for the collector is the same at a small and a large size."""
    code, _, err = cli_process.python(
        COLLECTOR_OFF_CLI, json.dumps([_simulate_blocks(1), small, large]), threads="2"
    )
    assert code == 0, err
    _, (small_code, small_found), (large_code, large_found) = (
        line.split() for line in err.splitlines()
    )
    assert (small_code, large_code) == (b"0", b"0"), err
    assert small_found == large_found, err


# A sweep whose inner axis holds more than one span: each p value gets two spans of
# 4096 rows and a partial one of 1808, 30 000 rows in 9 spans.
SWEEP_PARTIAL_SPANS = (["sweep", "--vnc", "0.5", "--vc", "0.75", "--q", "0.1",
                        "--axis", "p=0:1:3", "--axis", "r=0:1:10000"],
                       "7bfe6fc21aaedf553ecac4e2f99b0392")


class TestSweepWorkers:
    @pytest.mark.parametrize(
        "argv, digest",
        [MD5_PINS["sweep_grid"][::2], MD5_PINS["sweep_two_row_spans"][::2],
         SWEEP_PARTIAL_SPANS],
        ids=["sweep_grid", "sweep_two_row_spans", "partial_spans"],
    )
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_stdout_is_byte_identical_for_every_worker_count(self, argv, digest, threads):
        code, out, err = cli_process.run(argv, threads)
        assert (code, err) == (0, b"")
        assert hashlib.md5(out).hexdigest() == digest

    def test_without_fork_one_process_writes_the_same_bytes(self):
        """Where ``os`` has no ``fork`` (Windows), the grid that three workers would
        share under DISPOSITIONS_SIM_THREADS=3 is built by the CLI process alone."""
        argv, _, digest = MD5_PINS["sweep_grid"]
        code, out, err = cli_process.run(argv, "3", "del os.fork")
        assert (code, err) == (0, b"")
        assert hashlib.md5(out).hexdigest() == digest

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
    @pytest.mark.parametrize("threads, forks", [(None, 0), ("3", 2)], ids=["unset", "3"])
    def test_one_allowed_cpu_forks_only_the_workers_asked_for(self, threads, forks):
        """Run on one CPU (by its own affinity mask, whatever the host has), the default
        sweep is the CLI process alone; a count given is obeyed as it stands. The run
        reports on stderr how often it called ``os.fork``; its workers exit with
        ``os._exit``, which skips that report."""
        prelude = ("import atexit\n"
                 "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                 "forks, fork = [], os.fork\n"
                 "os.fork = lambda: forks.append(None) or fork()\n"
                 "atexit.register(lambda: sys.stderr.write(f'{len(forks)} forks\\n'))")
        argv, _, digest = MD5_PINS["sweep_grid"]
        code, out, err = cli_process.run(argv, threads, prelude)
        assert (code, err) == (0, f"{forks} forks\n".encode())
        assert hashlib.md5(out).hexdigest() == digest

    def test_reader_closing_early_exits_0_and_leaves_no_process(self):
        """Each worker blocked on its pipe sees the pipe close and exits; the CLI
        process waits for every one of them before it exits itself."""
        proc = cli_process.start(["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:100000"], "3")
        header = proc.stdout.readline()
        proc.stdout.close()
        _, err = cli_process.finish(proc)
        assert header == (SWEEP_HEADER + "\n").encode()
        assert (proc.returncode, err) == (0, b"")

    def test_failing_worker_fails_the_run_with_one_line(self):
        """A forked worker whose formula raises ends the run with exit 1 and one
        stderr line, after no more than the spans before its first one."""
        prelude = ("from dispositions_sim import sweep\n"
                 "parent, eu_cm = os.getpid(), sweep._eu_cm\n"
                 "def failing(*args):\n"
                 "    if os.getpid() != parent:\n"
                 "        raise ZeroDivisionError('in a worker')\n"
                 "    return eu_cm(*args)\n"
                 "sweep._eu_cm = failing")
        argv, _ = SWEEP_PARTIAL_SPANS
        code, out, err = cli_process.run(argv, "3", prelude)
        _, full, _ = cli_process.run(argv, "1")
        assert code == 1
        assert err.startswith(b"internal error: ") and err.count(b"\n") == 1
        assert full.startswith(out) and len(out) < len(full)

    @staticmethod
    def run_refusing(call, refused, error):
        """Run the partial-span sweep under DISPOSITIONS_SIM_THREADS=3, with the
        ``refused``-th call to ``os.<call>`` raising ``error``; its (stdout, stderr)."""
        prelude = (f"calls, original = [], os.{call}\n"
                 "def refusing():\n"
                 "    calls.append(None)\n"
                 f"    if len(calls) == {refused}:\n"
                 f"        raise {error}\n"
                 "    return original()\n"
                 f"os.{call} = refusing")
        code, out, err = cli_process.run(SWEEP_PARTIAL_SPANS[0], "3", prelude)
        assert code == 2
        return out, err

    @pytest.mark.parametrize("refused", [1, 2])
    def test_refused_fork_writes_nothing(self, refused):
        """The OS refusing the first or the second of two workers exits 2 with one
        line and no stdout, as a refused Monte Carlo thread does; a worker already
        forked sees its pipe close and exits."""
        error = "BlockingIOError(11, 'Resource temporarily unavailable')"
        assert self.run_refusing("fork", refused, error) == (
            b"", b"error: cannot start 3 sweep workers (DISPOSITIONS_SIM_THREADS=3): "
                 b"[Errno 11] Resource temporarily unavailable\n")

    def test_refused_pipe_writes_nothing(self):
        """The OS refusing the second worker's pipe, as when the process is out of
        file descriptors, exits 2 the same way; the first worker exits."""
        assert self.run_refusing("pipe", 2, "OSError(24, 'Too many open files')") == (
            b"", b"error: cannot start 3 sweep workers (DISPOSITIONS_SIM_THREADS=3): "
                 b"[Errno 24] Too many open files\n")


class WriteAndFlushOnly:
    """A stdout with nothing but ``write`` and ``flush``, like the benchmark's
    stand-ins (``CountingStdout`` in ``benchmarks/tracer.py`` and the sink of
    ``benchmarks/run.py``): a writer that used anything else, such as
    ``writelines``, would raise ``AttributeError`` there and exit 1."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


# A multi-block simulate, a sweep of three two-row spans and an evolve whose
# rows come in three slices, so every writer runs more than once.
NARROW_STDOUT_RUNS = {
    "analytic": ["analytic", *REFERENCE_FLAGS, "--r", "0.5"],
    "simulate_multi_block": ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "200001",
                             "--seed", "3"],
    "sweep_multi_span": ["sweep", "--vnc", "0.5", "--vc", "0.75", "--q", "0.1",
                         "--axis", "r=0:1:3", "--axis", "p=0:1:2"],
    "evolve_three_slices": [*EVOLVE_NEVER_CONVERGES, "--generations", "10000"],
}


@pytest.mark.parametrize("name", sorted(NARROW_STDOUT_RUNS))
def test_cli_writes_stdout_only_through_write_and_flush(name):
    argv = NARROW_STDOUT_RUNS[name]
    narrow = WriteAndFlushOnly()
    with contextlib.redirect_stdout(narrow):
        narrow_code = main(argv)
    full_code, full, _ = run_main(argv)
    assert (narrow_code, full_code) == (0, 0)
    assert "".join(narrow.parts) == full


# An evolve run that converges at generation 116 of 200, with a threshold comment
# after its rows, and one that stops at --generations, with none.
EVOLVE_SLICED_RUNS = {
    "converges_early": ["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "200"],
    "stops_at_generations": [*EVOLVE_NEVER_CONVERGES, "--generations", "20"],
}


@pytest.mark.parametrize("rows_per_write", [1, 2, 7, cli.ROWS_PER_WRITE])
@pytest.mark.parametrize("name", sorted(EVOLVE_SLICED_RUNS))
def test_evolve_writes_one_slice_of_rows_per_write_call(name, rows_per_write, monkeypatch):
    """The header, then one ``write`` per slice of at most ROWS_PER_WRITE rows, the last
    slice holding the rest, then the comment; the bytes are those of the default slices."""
    argv = EVOLVE_SLICED_RUNS[name]
    default = WriteAndFlushOnly()
    with contextlib.redirect_stdout(default):
        assert main(argv) == 0
    monkeypatch.setattr(cli, "ROWS_PER_WRITE", rows_per_write)
    sliced = WriteAndFlushOnly()
    with contextlib.redirect_stdout(sliced):
        assert main(argv) == 0
    out = "".join(sliced.parts)
    assert out == "".join(default.parts)

    rows = sum(not line.startswith("#") for line in out.splitlines()) - 1
    full, rest = divmod(rows, rows_per_write)
    slices = full + (rest > 0)
    assert sliced.parts[0] == "generation,r,eu_cm,eu_sm\n"
    assert [part.count("\n") for part in sliced.parts[1 : 1 + slices]] == (
        [rows_per_write] * full + [rest] * (rest > 0)
    )
    comment = out[out.index("#") :] if "#" in out else ""
    assert "".join(sliced.parts[1 + slices :]) == comment
