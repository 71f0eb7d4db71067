"""Command-line interface: contracts, exit codes, and golden outputs."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dispositions_sim import cli
from dispositions_sim.cli import main
from dispositions_sim.sweep import SWEEP_HEADER
from peak_rss import needs_procfs, peak_rss_kib

REFERENCE_FLAGS = ["--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--q", "0.1"]

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


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(argv, env_threads=None):
    """Run the CLI in a subprocess; its ``CompletedProcess``, output as bytes."""
    env = dict(os.environ)
    if env_threads is not None:
        env["DISPOSITIONS_SIM_THREADS"] = env_threads
    else:
        env.pop("DISPOSITIONS_SIM_THREADS", None)
    return subprocess.run(
        [sys.executable, "-m", "dispositions_sim", *argv],
        capture_output=True,
        env=env,
    )


def run_cli_bytes(argv, env_threads=None):
    """Run the CLI in a subprocess and return (exit code, raw stdout bytes)."""
    result = run_cli_process(argv, env_threads)
    return result.returncode, result.stdout


class TestAnalyticCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(["analytic", *REFERENCE_FLAGS, "--r", "0.5"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["eu_cm"] == pytest.approx(0.575, abs=1e-12)
        assert record["eu_sm"] == pytest.approx(0.525, abs=1e-12)
        assert record["critical_ratio"] == pytest.approx(4.0, abs=1e-12)
        assert record["cm_rational"] is True

    def test_golden_output(self, capsys):
        _, out, _ = run_cli(["analytic", *REFERENCE_FLAGS, "--r", "0.5"], capsys)
        assert out == (
            '{"eu_cm": 0.575, "eu_sm": 0.525, "margin": 0.04999999999999993, '
            '"critical_ratio": 4.0, "cm_rational": true}\n'
        )

    def test_invalid_ordering_exits_2(self, capsys):
        code, out, err = run_cli(
            ["analytic", "--vnc", "0.7", "--vc", "0.6", "--p", "0.8", "--q", "0.1", "--r", "0.5"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "OrderingViolation" in err

    def test_no_recognition_collapse(self, capsys):
        code, out, _ = run_cli(
            ["analytic", "--vnc", "0.5", "--vc", "0.75", "--p", "0", "--q", "0", "--r", "0.3"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["eu_cm"] == record["eu_sm"] == 0.5
        assert record["cm_rational"] is False

    def test_infinite_critical_ratio_serialized_as_inf_string(self, capsys):
        _, out, _ = run_cli(["analytic", *REFERENCE_FLAGS, "--r", "0"], capsys)
        record = json.loads(out)  # stays valid JSON
        assert record["critical_ratio"] == "inf"

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run_cli(["analytic", "--vnc", "0.5", "--vc", "0.75"], capsys)
        assert code == 2
        assert "--p" in err


class TestSimulateCommand:
    def test_report_includes_analytic_values_and_deviations(self, capsys):
        code, out, _ = run_cli(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "20000", "--seed", "42"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["analytic_eu_cm"] == pytest.approx(0.575, abs=1e-12)
        assert record["analytic_eu_sm"] == pytest.approx(0.525, abs=1e-12)
        assert record["deviation_cm"] == pytest.approx(
            abs(record["mean_payoff_cm"] - record["analytic_eu_cm"]), abs=1e-15
        )
        assert sum(record["outcome_histogram"].values()) == 2 * 20000

    def test_golden_output(self, capsys):
        _, out, _ = run_cli(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000", "--seed", "42"],
            capsys,
        )
        assert out == (
            '{"n_trials": 1000, "seed": 42, "mean_payoff_cm": 0.5745, '
            '"mean_payoff_sm": 0.524, "stderr_cm": 0.005808053329944854, '
            '"stderr_sm": 0.003381632066833317, "outcome_histogram": '
            '{"non_cooperation": 1489, "cooperation": 408, "defection": 48, '
            '"exploitation": 55}, "analytic_eu_cm": 0.575, "analytic_eu_sm": 0.525, '
            '"deviation_cm": 0.0004999999999999449, '
            '"deviation_sm": 0.0010000000000000009}\n'
        )

    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run_cli(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "0"], capsys
        )
        assert code == 2
        assert "InvalidTrialCount" in err

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "10", "--seed", "-1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("threads", ["abc", "-1"])
    def test_malformed_thread_count_exits_2(self, threads, capsys, monkeypatch):
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", threads)
        code, out, err = run_cli(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "10"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert threads in err

    def test_seed_defaults_to_zero(self, capsys):
        _, out_default, _ = run_cli(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000"], capsys
        )
        _, out_zero, _ = run_cli(
            ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "1000", "--seed", "0"],
            capsys,
        )
        assert out_default == out_zero
        assert json.loads(out_default)["seed"] == 0


class TestSweepCommand:
    def test_reference_grid_critical_ratio_column(self, capsys):
        code, out, _ = run_cli(
            ["sweep", *REFERENCE_FLAGS, "--axis", "r=0.25:0.75:3"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        ratios = [float(line.split(",")[8]) for line in lines[1:]]
        assert ratios == pytest.approx([8.0, 4.0, 2.0 + 2.0 / 3.0], abs=1e-12)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_golden_output(self, capsys):
        _, out, _ = run_cli(
            ["sweep", *REFERENCE_FLAGS, "--axis", "r=0.25:0.75:3"], capsys
        )
        assert out == (
            "p,q,r,v_noncoop,v_coop,eu_cm,eu_sm,margin,critical_ratio,cm_rational\n"
            "0.80000000000000004,0.10000000000000001,0.25,0.5,0.75,"
            "0.51250000000000007,0.51249999999999996,1.1102230246251565e-16,8,true\n"
            "0.80000000000000004,0.10000000000000001,0.5,0.5,0.75,"
            "0.57499999999999996,0.52500000000000002,0.049999999999999933,4,true\n"
            "0.80000000000000004,0.10000000000000001,0.75,0.5,0.75,"
            "0.63750000000000007,0.53749999999999998,0.10000000000000009,"
            "2.6666666666666665,true\n"
        )

    def test_numbers_round_trip_exactly(self, capsys):
        _, out, _ = run_cli(
            ["sweep", "--vnc", "0.5", "--vc", "0.75", "--q", "0.1", "--r", "0.5",
             "--axis", "p=0.1:0.9:7"],
            capsys,
        )
        for line in out.splitlines()[1:]:
            fields = line.split(",")
            margin = float(fields[7])
            eu_cm, eu_sm = float(fields[5]), float(fields[6])
            assert margin == eu_cm - eu_sm  # bit-exact after round-trip
            assert (margin > 0) == (fields[9] == "true")

    def test_two_axes_lexicographic_order(self, capsys):
        _, out, _ = run_cli(
            ["sweep", "--vnc", "0.5", "--vc", "0.75", "--r", "0.5",
             "--axis", "p=0.2:0.8:2", "--axis", "q=0.1:0.3:2"],
            capsys,
        )
        points = [(float(l.split(",")[0]), float(l.split(",")[1]))
                  for l in out.splitlines()[1:]]
        assert points == [(0.2, 0.1), (0.2, 0.3), (0.8, 0.1), (0.8, 0.3)]

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(
            ["sweep", *REFERENCE_FLAGS, "--axis", "r=0.5:0.5:1"], capsys
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_infinity_serialized_as_inf_literal(self, capsys):
        _, out, _ = run_cli(["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:3"], capsys)
        first_row = out.splitlines()[1].split(",")
        assert first_row[8] == "inf"
        assert math.isinf(float(first_row[8]))

    def test_empty_grid_spec_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", *REFERENCE_FLAGS, "--r", "0.5"], capsys)
        assert code == 2
        assert "--axis" in err

    def test_invalid_grid_point_exits_2_naming_it(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--vc", "0.5", "--p", "0.8", "--q", "0.1", "--r", "0.5",
             "--axis", "v_noncoop=0.1:0.9:5"],
            capsys,
        )
        assert code == 2
        assert out == ""  # nothing emitted before validation finished
        assert err == "OrderingViolation: require 0 < v_noncoop < v_coop < 1, got 0.5, 0.5\n"

    def test_axis_and_fixed_flag_conflict_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", *REFERENCE_FLAGS, "--r", "0.5", "--axis", "r=0:1:3"], capsys
        )
        assert code == 2
        assert "swept by an axis" in err

    def test_malformed_axis_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", *REFERENCE_FLAGS, "--axis", "r=0.25"], capsys
        )
        assert code == 2
        assert "bad axis spec" in err

    def test_unknown_axis_name_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", *REFERENCE_FLAGS, "--axis", "z=0:1:3"], capsys
        )
        assert code == 2
        assert "unknown sweep axis" in err


class TestEvolveCommand:
    def test_one_generation_gives_two_rows(self, capsys):
        code, out, _ = run_cli(
            ["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "1"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "generation,r,eu_cm,eu_sm"
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data) == 2
        assert data[0].split(",")[0] == "0"
        assert data[1].split(",")[0] == "1"

    def test_reference_trajectory_monotone_with_threshold_comment(self, capsys):
        code, out, _ = run_cli(
            ["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "200"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("# ")
        # The closed-form root is exact here (2*0.1/0.8 has no rounding).
        assert lines[-1] == '# {"interior_threshold": 0.25}'
        shares = [float(l.split(",")[1]) for l in lines[1:-1]]
        assert all(a < b for a, b in zip(shares, shares[1:]))

    def test_fixed_start_stays_constant(self, capsys):
        _, out, _ = run_cli(
            ["evolve", *REFERENCE_FLAGS, "--r0", "1", "--generations", "5"], capsys
        )
        data = [l for l in out.splitlines()[1:] if not l.startswith("#")]
        assert all(line.split(",")[1] == "1" for line in data)

    def test_no_threshold_comment_when_absent(self, capsys):
        _, out, _ = run_cli(
            ["evolve", "--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--q", "0",
             "--r0", "0.5", "--generations", "3"],
            capsys,
        )
        assert not any(line.startswith("#") for line in out.splitlines())

    def test_invalid_generations_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["evolve", *REFERENCE_FLAGS, "--r0", "0.5", "--generations", "0"], capsys
        )
        assert code == 2

    def test_subnormal_payoff_keeps_the_share(self, capsys):
        """Both fitnesses of a subnormal v_noncoop no longer underflow to zero."""
        code, out, err = run_cli(
            ["evolve", "--vnc", "5e-324", "--vc", "0.5", "--p", "0", "--q", "0",
             "--r0", "0.5", "--generations", "3"],
            capsys,
        )
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
def test_evolve_golden_csv(name, capsys):
    code, out, err = run_cli(["evolve", *EVOLVE_GOLDENS[name]], capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_all_parameters(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "r": 0.5})
        )
        _, from_config, _ = run_cli(["analytic", "--config", str(config)], capsys)
        _, from_flags, _ = run_cli(["analytic", *REFERENCE_FLAGS, "--r", "0.5"], capsys)
        assert from_config == from_flags

    def test_flags_take_precedence_over_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "r": 0.5})
        )
        _, out, _ = run_cli(
            ["analytic", "--config", str(config), "--r", "0"], capsys
        )
        assert json.loads(out)["critical_ratio"] == "inf"

    def test_config_can_supply_sweep_axes(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1,
                        "axis": ["r=0.25:0.75:3"]})
        )
        code, out, _ = run_cli(["sweep", "--config", str(config)], capsys)
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("axis", ["r=0:1:3", ["r=0:1:3", 5], {"r": "0:1:3"}])
    def test_config_axis_must_be_a_list_of_strings(self, axis, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"vnc": 0.5, "vc": 0.75, "p": 0.8, "q": 0.1, "axis": axis})
        )
        code, out, err = run_cli(["sweep", "--config", str(config)], capsys)
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
    def test_malformed_config_value_exits_2(self, command, key, value, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**COMMAND_CONFIGS[command], key: value}))
        code, out, err = run_cli([command, "--config", str(config)], capsys)
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
        self, command, config_values, flags, tmp_path, capsys
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**COMMAND_CONFIGS[command], **config_values}))
        from_config = run_cli([command, "--config", str(config)], capsys)
        from_flags = run_cli([command, "--config", str(config), *flags], capsys)
        assert from_config == from_flags
        assert from_config[0] == 0

    def test_null_config_value_counts_as_absent(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**COMMAND_CONFIGS["analytic"], "q": None}))
        code, out, err = run_cli(["analytic", "--config", str(config)], capsys)
        assert (code, out, err) == (2, "", "error: missing required parameter --q\n")

    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_config_key_that_names_no_flag_exits_2(self, command, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**COMMAND_CONFIGS[command], "sead": 5}))
        code, out, err = run_cli([command, "--config", str(config)], capsys)
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
        self, command, foreign, tmp_path, capsys
    ):
        """One file serves all four commands: each reads its own flags only."""
        own, shared = tmp_path / "own.json", tmp_path / "shared.json"
        own.write_text(json.dumps(COMMAND_CONFIGS[command]))
        shared.write_text(json.dumps({**COMMAND_CONFIGS[command], **foreign}))
        from_shared = run_cli([command, "--config", str(shared)], capsys)
        assert from_shared == run_cli([command, "--config", str(own)], capsys)
        assert from_shared[0] == 0

    @pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100_000, b'{"vnc": 0.5'])
    def test_unreadable_config_exits_2(self, content, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        code, out, err = run_cli(["analytic", "--config", str(config)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file") and err.count("\n") == 1

    def test_missing_config_file_exits_2(self, capsys):
        code, _, err = run_cli(
            ["analytic", "--config", "/nonexistent.json"], capsys
        )
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
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1
        assert not err.getvalue().startswith("internal error")


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
        proc = subprocess.Popen(
            [sys.executable, "-m", "dispositions_sim", "sweep", *REFERENCE_FLAGS,
             "--axis", "r=0:1:20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert header == (SWEEP_HEADER + "\n").encode()
        assert (code, err) == (0, b"")


def test_unexpected_exception_exits_1_with_one_internal_error_line(monkeypatch, capsys):
    """An error that is not a bad input is a bug: exit 1, naming its type."""

    def boom(settings):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_analytic", boom)
    code, out, err = run_cli(["analytic", *REFERENCE_FLAGS, "--r", "0.5"], capsys)
    assert (code, out, err) == (1, "", "internal error: RuntimeError: boom\n")


class TestDeterminism:
    def test_simulate_byte_identical_across_runs_and_thread_counts(self):
        argv = ["simulate", *REFERENCE_FLAGS, "--r", "0.5", "--n", "200000",
                "--seed", "42"]
        runs = {threads: run_cli_process(argv, env_threads=threads)
                for threads in (None, "1", "4")}
        for threads, run in runs.items():
            setting = f"DISPOSITIONS_SIM_THREADS={threads or '(unset)'}"
            assert run.returncode == 0, f"{setting}: exit {run.returncode}, stderr {run.stderr!r}"
            assert run.stdout == runs[None].stdout, f"{setting}: stdout differs from unset's"
        assert b"\r" not in runs[None].stdout  # LF line endings only

    def test_sweep_byte_identical_across_runs(self):
        argv = ["sweep", *REFERENCE_FLAGS, "--axis", "r=0.05:0.95:19"]
        first = run_cli_bytes(argv, env_threads="1")
        second = run_cli_bytes(argv, env_threads="8")
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
def test_stdout_matches_pinned_md5(name, capsys, monkeypatch):
    argv, threads, digest = MD5_PINS[name]
    if threads is None:
        monkeypatch.delenv("DISPOSITIONS_SIM_THREADS", raising=False)
    else:
        monkeypatch.setenv("DISPOSITIONS_SIM_THREADS", threads)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == digest


# Runs the CLI on the remaining arguments, as ``python -m dispositions_sim`` does.
# {patch} stands for code run before the CLI.
FORKING_CLI = (
    "import os, sys\n"
    "{patch}\n"
    "from dispositions_sim.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
# A sweep whose inner axis holds more than one span: each p value gets two spans of
# 4096 rows and a partial one of 1808, 30 000 rows in 9 spans.
SWEEP_PARTIAL_SPANS = (["sweep", "--vnc", "0.5", "--vc", "0.75", "--q", "0.1",
                        "--axis", "p=0:1:3", "--axis", "r=0:1:10000"],
                       "7bfe6fc21aaedf553ecac4e2f99b0392")


def run_forking_cli(argv, threads, patch=""):
    """Start FORKING_CLI on ``argv`` under DISPOSITIONS_SIM_THREADS=``threads`` (unset
    if None), as the leader of a new session, so that its process group holds every
    worker it forks."""
    env = dict(os.environ, DISPOSITIONS_SIM_THREADS=threads)
    if threads is None:
        del env["DISPOSITIONS_SIM_THREADS"]
    return subprocess.Popen([sys.executable, "-c", FORKING_CLI.format(patch=patch), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)


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


class TestSweepWorkers:
    @pytest.mark.parametrize(
        "argv, digest",
        [MD5_PINS["sweep_grid"][::2], MD5_PINS["sweep_two_row_spans"][::2],
         SWEEP_PARTIAL_SPANS],
        ids=["sweep_grid", "sweep_two_row_spans", "partial_spans"],
    )
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_stdout_is_byte_identical_for_every_worker_count(self, argv, digest, threads):
        proc = run_forking_cli(argv, threads)
        out, err = finish(proc)
        assert (proc.returncode, err) == (0, b"")
        assert hashlib.md5(out).hexdigest() == digest

    def test_without_fork_one_process_writes_the_same_bytes(self):
        """Where ``os`` has no ``fork`` (Windows), the grid that three workers would
        share under DISPOSITIONS_SIM_THREADS=3 is built by the CLI process alone."""
        argv, _, digest = MD5_PINS["sweep_grid"]
        proc = run_forking_cli(argv, "3", "del os.fork")
        out, err = finish(proc)
        assert (proc.returncode, err) == (0, b"")
        assert hashlib.md5(out).hexdigest() == digest

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
    @pytest.mark.parametrize("threads, forks", [(None, 0), ("3", 2)], ids=["unset", "3"])
    def test_one_allowed_cpu_forks_only_the_workers_asked_for(self, threads, forks):
        """Run on one CPU (by its own affinity mask, whatever the host has), the default
        sweep is the CLI process alone; a count given is obeyed as it stands. The run
        reports on stderr how often it called ``os.fork``; its workers exit with
        ``os._exit``, which skips that report."""
        patch = ("import atexit\n"
                 "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                 "forks, fork = [], os.fork\n"
                 "os.fork = lambda: forks.append(None) or fork()\n"
                 "atexit.register(lambda: sys.stderr.write(f'{len(forks)} forks\\n'))")
        argv, _, digest = MD5_PINS["sweep_grid"]
        proc = run_forking_cli(argv, threads, patch)
        out, err = finish(proc)
        assert (proc.returncode, err) == (0, f"{forks} forks\n".encode())
        assert hashlib.md5(out).hexdigest() == digest

    def test_reader_closing_early_exits_0_and_leaves_no_process(self):
        """Each worker blocked on its pipe sees the pipe close and exits; the CLI
        process waits for every one of them before it exits itself."""
        proc = run_forking_cli(["sweep", *REFERENCE_FLAGS, "--axis", "r=0:1:100000"], "3")
        header = proc.stdout.readline()
        proc.stdout.close()
        _, err = finish(proc)
        assert header == (SWEEP_HEADER + "\n").encode()
        assert (proc.returncode, err) == (0, b"")

    def test_failing_worker_fails_the_run_with_one_line(self):
        """A forked worker whose formula raises ends the run with exit 1 and one
        stderr line, after no more than the spans before its first one."""
        patch = ("from dispositions_sim import sweep\n"
                 "parent, eu_cm = os.getpid(), sweep._eu_cm\n"
                 "def failing(*args):\n"
                 "    if os.getpid() != parent:\n"
                 "        raise ZeroDivisionError('in a worker')\n"
                 "    return eu_cm(*args)\n"
                 "sweep._eu_cm = failing")
        argv, _ = SWEEP_PARTIAL_SPANS
        proc = run_forking_cli(argv, "3", patch)
        out, err = finish(proc)
        _, full = run_cli_bytes(argv, env_threads="1")
        assert proc.returncode == 1
        assert err.startswith(b"internal error: ") and err.count(b"\n") == 1
        assert full.startswith(out) and len(out) < len(full)

    @staticmethod
    def run_refusing(call, refused, error):
        """Run the partial-span sweep under DISPOSITIONS_SIM_THREADS=3, with the
        ``refused``-th call to ``os.<call>`` raising ``error``; its (stdout, stderr)."""
        patch = (f"calls, original = [], os.{call}\n"
                 "def refusing():\n"
                 "    calls.append(None)\n"
                 f"    if len(calls) == {refused}:\n"
                 f"        raise {error}\n"
                 "    return original()\n"
                 f"os.{call} = refusing")
        proc = run_forking_cli(SWEEP_PARTIAL_SPANS[0], "3", patch)
        out, err = finish(proc)
        assert proc.returncode == 2
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
    narrow, full = WriteAndFlushOnly(), io.StringIO()
    with contextlib.redirect_stdout(narrow):
        narrow_code = main(argv)
    with contextlib.redirect_stdout(full):
        full_code = main(argv)
    assert (narrow_code, full_code) == (0, 0)
    assert "".join(narrow.parts) == full.getvalue()


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
