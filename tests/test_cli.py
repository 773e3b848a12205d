import argparse
import os
import warnings

import numpy as np
import pytest

from cfpilot.cli import _build_parser, main
from cfpilot.harness import CSV_HEADER, KEY_PARSERS, ThroughputRecord, read_records, write_records


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
num_aps = 6
num_ues = 4
num_pilots = 2
realizations = 2
seed = 11
strategies = random, oracle
power_policy = maxmin
"""


def test_run_writes_records_csv(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "records.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(read_records(out)) == 2 * 2 * 4


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, BASE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, BASE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--seed", "99", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_run_strategy_override(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "records.csv"
    main(["run", "--config", cfg, "--strategies", "oracle", "--out", str(out)])
    assert {r.strategy for r in read_records(out)} == {"oracle"}


def test_stats_reports_percentiles(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "records.csv"
    main(["run", "--config", cfg, "--out", str(out)])
    assert main(["stats", "--in", str(out), "--percentile", "95"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("# percentile method: nearest-rank")
    assert printed[1] == "strategy,n,percentile,throughput_bps"
    strategies = [line.split(",")[0] for line in printed[2:]]
    assert strategies == ["oracle", "random"]


def test_sweep_writes_stats_file(tmp_path):
    cfg = write_config(tmp_path, BASE + "output_path = sweep.csv\n")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", cfg, "--var", "num_aps",
                 "--values", "4,8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "variable,value,strategy,n,percentile,throughput_bps"
    assert len(lines) == 2 + 2 * 2  # two values x two strategies


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", "x.csv"]) == 2


def test_bad_strategy_is_config_error(tmp_path):
    cfg = write_config(tmp_path, BASE.replace("strategies = random, oracle",
                                              "strategies = sorcery"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def test_missing_output_path_is_config_error(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert main(["run", "--config", cfg]) == 2


def test_budget_guard_exit_code(tmp_path):
    text = BASE.replace("num_ues = 4", "num_ues = 30").replace(
        "strategies = random, oracle", "strategies = exhaustive")
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3


def test_array_too_large_to_allocate_is_budget_error(tmp_path, capsys):
    # The AP positions alone take 1.6e16 bytes, beyond any 2^47-byte user address
    # space, so the allocation fails before a page is touched.
    cfg = write_config(tmp_path, BASE.replace("num_aps = 6", f"num_aps = {10 ** 15}"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget error [memory]: ") and "Unable to allocate" in err


def test_bad_percentile_is_config_error(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "records.csv"
    main(["run", "--config", cfg, "--out", str(out)])
    assert main(["stats", "--in", str(out), "--percentile", "150"]) == 2


def test_stats_takes_the_exact_nearest_rank(tmp_path, capsys):
    # In floating point 0.07 * 100 is 7.000000000000001, whose ceiling is rank 8.
    records = tmp_path / "records.csv"
    write_records([ThroughputRecord(0, "random", ue, 1.0, ue + 1.0) for ue in range(100)],
                  records)
    assert main(["stats", "--in", str(records), "--percentile", "7"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "random,100,7,7"


def test_sweep_takes_the_exact_nearest_rank(tmp_path):
    # 4 UEs in 25 realizations: 100 samples per strategy, whose 7th smallest is rank 7.
    # At full power the UEs of a realization do not share one max-min rate.
    text = BASE.replace("realizations = 2", "realizations = 25").replace("maxmin", "full")
    cfg = write_config(tmp_path, text)
    records, out = tmp_path / "records.csv", tmp_path / "sweep.csv"
    assert main(["run", "--config", cfg, "--out", str(records)]) == 0
    assert main(["sweep", "--config", cfg, "--var", "num_aps", "--values", "6",
                 "--percentile", "7", "--out", str(out)]) == 0
    samples = sorted(r.throughput_bps for r in read_records(records) if r.strategy == "random")
    assert len(samples) == 100 and f"{samples[6]:.9g}" != f"{samples[7]:.9g}"
    assert f"num_aps,6,random,100,7,{samples[6]:.9g}" in out.read_text().splitlines()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path, BASE + f"bandwidth = {value}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "bandwidth must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["repulsive", "optimal-repulsive"])
def test_more_pilots_than_ues_is_config_error(tmp_path, capsys, strategy):
    text = BASE.replace("num_pilots = 2", "num_pilots = 6").replace(
        "strategies = random, oracle", f"strategies = {strategy}")
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "4 UEs cannot fill 6 pilots" in capsys.readouterr().err


def test_pilots_filling_the_coherence_block_is_config_error(tmp_path, capsys):
    # No symbol is left for data, so every throughput would be 0.
    cfg = write_config(tmp_path, BASE + "coherence_len = 2\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "num_pilots = 2 equals coherence_len = 2" in err
    assert "rounds to 0" not in err
    assert not out.exists()


def test_sweep_value_filling_the_coherence_block_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "coherence_len = 3\n")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", cfg, "--var", "num_pilots", "--values", "2,3",
                 "--out", str(out)])
    assert code == 2
    assert "num_pilots = 3 equals coherence_len = 3" in capsys.readouterr().err
    assert not out.exists()


def test_missing_records_file_is_config_error(tmp_path):
    assert main(["stats", "--in", str(tmp_path / "missing.csv")]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "fast"])
def test_bad_record_value_is_config_error(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "records.csv"
    main(["run", "--config", cfg, "--out", str(out)])
    lines = out.read_text().splitlines()
    fields = lines[3].split(",")
    fields[4] = bad
    lines[3] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n")
    assert main(["stats", "--in", str(out), "--percentile", "100"]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_missing_output_directory_is_checked_before_running(tmp_path, command):
    # An exhaustive search this large would exit 3 if the run were started.
    text = BASE.replace("num_ues = 4", "num_ues = 30").replace(
        "strategies = random, oracle", "strategies = exhaustive")
    cfg = write_config(tmp_path, text + "sweep_var = num_aps\nsweep_values = 4\n")
    out = tmp_path / "nodir" / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_path_naming_a_directory_is_checked_before_running(tmp_path, capsys, command):
    # An exhaustive search this large would exit 3 if the run were started.
    text = BASE.replace("num_ues = 4", "num_ues = 30").replace(
        "strategies = random, oracle", "strategies = exhaustive")
    cfg = write_config(tmp_path, text + "sweep_var = num_aps\nsweep_values = 4\n")
    out = tmp_path / "outdir"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "is a directory" in capsys.readouterr().err


def test_non_utf8_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"\xff\xfe\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_non_utf8_records_file_is_config_error(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_bytes(b"\xff\xfe\n")
    assert main(["stats", "--in", str(records)]) == 2
    assert "cannot read records file" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("shadowing_sigma", "2000"), ("area_side", "1e300"),
                                       ("noise_figure", "1e-300"), ("pilot_tx_power", "1e-300"),
                                       ("uplink_tx_power", "1e300")])
def test_extreme_physical_value_is_config_error(tmp_path, capsys, key, value):
    # Each drives a gain, an SNR or an estimate statistic out of the float range.
    cfg = write_config(tmp_path, BASE.replace("seed = 11", "seed = 1") + f"{key} = {value}\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["boltzmann = 1.38e-23", "noise_temp = 300"])
def test_fixed_noise_constant_is_not_a_config_key(tmp_path, capsys, line):
    # Boltzmann's constant and T0 are fixed; noise_figure is the one noise setting.
    cfg = write_config(tmp_path, BASE + line + "\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failed_output_write_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, BASE + "sweep_var = num_aps\nsweep_values = 4\n")
    assert main([command, "--config", cfg, "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert "cannot write output file /dev/full" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_file_name_too_long_is_config_error(tmp_path, capsys, command):
    # 300 characters is past the usual 255-byte limit on one path component.
    cfg = write_config(tmp_path, BASE + "sweep_var = num_aps\nsweep_values = 4\n")
    out = str(tmp_path / ("x" * 300))
    assert main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "x" * 300 in err and "Traceback" not in err


def test_repeated_strategy_in_config_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("strategies = random, oracle",
                                              "strategies = random, oracle, random"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "'random' is listed more than once" in capsys.readouterr().err


def test_repeated_strategy_on_command_line_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--strategies", "random,random", "--out", str(out)]) == 2
    assert "'random' is listed more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,message", [("--strategies", "at least one strategy is required"),
                                          ("--out", "no output path")])
def test_empty_flag_is_config_error(tmp_path, capsys, flag, message):
    # An empty flag is its key's empty value, not a missing flag: the file's value is not used.
    fallback = tmp_path / "from_config.csv"
    cfg = write_config(tmp_path, BASE + f"output_path = {fallback}\n")
    out = tmp_path / "x.csv"
    argv = {"--strategies": ["--strategies", "", "--out", str(out)], "--out": ["--out", ""]}[flag]
    assert main(["run", "--config", cfg, *argv]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not fallback.exists()


@pytest.mark.parametrize("command,lines,flag,value", [
    ("run", "strategies = sorcery", "--strategies", "oracle"),
    ("sweep", "sweep_var = bogus\nsweep_values = 5", "--var", "num_aps"),
    ("sweep", "sweep_var = num_aps\nsweep_values = 0", "--values", "4"),
])
def test_flag_replacing_an_invalid_file_value_runs(tmp_path, command, lines, flag, value):
    # The file and the flags are validated together, as one config. The invalid lines take
    # the place of BASE's, since a file may set a key only once.
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    base = [line for line in BASE.splitlines() if line.partition("=")[0].strip() not in keys]
    cfg = write_config(tmp_path, "\n".join(base + [lines]) + "\n")
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, flag, value, "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("seed", ["x", "1.5", ""])
def test_non_integer_seed_flag_is_config_error(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--seed", seed, "--out", str(out)]) == 2
    assert f"bad value for 'seed': {seed!r}" in capsys.readouterr().err
    assert not out.exists()


def test_every_run_and_sweep_flag_is_a_config_key():
    # Each flag reaches load_config as raw text under its key, so none skips the key's parse.
    commands = next(action.choices for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for command in ("run", "sweep"):
        for action in commands[command]._actions:
            if action.dest in ("help", "config", "percentile"):
                continue
            assert action.dest in KEY_PARSERS, (command, action.option_strings)
            assert action.type is None and action.choices is None, action.option_strings


@pytest.mark.parametrize("where", ["file", "flag"])
def test_repeated_sweep_value_is_config_error(tmp_path, capsys, where):
    line = "sweep_values = 6, 6\n" if where == "file" else ""
    flag = ["--values", "6,6"] if where == "flag" else []
    cfg = write_config(tmp_path, BASE + "sweep_var = num_aps\n" + line)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", cfg, *flag, "--out", str(out)]) == 2
    assert "sweep value 6 is listed more than once" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_key_in_config_is_config_error(tmp_path, capsys):
    # BASE sets num_aps on line 2; a second value must not silently replace it.
    cfg = write_config(tmp_path, BASE + "num_aps = 8\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "line 9: key 'num_aps' is already set on line 2" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_range_max_min_floor_is_config_error_without_warnings(tmp_path, capsys):
    # The uplink SNR is a positive subnormal, so the max-min noise floor overflows.
    cfg = write_config(tmp_path, BASE + "uplink_tx_power = 1e-320\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "uplink_tx_power" in err and "shadowing_sigma" in err
    assert not out.exists()


@pytest.mark.parametrize("seed,sigma", [(11, 650), (11, 700), (1, 1000)])
def test_out_of_range_estimate_quality_is_config_error_without_warnings(tmp_path, capsys,
                                                                         seed, sigma):
    # A UE's summed estimate quality squared, the SINR numerator's coefficient, overflows.
    text = BASE.replace("seed = 11", f"seed = {seed}") + f"shadowing_sigma = {sigma}\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "channel-estimate quality" in err and "shadowing_sigma" in err
    assert not out.exists()


def test_non_finite_group_rate_table_is_config_error_without_warnings(tmp_path, capsys):
    # The exhaustive search's group-rate table holds NaN and inf entries here.
    text = BASE.replace("num_aps = 6", "num_aps = 50").replace("num_ues = 4", "num_ues = 12")
    text = text.replace("num_pilots = 2", "num_pilots = 3").replace("seed = 11", "seed = 1")
    text = text.replace("strategies = random, oracle",
                        "strategies = exhaustive, optimal-repulsive, random")
    cfg = write_config(tmp_path, text + "shadowing_sigma = 600\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "group rates" in err
    assert all(name in err for name in ("uplink_tx_power", "pilot_tx_power", "shadowing_sigma"))
    assert not out.exists()


@pytest.mark.parametrize("policy", ["maxmin", "full"])
def test_throughput_rounding_to_zero_is_config_error(tmp_path, capsys, policy):
    text = BASE.replace("power_policy = maxmin", f"power_policy = {policy}")
    cfg = write_config(tmp_path, text + "uplink_tx_power = 1e-20\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "rounds to 0" in err and "uplink_tx_power" in err and "pilot_tx_power" in err
    assert not out.exists()


def assert_equalized(records, rtol=1e-8):
    """Each drop's max-min SINRs are equal within ``rtol``; the CSV keeps 9 significant digits."""
    drops = {}
    for r in records:
        drops.setdefault((r.realization, r.strategy), []).append(r.sinr)
    for drop, sinr in drops.items():
        assert max(sinr) - min(sinr) <= rtol * max(sinr), drop


@pytest.mark.parametrize("sigma", [60, 150, 250, 300, 400, 500])
def test_max_min_power_at_extreme_shadowing_writes_equalized_rows(tmp_path, sigma):
    # Gains spread over hundreds of decades, and so do the powers; solved in a basis scaled
    # by the last powers, every drop still reaches its max-min optimum, a common SINR of
    # about 1 from 250 dB on, so every row is positive and the run exits 0.
    cfg = write_config(tmp_path, BASE + f"shadowing_sigma = {sigma}\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    records = read_records(out)
    assert len(records) == 2 * 2 * 4
    assert all(r.sinr > 0 and r.throughput_bps > 0 for r in records)
    assert_equalized(records)


def run_without_warnings(tmp_path, text):
    """Exit code of ``cfpilot run`` on ``text``, with every warning an error; no file is left."""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", cfg, "--out", str(out)])
    assert not out.exists()
    return code


def test_greedy_rounds_on_out_of_range_gains_are_config_error_without_warnings(tmp_path, capsys):
    # greedy's full-power SINRs overflow in its rounds; the drop's own terms are rejected.
    text = """
num_aps = 3
num_ues = 6
num_pilots = 3
realizations = 3
seed = 11
strategies = greedy
power_policy = maxmin
pilot_tx_power = 1e30
bandwidth = 1e30
shadowing_sigma = 700
"""
    assert run_without_warnings(tmp_path, text) == 2
    assert "channel-estimate quality" in capsys.readouterr().err


def test_estimate_quality_overflow_is_config_error_without_warnings(tmp_path, capsys):
    # The MMSE scaling itself overflows, before the SINR terms are built.
    text = """
num_aps = 1
num_ues = 6
num_pilots = 3
realizations = 3
seed = 16
strategies = random, greedy, repulsive, optimal-repulsive, oracle
power_policy = full
shadowing_sigma = 700
pilot_tx_power = 1e300
noise_figure = 1e30
"""
    assert run_without_warnings(tmp_path, text) == 2
    assert "channel-estimate quality" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    # The SINR's numerator and denominator both overflow: the SINR is NaN.
    "num_aps = 3\nnum_ues = 1\nnum_pilots = 1\nrealizations = 2\nseed = 71\n"
    "power_policy = full\nstrategies = random\nshadowing_sigma = 844.0\n",
    # The SINR is ordinary, but bandwidth times its rate overflows.
    "num_aps = 4\nnum_ues = 1\nnum_pilots = 1\nrealizations = 2\nseed = 2\n"
    "power_policy = full\nstrategies = random\npilot_tx_power = 5.993031110957226e+303\n"
    "uplink_tx_power = 1.6538294027651235e+308\nbandwidth = 1.6538294216825757e+308\n"
    "shadowing_sigma = 0.0\n"], ids=["nan_sinr", "bandwidth_overflow"])
def test_non_finite_throughput_is_config_error_without_warnings(tmp_path, capsys, text):
    assert run_without_warnings(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "is not finite" in err and "bandwidth" in err
