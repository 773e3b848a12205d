import warnings

import numpy as np
import pytest

from cfpilot.cli import main
from cfpilot.harness import CSV_HEADER, read_records


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
    cfg = write_config(tmp_path, BASE + "strategies = sorcery\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def test_missing_output_path_is_config_error(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert main(["run", "--config", cfg]) == 2


def test_budget_guard_exit_code(tmp_path):
    text = BASE.replace("num_ues = 4", "num_ues = 30").replace(
        "strategies = random, oracle", "strategies = exhaustive")
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3


def test_bad_percentile_is_config_error(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "records.csv"
    main(["run", "--config", cfg, "--out", str(out)])
    assert main(["stats", "--in", str(out), "--percentile", "150"]) == 2


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
                                       ("noise_temp", "1e-300"), ("pilot_tx_power", "1e-300"),
                                       ("uplink_tx_power", "1e300")])
def test_extreme_physical_value_is_config_error(tmp_path, capsys, key, value):
    # Each drives a gain, an SNR or an estimate statistic out of the float range.
    cfg = write_config(tmp_path, BASE.replace("seed = 11", "seed = 1") + f"{key} = {value}\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("policy", ["maxmin", "full"])
def test_throughput_rounding_to_zero_is_config_error(tmp_path, capsys, policy):
    text = BASE.replace("power_policy = maxmin", f"power_policy = {policy}")
    cfg = write_config(tmp_path, text + "uplink_tx_power = 1e-20\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "rounds to 0" in err and "uplink_tx_power" in err and "pilot_tx_power" in err
    assert not out.exists()
