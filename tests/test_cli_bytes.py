"""Byte pins of the CLI's outputs on shortened versions of the shipped configs.

Each case runs ``cfpilot.cli.main`` in-process and compares the sha256 of
what it writes (the records or sweep CSV, or the stats table on stdout) with
a pinned digest. The expected bytes are kept in ``tests/golden/`` so that a
mismatch can name the first row that moved. Any change to the arithmetic of
the topology, the assignments, the estimation statistics, the power control
or the rate model that moves one printed digit fails here.

The pins hold for numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64). Another BLAS or
numpy build may round a dot product differently in the last bit and move a
printed digit; regenerate the golden files only after checking that the
arithmetic of the program itself did not change.
"""

import hashlib
from pathlib import Path

import pytest

from cfpilot.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (config under configs/, overrides, argv after the subcommand's --config/--out, sha256)
CASES = {
    "run_small_scale_maxmin": (
        "small_scale.cfg", {"realizations": 3, "power_policy": "maxmin"}, ["run"],
        "81f956b1c07cc5ab02780953525b25bd22ddd0f92c373520fedf8aadbb3c47ac"),
    "run_small_scale_full": (
        "small_scale.cfg", {"realizations": 3, "power_policy": "full"}, ["run"],
        "1a9dae3f992087cf10d1958524cad9563a6a40604317e6af47bb598335246139"),
    "run_table_m100_maxmin": (
        "table_m100.cfg", {"realizations": 2, "power_policy": "maxmin"}, ["run"],
        "16aef4bb7f2fb77aa1c3fa4e8a689020daba3015ad7a8dd9006de59a878b1452"),
    "run_table_m100_full": (
        "table_m100.cfg", {"realizations": 2, "power_policy": "full"}, ["run"],
        "83888207e712b848f8580d2f40c01204d6d34e927c821624ff5d5c600c845d7f"),
    # The AP-density grid with the strategies that skip the repulsive search.
    "sweep_dense_maxmin": (
        "ap_density_sweep.cfg",
        {"realizations": 2, "strategies": "random, greedy, oracle"}, ["sweep"],
        "3febba079dc7c204a541616f6313269070257721bb83b5f7d8a6fe2f10d479e6"),
}
STATS_INPUT = "run_table_m100_maxmin"
STATS_SHA256 = "a3f863c043ef3804830a17f9d8bdabf97fb7d8d2154896c2f30772561103d7f4"


def shortened_config(tmp_path, name, overrides):
    """The shipped config with the overridden keys replaced."""
    lines = [line for line in (ROOT / "configs" / name).read_text(encoding="utf-8").splitlines()
             if line.split("=", 1)[0].strip() not in overrides]
    lines.extend(f"{key} = {value}" for key, value in overrides.items())
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def assert_pinned(data: bytes, digest, case):
    """Compare a digest; on a mismatch, report the first row that differs from the golden file."""
    got = hashlib.sha256(data).hexdigest()
    if got == digest:
        return
    golden = GOLDEN / f"{case}.txt"
    expected = golden.read_bytes().splitlines() if golden.is_file() else []
    actual = data.splitlines()
    for row, (want, have) in enumerate(zip(expected, actual), start=1):
        if want != have:
            pytest.fail(f"{case}: sha256 {got} != {digest}; first differing row {row}:\n"
                        f"  expected {want.decode()}\n  got      {have.decode()}")
    pytest.fail(f"{case}: sha256 {got} != {digest}; {len(actual)} rows against "
                f"{len(expected)} expected, equal over the shorter")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes_are_pinned(tmp_path, case):
    name, overrides, argv, digest = CASES[case]
    out = tmp_path / "out.csv"
    code = main([*argv, "--config", shortened_config(tmp_path, name, overrides), "--out", str(out)])
    assert code == 0
    assert_pinned(out.read_bytes(), digest, case)


def test_stats_output_bytes_are_pinned(capsys):
    records = GOLDEN / f"{STATS_INPUT}.txt"
    assert main(["stats", "--in", str(records), "--percentile", "5"]) == 0
    assert_pinned(capsys.readouterr().out.encode(), STATS_SHA256, "stats_table_m100_maxmin_p5")


def test_golden_files_match_their_pins():
    pins = {case: spec[3] for case, spec in CASES.items()}
    pins["stats_table_m100_maxmin_p5"] = STATS_SHA256
    for case, digest in pins.items():
        assert hashlib.sha256((GOLDEN / f"{case}.txt").read_bytes()).hexdigest() == digest, case
