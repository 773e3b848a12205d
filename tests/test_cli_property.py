"""Property tests of the CLI on small drawn configs and drawn flag text.

Whatever the config, ``cfpilot run`` exits 0, 2 or 3 without an exception
or a numpy warning, every row it writes has a positive SINR and a positive
throughput, and under max-min each drop's SINRs are equal. Whatever the
text of the flags that replace config keys, ``run`` and ``sweep`` exit 0
with their output or 2 with a config error, and raise nothing.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cfpilot.cli import main
from cfpilot.config import STRATEGY_NAMES
from cfpilot.harness import read_records
from test_cli import assert_equalized

# Positive finite doubles, subnormals included, and powers of ten spread log-uniformly.
EXTREME = st.one_of(st.floats(min_value=0.0, max_value=1.7e308, exclude_min=True),
                    st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e),
                    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
PHYSICAL = ("pilot_tx_power", "uplink_tx_power", "bandwidth", "noise_figure")


@st.composite
def config_text(draw):
    lines = [f"num_aps = {draw(st.integers(1, 12))}",
             f"num_ues = {draw(st.integers(1, 8))}",
             f"num_pilots = {draw(st.integers(1, 4))}",
             f"realizations = {draw(st.integers(1, 3))}",
             f"seed = {draw(st.integers(0, 2 ** 16))}",
             f"power_policy = {draw(st.sampled_from(['full', 'maxmin']))}"]
    strategies = draw(st.lists(st.sampled_from(STRATEGY_NAMES), min_size=1, max_size=6,
                               unique=True))
    lines.append("strategies = " + ", ".join(strategies))
    for key in PHYSICAL:
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(EXTREME)!r}")
    if draw(st.booleans()):
        sigma = draw(st.floats(0.0, 1000.0) | st.floats(0.0, 1.7e308))
        lines.append(f"shadowing_sigma = {sigma!r}")
    return "\n".join(lines) + "\n"


@given(text=config_text())
@settings(max_examples=800, deadline=None, derandomize=True)
def test_cli_run_exits_cleanly_and_writes_only_positive_rows(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "exp.cfg", Path(tmp) / "records.csv"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
        if code == 0:
            records = read_records(out)
            assert records
            assert all(r.sinr > 0 and r.throughput_bps > 0 for r in records)
            if "power_policy = maxmin" in text:
                assert_equalized(records)


FLAG_BASE = """
num_aps = 4
num_ues = 3
num_pilots = 2
realizations = 1
seed = 5
strategies = random, oracle
power_policy = full
sweep_var = num_aps
sweep_values = 2
"""


def comma_list(items):
    """Comma-joined text of drawn items, repeats and blanks included."""
    return st.lists(items, max_size=4).map(",".join)


FLAG_TEXT = {
    "--seed": st.sampled_from(["", " ", "7", " 7 ", "-3", "1.5", "x", "1e3", str(2 ** 70)]),
    "--strategies": comma_list(st.sampled_from(STRATEGY_NAMES + ("sorcery", "", " "))),
    "--var": st.sampled_from(["", "num_aps", "num_ues", "num_pilots", "bogus"]),
    "--values": comma_list(st.sampled_from(["1", "2", "5", "0", "-2", "1.5", "x", "", " "])),
}
COMMAND_FLAGS = {"run": ("--seed", "--strategies"), "sweep": ("--seed", "--var", "--values")}


@st.composite
def flag_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag in COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(FLAG_TEXT[flag])}")  # '=' keeps '-3' a value
    return argv


@given(argv=flag_argv())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_flag_text_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "exp.cfg", Path(tmp) / "out.csv"
        cfg.write_text(FLAG_BASE)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2)
        assert out.exists() == (code == 0)
        assert err.getvalue().startswith("config error: ") == (code == 2)
