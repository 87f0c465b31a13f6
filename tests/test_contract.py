"""The input-fault contract at the command line.

Every one-key edit of a bundled scenario ends in exit 0, 2 or 3 with at
most one line of standard error, never in a traceback or a numpy warning.
A config error (exit 2) starts with the scenario key it blames, or with
``params`` for a fault no single key owns: a float fault in a solver, or a
steady state outside float64.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import (
    OLG_AUTARKY_EXOG,
    RAMSEY_AUTARKY_EXOG,
    EconomyParams,
    olg_simulate,
    olg_steady_state,
    parse_scenario,
    ramsey_steady_state,
    render_scenario,
    shoot_saddle_path,
)
from ineqlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from ineqlab.core import float_guard
from ineqlab.errors import OutOfRange

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
STEMS = ("olg_autarky_converge", "olg_market_growth", "ramsey_autarky_saddle",
         "ramsey_market_growth")

#: The numeric keys of each family's scenarios: parameters and horizon.
NUMERIC_KEYS = {
    "olg": ("params.tfp", "params.alpha", "params.theta", "params.gamma",
            "horizon.stop_tol"),
    "ramsey": ("params.tfp", "params.alpha", "params.theta", "params.gamma",
               "horizon.time", "horizon.dt", "horizon.terminal_band"),
}

#: Every key a scenario can give, and ``params``: the names a config error
#: may start with.
NAMES = {line.partition(" = ")[0] for line in render_scenario(parse_scenario(
    (SCENARIO_DIR / "olg_autarky_converge.scn").read_text(encoding="utf-8")
)).splitlines()} | {"params"}


def _edited(stem: str, key: str, value: str) -> str:
    """The bundled scenario ``stem`` with ``key = value`` in place of its own."""
    text = (SCENARIO_DIR / f"{stem}.scn").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def _run(argv_head: list[str], text: str, with_out: bool = True):
    """(exit code, stderr lines, whether --out was made) of the CLI on
    ``text``, with every warning an error."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "case.scn", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        argv = [*argv_head, str(path)] + (["--out", str(out)] if with_out else [])
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(argv)
        return code, err.getvalue().splitlines(), out.exists()


def _named(line: str) -> str:
    """The name a config error line blames: its second ``: ``-field."""
    assert line.startswith("config error: ")
    return line.split(": ")[1]


# the edits of the bundled scenarios that ended in a traceback, a numpy
# warning, or a config error naming no scenario key, with the name each
# config error now starts with
FAULTS = [
    ("olg_autarky_converge", "params.tfp", "1e-300", "params"),
    ("olg_autarky_converge", "params.tfp", "1e-30", "params"),
    ("olg_autarky_converge", "params.tfp", "1e300", "params"),
    ("olg_autarky_converge", "params.theta", "1e30", "params"),
    ("olg_autarky_converge", "params.theta", "1e300", "params"),
    ("olg_market_growth", "params.tfp", "1e30", "params"),
    ("olg_market_growth", "params.tfp", "1e300", "params"),
    ("olg_autarky_converge", "horizon.max_generations", "1000000000000",
     "horizon.max_generations"),
    ("ramsey_autarky_saddle", "params.tfp", "1e-300", "params"),
    ("ramsey_autarky_saddle", "params.tfp", "1e300", "params"),
    ("ramsey_autarky_saddle", "params.alpha", "1e-300", "params"),
    ("ramsey_autarky_saddle", "params.alpha", "1e-30", "params"),
    ("ramsey_autarky_saddle", "params.theta", "1e-300", "params"),
    ("ramsey_autarky_saddle", "params.theta", "1e30", "params"),
    ("ramsey_autarky_saddle", "params.theta", "1e300", "params"),
    ("ramsey_autarky_saddle", "params.gamma", "1e-300", "params"),
    ("ramsey_autarky_saddle", "params.gamma", "1e-30", "params"),
    ("ramsey_autarky_saddle", "horizon.time", "1e30", "horizon.time"),
    ("ramsey_autarky_saddle", "horizon.time", "1e300", "horizon.time"),
    ("ramsey_autarky_saddle", "horizon.dt", "1e-300", "horizon.dt"),
    ("ramsey_autarky_saddle", "horizon.dt", "1e-30", "horizon.dt"),
    ("ramsey_market_growth", "params.tfp", "1e30", "params"),
    ("ramsey_market_growth", "params.tfp", "1e300", "params"),
    ("ramsey_market_growth", "horizon.time", "1e30", "horizon.time"),
    ("ramsey_market_growth", "horizon.time", "1e300", "horizon.time"),
    ("ramsey_market_growth", "horizon.dt", "1e-300", "horizon.dt"),
    ("ramsey_market_growth", "horizon.dt", "1e-30", "horizon.dt"),
    ("ramsey_market_growth", "horizon.terminal_band", "1e300",
     "horizon.terminal_band"),
    # names that cannot be a file name: a NUL, a lone surrogate, and one
    # whose temporary trajectory file passes 255 bytes
    ("olg_autarky_converge", "name", '"a\\u0000b"', "name"),
    ("olg_autarky_converge", "name", '"a\\ud800b"', "name"),
    ("olg_autarky_converge", "name", '"' + "x" * 300 + '"', "name"),
]


@pytest.mark.parametrize("stem, key, value, name", FAULTS,
                         ids=lambda part: str(part)[:40])
def test_fault_is_a_config_error_naming_its_key(stem, key, value, name):
    code, err, made_out = _run(["simulate"], _edited(stem, key, value))
    assert (code, len(err), made_out) == (EXIT_CONFIG, 1, False)
    assert _named(err[0]) == name
    if key == "params.tfp" and name == "params":
        assert "tfp" in err[0].partition("params: ")[2]


@pytest.mark.parametrize("stem", STEMS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_one_key_edit_keeps_the_contract(stem, data):
    text = (SCENARIO_DIR / f"{stem}.scn").read_text(encoding="utf-8")
    family = "olg" if "regime.family = olg" in text else "ramsey"
    key = data.draw(st.sampled_from(NUMERIC_KEYS[family]), label="key")
    value = 10.0 ** data.draw(st.floats(-300.0, 300.0), label="log10 value")
    code, err, made_out = _run(["simulate"], _edited(stem, key, repr(value)))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER)
    assert len(err) == (code != EXIT_OK)
    assert made_out is (code == EXIT_OK)
    if code == EXIT_CONFIG:
        assert _named(err[0]) in NAMES


class TestFileFaults:
    """A file that cannot be read or written is a config error (exit 2)
    with one line of standard error, not a traceback."""

    @staticmethod
    def _main(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        return code, err.getvalue().splitlines()

    def test_config_that_is_a_directory(self, tmp_path):
        code, err = self._main(["simulate", str(tmp_path)])
        assert (code, len(err)) == (EXIT_CONFIG, 1)
        assert err[0].startswith("config error: ")

    def test_config_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.scn"
        path.write_bytes((SCENARIO_DIR / "olg_autarky_converge.scn").read_bytes()
                         + b"# caf\xe9\n")
        code, err = self._main(["simulate", str(path)])
        assert (code, len(err)) == (EXIT_CONFIG, 1)
        assert "utf-8" in err[0]

    @pytest.mark.parametrize("argv_head", [
        ["simulate", str(SCENARIO_DIR / "olg_autarky_converge.scn")],
        ["figure", "fig1"],
    ], ids=["simulate", "figure"])
    def test_out_that_is_a_file(self, argv_head, tmp_path):
        out = tmp_path / "taken"
        out.write_text("kept\n", encoding="utf-8")
        code, err = self._main([*argv_head, "--out", str(out)])
        assert (code, len(err)) == (EXIT_CONFIG, 1)
        assert err[0].startswith("config error: ")
        assert out.read_text(encoding="utf-8") == "kept\n"


# a steady state that underflows to zero: alpha tfp / theta (Ramsey) or
# tfp / (2 + theta) (OLG) near 1e-300, squared at alpha = 0.5; FAULTS runs
# the same edits through simulate
@pytest.mark.parametrize("stem, key, value", [
    ("ramsey_autarky_saddle", "params.tfp", "1e-300"),
    ("ramsey_autarky_saddle", "params.theta", "1e300"),
    ("olg_autarky_converge", "params.tfp", "1e-300"),
    ("olg_autarky_converge", "params.theta", "1e300"),
])
def test_steady_state_underflow_is_a_config_error(stem, key, value):
    ratio = "alpha*tfp/theta=" if stem.startswith("ramsey") else "tfp/(2+theta)="
    code, err, _ = _run(["steady-state"], _edited(stem, key, value), with_out=False)
    assert (code, len(err)) == (EXIT_CONFIG, 1)
    assert err[0].startswith(f"config error: params: {ratio}")


class TestSteadyStateDomain:
    @pytest.mark.parametrize("steady_state, regime, params", [
        (ramsey_steady_state, RAMSEY_AUTARKY_EXOG, EconomyParams(1e-300, 0.5, 0.1)),
        (ramsey_steady_state, RAMSEY_AUTARKY_EXOG, EconomyParams(1.0, 0.5, 1e300)),
        (olg_steady_state, OLG_AUTARKY_EXOG, EconomyParams(1e-300, 0.5, 0.0)),
        (olg_steady_state, OLG_AUTARKY_EXOG, EconomyParams(1.0, 0.5, 1e300)),
    ], ids=["ramsey-tfp", "ramsey-theta", "olg-tfp", "olg-theta"])
    def test_underflow_is_out_of_range(self, steady_state, regime, params):
        with pytest.raises(OutOfRange, match=r"=0\.0 outside \(0, inf\)") as info:
            steady_state(params, regime)
        assert info.value.field == "params"

    @pytest.mark.parametrize("steady_state, regime, params, quoted", [
        (ramsey_steady_state, RAMSEY_AUTARKY_EXOG, EconomyParams(1e300, 0.5, 0.1),
         "tfp=1e+300"),
        (ramsey_steady_state, RAMSEY_AUTARKY_EXOG, EconomyParams(1.0, 0.5, 1e-300),
         "theta=1e-300"),
        (olg_steady_state, OLG_AUTARKY_EXOG, EconomyParams(1e300, 0.5, 0.0),
         "tfp=1e+300"),
    ], ids=["ramsey-tfp", "ramsey-theta", "olg-tfp"])
    def test_overflow_names_params(self, steady_state, regime, params, quoted):
        with pytest.raises(OutOfRange) as info:
            steady_state(params, regime)
        assert info.value.field == "params"
        assert quoted in str(info.value)


class TestFloatGuard:
    def test_numpy_fault_names_params_and_quotes_them(self):
        @float_guard
        def grow(params: EconomyParams):
            return np.float64(params.tfp) * np.float64(1e308)

        with pytest.raises(OutOfRange, match=r"grow leaves float64 at "
                           r"EconomyParams\(tfp=10\.0.*overflow") as info:
            grow(EconomyParams(tfp=10.0, alpha=0.5, theta=0.1))
        assert info.value.field == "params"

    @pytest.mark.parametrize("fault", [ZeroDivisionError, OverflowError])
    def test_python_float_faults_name_params(self, fault):
        @float_guard
        def fails(*, params):
            raise fault("from Python floats")

        with pytest.raises(OutOfRange, match="from Python floats") as info:
            fails(params=EconomyParams(tfp=1.0, alpha=0.5, theta=0.1))
        assert info.value.field == "params"

    @pytest.mark.parametrize("solver", [ramsey_steady_state, olg_steady_state,
                                        shoot_saddle_path, olg_simulate])
    def test_guarded_solvers_keep_their_names(self, solver):
        # the benchmark's tracer finds and wraps them by name
        assert solver.__name__ == solver.__wrapped__.__name__
