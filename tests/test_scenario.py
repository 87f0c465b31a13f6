"""Scenario parsing, rendering, running, and output determinism."""

import json
import os
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ineqlab import (
    EconomyParams,
    Family,
    Market,
    Regime,
    ScenarioConfig,
    ShootingConfig,
    Technology,
    parse_scenario,
    render_scenario,
    run_scenario,
)
from ineqlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, _apply_overrides, main
from ineqlab.core import MAX_STEPS
from ineqlab.errors import OutOfRange, ParseError

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

MINIMAL = """
name = "smoke"
regime.family = olg
regime.market = market
regime.technology = exogenous
params.tfp = 1.0
params.alpha = 0.5
params.theta = 0.0
initial_distribution = [1.0, 1.0]
"""


class TestParse:
    def test_minimal_document(self):
        config = parse_scenario(MINIMAL)
        assert config.name == "smoke"
        assert config.regime.family is Family.OLG
        assert config.params.population == 2
        assert config.initial_distribution == (1.0, 1.0)
        assert config.outputs == frozenset({"csv", "summary"})

    def test_alpha_out_of_bounds(self):
        doc = MINIMAL.replace("params.alpha = 0.5", "params.alpha = 1.2")
        with pytest.raises(OutOfRange) as err:
            parse_scenario(doc)
        assert err.value.field == "params.alpha"

    def test_bisection_tolerance_key_is_gone(self):
        with pytest.raises(OutOfRange) as err:
            parse_scenario(MINIMAL + "horizon.bisection_tol = 1e-15\n")
        assert err.value.field == "horizon.bisection_tol"

    def test_distribution_length_mismatch(self):
        doc = MINIMAL + "params.population = 3\n"
        with pytest.raises(OutOfRange) as err:
            parse_scenario(doc)
        assert err.value.field == "initial_distribution"

    def test_unknown_key_names_line(self):
        doc = MINIMAL + "params.depreciation = 0.1\n"
        with pytest.raises(OutOfRange) as err:
            parse_scenario(doc)
        assert err.value.field == "params.depreciation"
        assert "params.depreciation" in str(err.value)
        assert "line" in str(err.value)

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_scenario("name 'x'\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL + 'name = "again"\n')

    def test_growth_condition_reported(self):
        doc = MINIMAL.replace("regime.technology = exogenous",
                              "regime.technology = endogenous_ak")
        doc = doc.replace("params.tfp = 1.0", "params.tfp = 1.5")
        with pytest.raises(OutOfRange) as err:
            parse_scenario(doc)
        assert err.value.field == "params"

    @pytest.mark.parametrize("market", ["market", "autarky"])
    @pytest.mark.parametrize("tfp, alpha, theta, gamma, condition", [
        # r = g: theta + (gamma - 1) * g = 0, no transversality
        (3.0, 0.5, 0.0, 1.0, "interest must exceed balanced growth"),
        # g <= 0: alpha * tfp * L**(1 - alpha) = 0.31 below theta = 0.5
        (3.1, 0.1, 0.5, 1.0, "balanced growth needs"),
    ])
    def test_ramsey_ak_growth_conditions_reported(
            self, market, tfp, alpha, theta, gamma, condition):
        doc = f"""
name = "dynasty-ak"
regime.family = ramsey
regime.market = {market}
regime.technology = endogenous_ak
params.tfp = {tfp}
params.alpha = {alpha}
params.theta = {theta}
params.gamma = {gamma}
initial_distribution = [1.0]
"""
        with pytest.raises(OutOfRange) as err:
            parse_scenario(doc)
        assert err.value.field == "params"
        assert condition in str(err.value)

    @pytest.mark.parametrize("name", ["../x", "a/b", "a\\b", ".", "..",
                                      # no file name: a NUL, a lone surrogate,
                                      # more than 228 UTF-8 bytes
                                      "a\0b", "a\ud800b", "x" * 229,
                                      "x" * 227 + "\u00e9"])
    def test_name_must_stay_inside_out_dir(self, name):
        doc = MINIMAL.replace('name = "smoke"', f"name = {json.dumps(name)}")
        with pytest.raises(OutOfRange) as err:
            parse_scenario(doc)
        assert err.value.field == "name"

    @pytest.mark.parametrize("name", ["x" * 228, "\u00e9" * 114],
                             ids=["228-ascii", "228-bytes"])
    def test_longest_name_writes_its_files(self, name, tmp_path):
        doc = MINIMAL.replace('name = "smoke"', f"name = {json.dumps(name)}")
        config = parse_scenario(doc + "outputs = [csv, svg]\n")
        artifacts = run_scenario(config, tmp_path)
        assert artifacts.trajectory_csv.name == f"{name}_trajectory.csv"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}{suffix}" for suffix in ("_trajectory.csv", "_metrics.csv",
                                             ".svg"))

    @pytest.mark.parametrize("key, value", [
        ("regime.family", "Olg"),
        ("regime.market", "[1]"),
        ("regime.technology", "true"),
        ("params.tfp", '"x"'),
        ("params.alpha", "true"),
        ("params.theta", "null"),
        ("initial_distribution", "[1.0, x]"),
        ("initial_distribution", "[]"),
        ("initial_distribution", "1.0"),
        ("initial_distribution", "[0.0, 1.0]"),
        ("initial_distribution", "[-1.0, 1.0]"),
        ("outputs", "[csv, pdf]"),
    ])
    def test_bad_value_names_its_key(self, key, value):
        lines = [line for line in MINIMAL.splitlines()
                 if not line.startswith(f"{key} =")]
        with pytest.raises(OutOfRange) as err:
            parse_scenario("\n".join(lines) + f"\n{key} = {value}\n")
        assert err.value.field == key
        assert str(err.value).startswith(key)

    @pytest.mark.parametrize("holdings", ["[NaN, 1.0]", "[Infinity, 1.0]",
                                          "[1e-13, 1.0]"])
    def test_holdings_the_solvers_reject_are_config_errors(
            self, holdings, tmp_path, capsys):
        path = tmp_path / "holdings.scn"
        path.write_text(MINIMAL.replace("[1.0, 1.0]", holdings), encoding="utf-8")
        with pytest.raises(OutOfRange) as exc:
            parse_scenario(path.read_text(encoding="utf-8"))
        assert exc.value.field == "initial_distribution"
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert "initial_distribution" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fixed_technology_dynasty_needs_positive_theta(self):
        doc = RAMSEY_MINIMAL.replace("params.theta = 0.1", "params.theta = 0.0")
        with pytest.raises(OutOfRange) as err:
            parse_scenario(doc)
        assert err.value.field == "params.theta"
        assert str(err.value).startswith("params.theta: ")

    @pytest.mark.parametrize("stem, line, command, field", [
        ("ramsey_autarky_saddle", "params.theta = 0.0", "simulate",
         "params.theta"),
        ("ramsey_autarky_saddle", "params.tfp = 1e300", "steady-state", "tfp"),
        ("ramsey_autarky_saddle", "params.tfp = 1e300", "simulate", "tfp"),
        ("olg_autarky_converge", "params.tfp = 1e300", "steady-state", "tfp"),
        ("olg_autarky_converge", "params.tfp = 1e300", "simulate", "tfp"),
    ])
    def test_model_bounds_are_config_errors(self, stem, line, command, field,
                                            tmp_path, capsys):
        # the steady state of tfp = 1e300 lies beyond float64
        key = line.partition(" = ")[0]
        text = (SCENARIO_DIR / f"{stem}.scn").read_text(encoding="utf-8")
        path = tmp_path / "bound.scn"
        path.write_text("\n".join(line if old.startswith(f"{key} =") else old
                                  for old in text.splitlines()),
                        encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, str(path)]
        if command == "simulate":
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not out.exists()

    def test_quoted_and_bare_strings_agree(self):
        bare = parse_scenario(MINIMAL)
        quoted = parse_scenario(MINIMAL.replace("= olg", '= "olg"'))
        assert bare == quoted


RAMSEY_MINIMAL = """
name = "bounds"
regime.family = ramsey
regime.market = autarky
regime.technology = exogenous
params.tfp = 1.0
params.alpha = 0.5
params.theta = 0.1
initial_distribution = [5.0, 60.0]
"""


class TestHorizonBounds:
    """Each horizon bound, and each bad value of a key the base documents
    leave out, is a config error that names its key (exit 2)."""

    @pytest.mark.parametrize("family, key, value", [
        ("ramsey", "horizon.dt", "-1"),
        ("ramsey", "horizon.dt", "0"),
        ("ramsey", "horizon.dt", "NaN"),
        ("ramsey", "horizon.dt", "Infinity"),
        ("ramsey", "horizon.terminal_band", "NaN"),
        ("ramsey", "horizon.terminal_band", "-1e-4"),
        ("ramsey", "horizon.terminal_band", "1.0"),
        ("ramsey", "horizon.terminal_band", "1e300"),
        ("ramsey", "horizon.time", "0.001"),
        ("ramsey", "horizon.time", "Infinity"),
        ("ramsey", "horizon.time", "NaN"),
        ("ramsey", "horizon.max_iterations", "0"),
        ("ramsey", "horizon.record_stride", "0"),
        ("olg", "horizon.max_generations", "0"),
        ("olg", "horizon.max_generations", "1000001"),
        ("olg", "horizon.stop_tol", "NaN"),
        ("olg", "horizon.stop_tol", "-1e-9"),
        ("olg", "horizon.stop_tol", "Infinity"),
        ("ramsey", "horizon.max_iterations", "2.5"),
        ("ramsey", "horizon.record_stride", "true"),
        ("olg", "params.gamma", '"x"'),
        ("olg", "params.population", "2.5"),
        ("olg", "outputs", "csv"),
    ])
    def test_cli_reports_config_error(self, family, key, value, tmp_path, capsys):
        base = {"olg": MINIMAL, "ramsey": RAMSEY_MINIMAL}[family]
        path = tmp_path / "bounds.scn"
        path.write_text(base + f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(OutOfRange) as exc:
            parse_scenario(path.read_text(encoding="utf-8"))
        assert exc.value.field == key
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "out").exists()

    def test_zero_stop_tol_is_valid(self):
        assert parse_scenario(MINIMAL + "horizon.stop_tol = 0\n").stop_tol == 0.0

    def test_generation_cap_is_inclusive(self):
        # parsed only: a run as long as the cap takes tens of seconds
        text = MINIMAL + f"horizon.max_generations = {MAX_STEPS}\n"
        assert parse_scenario(text).max_generations == MAX_STEPS == 10**6

    @pytest.mark.parametrize("key, value", [
        ("params.tfp", "1" + "0" * 400),
        ("initial_distribution", "[1.0, -1" + "0" * 400 + "]"),
    ])
    def test_integer_beyond_float64_is_a_config_error(self, key, value, tmp_path,
                                                      capsys):
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =")
                         else line for line in MINIMAL.splitlines())
        with pytest.raises(OutOfRange) as exc:
            parse_scenario(text)
        assert exc.value.field == key
        path = tmp_path / "huge.scn"
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: {key} must fit in a "
                                           f"float64\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("market", ["market", "autarky"])
    @pytest.mark.parametrize("technology", ["exogenous", "endogenous_ak"])
    @pytest.mark.parametrize("horizon", ["", "horizon.time = 175.0\n"],
                             ids=["default", "given"])
    def test_cli_step_cap_is_a_config_error(self, market, technology, horizon,
                                            tmp_path, capsys):
        path = tmp_path / "tiny_dt.scn"
        path.write_text(f"""name = "tiny-dt"
regime.family = ramsey
regime.market = {market}
regime.technology = {technology}
params.tfp = 3.0
params.alpha = 0.5
params.theta = 0.1
params.gamma = 2.0
initial_distribution = [1.0, 2.0]
horizon.dt = 1e-9
{horizon}""", encoding="utf-8")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: horizon.dt: dt=1e-09 asks for ")
        assert err.endswith(" above the cap of 1000000\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stem, args, key", [
        ("ramsey_market_growth", ["--tol", "-1"], "horizon.terminal_band"),
        ("ramsey_market_growth", ["--tol", "nan"], "horizon.terminal_band"),
        ("ramsey_market_growth", ["--max-steps", "0"], "horizon.max_iterations"),
        ("olg_autarky_converge", ["--tol", "-1"], "horizon.stop_tol"),
        ("olg_autarky_converge", ["--tol", "nan"], "horizon.stop_tol"),
        ("olg_autarky_converge", ["--tol", "inf"], "horizon.stop_tol"),
        ("olg_autarky_converge", ["--max-steps", "0"], "horizon.max_generations"),
        ("olg_autarky_converge", ["--max-steps", "1000001", "--tol", "0"],
         "horizon.max_generations"),
    ])
    def test_cli_overrides_meet_the_same_bounds(self, stem, args, key, tmp_path,
                                                capsys):
        path = SCENARIO_DIR / f"{stem}.scn"
        assert main(["simulate", str(path), "--out", str(tmp_path / "out"),
                     *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {args[0]}: ") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, option", [
        (["--points", "1"], "--points"),
        (["--points", "1000000000000000"], "--points"),
        (["--min", "2", "--max", "1"], "--min"),
        (["--min", "0"], "--min"),
        (["--min", "nan"], "--min"),
        (["--max", "inf"], "--max"),
        (["--max", "1e-6"], "--max"),
    ])
    def test_cli_cobweb_range_is_a_config_error(self, args, option, tmp_path,
                                                capsys):
        path = SCENARIO_DIR / "olg_autarky_converge.scn"
        assert main(["cobweb", str(path), "--out", str(tmp_path / "out"),
                     *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {option}: ")
        assert not (tmp_path / "out").exists()

    def test_cli_cobweb_writes_only_the_csv_by_default(self, tmp_path, capsys):
        path = SCENARIO_DIR / "olg_autarky_converge.scn"
        assert main(["cobweb", str(path), "--out", str(tmp_path)]) == EXIT_OK
        assert [p.name for p in tmp_path.iterdir()] == [
            "olg-autarky-converge_cobweb.csv"]

    @pytest.mark.parametrize("command, bare", [
        ("simulate", "both, of the outputs the scenario lists"),
        ("figure", "both"),
        ("cobweb", "csv only"),
    ])
    def test_cli_help_states_the_format_default(self, command, bare, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"(default: {bare})" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("option, default", [
        ("--min MIN", "the smaller of 0.05 b* and half the least holding"),
        ("--max MAX", "2.5 times the largest of b* and the holdings"),
        ("--points POINTS", "200"),
    ])
    def test_cli_cobweb_help_states_the_range_defaults(self, option, default,
                                                       capsys):
        with pytest.raises(SystemExit):
            main(["cobweb", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        # the option's own entry, up to the next option
        entry = text.split(f" {option} ", 1)[1].split(" --", 1)[0]
        assert f"(default: {default})" in entry

    def test_cli_overrides_replace_the_horizon_keys(self):
        ramsey, olg = (parse_scenario((SCENARIO_DIR / f"{stem}.scn").read_text(
            encoding="utf-8")) for stem in ("ramsey_market_growth",
                                            "olg_autarky_converge"))
        assert _apply_overrides(ramsey, None, None) is ramsey
        assert _apply_overrides(ramsey, 1e-3, 7) == replace(
            ramsey, shooting=replace(ramsey.shooting, terminal_band=1e-3,
                                     max_iterations=7))
        assert _apply_overrides(olg, 0.0, None) == replace(olg, stop_tol=0.0)
        assert _apply_overrides(olg, None, 12) == replace(olg, max_generations=12)


names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=20)


@st.composite
def configs(draw):
    family = draw(st.sampled_from(list(Family)))
    market = draw(st.sampled_from(list(Market)))
    tech = draw(st.sampled_from(list(Technology)))
    population = draw(st.integers(1, 5))
    theta = draw(st.floats(0.0, 0.5))
    gamma = draw(st.floats(0.5, 4.0))
    alpha = draw(st.floats(0.1, 0.9))
    if tech is Technology.ENDOGENOUS_AK and family is Family.OLG:
        tfp = draw(st.floats(2.0 + theta, 8.0, exclude_min=True))
    elif tech is Technology.ENDOGENOUS_AK:
        tfp = draw(st.floats(0.2, 8.0))
        # dynasty AK admits a balanced path only with g > 0 and r > g
        r = alpha * (tfp * population ** (1.0 - alpha))
        g = (r - theta) / gamma
        assume(g > 0.0 and r > g)
    else:
        tfp = draw(st.floats(0.2, 5.0))
    if family is Family.RAMSEY and tech is Technology.EXOGENOUS and theta == 0.0:
        theta = 0.01
    dist = tuple(
        draw(st.floats(0.1, 9.0)) for _ in range(population)
    )
    return ScenarioConfig(
        name=draw(names),
        regime=Regime(family, market, tech),
        params=EconomyParams(tfp=tfp, alpha=alpha,
                             theta=theta, gamma=gamma, population=population),
        initial_distribution=dist,
        max_generations=draw(st.integers(1, 5000)),
        stop_tol=draw(st.floats(1e-12, 1e-6)),
        shooting=ShootingConfig(
            horizon=draw(st.one_of(st.none(), st.floats(1.0, 300.0))),
            dt=draw(st.floats(1e-3, 0.1)),
            terminal_band=draw(st.floats(1e-6, 1e-2)),
        ),
        outputs=frozenset(draw(st.sets(
            st.sampled_from(["csv", "svg", "summary"]), min_size=1))),
    )


class TestRoundTrip:
    @given(configs())
    @settings(max_examples=120, deadline=None)
    def test_parse_render_identity(self, config):
        assert parse_scenario(render_scenario(config)) == config


class TestRun:
    def test_autarky_converges_to_steady_level(self, tmp_path):
        doc = """
name = "case2"
regime.family = olg
regime.market = autarky
regime.technology = exogenous
params.tfp = 1.0
params.alpha = 0.5
params.theta = 0.0
initial_distribution = [0.01, 1.0]
horizon.max_generations = 200
"""
        config = parse_scenario(doc)
        artifacts = run_scenario(config, tmp_path)
        final = artifacts.trajectory.holdings[-1]
        assert np.allclose(final, [0.25, 0.25], atol=1e-8)
        text = artifacts.trajectory_csv.read_text()
        last_agg = [l for l in text.splitlines() if ",agg," in l][-1]
        assert float(last_agg.split(",")[2]) == pytest.approx(0.25, abs=1e-8)

    def test_csv_layout(self, tmp_path):
        config = parse_scenario(MINIMAL)
        artifacts = run_scenario(config, tmp_path)
        # decode without universal newlines so the CRLF endings stay visible
        text = artifacts.trajectory_csv.read_bytes().decode("utf-8")
        lines = text.split("\r\n")
        assert lines[0] == ("t,household,holding,consumption,output,"
                            "r,g,gini,cv,r_minus_g")
        # per-household rows leave aggregate-only channels empty
        first = lines[1].split(",")
        assert first[1] == "0" and first[5] == "" and first[9] == ""
        agg = lines[3].split(",")
        assert agg[1] == "agg" and agg[5] != ""
        metrics_text = artifacts.metrics_csv.read_bytes().decode("utf-8")
        metrics_header = metrics_text.split("\r\n")[0]
        assert metrics_header == "t,gini,cv,ratio_max_min,r,g,r_minus_g"

    def test_rerun_byte_identical(self, tmp_path):
        config = parse_scenario(MINIMAL)
        first = run_scenario(config, tmp_path / "a")
        second = run_scenario(config, tmp_path / "b")
        assert (first.trajectory_csv.read_bytes()
                == second.trajectory_csv.read_bytes())
        assert first.metrics_csv.read_bytes() == second.metrics_csv.read_bytes()
        assert first.summary == second.summary

    def test_market_growth_constant_gini_column(self, tmp_path):
        doc = """
name = "case3prime"
regime.family = ramsey
regime.market = market
regime.technology = endogenous_ak
params.tfp = 3.0
params.alpha = 0.5
params.theta = 0.1
params.gamma = 2.0
initial_distribution = [1.0, 2.0]
horizon.dt = 0.01
outputs = [csv]
"""
        config = parse_scenario(doc)
        artifacts = run_scenario(config, tmp_path)
        text = artifacts.metrics_csv.read_bytes().decode("utf-8")
        rows = text.strip().split("\r\n")[1:]
        ginis = np.array([float(r.split(",")[1]) for r in rows])
        assert ginis[0] > 0.0
        assert np.max(np.abs(ginis - ginis[0])) < 1e-6

    def test_svg_only_when_requested(self, tmp_path):
        config = parse_scenario(MINIMAL)
        artifacts = run_scenario(config, tmp_path, fmt="csv")
        assert artifacts.svg is None
        with_svg = parse_scenario(MINIMAL + "outputs = [svg]\n")
        artifacts = run_scenario(with_svg, tmp_path)
        assert artifacts.svg is not None and artifacts.trajectory_csv is None
        assert artifacts.svg.read_text().startswith("<svg")

    def test_svg_escapes_markup_in_name(self, tmp_path):
        doc = MINIMAL.replace('name = "smoke"', 'name = "a&b<c"')
        artifacts = run_scenario(parse_scenario(doc + "outputs = [svg]\n"),
                                 tmp_path)
        root = ET.parse(artifacts.svg).getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c [(1)]" in texts

    def test_artifacts_have_normal_permissions(self, tmp_path):
        old_umask = os.umask(0o022)
        try:
            artifacts = run_scenario(parse_scenario(MINIMAL), tmp_path)
        finally:
            os.umask(old_umask)
        for path in (artifacts.trajectory_csv, artifacts.metrics_csv):
            assert path.stat().st_mode & 0o777 == 0o644

    def test_failed_solve_leaves_no_out_directory(self, tmp_path, capsys):
        text = (SCENARIO_DIR / "ramsey_autarky_saddle.scn").read_text(
            encoding="utf-8")
        path = tmp_path / "short.scn"
        path.write_text(text.replace("horizon.time = 175.0", "horizon.time = 1.0"),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == EXIT_SOLVER
        assert "no arrival in the terminal band" in capsys.readouterr().err
        assert not out.exists()

    def test_a_household_that_must_borrow_is_a_solver_error(self, tmp_path, capsys):
        path = tmp_path / "borrow.scn"
        path.write_text("\n".join([
            'name = "borrow"', "regime.family = ramsey", "regime.market = market",
            "regime.technology = exogenous", "params.tfp = 1.0",
            "params.alpha = 0.5", "params.theta = 0.1", "params.gamma = 1.0",
            "initial_distribution = [1.0, 60.0]", "horizon.dt = 0.05",
            "horizon.terminal_band = 1e-3"]), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "solver error: a household asset path left the positive domain "
            "during decomposition\n")
        assert not out.exists()

    def test_summary_contains_steady_state_and_r_minus_g(self, tmp_path):
        config = parse_scenario(MINIMAL)
        artifacts = run_scenario(config, tmp_path)
        assert "steady state" in artifacts.summary
        assert "r-g" in artifacts.summary
        assert "case (1)" in artifacts.summary


class TestBundledScenarios:
    @pytest.mark.parametrize("name", [
        "olg_autarky_converge.scn",
        "olg_market_growth.scn",
        "ramsey_market_growth.scn",
    ])
    def test_bundled_files_parse_and_run(self, name, tmp_path):
        path = SCENARIO_DIR / name
        config = parse_scenario(path.read_text(encoding="utf-8"))
        artifacts = run_scenario(config, tmp_path, fmt="csv")
        assert artifacts.trajectory.converged
