"""Names that other code counts on: the benchmark's traced layers, an error
class for every error the package raises and no other, no private name
shared between the package's modules, the one place each input fault is
named: ``errors.named_by``, which the scenario and CLI boundaries share,
and the float guard, and the one recorder of a trajectory, which records
the output and rates that each solver takes from one production call."""

import ast
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ineqlab
from ineqlab import errors, metrics
from ineqlab.scenario import _KEY_OF

ROOT = Path(__file__).resolve().parents[1]


def _bench_spans():
    """bench/spans.py, the benchmark's tracer, read and not edited."""
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _raised_names():
    """The name of the class in every ``raise`` statement of the package."""
    names = set()
    for path in (ROOT / "src" / "ineqlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


def _private_imports():
    """(file, name) for every import in the package that takes an
    ``_underscore`` module or name from the package itself."""
    found = []
    for path in sorted((ROOT / "src" / "ineqlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and module.split(".")[0] != "ineqlab":
                    continue
                names = module.split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names
                         if alias.name.split(".")[0] == "ineqlab"
                         for part in alias.name.split(".")]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return found


def _top_level_nodes():
    """(module, top-level name, node) for every node of the package's
    modules, under the function or class that holds it."""
    for path in sorted((ROOT / "src" / "ineqlab").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                yield path.stem, getattr(top, "name", None), node


def _catchers(names):
    """(module, top-level name) of every ``except`` that names one of ``names``."""
    found = set()
    for module, owner, node in _top_level_nodes():
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if {getattr(t, "id", getattr(t, "attr", None)) for t in types} & names:
                found.add((module, owner))
    return sorted(found)


@pytest.mark.parametrize("module, name", _bench_spans().WRAPPED,
                         ids=lambda part: part)
def test_traced_layer_resolves(module, name):
    # the benchmark wraps each of these by name; a missing one fails its run
    assert callable(getattr(getattr(ineqlab, module), name))


def test_the_benchmark_tracer_installs_and_uninstalls():
    # a traced benchmark run starts with Tracer.install on the package; it
    # must find every wrapped name, and uninstall must put each one back
    spans = _bench_spans()
    before = {pair: getattr(getattr(ineqlab, pair[0]), pair[1])
              for pair in spans.WRAPPED}
    tracer = spans.Tracer()
    try:
        tracer.install(ineqlab)
        assert all(getattr(getattr(ineqlab, module), name) is not fn
                   for (module, name), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(getattr(ineqlab, module), name) is fn
               for (module, name), fn in before.items())


@pytest.mark.parametrize("cls", [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.IneqLabError) and cls is not errors.IneqLabError
], ids=lambda cls: cls.__name__)
def test_error_class_is_raised(cls):
    assert cls.__name__ in _raised_names()


def test_every_input_fault_is_out_of_range():
    # a bound, a growth condition, an all-zero distribution, an unproductive
    # matrix and a scenario value of the wrong type are each OutOfRange
    # naming a field
    assert {cls.__name__ for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.IneqLabError)
            and cls is not errors.IneqLabError} == {
        "OutOfRange", "WrongRegime", "ShootingFailed", "StateLeftDomain",
        "ParseError"}


def test_named_by_renames_a_mapped_field():
    fault = errors.OutOfRange("dt", "dt must be > 0")
    with pytest.raises(errors.OutOfRange) as info:
        with errors.named_by({"dt": "--dt"}):
            raise fault
    assert info.value.field == "--dt"
    assert str(info.value) == "--dt: dt must be > 0"
    assert info.value.__cause__ is fault


def test_named_by_renames_through_each_boundary():
    # the scenario module names the key, then the CLI the option
    with pytest.raises(errors.OutOfRange) as info:
        with errors.named_by({"horizon.stop_tol": "--tol"}):
            with errors.named_by({"stop_tol": "horizon.stop_tol"}):
                raise errors.OutOfRange("stop_tol", "stop_tol must be >= 0")
    assert info.value.field == "--tol"
    assert str(info.value) == "--tol: horizon.stop_tol: stop_tol must be >= 0"


def test_named_by_passes_an_unmapped_field_through():
    fault = errors.OutOfRange("values", "all-zero")
    with pytest.raises(errors.OutOfRange) as info:
        with errors.named_by({"dt": "--dt"}):
            raise fault
    assert info.value is fault and fault.field == "values"


def test_no_module_imports_a_private_name_of_another():
    assert _private_imports() == []


def test_only_the_naming_helpers_catch_out_of_range():
    # an owner names its field; the scenario and CLI boundaries rename it
    # through the one helper
    assert _catchers({"OutOfRange"}) == [("errors", "named_by")]


def test_only_the_float_guard_catches_float_faults():
    # and the two readers whose faults are not a solver's: an integer beyond
    # float64, and a Leontief economy or elimination that leaves it
    assert _catchers({"ArithmeticError", "FloatingPointError", "OverflowError",
                      "ZeroDivisionError"}) == [("core", "float_guard"),
                                                ("scenario", "_number"),
                                                ("value_theory", "_within_float64")]


def test_every_solver_field_has_a_scenario_key():
    # the model code a scenario runs; the cobweb's range is named by the CLI
    fields = {node.args[0].value for module, owner, node in _top_level_nodes()
              if module in ("core", "ramsey", "olg") and owner != "cobweb_data"
              and isinstance(node, ast.Call) and getattr(node.func, "id", "") == "OutOfRange"
              and isinstance(node.args[0], ast.Constant)}
    assert "params" in fields and fields <= set(_KEY_OF)


def _calls(name):
    """The module of every call of ``name`` in the package, one per call."""
    return sorted(module for module, _, node in _top_level_nodes()
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None)))


def test_both_families_record_at_one_site():
    # every method of shoot_saddle_path returns its rows, and olg_simulate
    # its generations; one recorder call in each module records them
    assert _calls("record_trajectory") == ["olg", "ramsey"]
    assert _calls("Trajectory") == ["metrics"]


def test_each_solver_produces_its_recorded_rows_once():
    # one production call on the kept rows gives their output and rates;
    # the generation map makes its own, and the recorder and the CSV
    # writer make none
    assert sorted((module, owner) for module, owner, node in _top_level_nodes()
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "household_production") == [
        ("olg", "olg_simulate"), ("olg", "olg_step"),
        ("ramsey", "shoot_saddle_path")]
    assert _calls("household_production") == ["olg", "olg", "ramsey"]


def test_the_recorder_takes_what_the_solver_found():
    assert list(inspect.signature(metrics.record_trajectory).parameters) == [
        "times", "K", "C", "output", "interest", "growth", "regime",
        "converged", "note"]
    assert "savings_rate" not in {f.name for f in fields(ineqlab.Trajectory)}


@pytest.mark.parametrize("regime", [r for r in ineqlab.ALL_REGIMES if r.is_olg],
                         ids=lambda regime: regime.case_label())
def test_olg_step_returns_the_next_bequests_only(regime):
    params = ineqlab.EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, population=2)
    nxt = ineqlab.olg_step(np.array([1.0, 4.0]), params, regime)
    assert isinstance(nxt, np.ndarray) and nxt.shape == (2,)
