"""Names that other code counts on: the benchmark's traced layers, an error
class for every error the package raises and no other, and no private name
shared between the package's modules."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import ineqlab
from ineqlab import errors

ROOT = Path(__file__).resolve().parents[1]


def _traced_layers():
    """``WRAPPED`` of bench/spans.py: (module of ineqlab, name) pairs."""
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


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


@pytest.mark.parametrize("module, name", _traced_layers(),
                         ids=lambda part: part)
def test_traced_layer_resolves(module, name):
    # the benchmark wraps each of these by name; a missing one fails its run
    assert callable(getattr(getattr(ineqlab, module), name))


@pytest.mark.parametrize("cls", [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.IneqLabError) and cls is not errors.IneqLabError
], ids=lambda cls: cls.__name__)
def test_error_class_is_raised(cls):
    assert cls.__name__ in _raised_names()


def test_no_module_imports_a_private_name_of_another():
    assert _private_imports() == []
