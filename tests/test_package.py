import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kextract

SUBMODULES = ("btable", "condense", "extend", "gf2n", "kproxy", "schedule", "stats")
SOURCE = Path(__file__).parents[1] / "src" / "kextract"


def imported_names(module: str) -> dict:
    """{imported module: [names taken from it]} for one source file's
    import statements, a relative module named by its dotted tail."""
    found = {}
    for node in ast.walk(ast.parse((SOURCE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name, [])
        elif isinstance(node, ast.ImportFrom):
            names = found.setdefault(node.module or "", [])
            names += [alias.name for alias in node.names]
    return found


def test_every_public_name_resolves():
    for name in kextract.__all__:
        assert getattr(kextract, name) is not None


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attribute_is_the_imported_module(name):
    assert getattr(kextract, name) is sys.modules[f"kextract.{name}"]


def test_star_import_binds_every_submodule():
    namespace = {}
    exec("from kextract import *", namespace)
    for name in SUBMODULES:
        assert namespace[name] is sys.modules[f"kextract.{name}"]
    assert namespace["ParameterError"] is kextract.errors.ParameterError


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        kextract.nope
    assert not hasattr(kextract, "nope")


def test_submodules_load_on_first_use():
    code = (
        "import sys, kextract\n"
        "before = [m for m in sys.modules if m.startswith('kextract.')]\n"
        "from kextract import stats\n"
        "print(sorted(before), kextract.btable is sys.modules['kextract.btable'],"
        " stats is sys.modules['kextract.stats'])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout == "['kextract.errors'] True True\n"


def test_condense_imports_only_public_btable_names():
    imports = imported_names("condense")
    assert "btable" not in imports.get("", [])  # no module handle to reach past
    assert imports["btable"] and not [n for n in imports["btable"] if n.startswith("_")]


def test_cli_reads_no_private_kextract_name():
    imports = imported_names("cli")
    modules = set(imports[""])  # bound by ``from . import ...``
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse((SOURCE / "cli.py").read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    private += [
        f"{module}.{name}" for module in (*SUBMODULES, "errors")
        for name in imports.get(module, []) if name.startswith("_")
    ]
    assert modules >= {"btable", "stats"} and not private


def test_schedule_imports_no_numpy():
    # the standard library, mpmath and errors only: a kextract module
    # such as btable would bring numpy in with it
    imports = imported_names("schedule")
    assert set(imports) <= {"__future__", "dataclasses", "fractions", "math", "errors", "mpmath"}


def test_benchmark_wrapped_names_resolve(monkeypatch):
    # the traced benchmark run looks these up with getattr; a deleted or
    # renamed function would otherwise fail only there
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import layers

    for module, names in layers._WRAPPED.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
