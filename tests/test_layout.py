"""Module boundaries: no symile module imports a private (``_``-prefixed)
name from another symile module, and numpy is the only third-party
module the package imports."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "symile"


def private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "symile":
                continue
            parts = module.split(".")[1 if node.level == 0 else 0 :]
            names = [a.name for a in node.names]
            if any(p.startswith("_") for p in parts) or any(n.startswith("_") for n in names):
                found.append(f"from {'.' * node.level}{module} import {', '.join(names)}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "symile" and any(p.startswith("_") for p in parts[1:]):
                    found.append(f"import {alias.name}")
    return found


def test_guard_sees_private_imports():
    assert private_imports("from .oracle import _sample_from, marginal\n")
    assert private_imports("from symile.oracle import _check_subset\n")
    assert private_imports("import symile._private\n")
    assert not private_imports("from . import fileio\nfrom .oracle import marginal\n")
    assert not private_imports("from __future__ import annotations\nfrom os import _exit\n")


def test_no_private_cross_module_imports():
    offenders = {
        path.name: private_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert not {k: v for k, v in offenders.items() if v}


def third_party_imports(source: str) -> list[str]:
    """Top-level modules imported by ``source`` that are neither in the
    standard library nor numpy or symile (relative imports are symile)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] if node.level == 0 else []
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ("numpy", "symile"):
                found.append(module)
    return found


def test_guard_sees_third_party_imports():
    assert third_party_imports("import scipy.special\n") == ["scipy.special"]
    assert third_party_imports("def f():\n    from torch import nn\n") == ["torch"]
    assert not third_party_imports(
        "from __future__ import annotations\nimport ctypes.util\nimport numpy as np\n"
        "from . import fileio\nfrom symile.oracle import marginal\n"
    )


def test_numpy_is_the_only_runtime_dependency():
    offenders = {
        path.name: third_party_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert not {k: v for k, v in offenders.items() if v}
