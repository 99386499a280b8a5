"""Static checks on the package source, in place of a linter."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "jscthermo"
# __init__.py imports in order to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # a.b.c reads the Name a, so Names cover attribute chains too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom typing import Optional, Tuple\nx: Tuple = math.pi\n"
    assert unused_imports(source) == [(2, "os"), (3, "Optional")]


def test_package_modules_found():
    assert {"cli.py", "models.py", "phases.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def spec_readers(source: str) -> list:
    """Every *_from_dict function the module defines and json.load(s) it calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_dict"):
            found.append(node.name)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("load", "loads") \
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json":
            found.append(f"json.{node.func.attr}")
    return found


def test_spec_json_reads_specs():
    found = spec_readers((PACKAGE / "spec_json.py").read_text(encoding="utf-8"))
    assert {"system_from_dict", "wiretap_from_dict", "mac_from_dict", "json.load"} <= set(found)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "spec_json.py"])
def test_only_spec_json_reads_specs(module):
    # one reader owns the JSON format: its number rule, paths and error names
    assert spec_readers((PACKAGE / module).read_text(encoding="utf-8")) == []
