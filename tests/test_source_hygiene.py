"""Static checks on the package source, in place of a linter."""

import ast
import builtins
import inspect
import pathlib
import symtable

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "jscthermo"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


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


def top_level_names(source: str) -> set:
    """Names a module binds at its top level: assignments, defs, classes, imports."""
    table = symtable.symtable(source, "<module>", "exec")
    return {s.get_name() for s in table.get_symbols() if s.is_assigned() or s.is_imported()}


def global_reads(table) -> set:
    """Names that a scope, or any scope inside it, reads as globals."""
    names = {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
    for child in table.get_children():
        names |= global_reads(child)
    return names


def lazy_binding_faults(source: str, defined: dict) -> list:
    """Faults of the CLI's lazy binding, as (fault, function or module, name).

    `_LIBRARY` maps a library module to the names the CLI binds from it; a
    function may read such a name only if it `_load`s that module, and any
    other global it reads must be a builtin or a CLI module-level name.
    `defined` maps each library module to the names it binds.
    """
    tree = ast.parse(source)
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_LIBRARY"])
    home = {name: module for module, names in ast.literal_eval(table).items() for name in names}
    loads = {node.name: {arg.value for call in ast.walk(node) if isinstance(call, ast.Call)
                         and getattr(call.func, "id", None) == "_load"
                         for arg in call.args if isinstance(arg, ast.Constant)}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    module_names = top_level_names(source)
    faults, read = [], set()
    for scope in symtable.symtable(source, "cli.py", "exec").get_children():
        names = global_reads(scope)
        read |= names
        for name in sorted(names):
            if name in home and home[name] not in loads.get(scope.get_name(), ()):
                faults.append(("not loaded", scope.get_name(), name))
            elif name not in home and name not in module_names and not hasattr(builtins, name):
                faults.append(("undefined", scope.get_name(), name))
    for name, module in sorted(home.items()):
        if name not in defined.get(module, ()):
            faults.append(("not defined", module, name))
        if name not in read:
            faults.append(("unused", module, name))
        if name in module_names:   # _load's setdefault would keep the CLI's own
            faults.append(("shadowed", module, name))
    return faults


def test_finds_lazy_binding_faults():
    source = ('_LIBRARY = {"phases": ("analyze", "classify_phase", "total_entropy")}\n'
              "def _load(*modules): pass\n"
              "def total_entropy(): pass\n"
              "def _cmd_a(args):\n"
              '    _load("phases")\n'
              "    return analyze(args) + total_entropy()\n"
              "def _cmd_b(args):\n"
              "    return [analyze(a) for a in args] + missing\n")
    defined = {"phases": {"analyze", "total_entropy"}}
    assert lazy_binding_faults(source, defined) == [
        ("not loaded", "_cmd_b", "analyze"), ("undefined", "_cmd_b", "missing"),
        ("not defined", "phases", "classify_phase"), ("unused", "phases", "classify_phase"),
        ("shadowed", "phases", "total_entropy")]


def test_cli_binds_every_library_name_it_reads():
    # a handler that reads a name it never loads would fail only when that
    # one command runs, with a NameError
    defined = {p.stem: top_level_names(p.read_text(encoding="utf-8"))
               for p in PACKAGE.glob("*.py")}
    assert lazy_binding_faults((PACKAGE / "cli.py").read_text(encoding="utf-8"), defined) == []


def test_every_error_has_one_exit_code_base():
    # the CLI maps SpecError to exit 2, TooLarge to 3 and NumericalFailure to
    # 4; a class under none of them would escape as a traceback
    from jscthermo import errors
    bases = (errors.SpecError, errors.TooLarge, errors.NumericalFailure)
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    assert set(bases) <= set(classes)
    for cls in classes:
        assert sum(issubclass(cls, base) for base in bases) == 1, cls
