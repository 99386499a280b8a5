"""Modules load on first use: what the package, the CLI and each command load.

Each check runs in a fresh interpreter, since this test process has long
since loaded every module.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BSC_SPEC = {"binary_source": {"q": 0.5}, "bsc": {"p": 0.1}, "lambda": {"num": 1, "den": 1}}


def fresh(code: str, *argv: str):
    """The JSON value that code prints as its last line in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def spec_file(tmp_path) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(BSC_SPEC), encoding="utf-8")
    return str(path)


def test_cli_import_loads_only_errors_and_no_numpy():
    loaded = fresh("""
        import json, sys, jscthermo.cli
        print(json.dumps(sorted(m for m in sys.modules if m.startswith(("jscthermo", "numpy")))))
    """)
    assert loaded == ["jscthermo", "jscthermo.cli", "jscthermo.errors"]


def test_analyze_and_sweep_load_neither_oracle_nor_applications(tmp_path):
    result = fresh("""
        import json, os, sys
        from jscthermo.cli import main
        spec = sys.argv[1]
        codes = [main(["analyze", "--spec", spec, "--out", os.devnull]),
                 main(["sweep", "--spec", spec, "--axis", "bsc.p", "--from", "0.1",
                       "--to", "0.2", "--steps", "2", "--out", os.devnull])]
        print(json.dumps([codes, "jscthermo.oracle" in sys.modules,
                          "jscthermo.applications" in sys.modules]))
    """, spec_file(tmp_path))
    assert result == [[0, 0], False, False]


def test_a_spy_set_before_the_first_command_is_called(tmp_path):
    # a tracer replaces jscthermo.cli.<name> before any command has loaded
    # it; the commands must call the replacement, then the original once
    # it is put back
    calls = fresh("""
        import json, os, sys
        import jscthermo.cli as cli
        spec = sys.argv[1]
        calls = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        def commands():
            cli.main(["simulate", "--spec", spec, "--n", "4", "--out", os.devnull])
            cli.main(["analyze", "--spec", spec, "--out", os.devnull])

        originals = cli.exact_mi, cli.analyze
        cli.exact_mi, cli.analyze = map(spy, originals)
        commands()
        cli.exact_mi, cli.analyze = originals
        commands()
        restored = (cli.exact_mi, cli.analyze) == originals
        print(json.dumps([calls, restored]))
    """, spec_file(tmp_path))
    assert calls == [["exact_mi", "analyze"], True]


def test_every_exported_name_resolves_to_its_home_module():
    result = fresh("""
        import importlib, json, jscthermo
        wrong, unlisted = [], []
        for module, names in jscthermo._EXPORTS.items():
            home = importlib.import_module(f"jscthermo.{module}")
            for name in names:
                if getattr(jscthermo, name) is not getattr(home, name):
                    wrong.append(name)
                if name not in dir(jscthermo):
                    unlisted.append(name)
        from jscthermo import oracle
        names = [name for names in jscthermo._EXPORTS.values() for name in names]
        print(json.dumps([wrong, unlisted, oracle.__name__, jscthermo.__version__,
                          len(names) - len(set(names))]))
    """)
    # no name has two homes
    assert result == [[], [], "jscthermo.oracle", "0.1.0", 0]


def test_a_submodule_is_an_attribute_of_the_package():
    assert fresh("""
        import json, jscthermo
        print(json.dumps(jscthermo.phases.analyze is jscthermo.analyze))
    """) is True
