"""The package's lazy export map, checked in fresh interpreters so that no
module imported by another test is already loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tubular

SRC = str(Path(tubular.__file__).resolve().parents[1])

# The modules whose functions perfbench's tracer wraps (perfbench/spans.py).
TRACED = {"cli", "dsl", "report", "cat0", "fbc", "special", "cubulate", "vrc"}


def _run(code: str):
    """Run `code` in a fresh interpreter and return the JSON it prints."""
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


# Prints the loaded tubular submodules, without their package prefix.
PRINT_LOADED = "print(json.dumps(sorted(m[8:] for m in sys.modules if m.startswith('tubular.'))))"


def test_import_loads_no_submodule():
    assert _run("import tubular\n" + PRINT_LOADED) == []


def test_parse_loads_only_core_and_dsl():
    assert _run("import tubular\ntubular.parse\n" + PRINT_LOADED) == ["core", "dsl"]


def test_every_export_is_its_defining_modules_object_and_is_stored():
    code = """
import tubular
bad = []
for name in tubular.__all__:
    obj = getattr(tubular, name)
    home = sys.modules.get(obj.__module__)
    if not (obj.__module__.startswith('tubular.') and obj.__name__ == name
            and getattr(home, name) is obj and vars(tubular)[name] is obj):
        bad.append(name)
for name in ('cat0', 'core', 'cubulate', 'dsl', 'fbc', 'linalg', 'report', 'special', 'vrc'):
    if getattr(tubular, name) is not sys.modules['tubular.' + name]:
        bad.append(name)
print(json.dumps([bad, len(tubular.__all__), tubular.__version__]))
"""
    assert _run(code) == [[], 40, "0.1.0"]


def test_star_import_binds_every_export():
    code = """
import tubular
namespace = {}
exec('from tubular import *', namespace)
print(json.dumps([n for n in tubular.__all__ if namespace.get(n) is not getattr(tubular, n)]))
"""
    assert _run(code) == []


def test_unknown_name_raises_attribute_error():
    code = """
import tubular
missing = []
for name in ('no_such_name', 'parallelism_class_count'):
    try:
        getattr(tubular, name)
    except AttributeError:
        missing.append(name)
print(json.dumps(missing))
"""
    assert _run(code) == ["no_such_name", "parallelism_class_count"]


def test_cli_import_loads_every_traced_module():
    # perfbench's Tracer.install looks each traced module up in sys.modules
    # and raises KeyError for one that is missing, so importing the CLI must
    # still load every decider module.
    assert TRACED <= set(_run("import tubular.cli\n" + PRINT_LOADED))
