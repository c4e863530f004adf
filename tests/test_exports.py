"""The package's lazy export map, checked in fresh interpreters so that no
module imported by another test is already loaded."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tubular

SRC = str(Path(tubular.__file__).resolve().parents[1])
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

# The modules whose functions perfbench's tracer wraps.
TRACED = {module for module, _ in spans.LAYERS}

# Every submodule of the package, read from its files.
MODULES = sorted(p.stem for p in Path(tubular.__file__).parent.glob("*.py") if p.stem != "__init__")


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


# Public names, each with every submodule that its first access loads.
LOADS = {
    "parse": ["core", "dsl"],
    "vrc_obstruction": ["core", "vrc"],
    "decide_cat0": ["cat0", "core"],
    "th9_rule": ["core", "report"],
    # The certificate types, their checks and the amalgam constructor.
    "EquitableSet": ["core"],
    "Functional": ["core"],
    "amalgamate": ["core"],
    "check_certificate": ["core"],
    "verify_equitable": ["core"],
    "vspecial_sufficient": ["cat0", "core", "fbc", "linalg", "special"],
}


def test_parse_loads_only_core_and_dsl():
    loaded = {
        name: _run(f"import tubular\ntubular.{name}\n" + PRINT_LOADED)
        for name in LOADS
    }
    assert loaded == LOADS


def test_corpus_import_loads_only_core_and_corpus():
    assert _run("import tubular.corpus\n" + PRINT_LOADED) == ["core", "corpus"]


# Per module, the package modules that importing it loads, itself included.
# `holonomy_cycle` lives in `core`, so `cat0` and `special` can solve integer
# potential systems without loading `cubulate`.
IMPORTS = {
    "core": ["core"],
    "linalg": ["linalg"],
    "dsl": ["core", "dsl"],
    "cat0": ["cat0", "core"],
    "vrc": ["core", "vrc"],
    "report": ["core", "report"],
    "corpus": ["core", "corpus"],
    "cubulate": ["core", "cubulate"],
    "fbc": ["core", "fbc", "linalg"],
    "special": ["cat0", "core", "fbc", "linalg", "special"],
    "cli": MODULES,
}


def test_each_module_loads_only_its_imports():
    assert sorted(IMPORTS) == MODULES
    loaded = {name: _run(f"import tubular.{name}\n" + PRINT_LOADED) for name in IMPORTS}
    assert loaded == IMPORTS
    assert tubular.cubulate.holonomy_cycle is tubular.core.holonomy_cycle


def test_every_export_is_its_defining_modules_object_and_is_stored():
    assert {"cli", "corpus", "linalg"} < set(MODULES)
    code = """
import tubular
bad = [name for name in MODULES if name not in dir(tubular)]
for name in tubular.__all__:
    obj = getattr(tubular, name)
    home = sys.modules.get(obj.__module__)
    if not (obj.__module__.startswith('tubular.') and obj.__name__ == name
            and getattr(home, name) is obj and vars(tubular)[name] is obj):
        bad.append(name)
for name in MODULES:
    if getattr(tubular, name) is not sys.modules['tubular.' + name]:
        bad.append(name)
print(json.dumps([bad, len(tubular.__all__), tubular.__version__]))
"""
    assert _run(f"MODULES = {MODULES!r}\n" + code) == [[], 40, "0.1.0"]


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


def test_every_private_helper_has_a_caller():
    """Each module-level `def _x` or `class _X` of the package, dunders
    aside, is named, as a name or an attribute, somewhere in the package
    outside its own definition."""
    package = Path(tubular.__file__).parent
    tops = [node for p in sorted(package.glob("*.py")) for node in ast.parse(p.read_text()).body]
    helpers = {
        node.name
        for node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = set()
    for top in tops:
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != getattr(top, "name", None):
                used.add(name)
    assert len(helpers) > 40
    assert sorted(helpers - used) == []
