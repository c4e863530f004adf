"""Decision procedures for tubular groups (graphs of groups with Z^2 vertex
groups and Z edge groups): CAT(0)ness, free-by-cyclic-ness, virtual
specialness, cocompact cubulation, equitable sets and wall dilation, and the
virtual-retract obstruction — all in exact arithmetic, with machine-checkable
certificates.

`import tubular` loads no submodule.  Each public name is listed once below,
under the module that defines it; the first access to it imports that module
(PEP 562) and binds the object here, so later accesses are plain attribute
lookups.  `tubular.parse`, for example, loads only `core` and `dsl`; every
submodule, `tubular.corpus` and `tubular.cli` too, loads the same way.

`tubular.cli` still imports every decider module when it loads: perfbench's
tracer (`Tracer.install` in `perfbench/spans.py`) patches functions only in
modules already in `sys.modules`, and raises KeyError for a traced module
that is missing once the CLI is imported.
"""

import importlib

_EXPORTS = {
    "cat0": ("Cat0Verdict", "decide_cat0"),
    "core": (
        "Edge",
        "EquitableSet",
        "Functional",
        "GpqParams",
        "IntVec2",
        "QForm2",
        "TubularPresentation",
        "amalgamate",
        "change_basis",
        "check_certificate",
        "single_vertex_presentation",
        "verify_equitable",
    ),
    "cubulate": (
        "NotFound",
        "WallGraph",
        "dilation_decide",
        "equitable_search",
        "wall_graph",
    ),
    "dsl": ("DslError", "parse", "unparse"),
    "fbc": (
        "FbcVerdict",
        "amalgam_fbc_sufficient",
        "button_decide",
        "decide_fbc_single_vertex",
        "generalized_retractor",
        "hom_space",
    ),
    "report": ("th9_rule",),
    "special": (
        "Answer",
        "SpecialVerdict",
        "canonical_th3_set",
        "cocompact_cubulation_decide",
        "gpq_compact_special_decide",
        "gpq_to_tubular",
        "gpq_vspecial_decide",
        "vspecial_fbc_decide",
        "vspecial_sufficient",
    ),
    "vrc": ("VrcVerdict", "vrc_obstruction"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "corpus", "linalg"}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
