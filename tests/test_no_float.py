"""No floating point in the library: every decider works in ints and Fractions."""

import ast
from pathlib import Path

import tubular

INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "prod"}


def _float_uses(source: str) -> list[str]:
    """Float literals, uses of `float`, and `math` names outside INTEGER_MATH."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {node.lineno}: math.{a.name}"
                for a in node.names
                if a.name not in INTEGER_MATH
            ]
    return found


def test_guard_flags_each_kind_of_float_use():
    source = (
        "import math\nfrom math import sqrt, gcd\n"
        "a = 0.5\nb = float(3)\nc = math.floor(a)\nd = math.gcd(4, 6) + math.isqrt(9)\n"
    )
    assert _float_uses(source) == [
        "line 2: math.sqrt",
        "line 3: literal 0.5",
        "line 4: float",
        "line 5: math.floor",
    ]


def test_no_module_uses_floating_point():
    package = Path(tubular.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 11
    found = {
        m.name: uses for m in modules if (uses := _float_uses(m.read_text()))
    }
    assert found == {}
