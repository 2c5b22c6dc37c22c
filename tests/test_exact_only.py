"""The package promises exact arithmetic: no floating point and no tolerance
anywhere. Walk the AST of every module and reject float literals, float(),
round() and math.isclose calls, `import math`, and `from math import` of
anything but the integer-exact functions."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gradedalg"
MODULES = sorted(SRC.glob("*.py"))
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def inexact_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("float", "round"):
                yield node, f"{f.id}() call"
            elif isinstance(f, ast.Attribute) and f.attr == "isclose":
                yield node, "isclose() call"
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "math" for a in node.names):
                yield node, "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for a in node.names:
                if a.name not in EXACT_MATH:
                    yield node, f"from math import {a.name}"


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what}" for node, what in inexact_nodes(tree)]
    assert not found, "\n".join(found)


def test_checker_flags_inexact_code():
    code = ("import math\nfrom math import factorial, sqrt\nx = 1.5\n"
            "y = float('2')\nz = round(x)\nmath.isclose(x, y)\n")
    kinds = sorted(what for _, what in inexact_nodes(ast.parse(code)))
    assert kinds == ["float literal 1.5", "float() call", "from math import sqrt",
                     "import math", "isclose() call", "round() call"]
