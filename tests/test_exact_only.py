"""The package promises exact arithmetic: no floating point, no tolerance and
no random draw anywhere. Walk the AST of every module and reject float
literals, float(), round() and math.isclose calls, `import math`, `from math
import` of anything but the integer-exact functions, and any import of
`random`, so that no result can hang on a seed. Integral scalars are ints,
and an int over an int is a float in Python, so a true division `/` (or
`/=`) stands only in `exactlin.div`, the one division, and in
`identities.exponent_estimate`, whose operands are Fractions by
construction. The same walk keeps modules to each
other's public surface: `x._name` is allowed on `self` and `cls` only, and
only exactlin calls the `Subspace(...)` constructor, which trusts its basis to
be in reduced row echelon form (elsewhere `Subspace.from_vectors`, `zero` and
`full` build one). A last walk rejects dead private helpers: every `_name`
function, class or method must be referenced somewhere in the package outside
its own definition. `assert` statements are rejected too: they vanish under
`python -O`, so a check that must hold raises `InternalCheckError`. Dense
vectors become sparse {index: coefficient} dicts through `exactlin.sparse`
alone: outside exactlin, a dict comprehension keyed by a bare name over a
filtered `enumerate(...)` is rejected. Sparse vectors are summed by
`exactlin.axpy`, the one accumulate loop, which with `_subtract`, the
elimination's, alone drops the entries that cancel: outside exactlin,
`del x[...]` is rejected. The structure table holds only
nonempty rows, so it is read plane by plane: `structure[i][j]` (or
`transpose[j][i]`) is rejected. Group-element keys are read in groups.py
alone: elsewhere `.key` is rejected, and so is a `GroupElem(...)` call,
which trusts its key to be valid for its group (elsewhere `Group.elem`,
`decode_elem` and the arithmetic build one). README's "Library layout" table names
only what exists: a bare identifier in backticks in a `gradedalg.X` row must be
an attribute of that module or of a class defined there. Its "Removed public
names" list names only what is gone: a dotted name that opens an item must
resolve to nothing in the package."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gradedalg"
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
            for a in node.names:
                if a.name.split(".")[0] in ("math", "random"):
                    yield node, f"import {a.name.split('.')[0]}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for a in node.names:
                if a.name not in EXACT_MATH:
                    yield node, f"from math import {a.name}"
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            yield node, "from random import"


# (module, function) where `/` may stand: the one division, and the growth
# verdict, whose operands are Fractions by construction
TRUE_DIVISION_ALLOWED = {("exactlin.py", "div"), ("identities.py", "exponent_estimate")}


def true_division_nodes(tree, module=""):
    """`a / b` and `a /= b` outside the functions of TRUE_DIVISION_ALLOWED."""
    allowed = {id(n) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and (module, node.name) in TRUE_DIVISION_ALLOWED for n in ast.walk(node)}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                and id(node) not in allowed):
            yield node, "true division /"


def foreign_private_nodes(tree, module=""):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            yield node, f"private attribute .{node.attr}"
        elif (isinstance(node, ast.Call) and module != "exactlin.py"
              and (getattr(node.func, "id", None) == "Subspace"
                   or getattr(node.func, "attr", None) == "Subspace")):
            yield node, "direct Subspace() call"


def dead_private_definitions(trees):
    """(module, node) for each private (`_name`, not dunder) function, class or
    method in `trees` (module name -> AST) that no Name or Attribute in any of
    the trees references outside the definition itself."""
    defs = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.setdefault(name, []).append(node)
    for module, node in defs:
        inside = {id(n) for n in ast.walk(node)}
        if all(id(use) in inside for use in uses.get(node.name, [])):
            yield module, node


def assert_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node, "assert statement"


def inline_sparse_nodes(tree, module=""):
    """Dict comprehensions {i: c for i, c in enumerate(v) if ...}: a bare-name
    key over `enumerate` under an `if`, the conversion `exactlin.sparse` owns.
    Tuple keys, as in structure-constant tables, are allowed."""
    if module == "exactlin.py":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.DictComp) and isinstance(node.key, ast.Name) and any(
                gen.ifs and isinstance(gen.iter, ast.Call)
                and getattr(gen.iter.func, "id", None) == "enumerate"
                for gen in node.generators):
            yield node, "inline dense-to-sparse conversion"


def deleted_entry_nodes(tree, module=""):
    """`del x[...]` outside exactlin: dropping an entry that cancels is
    the business of `exactlin.axpy`, the one accumulate loop, and
    `_subtract`, the elimination's."""
    if module == "exactlin.py":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Delete):
            for target in node.targets:
                for t in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                    if isinstance(t, ast.Subscript):
                        yield t, "del of a subscript"


TABLE_NAMES = {"structure", "transpose"}


def double_table_subscript_nodes(tree):
    """`structure[i][j]`: the table holds only the nonempty rows of each
    plane, so a second subscript raises KeyError for a vanishing product;
    a plane is read by `.items()` or `.get(j, {})`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript):
            base = node.value.value
            if getattr(base, "attr", None) in TABLE_NAMES or getattr(base, "id", None) in TABLE_NAMES:
                yield node, "double subscript of the structure table"


def group_key_nodes(tree, module=""):
    """`.key` attributes and `GroupElem(...)` calls outside groups.py: an
    element's key is the group's business, and elsewhere elements are built by
    the group, then compared, hashed and encoded as they are."""
    if module == "groups.py":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "key":
            yield node, "group key access"
        elif isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "GroupElem"
                                             or getattr(node.func, "attr", None) == "GroupElem"):
            yield node, "direct GroupElem() call"


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what}" for node, what in inexact_nodes(tree)]
    assert not found, "\n".join(found)


def test_checker_flags_inexact_code():
    code = ("import math\nfrom math import factorial, sqrt\nx = 1.5\n"
            "y = float('2')\nz = round(x)\nmath.isclose(x, y)\n"
            "import random\nfrom random import Random\nimport os, random as r\n"
            "from fractions import Fraction\nrandom_seed = 1\n")
    kinds = sorted(what for _, what in inexact_nodes(ast.parse(code)))
    assert kinds == ["float literal 1.5", "float() call", "from math import sqrt",
                     "from random import", "import math", "import random", "import random",
                     "isclose() call", "round() call"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_divides_through_exactlin(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what} (use exactlin.div)"
             for node, what in true_division_nodes(tree, path.name)]
    assert not found, "\n".join(found)


def test_checker_flags_true_division():
    code = ("a / b\nx /= 2\nn // d\nq, r = divmod(a, b)\n"
            "def div(a, b):\n    return a / b\n"
            "def exponent_estimate(u):\n    return u[1] / u[0]\n"
            "path = 'a/b'\n")
    found = sorted((node.lineno, what) for node, what in true_division_nodes(ast.parse(code)))
    assert found == [(1, "true division /"), (2, "true division /"),
                     (6, "true division /"), (8, "true division /")]
    lines = {module: sorted(node.lineno for node, _ in true_division_nodes(ast.parse(code), module))
             for module in ("exactlin.py", "identities.py")}
    assert lines == {"exactlin.py": [1, 2, 8], "identities.py": [1, 2, 6]}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what}" for node, what in assert_nodes(tree)]
    assert not found, "\n".join(found)


def test_checker_flags_assert_statements():
    code = ("assert x == 1\ndef f(y):\n    assert y, 'message'\n    return y\n"
            "if x:\n    raise InternalCheckError('checked')\nassertion = True\n")
    lines = [node.lineno for node, _ in assert_nodes(ast.parse(code))]
    assert sorted(lines) == [1, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_foreign_private_attribute(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what}"
             for node, what in foreign_private_nodes(tree, path.name)]
    assert not found, "\n".join(found)


def test_checker_flags_foreign_private_access():
    code = ("A._sc[0]\nself._x = 1\ncls._y\nA.__class__\nself.inner._z\n"
            "A.structure\nSubspace(2, m, (0,))\nexactlin.Subspace(2, m, ())\n"
            "Subspace.from_vectors(2, [])\nSubspace.zero(2)\n")
    kinds = sorted(what for _, what in foreign_private_nodes(ast.parse(code)))
    assert kinds == ["direct Subspace() call", "direct Subspace() call",
                     "private attribute ._sc", "private attribute ._z"]
    allowed = sorted(what for _, what in foreign_private_nodes(ast.parse(code), "exactlin.py"))
    assert allowed == ["private attribute ._sc", "private attribute ._z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_converts_to_sparse_through_exactlin(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what} (use exactlin.sparse)"
             for node, what in inline_sparse_nodes(tree, path.name)]
    assert not found, "\n".join(found)


def test_checker_flags_inline_sparse_conversions():
    code = ("{i: c for i, c in enumerate(v) if c != 0}\n"
            "[{k: x for k, x in enumerate(r) if x} for r in rows]\n"
            "{(a, b, k): c for k, c in enumerate(v) if c != 0}\n"
            "{w: i for i, w in enumerate(words)}\n"
            "{i: c for i, c in zip(ix, v) if c != 0}\n"
            "{i: c for i, c in v.items() if c}\n")
    lines = [node.lineno for node, _ in inline_sparse_nodes(ast.parse(code))]
    assert sorted(lines) == [1, 2]
    assert not list(inline_sparse_nodes(ast.parse(code), "exactlin.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_accumulates_through_axpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what} (sum through exactlin.axpy)"
             for node, what in deleted_entry_nodes(tree, path.name)]
    assert not found, "\n".join(found)


def test_checker_flags_deleted_entries():
    code = ("del acc[k]\n"
            "del w[k], x\n"
            "del (a[0], b)\n"
            "del x\n"
            "del self.cache\n"
            "acc.pop(k)\n"
            "acc[k] = 0\n")
    lines = sorted(node.lineno for node, _ in deleted_entry_nodes(ast.parse(code)))
    assert lines == [1, 2, 3]
    assert not list(deleted_entry_nodes(ast.parse(code), "exactlin.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_table_planes_by_get(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what} (use .get(j, {{}}))"
             for node, what in double_table_subscript_nodes(tree)]
    assert not found, "\n".join(found)


def test_checker_flags_double_table_subscripts():
    code = ("A.structure[i][j]\n"
            "self.structure[i][j][0]\n"
            "structure[l][i]\n"
            "A.transpose[j][i]\n"
            "A.structure[i].get(j, ())\n"
            "structure[i, j, k]\n"
            "rows[i][j]\n"
            "A.structure[i]\n")
    lines = sorted({node.lineno for node, _ in double_table_subscript_nodes(ast.parse(code))})
    assert lines == [1, 2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_group_key(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what} (keys stay inside groups.py)"
             for node, what in group_key_nodes(tree, path.name)]
    assert not found, "\n".join(found)


def test_checker_flags_group_key_reads():
    code = ("index = {e.key: i for i, e in enumerate(elems)}\n"
            "sorted(xs, key=len)\nd.keys()\ng.sort_key(e)\n"
            "if a.key not in seen:\n    pass\nself.key = 1\n")
    lines = [node.lineno for node, _ in group_key_nodes(ast.parse(code))]
    assert sorted(lines) == [1, 5, 7]
    assert not list(group_key_nodes(ast.parse(code), "groups.py"))


def test_checker_flags_group_elem_construction():
    code = ("GroupElem(g, 1)\ngroups.GroupElem(g, (1, -2))\nisinstance(x, GroupElem)\n"
            "g.elem(1)\ng.decode_elem('a1')\nGroupElement(g, 1)\nmake = GroupElem\n")
    found = [(node.lineno, what) for node, what in group_key_nodes(ast.parse(code))]
    assert found == [(1, "direct GroupElem() call"), (2, "direct GroupElem() call")]
    assert not list(group_key_nodes(ast.parse(code), "groups.py"))


def test_no_dead_private_helpers():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    found = [f"{module}:{node.lineno}: {node.name} is never referenced"
             for module, node in dead_private_definitions(trees)]
    assert not found, "\n".join(found)


def test_checker_flags_dead_private_helpers():
    a = ("def _used():\n    return 1\n"
         "def _recursive(n):\n    return _recursive(n - 1)\n"
         "def public():\n    return _used() + _Box()._method()\n"
         "class _Box:\n    def _method(self):\n        return 2\n"
         "    def _unused(self):\n        return self._unused\n"
         "    def __repr__(self):\n        return ''\n")
    b = "import a\nclass _Orphan:\n    pass\nx = a._used_elsewhere\n"
    c = "def _used_elsewhere():\n    pass\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b), "c": ast.parse(c)}
    dead = sorted((module, node.name) for module, node in dead_private_definitions(trees))
    assert dead == [("a", "_recursive"), ("a", "_unused"), ("b", "_Orphan")]


def stale_api_names(table: str) -> list:
    """(module, name) for each bare identifier in backticks in a table row
    whose first cell names `gradedalg.X` modules, when the name is an
    attribute of none of those modules nor of any class defined in them."""
    found = []
    for line in table.splitlines():
        cells = line.split("|", 2)
        if len(cells) < 3 or not line.startswith("|"):
            continue
        modules = [importlib.import_module(m)
                   for m in re.findall(r"`(gradedalg\.\w+)`", cells[1])]
        owners = modules + [c for m in modules for c in vars(m).values()
                            if isinstance(c, type) and c.__module__ == m.__name__]
        for name in cells[2].split("`")[1::2]:
            if (modules and re.fullmatch(r"[A-Za-z_]\w*", name)
                    and not any(hasattr(o, name) for o in owners)):
                found.append((modules[0].__name__, name))
    return found


def test_readme_layout_names_exist():
    text = (ROOT / "README.md").read_text()
    table = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    assert "`gradedalg.identities`" in table
    found = [f"{module}: `{name}`" for module, name in stale_api_names(table)]
    assert not found, "README names what the package lacks:\n" + "\n".join(found)


def _resolves(dotted: str) -> bool:
    """Whether `a.b.c` names something in the package: `a` is a module of it
    or an attribute of one, and `.b.c` are attributes from there on."""
    head, *rest = dotted.split(".")
    modules = [importlib.import_module(f"gradedalg.{path.stem}") for path in MODULES]
    starts = [m for m in modules if m.__name__ == f"gradedalg.{head}"]
    starts += [getattr(m, head) for m in modules if hasattr(m, head)]
    for obj in starts:
        for name in rest:
            obj = getattr(obj, name, None)
            if obj is None:
                break
        else:
            return True
    return False


def live_removed_names(section: str) -> list:
    """The dotted names that open an item of a "Removed public names" list
    (`- `name`` or `- `name(args)``) and still resolve in the package. An
    item that opens with prose, such as "the `x` parameter of ...", names a
    parameter, not an attribute, and is skipped."""
    found = []
    for m in re.finditer(r"^- `([A-Za-z_][\w.]*)(?:\([^`]*\))?`", section, re.M):
        name = m.group(1)
        if "." in name and _resolves(name):
            found.append(name)
    return found


def test_readme_removed_names_are_gone():
    text = (ROOT / "README.md").read_text()
    rest = text.split("\nRemoved public names", 1)[1]
    section = rest[rest.index("\n- ") + 1:].split("\n\n", 1)[0]
    assert section.startswith("- `") and "- `exactlin.Mat`:" in section
    found = live_removed_names(section)
    assert not found, "README lists as removed what the package has:\n" + "\n".join(found)


def test_checker_flags_live_removed_names():
    section = ("- `exactlin.Mat.zeros`: gone;\n"
               "- `exactlin.Reducer`: still here;\n"
               "- `GradedAlgebra.multiply`: still here,\n  on a continuation line;\n"
               "- `radical.is_solvable(L, s)`: gone;\n"
               "- `radical.killing_form(L)`: still here;\n"
               "- `GradedAlgebra.no_such_method`: gone;\n"
               "- the `digits` parameter of `identities.decimal_root`: skipped;\n"
               "- `Subspace`: not dotted, skipped;\n"
               "`exactlin.sparse` outside an item is not read\n")
    assert live_removed_names(section) == ["exactlin.Reducer", "GradedAlgebra.multiply",
                                           "radical.killing_form"]


def test_checker_flags_stale_readme_names():
    table = ("| module | contents |\n| --- | --- |\n"
             "| `gradedalg.identities` | `codimension_report` (not `codimension_reports`); "
             "`CodimReport` (`verdict`), `MultilinearGradedPoly` (`from_functionals`) |\n"
             "| `gradedalg.exactlin` | `Reducer`, `rref`, `Fraction`s, `sparse(v)`, "
             "`{i: v[i]}` |\n"
             "| `gradedalg.schema`, `gradedalg.cli` | `main`, `digest`, `python -m gradedalg` |\n"
             "| other | `rref` |\n")
    assert stale_api_names(table) == [("gradedalg.identities", "codimension_reports"),
                                      ("gradedalg.identities", "from_functionals"),
                                      ("gradedalg.exactlin", "rref")]
