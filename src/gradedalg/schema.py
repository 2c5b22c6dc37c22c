"""JSON descriptions of algebras and polynomials.

Rationals travel as strings in lowest terms ("p" or "p/q", q >= 1); group
elements use the per-kind encodings (cyclic: residue, table: index, free:
"a1.a2'.a1" with apostrophe for inverse, product: list of components).
Round-trips are bit-exact and emission is deterministic.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from math import gcd

from .algebra import GradedAlgebra
from .errors import SchemaError, ValidationError
from .groups import group_from_description, is_int
from .identities import MultilinearGradedPoly


def _is_decimal(text: str) -> bool:
    """Whether text is one or more ASCII digits 0-9."""
    return text.isascii() and text.isdigit()


def _too_long(what: str) -> str:
    return f"{what} longer than Python's {sys.get_int_max_str_digits()}-digit limit for integers"


def parse_rational(obj, where: str):
    """An integer, or a string "p" or "p/q" in lowest terms with q >= 1, as
    an int when it is one, else a Fraction. The string's syntax is
    -?[0-9]+(/[0-9]+)? with ASCII digits, read by splitting at the first
    "/"; an integer string needs no gcd."""
    if type(obj) is int or is_int(obj):
        return obj
    if isinstance(obj, str):
        num, slash, den = obj.partition("/")
        if not (_is_decimal(num[1:] if num[:1] == "-" else num) and (not slash or _is_decimal(den))):
            raise SchemaError(f"{where}: bad rational {obj!r} (expected 'p' or 'p/q')")
        # q first: a zero q is refused whatever the length of p
        try:
            if not slash:
                return int(num)
            q = int(den)
            p = int(num) if q else 0
        except ValueError:
            raise SchemaError(f"{where}: {_too_long('rational has a numerator or denominator')}") from None
        if gcd(p, q) != 1:
            raise SchemaError(f"{where}: bad rational {obj!r} (not in lowest terms with q >= 1)")
        return p if q == 1 else Fraction(p, q)
    raise SchemaError(f"{where}: rational must be an integer or 'p/q' string, got {obj!r}")


def render_rational(x) -> str:
    return str(x)


def algebra_to_description(A: GradedAlgebra) -> dict:
    entries = [[i, j, k, render_rational(c)] for (i, j, k), c in A.constants().items()]
    desc = {
        "kind": A.kind,
        "dim": A.dim,
        "group": A.group.describe(),
        "degrees": [A.group.encode_elem(g) for g in A.degrees],
        "structure": entries,
    }
    if A.unit is not None:
        desc["unit"] = [render_rational(c) for c in A.unit]
    if A.name:
        desc["name"] = A.name
    return desc


def description_to_algebra(obj) -> GradedAlgebra:
    if not isinstance(obj, dict):
        raise SchemaError("algebra description must be a JSON object")
    for key in ("kind", "dim", "group", "degrees", "structure"):
        if key not in obj:
            raise SchemaError(f"missing required field {key!r}")
    kind = obj["kind"]
    if kind not in ("associative", "lie"):
        raise SchemaError(f"kind: expected 'associative' or 'lie', got {kind!r}")
    dim = obj["dim"]
    if not is_int(dim) or dim < 0:
        raise SchemaError(f"dim: expected a nonnegative integer, got {dim!r}")
    try:
        group = group_from_description(obj["group"])
    except ValidationError as exc:
        raise SchemaError(f"group: {exc}") from None
    raw_degrees = obj["degrees"]
    if not isinstance(raw_degrees, list) or len(raw_degrees) != dim:
        raise SchemaError(f"degrees: expected a list of {dim} entries")
    degrees = []
    for i, d in enumerate(raw_degrees):
        try:
            degrees.append(group.decode_elem(d))
        except ValidationError as exc:
            raise SchemaError(f"degrees[{i}]: {exc}") from None
    raw = obj["structure"]
    if not isinstance(raw, list):
        raise SchemaError("structure: expected a list of [i, j, k, coeff] entries")
    structure = {}
    for pos, entry in enumerate(raw):
        if (not isinstance(entry, list) or len(entry) != 4):
            raise SchemaError(f"structure[{pos}]: expected [i, j, k, coeff]")
        i, j, k = entry[:3]
        if not (type(i) is int and type(j) is int and type(k) is int
                and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            for label, v in (("i", i), ("j", j), ("k", k)):
                if not is_int(v) or not 0 <= v < dim:
                    raise SchemaError(f"structure[{pos}]: index {label}={v!r} out of range 0..{dim - 1}")
        if (i, j, k) in structure:
            raise SchemaError(f"structure[{pos}]: duplicate entry for ({i},{j},{k})")
        structure[i, j, k] = parse_rational(entry[3], f"structure[{pos}]")
    unit = None
    if "unit" in obj and obj["unit"] is not None:
        raw_unit = obj["unit"]
        if not isinstance(raw_unit, list) or len(raw_unit) != dim:
            raise SchemaError(f"unit: expected a list of {dim} coordinates")
        unit = [parse_rational(c, f"unit[{i}]") for i, c in enumerate(raw_unit)]
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise SchemaError(f"name: expected a string, got {name!r}")
    return GradedAlgebra(group, degrees, structure, kind=kind, unit=unit, name=name)


def poly_from_description(obj, A: GradedAlgebra) -> MultilinearGradedPoly:
    """Polynomial file: {"n": int, "terms": [{"coef": "p/q", "perm": [1-based
    variable order], "labels": [degree encodings per variable]}]}."""
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise SchemaError("polynomial description needs 'n' and 'terms'")
    n = obj["n"]
    if not is_int(n) or n < 1:
        raise SchemaError(f"n: expected a positive integer, got {n!r}")
    raw_terms = obj["terms"]
    if not isinstance(raw_terms, list):
        raise SchemaError(f"terms: expected a list, got {raw_terms!r}")
    terms = {}
    for pos, t in enumerate(raw_terms):
        if not isinstance(t, dict):
            raise SchemaError(f"terms[{pos}]: expected an object")
        for key in ("coef", "perm", "labels"):
            if key not in t:
                raise SchemaError(f"terms[{pos}]: missing {key!r}")
        coeff = parse_rational(t["coef"], f"terms[{pos}].coef")
        perm = t["perm"]
        if (not isinstance(perm, list) or not all(is_int(p) for p in perm)
                or sorted(perm) != list(range(1, n + 1))):
            raise SchemaError(f"terms[{pos}].perm: expected a permutation of 1..{n}")
        labels = t["labels"]
        if not isinstance(labels, list) or len(labels) != n:
            raise SchemaError(f"terms[{pos}].labels: expected {n} degree labels")
        try:
            degs = tuple(A.group.decode_elem(l) for l in labels)
        except ValidationError as exc:
            raise SchemaError(f"terms[{pos}].labels: {exc}") from None
        key = (tuple(p - 1 for p in perm), degs)
        terms[key] = terms.get(key, 0) + coeff
    return MultilinearGradedPoly(n, terms)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def load_json(path: str):
    """The JSON value in the UTF-8 file at path; every failure to read or
    parse it is a SchemaError that names the position."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from None
    except ValueError:
        # json's one ValueError besides the two above: int() refused a literal
        raise SchemaError(f"{path}: {_too_long('integer literal')}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to parse") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from None
