"""Grading groups: trivial, finite cyclic, finite table groups, free groups on
reduced words, and finite direct products.

Elements are opaque labels with multiplication; nothing here assumes the group
is finite except where explicitly stated (`elements`). Free-group elements are
kept as reduced words, so equal elements always have identical keys.

Two layers. Each kind defines arithmetic on bare keys: `identity_key`,
`key_mul`, `key_inv`, `key_check` (validates and normalises a key given to
`elem`), `key_encode`/`key_decode` (the JSON form), `key_str`, `key_order`
and, when finite, `keys`; plus `describe`, `__repr__` and its `signature`
(kind and parameters), by which groups compare and hash. `Group` alone wraps
keys as `GroupElem`s and checks that operands belong to the group, once per
operation: by identity first, then by signature, so an element of an equal but
distinct group object is accepted. A group hashes its signature once and an
element its (group, key) pair once, at construction; neither cached hash is
pickled, since `str` hashes differ between processes. `left_translates` maps
many elements through one left multiplication. `ProductGroup` composes its
factors' key functions, so a product never builds an element of a factor.
Keys are read only in this module.
"""

from __future__ import annotations

import re
from itertools import product as iproduct

from .errors import GroupMismatchError, ValidationError


def is_int(v) -> bool:
    """Whether v is an int and not a bool: JSON true/false are no integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_element_of(x, group) -> bool:
    """Whether x is an element of `group` or of a group equal to it; the
    group is compared by identity first."""
    return isinstance(x, GroupElem) and (x.group is group or x.group == group)


class GroupElem:
    """An element of `group`, held as the group's normalised key. Only this
    module builds one, so its key is always valid for its group. Its hash is
    computed once, so its fields are never reassigned."""

    __slots__ = ("group", "key", "_hash")

    def __init__(self, group: "Group", key):
        self.group = group
        self.key = key
        self._hash = hash((group, key))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.key == other.key and self.group == other.group

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return GroupElem, (self.group, self.key)

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        return self.group.mul(self, other)

    def inverse(self) -> "GroupElem":
        return self.group.inv(self)

    def is_identity(self) -> bool:
        return self.key == self.group.identity_key

    def __repr__(self):
        return self.group.format_elem(self)


class Group:
    kind = "?"
    is_finite = False

    # -- the element layer, shared by every kind ----------------------------

    def identity(self) -> GroupElem:
        return GroupElem(self, self.identity_key)

    def mul(self, a: GroupElem, b: GroupElem) -> GroupElem:
        if a.group is not self or b.group is not self:
            self.check_pair(a, b)
        return GroupElem(self, self.key_mul(a.key, b.key))

    def inv(self, a: GroupElem) -> GroupElem:
        if a.group is not self:
            self.check_member(a)
        return GroupElem(self, self.key_inv(a.key))

    def left_translates(self, g: GroupElem, elems) -> list[GroupElem]:
        """[g * s for s in elems], with g checked once."""
        if g.group is not self:
            self.check_member(g)
        mul, gk = self.key_mul, g.key
        out = []
        for s in elems:
            if s.group is not self:
                self.check_member(s)
            out.append(GroupElem(self, mul(gk, s.key)))
        return out

    def elem(self, key) -> GroupElem:
        return GroupElem(self, self.key_check(key))

    def elements(self) -> list[GroupElem]:
        if not self.is_finite:
            raise ValidationError(f"{self.kind} group is not finite; cannot enumerate elements")
        return [GroupElem(self, k) for k in self.keys()]

    def check_member(self, a: GroupElem):
        if a.group != self:
            raise GroupMismatchError(f"element of {a.group!r} used with {self!r}")

    def check_pair(self, a: GroupElem, b: GroupElem):
        self.check_member(a)
        self.check_member(b)

    def sort_key(self, a: GroupElem):
        """Deterministic total order on elements, used for stable output."""
        return self.key_order(a.key)

    def format_elem(self, a: GroupElem) -> str:
        return self.key_str(a.key)

    def encode_elem(self, a: GroupElem):
        """The element's JSON form (see the CLI file format)."""
        return self.key_encode(a.key)

    def decode_elem(self, obj) -> GroupElem:
        return GroupElem(self, self.key_decode(obj))

    def __eq__(self, other):
        return self is other or (isinstance(other, Group) and other.signature == self.signature)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.signature)
            return self._hash

    def __getstate__(self):
        state = dict(vars(self))
        state.pop("_hash", None)
        return state

    # -- arithmetic on keys, per kind ---------------------------------------

    def key_order(self, x):
        return x

    def key_encode(self, x):
        return x


class TrivialGroup(Group):
    kind = "trivial"
    is_finite = True
    signature = ("trivial",)
    identity_key = 0

    def key_mul(self, x, y):
        return 0

    def key_inv(self, x):
        return 0

    def key_check(self, key):
        if not is_int(key) or key != 0:
            raise ValidationError("trivial group has the single key 0")
        return 0

    def key_decode(self, obj):
        if obj != "e" and not (is_int(obj) and obj == 0):
            raise ValidationError(f"bad trivial-group element {obj!r}")
        return 0

    def key_str(self, x):
        return "e"

    def keys(self):
        return (0,)

    def describe(self):
        return {"type": "trivial"}

    def __repr__(self):
        return "TrivialGroup()"


class CyclicGroup(Group):
    kind = "cyclic"
    is_finite = True
    identity_key = 0

    def __init__(self, n: int):
        if not is_int(n):
            raise ValidationError(f"cyclic group order must be an int, got {n!r}")
        if n < 1:
            raise ValidationError("cyclic group order must be >= 1")
        self.n = n
        self.signature = ("cyclic", n)

    def key_mul(self, x, y):
        return (x + y) % self.n

    def key_inv(self, x):
        return (-x) % self.n

    def key_check(self, key):
        if not is_int(key):
            raise ValidationError(f"cyclic element key must be an int, got {key!r}")
        return key % self.n

    def key_decode(self, obj):
        if not is_int(obj):
            raise ValidationError(f"cyclic element must be an integer, got {obj!r}")
        return obj % self.n

    def key_str(self, x):
        return f"[{x} mod {self.n}]"

    def keys(self):
        return range(self.n)

    def describe(self):
        return {"type": "cyclic", "n": self.n}

    def __repr__(self):
        return f"CyclicGroup({self.n})"


class TableGroup(Group):
    """Finite group given by its multiplication table; the table is checked to
    be an actual group (identity, inverses, associativity) at construction."""

    kind = "table"
    is_finite = True

    def __init__(self, table):
        tbl = tuple(tuple(row) for row in table)
        n = len(tbl)
        if n == 0:
            raise ValidationError("empty multiplication table")
        for i, row in enumerate(tbl):
            if len(row) != n:
                raise ValidationError(f"table row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not is_int(v) or not 0 <= v < n:
                    raise ValidationError(f"table entry ({i},{j}) = {v!r} out of range")
        ident = None
        for e in range(n):
            if all(tbl[e][x] == x and tbl[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValidationError("table has no identity element")
        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if tbl[x][y] == ident and tbl[y][x] == ident:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValidationError(f"table element {x} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                        raise ValidationError(f"table is not associative at ({a},{b},{c})")
        self.table = tbl
        self.order = n
        self.identity_key = ident
        self.inverse_table = tuple(inv)
        self.signature = ("table", tbl)

    def key_mul(self, x, y):
        return self.table[x][y]

    def key_inv(self, x):
        return self.inverse_table[x]

    def key_check(self, key):
        if not is_int(key) or not 0 <= key < self.order:
            raise ValidationError(f"table element index {key!r} out of range")
        return key

    def key_decode(self, obj):
        if not is_int(obj):
            raise ValidationError(f"table element must be an integer index, got {obj!r}")
        return self.key_check(obj)

    def key_str(self, x):
        return f"t{x}"

    def keys(self):
        return range(self.order)

    def describe(self):
        return {"type": "table", "table": [list(r) for r in self.table]}

    def __repr__(self):
        return f"TableGroup(order={self.order})"


def _reduce_word(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# a generator a<i>: ASCII digits, few enough for int() under any digit limit
_LETTER = re.compile(r"a([0-9]{1,20})")


class FreeGroup(Group):
    """Free group of a given rank; elements are reduced words stored as tuples
    of nonzero signed generator indices (+i for a_i, -i for its inverse)."""

    kind = "free"
    identity_key = ()

    def __init__(self, rank: int):
        if not is_int(rank):
            raise ValidationError(f"free group rank must be an int, got {rank!r}")
        if rank < 1:
            raise ValidationError("free group rank must be >= 1")
        self.rank = rank
        self.signature = ("free", rank)

    def key_mul(self, x, y):
        # both words are reduced, so letters cancel only at the junction
        n = 0
        while n < len(x) and n < len(y) and x[-1 - n] == -y[n]:
            n += 1
        return x[:len(x) - n] + y[n:] if n else x + y

    def key_inv(self, x):
        return tuple(-a for a in reversed(x))

    def key_check(self, key):
        if not isinstance(key, (tuple, list)):
            raise ValidationError(f"free-group key must be a sequence of letters, got {key!r}")
        word = tuple(key)
        for x in word:
            if not is_int(x) or x == 0 or abs(x) > self.rank:
                raise ValidationError(f"bad free-group letter {x!r}")
        if word != _reduce_word(word):
            raise ValidationError(f"word {word!r} is not reduced")
        return word

    def word(self, letters) -> GroupElem:
        """Build an element from possibly unreduced letters."""
        return GroupElem(self, _reduce_word(tuple(letters)))

    def gens(self):
        return [GroupElem(self, (i,)) for i in range(1, self.rank + 1)]

    def key_order(self, x):
        return (len(x), x)

    def key_str(self, x):
        if not x:
            return "1"
        return ".".join(f"a{a}" if a > 0 else f"a{-a}'" for a in x)

    def key_encode(self, x):
        return self.key_str(x) if x else ""

    def key_decode(self, obj):
        if not isinstance(obj, str):
            raise ValidationError(f"free-group element must be a string, got {obj!r}")
        if obj in ("", "1"):
            return ()
        letters = []
        for tok in obj.split("."):
            t = tok.strip()
            neg = t.endswith("'")
            if neg:
                t = t[:-1]
            m = _LETTER.fullmatch(t)
            if m is None:
                raise ValidationError(f"bad free-group token {tok!r}")
            i = int(m.group(1))
            if not 1 <= i <= self.rank:
                raise ValidationError(f"generator index {i} out of range in {obj!r}")
            letters.append(-i if neg else i)
        return _reduce_word(letters)

    def describe(self):
        return {"type": "free", "rank": self.rank}

    def __repr__(self):
        return f"FreeGroup({self.rank})"


class ProductGroup(Group):
    kind = "product"

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValidationError("product group needs at least one factor")
        for f in self.factors:
            if not isinstance(f, Group):
                raise ValidationError(f"product factor {f!r} is not a group")
        self.is_finite = all(f.is_finite for f in self.factors)
        self.identity_key = tuple(f.identity_key for f in self.factors)
        self.signature = ("product", self.factors)

    def key_mul(self, x, y):
        return tuple(f.key_mul(a, b) for f, a, b in zip(self.factors, x, y))

    def key_inv(self, x):
        return tuple(f.key_inv(a) for f, a in zip(self.factors, x))

    def key_check(self, key):
        if not isinstance(key, (tuple, list)):
            raise ValidationError(f"product key must list one key per factor, got {key!r}")
        key = tuple(key)
        if len(key) != len(self.factors):
            raise ValidationError("component count differs from factor count")
        return tuple(f.key_check(k) for f, k in zip(self.factors, key))

    def keys(self):
        return iproduct(*(f.keys() for f in self.factors))

    def key_order(self, x):
        return tuple(f.key_order(a) for f, a in zip(self.factors, x))

    def key_str(self, x):
        return "(" + ", ".join(f.key_str(a) for f, a in zip(self.factors, x)) + ")"

    def key_encode(self, x):
        return [f.key_encode(a) for f, a in zip(self.factors, x)]

    def key_decode(self, obj):
        if not isinstance(obj, (list, tuple)) or len(obj) != len(self.factors):
            raise ValidationError(f"product element must list one entry per factor, got {obj!r}")
        return tuple(f.key_decode(o) for f, o in zip(self.factors, obj))

    def describe(self):
        return {"type": "product", "factors": [f.describe() for f in self.factors]}

    def __repr__(self):
        return f"ProductGroup({list(self.factors)!r})"


def _field(obj: dict, key: str, kind: type, what: str):
    if key not in obj:
        raise ValidationError(f"{key}: missing required field")
    v = obj[key]
    if not (is_int(v) if kind is int else isinstance(v, kind)):
        raise ValidationError(f"{key}: expected {what}, got {v!r}")
    return v


def group_from_description(obj) -> Group:
    """Group from its `describe()` form; errors name the offending field,
    relative to `obj` (e.g. "factors[1].n: ...")."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError(f"group description must be an object with a 'type', got {obj!r}")
    t = obj["type"]
    if t == "trivial":
        return TrivialGroup()
    if t == "cyclic":
        return CyclicGroup(_field(obj, "n", int, "an integer"))
    if t == "table":
        table = _field(obj, "table", list, "a list of rows")
        for i, row in enumerate(table):
            if not isinstance(row, list):
                raise ValidationError(f"table[{i}]: expected a list, got {row!r}")
        return TableGroup(table)
    if t == "free":
        return FreeGroup(_field(obj, "rank", int, "an integer"))
    if t == "product":
        factors = []
        for i, f in enumerate(_field(obj, "factors", list, "a list of group descriptions")):
            try:
                factors.append(group_from_description(f))
            except ValidationError as exc:
                raise ValidationError(f"factors[{i}]: {exc}") from None
        return ProductGroup(factors)
    raise ValidationError(f"unknown group type {t!r}")
