import random
from itertools import permutations

import pytest

from gradedalg.errors import GroupMismatchError, ValidationError
from gradedalg.groups import (CyclicGroup, FreeGroup, ProductGroup, TableGroup,
                              TrivialGroup, group_from_description)


def s3_table():
    """Multiplication table of S3 built from permutation composition."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    return [[index[compose(p, q)] for q in perms] for p in perms], perms, index


def test_cyclic_addition():
    z2 = CyclicGroup(2)
    one = z2.elem(1)
    assert (one * one).is_identity()


def test_free_cancellation():
    f = FreeGroup(2)
    a1, a2 = f.gens()
    assert (a1 * a2) * a2.inverse() == a1
    w = f.word([1, 2, -2, -1, 1])
    assert w.key == (1,)


def test_s3_against_table_oracle():
    table, perms, index = s3_table()
    g = TableGroup(table)
    # two transpositions compose to a 3-cycle
    t1 = g.elem(index[(1, 0, 2)])
    t2 = g.elem(index[(0, 2, 1)])
    prod = t1 * t2
    expect = tuple((1, 0, 2)[(0, 2, 1)[i]] for i in range(3))
    assert prod.key == index[expect]
    assert sorted(expect) == [0, 1, 2] and expect not in [(1, 0, 2), (0, 2, 1), (0, 1, 2)]


@pytest.mark.parametrize("group", [
    TrivialGroup(),
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(6),
    TableGroup(s3_table()[0]),
    ProductGroup((CyclicGroup(2), CyclicGroup(2))),
])
def test_axioms_exhaustive_finite(group):
    elems = group.elements()
    e = group.identity()
    for a in elems:
        assert (a * a.inverse()) == e
        assert (a.inverse() * a) == e
        assert (a * e) == a and (e * a) == a
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a * b) * c == a * (b * c)


def test_axioms_randomized_free_group():
    f = FreeGroup(2)
    rng = random.Random(5)

    def rand_elem():
        return f.word([rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(0, 6))])

    e = f.identity()
    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * e == a and e * a == a
        assert (a.inverse() * a) == e


def test_free_words_stay_reduced():
    f = FreeGroup(2)
    rng = random.Random(9)
    for _ in range(500):
        a = f.word([rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(0, 5))])
        b = f.word([rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(0, 5))])
        w = (a * b).key
        assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def test_mixing_groups_raises():
    with pytest.raises(GroupMismatchError):
        CyclicGroup(2).elem(1) * CyclicGroup(3).elem(1)
    with pytest.raises(GroupMismatchError):
        FreeGroup(1).identity() * FreeGroup(2).identity()


def test_unreduced_key_rejected():
    f = FreeGroup(2)
    with pytest.raises(ValidationError):
        f.elem((1, -1))
    with pytest.raises(ValidationError):
        f.elem((3,))


def test_invalid_table_rejected():
    with pytest.raises(ValidationError):
        TableGroup([[0, 1], [1, 1]])      # 1 has no inverse / not a group
    with pytest.raises(ValidationError):
        TableGroup([[1, 0], [0, 0]])      # no identity behaves correctly both sides?
    with pytest.raises(ValidationError):
        TableGroup([[0, 1], [0, 1]])


def test_bools_are_not_group_elements():
    table = [[0, 1], [1, 0]]
    for g, obj in ((TrivialGroup(), False), (CyclicGroup(2), True), (TableGroup(table), True),
                   (ProductGroup((CyclicGroup(2),)), [True])):
        with pytest.raises(ValidationError):
            g.decode_elem(obj)
    for g, key in ((TrivialGroup(), False), (CyclicGroup(2), True), (TableGroup(table), True),
                   (FreeGroup(2), (True,))):
        with pytest.raises(ValidationError):
            g.elem(key)
    with pytest.raises(ValidationError, match=r"table entry \(0,0\) = False"):
        TableGroup([[False, True], [True, False]])


@pytest.mark.parametrize("token", ["a\u00b2", "a" + "3" * 5000],
                         ids=["superscript-digit", "5000-digit-index"])
def test_free_tokens_past_ascii_digits_are_rejected(token):
    with pytest.raises(ValidationError, match="bad free-group token"):
        FreeGroup(2).decode_elem(token)


def test_encode_decode_round_trip():
    table, _, _ = s3_table()
    groups = [TrivialGroup(), CyclicGroup(5), TableGroup(table), FreeGroup(2),
              ProductGroup((CyclicGroup(2), FreeGroup(1)))]
    rng = random.Random(3)
    for g in groups:
        assert group_from_description(g.describe()) == g
        if g.is_finite:
            sample = g.elements()
        else:
            sample = [g.identity()]
            if isinstance(g, FreeGroup):
                sample += [g.word([rng.choice([1, -1, 2 if g.rank > 1 else 1])
                                   for _ in range(4)]) for _ in range(10)]
            else:
                sample += [g.decode_elem([1, "a1.a1"]), g.decode_elem([0, "a1'"])]
        for e in sample:
            assert g.decode_elem(g.encode_elem(e)) == e


def test_free_format():
    f = FreeGroup(2)
    w = f.word([1, 2, -1])
    assert f.encode_elem(w) == "a1.a2.a1'"
    assert f.decode_elem("a1.a2.a1'") == w
    assert f.encode_elem(f.identity()) == ""
