from __future__ import annotations

import math

import pytest

from clanorbits import (
    FamilyA,
    build_poset,
    negate,
    nested_open_clan,
    parse_clan,
    quotient_poset,
)
from clanorbits.errors import InvalidRoot, NotClosed, SignatureMismatch

P = parse_clan


def test_dimension_examples():
    fa = FamilyA(2, 2)
    assert fa.d_K == 2
    assert fa.dimension(P("1,1,2,2")) == 4
    assert fa.dimension(P("1,2,2,1")) == 6  # the whole rank-4 flag variety
    assert fa.dimension(P("+,-,+,-")) == fa.d_K
    with pytest.raises(SignatureMismatch):
        fa.dimension(P("+,+,+,-"))


def test_classification_examples():
    fa = FamilyA(2, 2)
    assert not fa.classify(P("1,2,1,2"))
    assert fa.classify(P("1,1,2,2"))
    assert not fa.classify(P("1,-,+,1"))
    boxed = {str(c) for c in fa.enumerate() if not fa.classify(c)}
    assert boxed == {"1,+,-,1", "1,2,1,2", "1,-,+,1"}


def test_closed_orbits_count_and_smoothness():
    for (p, q) in ((2, 2), (3, 1), (2, 3)):
        fa = FamilyA(p, q)
        closed = fa.closed_clans()
        assert len(closed) == math.comb(p + q, p)
        assert all(fa.classify(c) for c in closed)


def test_open_orbit_is_computed_maximum():
    for (p, q) in ((1, 1), (2, 2), (3, 2), (4, 1), (1, 3), (3, 3)):
        poset = build_poset(FamilyA(p, q))
        assert poset.open_orbit() == nested_open_clan(p, q)


def test_nested_open_avoids_all_patterns():
    for n in range(0, 7):
        for p in range(0, n + 1):
            assert FamilyA(p, n - p).classify(nested_open_clan(p, n - p))


def test_classification_is_flip_invariant():
    fa = FamilyA(2, 2)
    for c in fa.enumerate():
        assert fa.classify(c) == fa.classify(negate(c))


def classes_at(poset, family, level):
    return quotient_poset(poset, family.isogeny_fold(level), level).members


def test_isogeny_classes(poset_a22):
    fa = FamilyA(2, 2)
    classes = classes_at(poset_a22, fa, "adjoint")
    # 3 sign-free flip-fixed clans among 21 orbits: (21 + 3) / 2
    assert len(classes) == 12
    by_rep = {cls[0]: cls for cls in classes}
    assert by_rep[P("1,2,1,2")] == (P("1,2,1,2"),)
    assert (P("1,+,-,1"), P("1,-,+,1")) in classes
    # away from p = q every class is a singleton
    fa31 = FamilyA(3, 1)
    assert all(len(c) == 1 for c in classes_at(build_poset(fa31), fa31, "adjoint"))
    assert all(len(c) == 1 for c in classes_at(poset_a22, fa, "sc"))


def test_springer_root_data():
    fa = FamilyA(2, 2)
    cl = P("+,-,-,+")
    assert fa.is_noncompact(cl, (1, 2, -1))
    assert not fa.is_noncompact(cl, (1, 4, -1))
    assert str(fa.springer_move(cl, (1, 2, -1))) == "1,1,-,+"
    assert fa.root_str((1, 4, -1)) == "e1-e4"
    with pytest.raises(NotClosed):
        fa.is_noncompact(P("1,1,+,-"), (1, 2, -1))


def test_type_a_refuses_roots_it_lacks():
    fa = FamilyA(2, 2)
    with pytest.raises(InvalidRoot):  # type A has no e_i + e_j roots
        fa.springer_move(P("+,-,-,+"), (1, 2, 1))
    with pytest.raises(InvalidRoot):
        fa.is_noncompact(P("+,-,-,+"), (1, 2, 1))
    for root in (0, 4):  # the simple roots are 1..n-1
        with pytest.raises(InvalidRoot):
            fa.raise_by(P("+,-,-,+"), root)
