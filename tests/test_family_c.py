from __future__ import annotations

import pytest

from clanorbits import (
    FamilyC,
    build_poset,
    cross_validate,
    gamma_circ_c,
    middle_crossings,
    parse_clan,
    quotient_poset,
)
from clanorbits.cli import orbit_rows, poset_dot
from clanorbits.errors import ConsistencyError, NotSymmetric
from clanorbits.family_c import fiber_form_c
from clanorbits.fixtures import compare_fixture, load_fixture

P = parse_clan


def test_enumerate_counts():
    assert len(FamilyC(2, 2).enumerate()) == 42
    assert [str(c) for c in FamilyC(1, 0).enumerate()] == ["+,+"]
    got = {str(c) for c in FamilyC(1, 1).enumerate()}
    assert got == {"+,-,-,+", "-,+,+,-", "1,1,2,2", "1,2,1,2"}


def test_enumeration_against_the_filter(mirror_filter):
    """The first-half generator lists exactly the symmetric clans of the
    doubled signature, the definition, each once."""
    for n in range(7):
        for p in range(n + 1):
            got = FamilyC(p, n - p).enumerate()
            assert len(got) == len(set(got))
            assert set(got) == mirror_filter(2 * p, 2 * (n - p))["symmetric"]


def test_count_is_the_closed_form():
    assert [FamilyC(p, q).count() for p, q in ((3, 3), (4, 3), (4, 4))] == [680, 2555, 14630]
    for p in range(5):
        for q in range(5):
            assert FamilyC(p, q).count() == len(FamilyC(p, q).enumerate())


def test_build_poset_c43():
    poset = build_poset(FamilyC(4, 3))
    assert (len(poset), len(poset.covers)) == (2555, 12030)


def test_fiber_form_searched_once_per_orbit(poset_c22):
    fiber_form_c.cache_clear()
    orbit_rows(FamilyC(2, 2), poset_c22)
    assert fiber_form_c.cache_info().misses <= len(poset_c22)


def test_gamma_circ_examples():
    assert str(gamma_circ_c(2, 2)) == "1,2,3,4,3,4,1,2"
    assert str(gamma_circ_c(1, 2)) == "1,2,-,-,1,2"
    assert str(gamma_circ_c(1, 1)) == "1,2,1,2"
    assert str(gamma_circ_c(2, 0)) == "+,+,+,+"


def test_dimension_examples():
    fc = FamilyC(2, 2)
    assert fc.d_K == 8
    top = P("1,2,3,4,3,4,1,2")
    assert middle_crossings(top) == 2
    assert fc.dimension(top) == 16  # the rank-4 type-C flag variety
    assert fc.dimension(P("+,-,-,+,+,-,-,+")) == 8
    assert fc.dimension(P("1,2,+,-,-,+,1,2")) == 14
    with pytest.raises(NotSymmetric):
        fc.dimension(P("1,1,2,2,+,-,+,-"))


def test_fiber_form_witnesses():
    fc = FamilyC(2, 2)
    form = fc.fiber_form(P("+,1,2,-,-,1,2,+"))
    assert form is not None
    assert str(form.prefix) == "+" and (form.core_p, form.core_q) == (1, 2)
    whole = fc.fiber_form(P("1,2,3,4,3,4,1,2"))
    assert whole is not None and len(whole.prefix) == 0
    assert fc.fiber_form(P("1,2,+,-,-,+,1,2")) is None


def test_classification_examples(poset_c22):
    import clanorbits

    fc = FamilyC(2, 2)
    assert not fc.classify(P("1,2,+,-,-,+,1,2"))
    assert fc.classify(P("+,1,2,-,-,1,2,+"))
    assert fc.classify(P("1,2,3,4,3,4,1,2"))
    # exceptional forms are smooth despite containing crossings; in
    # particular the open orbit contains the crossing pattern once q >= 1
    assert clanorbits.includes_pattern(gamma_circ_c(2, 2), P("1,2,1,2"))
    form_orbits = [c for c in fc.enumerate() if fc.fiber_form(c) is not None]
    assert any(not clanorbits.avoids_bad_patterns(c) for c in form_orbits)


def test_closed_orbits():
    fc = FamilyC(2, 2)
    closed = fc.closed_clans()
    assert len(closed) == 6
    assert all(c.is_all_signs() and fc.contains(c) for c in closed)


def test_springer_root_data():
    fc = FamilyC(1, 1)
    cl = P("+,-,-,+")
    assert fc.is_noncompact(cl, (1, 2, -1))
    assert str(fc.springer_move(cl, (1, 2, -1))) == "1,1,2,2"
    # long roots never appear among the candidate roots
    assert all(eps in (-1, 1) and i < j for (i, j, eps) in fc.positive_roots())
    # e_1 + e_2 reads coordinate 2n+1-j: position 3 carries '-' here, so
    # the root is noncompact and pairs up (1,3) and (2,4)
    assert fc.is_noncompact(cl, (1, 2, 1))
    assert str(fc.springer_move(cl, (1, 2, 1))) == "1,2,1,2"
    other = P("-,+,+,-")
    assert fc.is_noncompact(other, (1, 2, -1))
    assert not fc.is_noncompact(other, (1, 4, -1))  # equal signs at the ends


def test_isogeny_fold(poset_c22):
    fc = FamilyC(2, 2)
    folded = quotient_poset(poset_c22, fc.isogeny_fold("adjoint"), "adjoint")
    classes = folded.members
    assert len(classes) == 27
    assert sum(1 for c in classes if len(c) == 1) == 12  # sign-free clans
    boxed = [folded.orbits[i] for i in range(len(folded)) if not fc.classify(folded.orbits[i])]
    assert len(boxed) == 13
    fc21 = FamilyC(2, 1)
    unfolded = quotient_poset(build_poset(fc21), fc21.isogeny_fold("adjoint"), "adjoint")
    assert all(len(c) == 1 for c in unfolded.members)


def test_verdicts_check_every_class_member(monkeypatch, poset_c22):
    """Smoothness does not depend on the isogeny level, so every reader of
    the verdicts refuses a class whose members disagree."""
    fc = FamilyC(2, 2)
    classify = FamilyC.classify
    odd_one = P("-,+,1,1,2,2,+,-")  # not the representative of its adjoint class
    monkeypatch.setattr(FamilyC, "classify",
                        lambda self, clan: classify(self, clan) != (clan == odd_one))
    folded = quotient_poset(poset_c22, fc.isogeny_fold("adjoint"), "adjoint")
    assert odd_one in folded.member_index and odd_one not in folded.orbits
    for check in (
        lambda: orbit_rows(fc, folded),
        lambda: poset_dot(fc, folded),
        lambda: cross_validate(fc, folded),
        lambda: compare_fixture(load_fixture("fig2")),
    ):
        with pytest.raises(ConsistencyError):
            check()


def test_restriction_of_ambient_order_small_ranks():
    for (p, q) in ((1, 1), (2, 1), (1, 2)):
        fc = FamilyC(p, q)
        pc = build_poset(fc)
        amb = build_poset(__import__("clanorbits").FamilyA(2 * p, 2 * q))
        for a in pc.orbits:
            for b in pc.orbits:
                assert pc.le(a, b) == amb.le(a, b)
