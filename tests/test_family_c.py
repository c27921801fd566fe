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
from clanorbits import family as family_module
from clanorbits.cli import orbit_rows, poset_dot
from clanorbits.closure import _move, lifted_double_move
from clanorbits.errors import ConsistencyError, InvalidRoot, NotSymmetric
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


def _one_sided(code, u, v):
    """A lifted move that forgets its mirror half."""
    return _move(code, u)


def _flip_ends(code, u, v):
    """The lifted move, then the signs at both ends flipped: symmetric,
    of the same dimension, but of another signature."""
    moved = lifted_double_move(code, u, v)
    if moved is None or isinstance(moved[0], int):
        return moved
    flip = {"+": "-", "-": "+"}
    return (flip[moved[0]],) + moved[1:-1] + (flip[moved[-1]],)


@pytest.mark.parametrize("u, v", [(0, 2), (2, 0)])
def test_mirrored_moves_that_disagree_stop(u, v):
    """Position 3 of +,+,+,- raises and position 1 does not, in either role."""
    with pytest.raises(ConsistencyError, match="position 3 raises alone"):
        lifted_double_move(P("+,+,+,-").code, u, v)


def _never_raises(code, u, v):
    """A lifted move that never raises: only the middle root moves."""
    return None


@pytest.mark.parametrize("broken, message", [
    (_one_sided, r"\+,\+,-,-,\+,\+ -2-> \+,1,1,-,\+,\+ leaves the family"),
    (_flip_ends, r"\+,\+,-,-,\+,\+ -2-> -,1,1,2,2,- leaves the family"),
    (_never_raises, "move closure reaches 3 orbits, the count is 9"),
], ids=["one-sided", "flip-ends", "never-raises"])
def test_a_move_that_leaves_the_family_stops_the_build(monkeypatch, broken, message):
    """The move does not check its result: the weak-order walk's single
    check of each fact (the membership of each new orbit, the +1 grading,
    the number of orbits against the closed-form count) must stop a move
    that leaves the family or one that misses orbits."""
    monkeypatch.setattr(family_module, "lifted_double_move", broken)
    with pytest.raises(ConsistencyError, match=message):
        build_poset(FamilyC(2, 1))


def test_fiber_form_searched_once_per_orbit(poset_c22, monkeypatch):
    calls = []

    def counted(clan):
        calls.append(clan)
        return fiber_form_c(clan)

    monkeypatch.setattr(FamilyC, "_fiber_form", staticmethod(counted))
    orbit_rows(FamilyC(2, 2), poset_c22)
    assert 0 < len(calls) <= len(poset_c22)


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
    for ask in (fc.is_noncompact, fc.springer_move):  # (1, 4) is no root of rank 2
        with pytest.raises(InvalidRoot):
            ask(other, (1, 4, -1))


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
    judge = FamilyC._judge
    odd_one = P("-,+,1,1,2,2,+,-")  # not the representative of its adjoint class

    def flipped(self, clan, checked=False):  # the odd one's verdict turned over
        smooth, form = judge(self, clan, checked)
        return smooth != (clan == odd_one), form

    monkeypatch.setattr(FamilyC, "_judge", flipped)
    folded = quotient_poset(poset_c22, fc.isogeny_fold("adjoint"), "adjoint")
    assert odd_one.code in folded.member_index and odd_one not in folded.orbits
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
