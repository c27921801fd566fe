from __future__ import annotations

import pytest

from clanorbits import (
    FamilyD,
    build_poset,
    compress,
    expand_compressed,
    gamma_circ_d,
    negate,
    parse_clan,
    quotient_poset,
)
from clanorbits.errors import ClanError, InvalidRoot, NotAntisymmetric

P = parse_clan


def test_enumerate_counts():
    assert len(FamilyD(3).enumerate()) == 10
    assert len(FamilyD(4).enumerate()) == 38
    assert [str(c) for c in FamilyD(1).enumerate()] == ["-,+"]
    assert {str(c) for c in FamilyD(2).enumerate()} == {"+,+,-,-", "-,-,+,+", "1,2,1,2"}


def test_enumeration_matches_move_closure():
    # build_poset asserts the seeded move closure equals the predicate
    for n in (2, 3, 4):
        assert len(build_poset(FamilyD(n))) == len(FamilyD(n).enumerate())


def test_enumeration_against_the_filter(mirror_filter):
    """The first-half generator lists exactly the antisymmetric clans of
    signature (n, n) in the family's parity class, the definition, each once."""
    for n in range(1, 7):
        for convention in ("paper", "figure"):
            got = FamilyD(n, convention).enumerate()
            assert len(got) == len(set(got))
            assert set(got) == mirror_filter(n, n)[convention]


def test_count_is_the_closed_form():
    assert [FamilyD(n).count() for n in (6, 7, 8)] == [692, 3256, 16200]
    for n in range(1, 9):
        for convention in ("paper", "figure"):
            family = FamilyD(n, convention)
            assert family.count() == len(family.enumerate())


def test_build_poset_d7():
    poset = build_poset(FamilyD(7))
    assert (len(poset), len(poset.covers)) == (3256, 15716)


def test_gamma_circ_examples():
    assert str(gamma_circ_d(4)) == "1,2,3,4,3,4,1,2"
    assert str(gamma_circ_d(3)) == "1,2,-,+,1,2"
    assert str(gamma_circ_d(1)) == "-,+"
    assert FamilyD(3, "figure").open_clan() == negate(gamma_circ_d(3))


def test_convention_flip_for_odd_rank():
    flipped = {negate(c) for c in FamilyD(3, "figure").enumerate()}
    assert flipped == set(FamilyD(3).enumerate())
    assert set(FamilyD(4, "figure").enumerate()) == set(FamilyD(4).enumerate())


def test_compressed_codec():
    assert str(expand_compressed("a+-a")) == "1,+,-,1,2,+,-,2"
    assert str(expand_compressed("+AA+")) == "+,1,2,+,-,1,2,-"
    assert str(expand_compressed("abab")) == "1,2,1,2,3,4,3,4"
    assert str(expand_compressed("ABBA")) == "1,2,3,4,1,2,3,4"
    assert str(expand_compressed("AABB")) == "1,2,3,4,3,4,1,2"
    for c in FamilyD(4).enumerate():
        assert expand_compressed(compress(c)) == c
    with pytest.raises(ValueError):
        expand_compressed("aXbY!")


def test_dimension_examples():
    fd = FamilyD(4)
    assert fd.d_K == 6
    assert fd.dimension(P("1,2,3,4,3,4,1,2")) == 12  # rank-4 type-D flag variety
    assert fd.dimension(expand_compressed("a+-a")) == 9
    assert fd.dimension(P("+,+,+,+,-,-,-,-")) == 6
    with pytest.raises(NotAntisymmetric):
        fd.dimension(P("1,2,3,4,3,4,2,1"))


def test_tau_examples(poset_d4):
    fd = FamilyD(4)
    assert compress(fd.tau(expand_compressed("AA++"))) == "AA--"
    top = expand_compressed("AABB")
    assert fd.tau(top) == top
    for c in fd.enumerate():
        assert fd.tau(fd.tau(c)) == c
        assert fd.dimension(fd.tau(c)) == fd.dimension(c)
    # tau maps covers to covers (order automorphism)
    pairs = {(poset_d4.orbits[lo], poset_d4.orbits[hi]) for lo, hi, _ in poset_d4.covers}
    assert {(fd.tau(a), fd.tau(b)) for a, b in pairs} == pairs


def test_fiber_form_witnesses():
    fd = FamilyD(4)
    open_core = fd.fiber_form(expand_compressed("+AA+"))
    assert open_core is not None and open_core.kind == "block"
    assert str(open_core.flank) == "+" and open_core.core_rank == 3
    threaded = fd.fiber_form(expand_compressed("A++A"))
    assert threaded is not None and threaded.kind == "threaded"
    assert str(threaded.inner) == "+,+"
    assert fd.fiber_form(expand_compressed("a+-a")) is None
    assert fd.fiber_form(expand_compressed("abba")).kind == "mirror"


def test_classification_examples(poset_d4):
    fd = FamilyD(4)
    assert not fd.classify(expand_compressed("abab"))
    assert fd.classify(expand_compressed("abba"))
    boxed = {compress(c) for c in fd.enumerate() if not fd.classify(c)}
    assert boxed == {"AA++", "ABAB", "AA--", "A+A+", "ABBA", "A-A-", "a+-a", "abab", "a-+a"}
    fd3 = FamilyD(3)
    assert all(fd3.classify(c) for c in fd3.enumerate())


def test_springer_root_data():
    fd = FamilyD(2)
    cl = P("+,-,+,-")  # valid mirror structure, parity class aside
    assert fd.is_noncompact(cl, (1, 2, -1))
    assert not fd.is_noncompact(cl, (1, 2, 1))  # coordinate 3 carries '+'
    assert str(fd.springer_move(cl, (1, 2, -1))) == "1,1,2,2"
    assert all(eps in (-1, 1) for (_, _, eps) in fd.positive_roots())


def classes_at(poset, family, level):
    return quotient_poset(poset, family.isogeny_fold(level), level).members


def test_isogeny_ladder(poset_d4, poset_d3):
    fd4 = FamilyD(4)
    assert len(classes_at(poset_d4, fd4, "sc")) == 38
    assert len(classes_at(poset_d4, fd4, "so")) == 38
    assert len(classes_at(poset_d4, fd4, "so-prime")) == 38  # m = 2 even
    adjoint = classes_at(poset_d4, fd4, "adjoint")
    assert len(adjoint) == 22  # six tau-fixed clans among 38
    assert sum(1 for c in adjoint if len(c) == 1) == 6
    fd3 = FamilyD(3)
    for level in ("sc", "so", "so-prime", "adjoint"):
        assert len(classes_at(poset_d3, fd3, level)) == 10
    # m = 3 odd: the primed quotient already folds
    fd6 = FamilyD(6)
    assert fd6.isogeny_fold("so-prime") is not None
    with pytest.raises(ValueError):
        fd4.isogeny_fold("spin")


def test_unknown_convention_is_rejected():
    with pytest.raises(ClanError):
        FamilyD(3, "bogus")


def test_errata_forced_vertices():
    # the two corrected diagram vertices are forced by raising moves
    fd3 = FamilyD(3, "figure")
    assert str(fd3.raise_by(P("+,+,+,-,-,-"), 3)) == "+,1,2,1,2,-"
    assert str(fd3.raise_by(P("1,1,-,+,2,2"), 2)) == "1,-,1,2,+,2"


def test_rank_one_family():
    fd = FamilyD(1)
    assert list(fd.root_indices()) == []
    poset = build_poset(fd)
    assert len(poset) == 1 and poset.open_orbit() == P("-,+")
    with pytest.raises(InvalidRoot):
        fd.raise_by(P("-,+"), 1)
