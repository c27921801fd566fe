from __future__ import annotations

import gc
import weakref
from functools import partial

import pytest

from clanorbits import (
    Clan,
    FamilyA,
    FamilyC,
    FamilyD,
    build_poset,
    cross_validate,
    expand_compressed,
    negate,
    parse_clan,
    quotient_poset,
    rationally_smooth,
    springer_report,
)
from clanorbits.errors import (ClanError, ConsistencyError, InvalidRoot, NotBelow, NotClosed,
                               UnknownOrbit)
from clanorbits.family import SIGN_FLIP_LEVELS
from clanorbits.family_d import ISOGENY_LEVELS_D
from clanorbits import springer
from clanorbits.cli import orbit_rows
from clanorbits.springer import raised_masks

from clan_transforms import dim_of, tau

P = parse_clan


def test_positive_roots_match_the_per_family_lists():
    # the lists each family wrote out before the root table was shared
    def type_a(n):
        return [(i, j, -1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def mirror(n):
        out = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out.append((i, j, -1))
                out.append((i, j, +1))
        return out

    for n in range(8):
        for p in range(n + 1):
            assert FamilyA(p, n - p).positive_roots() == type_a(n)
    for n in range(1, 6):
        for p in range(n + 1):
            assert FamilyC(p, n - p).positive_roots() == mirror(n)
        for convention in ("paper", "figure"):
            assert FamilyD(n, convention).positive_roots() == mirror(n)


def raised_by_roots(family, closed):
    """(root, raised clan) for every noncompact imaginary positive root."""
    return [
        (root, family.springer_move(closed, root))
        for root in family.positive_roots()
        if family.is_noncompact(closed, root)
    ]


def test_report_with_violation(poset_a22):
    fa = FamilyA(2, 2)
    rep = springer_report(fa, poset_a22, P("1,2,1,2"), P("+,-,-,+"))
    assert rep.s_size == 4 and rep.dim_gap == 3 and rep.violated
    moved = {str(fa.springer_move(rep.closed, r)) for r in rep.roots}
    assert moved == {"1,1,-,+", "1,-,1,+", "+,1,-,1", "+,-,1,1"}


def test_report_without_violation(poset_a22):
    fa = FamilyA(2, 2)
    rep = springer_report(fa, poset_a22, P("1,2,1,2"), P("+,-,+,-"))
    assert rep.s_size == 3 and rep.dim_gap == 3 and not rep.violated
    # the e1-e4 move lands at equal dimension, hence outside the closure
    assert (1, 4, -1) not in rep.roots


def test_report_on_closed_orbit_itself(poset_a22):
    fa = FamilyA(2, 2)
    rep = springer_report(fa, poset_a22, P("+,-,-,+"), P("+,-,-,+"))
    assert rep.s_size == 0 and rep.dim_gap == 0 and not rep.violated


def test_report_errors(poset_a22):
    fa = FamilyA(2, 2)
    with pytest.raises(NotClosed):
        springer_report(fa, poset_a22, P("1,2,1,2"), P("1,1,+,-"))
    with pytest.raises(NotBelow):
        springer_report(fa, poset_a22, P("+,-,-,+"), P("+,+,-,-"))


def test_report_checks_its_closed_orbit_once(poset_a33, monkeypatch):
    """The raise loop checks the closed orbit once, not once per root;
    the public noncompact test stays checked."""
    fa = FamilyA(3, 3)
    calls = []
    is_all_signs = Clan.is_all_signs
    monkeypatch.setattr(Clan, "is_all_signs", lambda self: calls.append(self) or is_all_signs(self))
    springer_report(fa, poset_a33, fa.open_clan(), P("+,-,+,-,+,-"))
    assert len(calls) == 1 and len(fa.positive_roots()) == 15
    with pytest.raises(NotClosed):
        fa.is_noncompact(P("1,1,+,-,+,-"), (3, 4, -1))


@pytest.mark.parametrize(
    "family, closed, root",
    [
        (FamilyA(2, 2), "+,-,-,+", (1, 5, -1)),
        (FamilyC(1, 1), "+,-,-,+", (1, 7, -1)),
        (FamilyC(1, 1), "+,-,-,+", (1, 5, 1)),
        (FamilyD(2), "-,-,+,+", (2, 5, -1)),
    ],
)
def test_a_root_outside_the_clan_is_invalid(family, closed, root):
    for ask in (family.is_noncompact, family.springer_move):
        with pytest.raises(InvalidRoot):
            ask(P(closed), root)


@pytest.mark.parametrize(
    "family, closed, root",
    [
        (FamilyA(2, 2), "+,+,-,-", (1, 2, -1)),
        (FamilyC(2, 1), "+,+,-,-,+,+", (1, 2, -1)),
        (FamilyC(2, 1), "+,+,-,-,+,+", (1, 2, 1)),
        (FamilyD(2), "+,+,-,-", (1, 2, -1)),
    ],
    ids=["A(2,2)", "C(2,1) e1-e2", "C(2,1) e1+e2", "D(2)"],
)
def test_a_compact_root_moves_nothing(family, closed, root):
    # pairing two equal signs would leave the family: U(2,2)'s 1,1,-,- is
    # a clan of signature (1, 3)
    assert family.contains(P(closed)) and not family.is_noncompact(P(closed), root)
    with pytest.raises(InvalidRoot):
        family.springer_move(P(closed), root)
    assert all(family.contains(moved) for _, moved in family.raised(P(closed)))


def test_raised_refuses_a_foreign_closed_orbit():
    with pytest.raises(ClanError):
        FamilyA(3, 1).raised(P("+,+,-,-"))
    with pytest.raises(NotClosed):
        FamilyA(2, 2).raised(P("1,1,+,-"))


def test_root_data_refuse_a_foreign_closed_orbit():
    # +,+,-,- has signature (2, 2): U(3,1) must not pair it up as its own
    family, foreign = FamilyA(3, 1), P("+,+,-,-")
    assert not family.contains(foreign)
    for ask in (family.is_noncompact, family.springer_move):
        with pytest.raises(ClanError):
            ask(foreign, (1, 3, -1))


@pytest.mark.parametrize("family", [FamilyA(3, 2), FamilyC(2, 2), FamilyD(4)], ids=repr)
def test_each_closed_orbit_is_moved_once(family, monkeypatch):
    """One `cross_validate` per view, then a report on every (orbit,
    closed orbit below it) pair: each (closed orbit, root) pair is moved
    once, and the moves are the raise loop's."""
    base = build_poset(family)
    want = [(cl, root) for cl in base.minima() for root, _ in raised_by_roots(family, cl)]
    moved = []
    pair_up, root_of = family._pair_up, {v: k for k, v in family._root_table.items()}
    monkeypatch.setattr(type(family), "_pair_up", staticmethod(
        lambda code, slots: moved.append((Clan(code), root_of[slots])) or pair_up(code, slots)))
    for _, view in views(family, base, family.levels):
        assert cross_validate(family, view)["mismatches"] == []
        for orbit in view.orbits:
            for closed in view.closed_below(orbit):
                springer_report(family, view, orbit, closed)
    assert sorted(moved, key=str) == sorted(want, key=str) and want


@pytest.mark.parametrize("order", [1, -1], ids=["sc-first", "sc-last"])
@pytest.mark.parametrize("make", [lambda: FamilyA(3, 3), lambda: FamilyC(3, 2), lambda: FamilyD(5)],
                         ids=["A(3,3)", "C(3,2)", "D(5)"])
def test_the_pipeline_checks_each_orbit_once(make, order, monkeypatch):
    """`build_poset`, then `orbit_rows` and `cross_validate` at every
    isogeny level: the walk checks each orbit once, `raised` each closed
    orbit once, and `verdicts` none of the poset this family walked, in
    either level order (a folded view read first judges every member)."""
    family = make()  # a fresh memo per case
    check, calls = type(family)._check, []
    monkeypatch.setattr(type(family), "_check",
                        lambda self, clan: calls.append(clan) or check(self, clan))
    base = build_poset(family)
    assert sorted(calls, key=str) == sorted(base.orbits, key=str)
    calls.clear()
    for _, view in views(family, base, family.levels[::order]):
        checked = len(calls)
        orbit_rows(family, view)
        assert len(calls) == checked
        cross_validate(family, view)
    assert sorted(calls, key=str) == sorted(base.minima(), key=str)


def test_reports_map_each_closed_node_once(monkeypatch):
    """Reports on every (orbit, closed orbit below it) pair, twice over,
    map each closed node's raised orbits to node ids once."""
    family = FamilyA(3, 2)
    poset = build_poset(family)
    asked = []
    raised = type(family).raised
    monkeypatch.setattr(type(family), "raised",
                        lambda self, closed: asked.append(closed) or raised(self, closed))
    for _ in range(2):
        for orbit in poset.orbits:
            for closed in poset.closed_below(orbit):
                springer_report(family, poset, orbit, closed)
    assert sorted(asked, key=str) == sorted(poset.minima(), key=str)


def test_another_family_is_not_served_the_table(poset_a22):
    """A second family object refills the poset's table: its own moves,
    here off the poset, are refused, not answered from the first's."""
    first, second = FamilyA(2, 2), FamilyA(2, 2)
    orbit, closed = P("1,2,1,2"), P("+,-,-,+")
    assert springer_report(first, poset_a22, orbit, closed).s_size == 4
    second._pair_up = lambda code, slots: P("+,+,+,-").code
    with pytest.raises(UnknownOrbit):
        springer_report(second, poset_a22, orbit, closed)
    assert springer_report(first, poset_a22, orbit, closed).s_size == 4


def test_the_table_dies_with_its_poset():
    family = FamilyA(2, 1)
    poset = build_poset(family)
    cross_validate(family, poset)
    assert poset in springer._TABLES
    filled, alive = len(springer._TABLES), weakref.ref(poset)
    del poset
    gc.collect()
    assert alive() is None and len(springer._TABLES) < filled


def test_rationally_smooth_reads_the_rows_first():
    """On a fresh poset `closed_below` builds the full rows, and the
    reports read them."""
    family = FamilyA(2, 2)
    poset = build_poset(family)
    assert not rationally_smooth(family, poset, P("1,2,1,2"))
    assert poset._down is not None


def test_report_json(poset_a22):
    fa = FamilyA(2, 2)
    rep = springer_report(fa, poset_a22, P("1,2,1,2"), P("+,-,-,+"))
    data = rep.to_json(fa)
    assert data["violated"] and data["s_size"] == 4
    assert "e1-e2" in data["roots"]


def test_verdict_examples(poset_a22, poset_c22, poset_d4):
    assert not rationally_smooth(FamilyA(2, 2), poset_a22, P("1,2,1,2"))
    assert rationally_smooth(FamilyC(2, 2), poset_c22, P("1,2,3,4,3,4,1,2"))
    assert not rationally_smooth(FamilyD(4), poset_d4, expand_compressed("a+-a"))


def test_cross_validation_counts(poset_a22, poset_c22, poset_d4):
    rep = cross_validate(FamilyA(2, 2), poset_a22)
    assert (rep["orbits"], rep["not_rationally_smooth"], rep["mismatches"]) == (21, 3, [])
    rep = cross_validate(FamilyC(2, 2), poset_c22)
    assert rep["orbits"] == 42 and rep["mismatches"] == []
    rep = cross_validate(FamilyD(4), poset_d4)
    assert (rep["orbits"], rep["not_rationally_smooth"], rep["mismatches"]) == (38, 9, [])


def test_cross_validation_on_quotients(poset_a22, poset_c22, poset_d4):
    fa, fc, fd = FamilyA(2, 2), FamilyC(2, 2), FamilyD(4)
    folded = quotient_poset(poset_c22, negate, "adjoint")
    rep = cross_validate(fc, folded)
    assert rep["orbits"] == 27 and rep["not_rationally_smooth"] == 13
    assert rep["mismatches"] == []
    rep = cross_validate(fa, quotient_poset(poset_a22, negate, "adjoint"))
    assert rep["mismatches"] == []
    rep = cross_validate(fd, quotient_poset(poset_d4, partial(tau, fd), "adjoint"))
    assert rep["orbits"] == 22 and rep["mismatches"] == []


def test_verdicts_invariant_under_symmetry(poset_a22, poset_c22, poset_d4):
    fa, fc, fd = FamilyA(2, 2), FamilyC(2, 2), FamilyD(4)
    for c in poset_a22.orbits:
        assert rationally_smooth(fa, poset_a22, c) == rationally_smooth(fa, poset_a22, negate(c))
    for c in poset_c22.orbits:
        assert rationally_smooth(fc, poset_c22, c) == rationally_smooth(fc, poset_c22, negate(c))
    for c in poset_d4.orbits:
        assert rationally_smooth(fd, poset_d4, c) == rationally_smooth(fd, poset_d4, tau(fd, c))


def test_moved_orbits_rise(poset_c22):
    # monotonicity: every candidate root strictly raises its closed orbit
    fc = FamilyC(2, 2)
    for cl in poset_c22.minima():
        for root, moved in raised_by_roots(fc, cl):
            assert dim_of(poset_c22, moved) > dim_of(poset_c22, cl)


def test_springer_moves_shape(poset_a22):
    fa = FamilyA(2, 2)
    data = raised_by_roots(fa, P("+,-,-,+"))
    assert len(data) == 4
    assert ((1, 2, -1), P("1,1,-,+")) in data
    # D(2)'s closed orbits carry equal signs on the slots of e1-e2
    assert raised_by_roots(FamilyD(2), P("+,+,-,-")) == [((1, 2, 1), P("1,2,1,2"))]


def views(family, base, levels):
    for level in levels:
        yield level, quotient_poset(base, family.isogeny_fold(level), level)


def landmark_cases():
    """Every family up to A(3,3), C(2,2) and D(5), at every isogeny level."""
    for p in range(1, 4):
        for q in range(1, p + 1):
            yield FamilyA(p, q), SIGN_FLIP_LEVELS
    for p, q in ((1, 0), (1, 1), (2, 1), (2, 2)):
        yield FamilyC(p, q), SIGN_FLIP_LEVELS
    for n in range(1, 6):
        yield FamilyD(n), ISOGENY_LEVELS_D
    yield FamilyD(4, "figure"), ISOGENY_LEVELS_D


def test_mask_counts_match_reports():
    # springer_report is the oracle of the popcount on every pair; the
    # count read off the full down-sets is the store the landmarks replace
    for family, levels in landmark_cases():
        for level in levels:  # a fresh base each time: a level may view it unfolded
            view = quotient_poset(build_poset(family), family.isogeny_fold(level), level)
            downs, masks = raised_masks(family, view)
            assert view._down is None  # the landmark store alone
            full_downs = view.down_over(range(len(view)))
            assert list(masks) == [view.id_of(c) for c in view.minima()]
            pairs = 0
            for oid, orbit in enumerate(view.orbits):
                for cid, mask in masks.items():
                    if not view.le_ids(cid, oid):
                        continue
                    report = springer_report(family, view, orbit, view.orbits[cid])
                    full = sum(full_downs[oid] >> view.member_index[moved.code] & 1
                               for _, moved in family.raised(view.orbits[cid]))
                    assert (mask & downs[oid]).bit_count() == report.s_size == full, \
                        (family, level, orbit)
                    pairs += 1
            assert pairs >= len(view.orbits)


def test_raised_masks_guard_the_moves(poset_a22, monkeypatch):
    # a fresh family per patch: a family moves each closed orbit once
    monkeypatch.setattr(FamilyA, "_pair_up", staticmethod(lambda code, slots: code))
    with pytest.raises(ConsistencyError):
        cross_validate(FamilyA(2, 2), poset_a22)
    monkeypatch.setattr(FamilyA, "_pair_up", staticmethod(lambda code, slots: P("+,+,+,-").code))
    with pytest.raises(UnknownOrbit):
        cross_validate(FamilyA(2, 2), poset_a22)


def test_a_repeated_raised_node_is_refused(poset_a22, monkeypatch):
    # every root of every closed orbit lands on one node: both counts refuse it
    monkeypatch.setattr(FamilyA, "_pair_up", staticmethod(lambda code, slots: P("1,1,-,+").code))
    fa = FamilyA(2, 2)
    with pytest.raises(ConsistencyError, match="to one node"):
        cross_validate(fa, poset_a22)
    with pytest.raises(ConsistencyError, match="to one node"):
        springer_report(fa, poset_a22, fa.open_clan(), poset_a22.minima()[0])


@pytest.mark.parametrize(
    "family, expected",
    [
        (FamilyC(3, 3), {"sc": (680, 522), "adjoint": (400, 317)}),
        (FamilyD(6), {"sc": (692, 460), "adjoint": (376, 257)}),
    ],
    ids=["C(3,3)", "D(6)"],
)
def test_cross_validation_at_mirror_sizes(family, expected):
    for level, view in views(family, build_poset(family), expected):
        rep = cross_validate(family, view)
        got = (rep["orbits"], rep["not_rationally_smooth"], rep["mismatches"])
        assert got == (*expected[level], [])
