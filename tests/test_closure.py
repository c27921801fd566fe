from __future__ import annotations

import sys
from array import array
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clanorbits import (
    FamilyA,
    FamilyC,
    FamilyD,
    build_poset,
    cross_validate,
    negate,
    parse_clan,
    quotient_poset,
    raising_moves_oracle,
    springer_report,
    weak_order_graph,
)
from clanorbits.cache import load_poset, save_poset
from clanorbits.clans import length_stat
from clanorbits.cli import orbit_rows
from clanorbits.closure import Covers, OrbitPoset, _move, complete_closure
from clanorbits.errors import (ConsistencyError, InvalidRoot, NotBelow, NotGraded, RankTooLarge,
                               UnknownOrbit)
from clanorbits.family import SIGN_FLIP_LEVELS
from clanorbits.family_d import ISOGENY_LEVELS_D

from clan_transforms import (completed_covers, length_stat_by_interiors, queue_closure,
                              quotient_by_clans, raise_by_walk, simple_move_a)

P = parse_clan


# ------------------------------------------------------------ raw moves

def test_the_four_raising_shapes():
    assert str(simple_move_a(P("1,1,2,2"), 2)) == "1,2,1,2"
    assert str(simple_move_a(P("-,+,1,1"), 2)) == "-,1,+,1"
    assert str(simple_move_a(P("1,1,-,+"), 2)) == "1,-,1,+"
    assert str(simple_move_a(P("1,+,-,1"), 2)) == "1,2,2,1"


def test_moves_that_do_nothing():
    assert simple_move_a(P("1,2,1,2"), 2) is None
    assert simple_move_a(P("1,+,1,-"), 2) is None
    assert simple_move_a(P("1,1"), 1) is None
    assert simple_move_a(P("+,+"), 1) is None


def test_move_position_range():
    with pytest.raises(ValueError):
        simple_move_a(P("1,1"), 2)


# ----------------------------------------------------------- weak order

def test_weak_graph_u22(poset_a22):
    orbits, edges, dims = weak_order_graph(FamilyA(2, 2))
    assert len(orbits) == len(dims) == 21
    assert len(edges) == 33
    # two labels between the same orbits where the figure doubles up
    lo, hi = orbits.index(P("1,2,1,2")), orbits.index(P("1,2,2,1"))
    assert (lo, hi, 1) in edges
    assert (lo, hi, 3) in edges


def test_weak_graph_trivial_families():
    orbits, edges, dims = weak_order_graph(FamilyA(1, 0))
    assert orbits == [P("+")] and edges == [] and dims == [0]
    orbits, edges, dims = weak_order_graph(FamilyD(3))
    assert len(orbits) == len(dims) == 10


def test_raise_by_examples():
    fc = FamilyC(2, 2)
    assert str(fc.raise_by(P("1,2,3,3,4,4,1,2"), 4)) == "1,2,3,4,3,4,1,2"
    fd = FamilyD(4)
    got = fd.raise_by(P("+,+,+,+,-,-,-,-"), 4)
    assert str(got) == "+,+,1,2,1,2,-,-"
    fd3 = FamilyD(3, "figure")
    assert str(fd3.raise_by(P("+,+,+,-,-,-"), 3)) == "+,1,2,1,2,-"
    with pytest.raises(InvalidRoot):
        fc.raise_by(P("1,2,3,3,4,4,1,2"), 5)


def test_mirror_moves_succeed_together():
    # on family members the move at i and at its mirror agree in success
    for family in (FamilyC(2, 1), FamilyD(4)):
        n = family.n
        for clan in family.enumerate():
            for i in range(1, n):
                a = _move(clan.code, i - 1)
                b = _move(clan.code, 2 * n - i - 1)
                assert (a is None) == (b is None)


def test_open_orbit_is_fixed_by_every_root():
    for family in (FamilyA(2, 2), FamilyC(2, 2), FamilyD(4), FamilyD(3)):
        top = family.open_clan()
        for root in family.root_indices():
            assert family.raise_by(top, root) is None


# ----------------------------------------------------------- completion

def test_completion_adds_figure_dashed_edges(poset_a22):
    dashed = {
        (str(poset_a22.orbits[lo]), str(poset_a22.orbits[hi]))
        for lo, hi, root in poset_a22.covers
        if root is None
    }
    assert dashed == {
        ("1,+,1,-", "1,2,1,2"),
        ("+,1,-,1", "1,2,1,2"),
        ("-,1,+,1", "1,2,1,2"),
        ("1,-,1,+", "1,2,1,2"),
        ("1,1,2,2", "1,+,-,1"),
        ("1,1,2,2", "1,-,+,1"),
    }


def test_chain_poset_gains_no_edges():
    # single maximal chain: the diamond premise never fires
    poset = build_poset(FamilyA(2, 0))
    assert completed_covers(poset) == []
    poset = build_poset(FamilyC(1, 1))
    assert completed_covers(poset) == []


def test_completion_refuses_a_cover_off_the_grading():
    # 0 -1-> 1 -2-> 2, and root 2 raises 1's lower cover 0 to 3, whose
    # dimension is that of 2: the weak edge 0 -2-> 3 jumps two steps
    dims, weak = [0, 1, 2, 2], [(0, 1, 1), (1, 2, 2), (0, 3, 2)]
    with pytest.raises(NotGraded):
        complete_closure(dims, weak)
    with pytest.raises(NotGraded):
        queue_closure(dims, weak)


ORACLE_FAMILIES = (
    [FamilyA(p, q) for p in range(5) for q in range(5)]
    + [FamilyC(p, q) for p in range(4) for q in range(4)] + [FamilyC(4, 3)]
    + [FamilyD(n) for n in range(1, 8)]
    + [FamilyD(n, "figure") for n in range(1, 8)]
)


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_build_matches_the_raise_by_walk_and_queue_closure(family):
    """The code walk gives the `raise_by` walk's orbits, dimensions and
    edges in the same order, once its ids are read back as clans; the
    build keeps the walk's numbering, and the one-pass completion gives
    the covers of the queue closure."""
    orbits, edges, dims = weak_order_graph(family)
    want_dims, want_edges = raise_by_walk(family)
    assert len(orbits) == len(want_dims) and dict(zip(orbits, dims)) == want_dims
    assert [(orbits[lo], orbits[hi], r) for lo, hi, r in edges] == want_edges
    poset = build_poset(family)
    assert poset.orbits == orbits and poset.dims == dims
    want = OrbitPoset(poset.meta, orbits, dims, Covers.of(queue_closure(dims, edges)))
    assert poset.covers == want.covers


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_length_stat_is_the_interior_scan(family):
    """The one-pass length statistic (spans minus crossings) equals the
    O(n^2) scan of every pair's interior on every clan of the family."""
    clans = family.enumerate()
    assert len(clans) == family.count()
    for clan in clans:
        assert length_stat(clan) == length_stat_by_interiors(clan), clan


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_the_raise_loop_is_the_checked_move(family):
    """`raised` gives, root by root, what the checked `springer_move`
    gives for each noncompact root of every closed orbit."""
    for closed in family.closed_clans():
        want = [(root, family.springer_move(closed, root))
                for root in family.positive_roots() if family.is_noncompact(closed, root)]
        assert list(family.raised(closed)) == want, closed


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_ids_rise_with_dimension_then_text_at_every_view(family):
    """The walk numbers each dimension layer by text as it closes, and the
    fold numbers its classes by (dimension, text): on every isogeny view
    (dims[i], text of orbits[i]) strictly rises with i.  The walk's
    second item is the weak edges, one per labelled cover of the build."""
    base = build_poset(family)
    weak = weak_order_graph(family)[1]
    assert len(weak) == sum(1 for _, _, root in base.covers if root is not None)
    for level in family.levels:
        view = quotient_poset(base, family.isogeny_fold(level), level)
        keys = [(d, str(c)) for d, c in zip(view.dims, view.orbits)]
        assert all(a < b for a, b in zip(keys, keys[1:])), level


def test_closed_orbits_at_two_dimensions_are_refused(monkeypatch):
    """Every closed orbit has one dimension: one closed orbit of A(2,2)
    read one higher stops the build before any walk."""
    family = FamilyA(2, 2)
    odd = family.closed_clans()[1]
    dimension = FamilyA.dimension
    monkeypatch.setattr(FamilyA, "dimension",
                        lambda self, clan: dimension(self, clan) + (clan == odd))
    with pytest.raises(NotGraded, match="closed orbits"):
        build_poset(family)


@pytest.mark.parametrize("family", [FamilyA(3, 3), FamilyC(3, 2), FamilyD(6)], ids=repr)
def test_build_never_enumerates_the_family(monkeypatch, family):
    """The walk checks each orbit's membership and the closed-form count,
    so it gives the enumerated orbits without calling `enumerate`."""
    expected = set(family.enumerate())

    def refuse(self):
        raise AssertionError("build_poset enumerated the family")

    monkeypatch.setattr(type(family), "enumerate", refuse)
    assert set(build_poset(family).orbits) == expected


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_every_weak_edge_gives_the_lower_covers_of_its_upper_end(family):
    """If s raises u to v, the lower covers of v are its weak lower ends
    plus the raise by s of each lower cover of u that s raises.  The build
    reads this on one weak edge per node; every weak edge must give the
    same set.  Raised by the family's `_raise` on codes."""
    poset = build_poset(family)
    orbits, edges, _ = weak_order_graph(family)
    assert orbits == poset.orbits
    code = [c.code for c in orbits]
    lower = [set() for _ in code]
    for lo, hi, _ in poset.covers:
        lower[hi].add(code[lo])
    weak_lower = [set() for _ in code]
    for u, v, _ in edges:
        weak_lower[v].add(code[u])
    for u, v, s in edges:
        raised = {family._raise(x, s) for x in lower[u]} - {None}
        assert lower[v] == weak_lower[v] | raised, (orbits[u], orbits[v], s)


# -------------------------------------------------------------- queries

def test_order_queries(poset_a33, poset_a22):
    assert poset_a33.le(P("1,2,1,3,2,3"), P("1,3,1,2,2,3"))
    assert not poset_a33.le(P("1,2,1,3,2,3"), P("1,3,1,3,2,2"))
    g = P("1,2,1,2")
    assert poset_a22.le(g, g)
    assert str(poset_a22.open_orbit()) == "1,2,2,1"
    assert set(poset_a22.closed_below(g)) == set(poset_a22.minima())
    assert poset_a22.closed_below(P("+,-,-,+")) == [P("+,-,-,+")]
    assert set(poset_a22.closed_below(P("1,1,+,-"))) == {P("+,-,+,-"), P("-,+,+,-")}
    # a clan of another length, or a value that is no clan (the index is
    # keyed by code tuples), is refused by every query
    fa, closed = FamilyA(2, 2), P("+,-,-,+")
    for stranger in (P("+,-"), "1,2,1,2", g.code, None):
        for query in (lambda: poset_a22.le(stranger, g), lambda: poset_a22.le(g, stranger),
                      lambda: poset_a22.id_of(stranger), lambda: poset_a22.closed_below(stranger),
                      lambda: springer_report(fa, poset_a22, stranger, closed),
                      lambda: springer_report(fa, poset_a22, g, stranger)):
            with pytest.raises(UnknownOrbit):
                query()


def test_le_ids_refuses_ids_outside_the_poset(poset_a22):
    """An id outside range(N), or one that is not an int, is no orbit:
    not read off another node's down-set, as -1 would read the last one
    and True the row of id 1."""
    assert len(poset_a22) == 21
    for i, j in ((0, -1), (26, 20), (-1, 3), (0, 21), (21, 21), (-21, 0), (1, True),
                 (True, 1), (0.0, 1), (0, 1.0), (None, 0)):
        with pytest.raises(UnknownOrbit):
            poset_a22.le_ids(i, j)
    assert poset_a22.le_ids(0, 20) and not poset_a22.le_ids(20, 0)


_BITS = bytes.maketrans(b"01", b"\0\1")


def check_every_pair(poset, built=None, family=None):
    """Check the queries on every pair against the int down-sets of
    `down_over(range(N))`: `closed_below` on every orbit, its first call
    building the rows; with `built` None, `le` on every pair and, with a
    family, `springer_report` on every (orbit, closed orbit) pair; else
    `le_ids` on every pair.  The answer of `le` is a function of
    `member_index` and the rows, so a loaded poset with both equal to
    those of the built one it is checked against answers `le` alike."""
    n, orbits, closed = len(poset), poset.orbits, poset._minima
    ref = poset.down_over(range(n))
    want = [[orbits[i] for i in closed if d >> i & 1] for d in ref]
    assert [poset.closed_below(o) for o in orbits] == want
    if built is not None:
        assert poset._down == built._down and poset.member_index == built.member_index
    for j, (d, b) in enumerate(zip(ref, orbits)):
        got = map(poset.le, orbits, repeat(b, n)) if built is None else \
            map(poset.le_ids, range(n), repeat(j, n))
        assert bytes(got) == bin(d)[:1:-1].ljust(n, "0").encode().translate(_BITS), j
    if built is not None or family is None:
        return
    for cid in closed:  # the raised nodes looked up afresh, not read off `springer_report`'s table
        c = orbits[cid]
        hits = [(root, poset.member_index[moved.code]) for root, moved in family.raised(c)]
        for d, o in zip(ref, orbits):
            try:
                report = springer_report(family, poset, o, c)
            except NotBelow:
                assert not d >> cid & 1, (o, c)
                continue
            roots = tuple(root for root, mid in hits if d >> mid & 1)
            assert d >> cid & 1 and report.roots == roots, (o, c)


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_queries_read_the_int_down_sets_on_every_pair(family, tmp_path):
    """At every isogeny level, built and loaded from the cache, every
    query agrees with the int down-sets on every pair (`check_every_pair`)."""
    base = build_poset(family)
    loaded = load_poset(save_poset(base, tmp_path / "base.json"))
    seen = set()
    for level in family.levels:
        fold = family.isogeny_fold(level)
        view = quotient_poset(base, fold, level)
        if id(view) in seen:  # no fold at this level: the base poset itself
            continue
        seen.add(id(view))
        check_every_pair(view, family=family)
        check_every_pair(quotient_poset(loaded, fold, level), built=view)


def test_queries_read_rows_across_byte_boundaries():
    """A hand-made graded order of 20 nodes: minima at ids 9 and 13
    besides the lowest layer, and covers across the byte boundaries 7/8
    and 15/16, so `closed_below` cuts rows to two of their three bytes and
    `le` reads i > j inside one byte."""
    orbits = build_poset(FamilyA(2, 2)).orbits[:20]
    dims = [0] * 5 + [1] * 6 + [2] * 6 + [3] * 3
    covers = [(0, 5), (1, 5), (1, 6), (2, 7), (2, 8), (3, 8), (0, 10), (4, 10),
              (5, 11), (5, 14), (6, 12), (7, 12), (7, 16), (8, 14), (9, 15), (10, 16),
              (11, 17), (12, 17), (13, 18), (13, 19), (14, 18), (15, 19), (16, 19)]
    poset = OrbitPoset({}, orbits, dims, Covers.of((lo, hi, None) for lo, hi in covers))
    assert poset._minima == [0, 1, 2, 3, 4, 9, 13] and poset._closed_bytes == 2
    searched = searched_down_sets(poset)
    assert [set(d) for d in searched] == [
        {i for i in range(20) if d >> i & 1} for d in poset.down_over(range(20))]
    assert {7, 2} <= searched[16] and {15, 9, 13} <= searched[19] and 16 not in searched[17]
    check_every_pair(poset)
    check_every_pair(OrbitPoset({}, orbits, dims, poset.covers), built=poset)
    assert [len(row) for row in poset._down] == [j // 8 + 1 for j in range(20)]
    assert not poset.le(orbits[17], orbits[16]) and not poset.le_ids(9, 8)


def test_down_view_and_a_flipped_row():
    """`down` yields the rows as the ints of `down_over(range(N))`,
    lazily, not as a list.  One flipped bit of one row changes the
    answers of `le` and `springer_report`, and a bad index to `row` does
    not rebuild the rows."""
    family = FamilyA(2, 2)
    poset = build_poset(family)
    n, ref = len(poset), poset.down_over(range(len(poset)))
    down = poset.down
    walk = iter(down)
    assert not isinstance(down, list) and iter(walk) is walk and next(walk) == ref[0]
    assert list(walk) == ref[1:]
    top, cid = n - 1, poset._minima[0]
    mid = poset.member_index[family.raised(poset.orbits[cid])[0][1].code]
    orbit, closed = poset.orbits[top], poset.orbits[cid]
    before = springer_report(family, poset, orbit, closed)
    assert poset.le(poset.orbits[mid], orbit) and ref[top] >> mid & 1
    row = bytearray(poset._down[top])
    row[mid >> 3] ^= 1 << (mid & 7)
    poset._down[top] = bytes(row)
    assert not poset.le(poset.orbits[mid], orbit)
    assert springer_report(family, poset, orbit, closed).s_size == before.s_size - 1
    with pytest.raises(TypeError):
        poset.row("x")  # no index: the built rows, the flipped one too, stay
    assert not poset.le(poset.orbits[mid], orbit)


def test_minima_are_the_closed_orbits(poset_a22):
    assert sorted(map(str, poset_a22.minima())) == sorted(
        map(str, FamilyA(2, 2).closed_clans())
    )


def test_max_orbits_cap():
    with pytest.raises(RankTooLarge):
        build_poset(FamilyA(2, 2), max_orbits=10)


def test_validate_rejects_broken_grading(poset_a22):
    from clanorbits.closure import OrbitPoset

    with pytest.raises(NotGraded):
        OrbitPoset(
            {"family": "a"},
            poset_a22.orbits,
            [d + (i == 0) for i, d in enumerate(poset_a22.dims)],
            poset_a22.covers,
        ).validate()


def test_validate_rejects_ids_that_do_not_rise_with_dimension(poset_a22):
    """The same order with its ids reversed is graded and has one
    maximum, but its dimensions fall along the ids."""
    last = len(poset_a22) - 1
    flipped = OrbitPoset(
        poset_a22.meta, poset_a22.orbits[::-1], poset_a22.dims[::-1],
        Covers.of((last - lo, last - hi, root) for lo, hi, root in poset_a22.covers))
    with pytest.raises(ConsistencyError, match="ids do not rise with dimension"):
        flipped.validate()


def test_validate_rejects_two_maxima(poset_a22):
    from clanorbits.closure import OrbitPoset

    top = poset_a22.id_of(poset_a22.open_orbit())
    cut = [e for e in poset_a22.covers if e[1] != top]  # the top stands alone
    with pytest.raises(ConsistencyError, match="maximal orbits"):
        OrbitPoset({"family": "a"}, poset_a22.orbits, poset_a22.dims, Covers.of(cut)).validate()


# --------------------------------------------------------- reachability

def searched_down_sets(poset) -> list[set[int]]:
    """Each node's down-set by a search down the cover list."""
    incoming = [[] for _ in poset.orbits]
    for lo, hi, _ in poset.covers:
        incoming[hi].append(lo)
    out = []
    for j in range(len(poset)):
        seen, stack = {j}, [j]
        while stack:
            for u in incoming[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        out.append(seen)
    return out


FIRST_QUERIES = {  # each asks of the lowest orbit and the open one, and is true
    "le": lambda family, poset: poset.le(poset.orbits[0], poset.orbits[-1]),
    "le_ids": lambda family, poset: poset.le_ids(0, len(poset) - 1),
    "closed_below": lambda family, poset: poset.closed_below(poset.orbits[-1]) == poset.minima(),
    "springer_report": lambda family, poset: springer_report(
        family, poset, poset.orbits[-1], poset.orbits[0]).closed == poset.orbits[0],
}


def lazy_and_loaded_views(family, tmp_path):
    """The base poset and its folded isogeny views, built and loaded."""
    base = build_poset(family)
    folds = [(level, family.isogeny_fold(level)) for level in family.levels]

    def views(poset):
        return [poset] + [quotient_poset(poset, fold, level) for level, fold in folds if fold]

    return views(base), views(load_poset(save_poset(base, tmp_path / "base.json")))


@pytest.mark.parametrize("first", FIRST_QUERIES)
@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_full_down_sets_wait_for_the_first_le(family, first, tmp_path):
    """On the base poset, built and loaded, and on every folded isogeny
    view: `cross_validate` and `orbit_rows` build no full down-sets.  The
    first per-orbit query, each of `le`, `le_ids`, `closed_below` and
    `springer_report` in turn, answers True and builds them: the rows of
    `down_over(range(N))`, byte for byte.  Every member of every class
    resolves to its class id.  What the rows then answer on every pair is
    checked once per family, by `test_rows_give_the_searched_down_sets`."""
    lazy, eager = lazy_and_loaded_views(family, tmp_path)
    for poset in lazy:
        cross_validate(family, poset)
        orbit_rows(family, poset)
        assert poset._down is None
    for view in lazy + eager:
        assert view._down is None
        assert FIRST_QUERIES[first](family, view) and view._down is not None
        ref = view.down_over(range(len(view)))
        assert view._down == [d.to_bytes(j // 8 + 1, "little") for j, d in enumerate(ref)]
        assert all(view.id_of(m) == i for i, ms in enumerate(view.members) for m in ms)


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_rows_give_the_searched_down_sets(family, tmp_path):
    """On the base poset and every folded isogeny view, built and loaded:
    `down` and `le_ids` give each node's searched down-set, and
    `closed_below` its closed orbits, lowest id first, on both views."""
    for before, poset in zip(*lazy_and_loaded_views(family, tmp_path)):
        searched = searched_down_sets(poset)
        closed = set(map(poset.id_of, poset.minima()))
        for j, (below, down) in enumerate(zip(searched, poset.down)):
            assert down.bit_count() == len(below)
            assert all(poset.le_ids(i, j) for i in below)
            want = sorted(below & closed)  # lowest id first
            assert list(map(poset.id_of, poset.closed_below(poset.orbits[j]))) == want
            assert list(map(before.id_of, before.closed_below(before.orbits[j]))) == want


def test_down_over_restricts_the_down_sets(poset_a33):
    searched = searched_down_sets(poset_a33)
    ids = [7, 0, 50, len(poset_a33) - 1, 3]
    masks = poset_a33.down_over(ids)
    for j, below in enumerate(searched):
        assert [masks[j] >> k & 1 for k in range(len(ids))] == [i in below for i in ids]
    assert poset_a33.down_over([]) == [0] * len(poset_a33)


def test_closed_below_reads_minima_above_the_lowest_ids():
    """A minimum need not be a low id: in this graded order node 3 (one
    dimension up) has no lower cover.  `closed_below` gives the same
    minima, lowest id first, as it builds the rows and once they exist."""
    orbits = [P(t) for t in ("+,-", "-,+", "1,1", "+,+", "-,-")]
    poset = OrbitPoset({}, orbits, [0, 0, 1, 1, 2],
                       Covers.of([(0, 2, 1), (2, 4, 1), (3, 4, None)]))
    want = [[orbits[0]], [orbits[1]], [orbits[0]], [orbits[3]], [orbits[0], orbits[3]]]
    assert poset._minima == [0, 1, 3]
    assert [poset.closed_below(c) for c in orbits] == want
    assert [poset.closed_below(c) for c in orbits] == want


def test_covers_are_int_columns_at_a44(ambient_a44, tmp_path):
    """The covers are held as `array('i')` id columns and a root list, 16
    bytes per cover in all (beside the three object headers), built or
    loaded; the columns list the covers in canonical order."""
    loaded = load_poset(save_poset(ambient_a44, tmp_path / "a44.json"))
    for poset in (ambient_a44, loaded):
        lo, hi, root = poset.covers.lo, poset.covers.hi, poset.covers.root
        assert isinstance(lo, array) and isinstance(hi, array)
        assert lo.typecode == hi.typecode == "i" and type(root) is list
        size = sys.getsizeof(lo) + sys.getsizeof(hi) + sys.getsizeof(root)
        assert size <= 16 * len(poset.covers) + 256
    assert loaded.covers == ambient_a44.covers


def test_covers_view_yields_canonical_triples(poset_a22):
    """`covers` is a lazy view: `len` and iteration give the
    (lo, hi, root) triples in canonical order, None on a completed cover."""
    rows = list(poset_a22.covers)
    assert len(poset_a22.covers) == len(rows) == 39  # 33 weak edges, 6 completed
    assert all(type(e) is tuple and len(e) == 3 for e in rows)
    assert rows == sorted(rows) and len(set(rows)) == len(rows)
    assert sum(1 for e in rows if e[2] is None) == len(completed_covers(poset_a22)) == 6
    assert {e[2] for e in rows} == {None, 1, 2, 3}


def pulled_down_sets(poset) -> list[int]:
    """Each node's full down-set as a mask, pulled from its lower covers
    node by node in id order: a pass that shares no order with the push
    of `down_over` over the lo-sorted columns."""
    incoming = [[] for _ in poset.orbits]
    for lo, hi, _ in poset.covers:
        incoming[hi].append(lo)
    masks = []
    for v, below in enumerate(incoming):
        d = 1 << v
        for u in below:
            d |= masks[u]
        masks.append(d)
    return masks


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_down_over_matches_the_queue_closure_at_every_level(family):
    """At every isogeny level, the down-sets `down_over` pushes over the
    sorted cover columns are those of the queue closure folded by clans."""
    orbits, edges, dims = weak_order_graph(family)
    base = build_poset(family)
    oracle = OrbitPoset(base.meta, orbits, dims, Covers.of(queue_closure(dims, edges)))
    for level in ISOGENY_LEVELS_D if family.name == "d" else SIGN_FLIP_LEVELS:
        fold = family.isogeny_fold(level)
        view, want = quotient_poset(base, fold, level), quotient_by_clans(oracle, fold, level)
        assert view.orbits == want.orbits, level
        pulled = pulled_down_sets(want)
        assert view.down_over(range(len(view))) == pulled, level
        closed = view._minima
        got = view.down_over(closed)
        assert got == [sum((d >> i & 1) << k for k, i in enumerate(closed)) for d in pulled], level


# ------------------------------------------------------------ quotients

def test_quotient_folds_covers(poset_a22):
    folded = quotient_poset(poset_a22, negate, "adjoint")
    assert len(folded) == 12
    assert folded.meta["level"] == "adjoint"
    assert all(len(m) in (1, 2) for m in folded.members)
    # the flip-fixed orbits are exactly the sign-free clans
    singles = {str(m[0]) for m in folded.members if len(m) == 1}
    assert singles == {"1,1,2,2", "1,2,1,2", "1,2,2,1"}


def _folding(pairs: dict[str, str]):
    """The fold that sends each clan of `pairs` to its value, and every
    other clan to itself."""
    table = {P(a): P(b) for a, b in pairs.items()}
    return lambda clan: table.get(clan, clan)


@pytest.mark.parametrize("pairs, message", [
    ({"1,1,2,2": "+,+,+,+"}, "left the orbit set"),
    ({"+,+,-,-": "1,1,2,2", "1,1,2,2": "+,+,-,-"}, "does not preserve dimension"),
    ({"+,+,-,-": "+,-,+,-", "+,-,+,-": "+,-,-,+", "+,-,-,+": "+,+,-,-"}, "not an involution"),
    ({"+,+,-,-": "+,-,+,-"}, "not an involution"),
], ids=["image outside", "image at another dimension", "three-cycle", "two onto one"])
def test_quotient_refuses_a_bad_fold(poset_a22, pairs, message):
    """A fold image must be an orbit at the same dimension, and the fold an
    involution: a three-cycle or two orbits sent to one make no classes."""
    with pytest.raises(ConsistencyError, match=message):
        quotient_poset(poset_a22, _folding(pairs), "adjoint")


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
def test_quotient_matches_the_clan_keyed_fold(family):
    """At every isogeny level the fold on ids gives the orbits, dims,
    covers, members and meta of the clan-keyed quotient."""
    base = build_poset(family)
    for level in ISOGENY_LEVELS_D if family.name == "d" else SIGN_FLIP_LEVELS:
        fold = family.isogeny_fold(level)
        got, want = quotient_poset(base, fold, level), quotient_by_clans(base, fold, level)
        assert got.orbits == want.orbits and got.dims == want.dims, level
        assert got.covers == want.covers and got.members == want.members, level
        assert got.meta == want.meta, level


@pytest.mark.parametrize("family", [FamilyA(2, 2), FamilyC(2, 2), FamilyD(4)], ids=repr)
def test_quotient_numbers_classes_by_text_within_a_rank(family):
    """Ids need only rise with dimension: with each rank's ids reversed,
    the fold still names and numbers its classes by (dim, text)."""
    base = build_poset(family)
    start = {d: base.dims.index(d) for d in set(base.dims)}
    stop = {d: len(base.dims) - base.dims[::-1].index(d) for d in set(base.dims)}
    new = [start[d] + stop[d] - 1 - i for i, d in enumerate(base.dims)]
    order = sorted(range(len(base)), key=new.__getitem__)
    shuffled = OrbitPoset(base.meta, [base.orbits[i] for i in order], base.dims,
                          Covers.of((new[lo], new[hi], root) for lo, hi, root in base.covers))
    shuffled.validate()
    assert shuffled.orbits != base.orbits
    fold = family.isogeny_fold("adjoint")
    got, want = quotient_poset(shuffled, fold, "adjoint"), quotient_poset(base, fold, "adjoint")
    assert (got.orbits, got.dims, got.covers, got.members) == (
        want.orbits, want.dims, want.covers, want.members)


# --------------------------------------------------------------- oracle

def test_oracle_examples():
    got = raising_moves_oracle(P("1,+,1,-"))
    assert P("1,2,1,2") in got and P("1,+,-,1") in got
    assert raising_moves_oracle(P("+,+")) == set()
    assert raising_moves_oracle(P("+,-")) == {P("1,1")}


def test_oracle_moves_are_sound():
    for (p, q) in ((2, 2), (3, 2), (2, 1)):
        poset = build_poset(FamilyA(p, q))
        for i, clan in enumerate(poset.orbits):
            for target in raising_moves_oracle(clan):
                j = poset.id_of(target)
                assert j != i and poset.le_ids(i, j)


def test_oracle_does_not_generate_the_full_order(poset_a22):
    """Known finding: the three raising operations never create signs, so
    their reflexive-transitive closure misses completion relations such
    as 1,1,2,2 < 1,+,-,1 (a dashed edge of the rank-4 diagram)."""
    lo, hi = P("1,1,2,2"), P("1,+,-,1")
    assert poset_a22.le(lo, hi)
    seen, frontier = {lo}, [lo]
    while frontier:
        nxt = []
        for c in frontier:
            for t in raising_moves_oracle(c):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    assert hi not in seen


# ---------------------------------------------------- move / flip duality

@given(st.sampled_from(range(1, 4)))
@settings(max_examples=10)
def test_monoid_action_commutes_with_negate(root):
    fa = FamilyA(2, 2)
    for clan in fa.enumerate():
        lhs = fa.raise_by(clan, root)
        rhs = fa.raise_by(negate(clan), root)
        assert (lhs is None) == (rhs is None)
        if lhs is not None:
            assert negate(lhs) == rhs
