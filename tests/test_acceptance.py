"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s` or on
failure) and enforces the stated runtime bound.  Criterion 6 is split:
its type-C and rank<=3 type-D claims hold and pass; the rank-4 type-D
claim contradicts the rank-4 reference diagram itself and is kept as an
honestly failing test (test_criterion_06b documents the counterexample).
"""

from __future__ import annotations

import time
from collections import Counter
from functools import partial

from clanorbits import (
    FamilyA,
    FamilyC,
    FamilyD,
    build_poset,
    compress,
    count_clans,
    cross_validate,
    enumerate_clans,
    expand_compressed,
    gamma_circ_d,
    negate,
    parse_clan,
    quotient_poset,
)
from clanorbits.fixtures import compare_fixture, load_fixture

from clan_transforms import dim_of, tau

P = parse_clan


class timed:
    def __init__(self, limit: float):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))


def test_criterion_01_figure1_u22():
    with timed(1.0) as t:
        family = FamilyA(2, 2)
        poset = build_poset(family)
        rows = Counter(poset.dims)
        boxed = {str(c) for c in poset.orbits if not family.classify(c)}
        diffs = compare_fixture(load_fixture("fig1"), family, poset)
    ok = (
        len(poset) == 21
        and sorted(rows) == [2, 3, 4, 5, 6]
        and [rows[d] for d in sorted(rows)] == [6, 6, 5, 3, 1]
        and boxed == {"1,+,-,1", "1,2,1,2", "1,-,+,1"}
        and diffs == []
        and t.elapsed < 1.0
    )
    report("criterion 1 (U(2,2) diagram)", ok, f"{t.elapsed:.2f}s")
    assert ok, diffs


def test_criterion_02_sp22_counts_and_figure2():
    with timed(5.0) as t:
        family = FamilyC(2, 2)
        poset = build_poset(family)
        folded = quotient_poset(poset, negate, "adjoint")
        boxed = [c for c in folded.orbits if not family.classify(c)]
        diffs = compare_fixture(load_fixture("fig2"), family, folded)
    ok = (
        len(poset) == 42
        and len(folded) == 27
        and len(boxed) == 13
        and diffs == []
        and t.elapsed < 5.0
    )
    report("criterion 2 (Sp(2,2): 42 orbits, 27 classes, 13 boxed)", ok, f"{t.elapsed:.2f}s")
    assert ok, diffs


def test_criterion_03_so_star_6():
    with timed(1.0) as t:
        figure_family = FamilyD(3, "figure")
        figure_poset = build_poset(figure_family)
        diffs = compare_fixture(load_fixture("fig3"), figure_family, figure_poset)
        default = FamilyD(3)
        all_smooth = all(default.classify(c) for c in default.enumerate())
        flipped = {negate(c) for c in default.enumerate()} == set(figure_family.enumerate())
    ok = (
        len(figure_poset) == 10
        and all_smooth
        and flipped
        and diffs == []
        and t.elapsed < 1.0
    )
    report("criterion 3 (SO*(6): 10 orbits, all smooth, corrected diagram)", ok, f"{t.elapsed:.2f}s")
    assert ok, diffs


def test_criterion_04_so_star_8():
    with timed(5.0) as t:
        family = FamilyD(4)
        poset = build_poset(family)
        boxed = {compress(c) for c in poset.orbits if not family.classify(c)}
        diffs = compare_fixture(load_fixture("fig4"), family, poset)
    expected_boxed = {"AA++", "ABAB", "AA--", "A+A+", "ABBA", "A-A-", "a+-a", "abab", "a-+a"}
    ok = len(poset) == 38 and boxed == expected_boxed and diffs == [] and t.elapsed < 5.0
    report("criterion 4 (SO*(8): 38 orbits, 9 boxed, edge multiset)", ok, f"{t.elapsed:.2f}s")
    assert ok, diffs


def test_criterion_05_classifier_equivalence():
    with timed(120.0) as t:
        mismatches = []
        for n in range(0, 7):
            for p in range(0, n + 1):
                family = FamilyA(p, n - p)
                mismatches += cross_validate(family, build_poset(family))["mismatches"]
        for p, q in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3), (2, 2)):
            family = FamilyC(p, q)
            mismatches += cross_validate(family, build_poset(family))["mismatches"]
        for rank in (1, 2, 3, 4):
            family = FamilyD(rank)
            mismatches += cross_validate(family, build_poset(family))["mismatches"]
    ok = mismatches == [] and t.elapsed < 120.0
    report("criterion 5 (pattern vs root-count verdicts)", ok, f"{t.elapsed:.1f}s")
    assert ok, mismatches[:5]


def test_criterion_06a_restriction_where_it_holds(ambient_a44):
    with timed(120.0) as t:
        for p, q in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)):
            poset = build_poset(FamilyC(p, q))
            ambient = build_poset(FamilyA(2 * p, 2 * q))
            for a in poset.orbits:
                for b in poset.orbits:
                    assert poset.le(a, b) == ambient.le(a, b), ("C", p, q, str(a), str(b))
        for rank in (1, 2, 3):
            poset = build_poset(FamilyD(rank))
            ambient = build_poset(FamilyA(rank, rank))
            for a in poset.orbits:
                for b in poset.orbits:
                    assert poset.le(a, b) == ambient.le(a, b), ("D", rank, str(a), str(b))
        # rank 4: the one-sided inclusion always holds
        poset = build_poset(FamilyD(4))
        for a in poset.orbits:
            for b in poset.orbits:
                if poset.le(a, b):
                    assert ambient_a44.le(a, b)
    ok = t.elapsed < 120.0
    report("criterion 6a (restriction: C ranks <= 3, D ranks <= 3, one-sided D4)", ok,
           f"{t.elapsed:.1f}s")
    assert ok


def test_criterion_06b_restriction_d4_as_stated(ambient_a44):
    """Criterion 6 additionally claims the rank-4 type-D order equals the
    ambient restriction.  That is false: abba and ABBA share dimension 10
    (one diagram row), so neither closure can contain the other, yet the
    ambient order puts abba below ABBA through intermediate orbits that
    are not mirror-antisymmetric.  The root-count agreement and the
    rank-4 diagram both certify the computed order.  Kept failing on
    purpose rather than weakened.
    """
    poset = build_poset(FamilyD(4))
    disagreements = [
        (compress(a), compress(b))
        for a in poset.orbits
        for b in poset.orbits
        if poset.le(a, b) != ambient_a44.le(a, b)
    ]
    report("criterion 6b (restriction at D rank 4, as stated)", not disagreements,
           f"ambient-only relations: {disagreements}")
    assert disagreements == [], (
        "the ambient order strictly refines the rank-4 closure order; "
        f"extra relations {disagreements} are impossible at equal dimension"
    )


def test_criterion_07_structural_invariants():
    cases = [
        (FamilyA(2, 2), lambda f: f.n * (f.n - 1) // 2),
        (FamilyA(3, 2), lambda f: f.n * (f.n - 1) // 2),
        (FamilyC(2, 2), lambda f: f.n * f.n),
        (FamilyC(2, 1), lambda f: f.n * f.n),
        (FamilyD(3), lambda f: f.n * (f.n - 1)),
        (FamilyD(4), lambda f: f.n * (f.n - 1)),
    ]
    for family, flag_dim in cases:
        poset = build_poset(family)
        poset.validate()  # graded covers, unique max, all-sign minima
        assert poset.open_orbit() == family.open_clan()
        assert set(poset.minima()) == set(family.closed_clans())
        assert dim_of(poset, poset.open_orbit()) == flag_dim(family)
    fd = FamilyD(3, "figure")
    assert build_poset(fd).open_orbit() == negate(gamma_circ_d(3))
    report("criterion 7 (graded posets, extremes, open dimensions)", True)


def _weyl_reduced_words(family, max_len=4):
    kind = family.name
    size = family.clan_length if kind == "a" else family.n

    def refl(i):
        img = list(range(1, size + 1))
        if kind == "a" or i < size:
            img[i - 1], img[i] = img[i], img[i - 1]
        elif kind == "c":
            img[size - 1] = -size
        else:
            img[size - 2], img[size - 1] = -size, -(size - 1)
        return tuple(img)

    def compose(f, g):
        return tuple(f[v - 1] if v > 0 else -f[-v - 1] for v in g)

    gens = {i: refl(i) for i in family.root_indices()}
    ident = tuple(range(1, size + 1))
    words = {ident: [()]}
    frontier = [ident]
    for _ in range(max_len):
        produced: dict = {}
        for w in frontier:
            for i, g in gens.items():
                v = compose(g, w)
                if v in words:
                    continue
                produced.setdefault(v, []).extend(word + (i,) for word in words[w])
        words.update(produced)
        frontier = list(produced)
    return words


def test_criterion_08_well_definedness():
    with timed(60.0) as t:
        families = [FamilyA(2, 1), FamilyA(2, 2), FamilyC(1, 1), FamilyC(2, 1),
                    FamilyC(2, 2), FamilyD(2), FamilyD(3), FamilyD(4)]
        checks = 0
        for family in families:
            orbits = family.enumerate()

            def act(clan, root):
                raised = family.raise_by(clan, root)
                return clan if raised is None else raised

            for words in _weyl_reduced_words(family).values():
                if len(words) < 2:
                    continue
                for clan in orbits:
                    results = set()
                    for word in words:
                        cur = clan
                        for i in word:
                            cur = act(cur, i)
                        results.add(cur)
                    assert len(results) == 1, (family, words[:2], str(clan))
                    checks += 1
    report("criterion 8 (reduced-word independence)", True,
           f"{checks} element/orbit checks, {t.elapsed:.1f}s")


def test_criterion_09_enumeration_oracle():
    with timed(60.0) as t:
        for n in range(0, 9):
            for p in range(0, n + 1):
                assert len(enumerate_clans(p, n - p)) == count_clans(p, n - p)
    report("criterion 9 (clan counts, ranks <= 8)", True, f"{t.elapsed:.1f}s")


def test_criterion_10_symmetry_invariance(poset_d4):
    fa = FamilyA(3, 2)
    transposed = FamilyA(2, 3)  # negation swaps the signature parts
    for c in fa.enumerate():
        assert fa.classify(c) == transposed.classify(negate(c))
    balanced = FamilyA(2, 2)
    for c in balanced.enumerate():
        assert balanced.classify(c) == balanced.classify(negate(c))
    fc = FamilyC(2, 2)
    for c in fc.enumerate():
        assert fc.classify(c) == fc.classify(negate(c))
    for rank in (2, 3, 4):
        fd = FamilyD(rank)
        poset = poset_d4 if rank == 4 else build_poset(fd)
        twist = partial(tau, fd)
        pairs = {(poset.orbits[lo], poset.orbits[hi]) for lo, hi, _ in poset.covers}
        assert {(twist(a), twist(b)) for a, b in pairs} == pairs
        for c in fd.enumerate():
            assert twist(twist(c)) == c
            assert fd.dimension(twist(c)) == fd.dimension(c)
            assert fd.classify(twist(c)) == fd.classify(c)
    report("criterion 10 (classification invariant under flips and the twist)", True)


def test_criterion_11_stretch_d5():
    with timed(600.0) as t:
        family = FamilyD(5)
        orbits = family.enumerate()
        poset = build_poset(family)
        result = cross_validate(family, poset)
    ok = (
        len(orbits) == 156
        and result["orbits"] == 156
        and result["not_rationally_smooth"] == 74
        and result["mismatches"] == []
        and t.elapsed < 600.0
    )
    report(
        "criterion 11 (stretch: SO*(10) end to end)",
        ok,
        f"156 orbits, 74 singular, 0 mismatches, {t.elapsed:.1f}s",
    )
    assert ok, result["mismatches"][:3]
