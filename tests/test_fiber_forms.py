"""The fiber forms on clan codes against the labelled-symbol forms they
replace, and one membership check and search per clan and family.

The oracle below is the fiber-form code the package used before the
forms cut clans with `clans.block`: it sliced the labelled form, rebuilt
each piece through `Clan.from_symbols`, and compared the clan with the
pieces put back together.  The new forms must give equal witnesses on
every orbit of the families checked here.
"""

from __future__ import annotations

import pytest

from clanorbits import (
    Clan,
    FamilyA,
    FamilyC,
    FamilyD,
    FiberFormC,
    FiberFormD,
    avoids_bad_patterns,
    gamma_circ_c,
    gamma_circ_d,
    negate,
)
from clanorbits.clans import _half_parity
from clanorbits.cli import orbit_rows
from clanorbits.closure import _swap, build_poset, quotient_poset
from clanorbits.errors import ClanError
from clanorbits.family import SIGN_FLIP_LEVELS
from clanorbits.family_c import fiber_form_c
from clanorbits.family_d import ISOGENY_LEVELS_D, fiber_form_d

from clan_transforms import concat, mate_list, reverse_negate_rename, reverse_rename


# ------------------------------------------------------- symbol-form oracle

def _standalone(symbols: tuple) -> Clan | None:
    try:
        return Clan.from_symbols(symbols)
    except ValueError:
        return None


def _oracle_c(clan: Clan) -> FiberFormC | None:
    n = len(clan) // 2
    p, q = (half // 2 for half in clan.signature)
    for m in range(0, n + 1):
        prefix = _standalone(clan.symbols[:m])
        if prefix is None:
            continue
        r, s = prefix.signature
        core_p, core_q = p - r, q - s
        if core_p < 0 or core_q < 0:
            continue
        core = gamma_circ_c(core_p, core_q)
        if concat(prefix, core, reverse_rename(prefix)) == clan and avoids_bad_patterns(prefix):
            return FiberFormC(prefix, core, r, s, core_p, core_q)
    return None


def _oracle_threaded_inner(core: Clan) -> Clan | None:
    rank = len(core) // 2
    if rank < 2:
        return None
    mates = mate_list(core)
    if mates[0] != rank or mates[rank - 1] != 2 * rank - 1:
        return None
    inner = _standalone(core.symbols[1 : rank - 1])
    if inner is None:
        return None
    k = len(inner.pairs)
    wrapped = (k + 1,) + inner.symbols + (k + 1,)
    if not avoids_bad_patterns(Clan.from_symbols(wrapped)):
        return None
    shift = tuple(s + 1 if isinstance(s, int) else s for s in inner.symbols)
    shift2 = tuple(
        s + 1 + k if isinstance(s, int) else s
        for s in reverse_negate_rename(inner).symbols
    )
    rebuilt = (1,) + shift + (2 + 2 * k, 1) + shift2 + (2 + 2 * k,)
    if Clan.from_symbols(rebuilt) != core:
        return None
    return inner


def _oracle_d(clan: Clan) -> FiberFormD | None:
    n = len(clan) // 2
    if n == 0:
        return None
    open_clan = gamma_circ_d(n)
    if clan == open_clan or clan == negate(open_clan):
        return FiberFormD("open", Clan(()), clan, n)
    inner = _oracle_threaded_inner(clan)
    if inner is not None:
        return FiberFormD("threaded", Clan(()), clan, n, inner)
    for m in range(1, n + 1):
        flank = _standalone(clan.symbols[:m])
        if flank is None or not avoids_bad_patterns(flank):
            continue
        core = _standalone(clan.symbols[m : 2 * n - m])
        if core is None:
            continue
        if concat(flank, core, reverse_negate_rename(flank)) != clan:
            continue
        rank = n - m
        if rank == 0:
            return FiberFormD("mirror", flank)
        reading = core
        if rank % 2 == 0 and _half_parity(core):
            reading = Clan(_swap(core.code, rank - 1, rank))
        if avoids_bad_patterns(reading):
            return FiberFormD("block", flank, core, rank)
        nested = _oracle_d(reading)
        if nested is not None:
            return FiberFormD("block", flank, core, rank, None, nested)
    return None


def _agrees(new, old) -> bool:
    if new is None or old is None:
        return new is None and old is None
    return new == old and new.describe() == old.describe()


# ------------------------------------------------------------------- tests

C_FAMILIES = [FamilyC(p, n - p) for n in range(1, 6) for p in range(n + 1)]
D_FAMILIES = [FamilyD(n, conv) for n in range(1, 7) for conv in ("paper", "figure")]


@pytest.mark.parametrize("family", C_FAMILIES, ids=repr)
def test_type_c_fiber_forms_match_the_oracle(family):
    witnesses = 0
    for clan in family.enumerate():
        form = fiber_form_c(clan)
        assert _agrees(form, _oracle_c(clan)), clan
        witnesses += form is not None
    assert witnesses > 0  # the open orbit at least


@pytest.mark.parametrize("family", D_FAMILIES, ids=repr)
def test_type_d_fiber_forms_match_the_oracle(family):
    kinds = set()
    for clan in family.enumerate():
        form = fiber_form_d(clan)
        assert _agrees(form, _oracle_d(clan)), clan
        if form is not None:
            kinds.add(form.kind)
    if family.n >= 4:
        assert kinds == {"open", "threaded", "mirror", "block"}


@pytest.mark.parametrize(
    "family, poset, members",
    [(FamilyC(2, 2), "poset_c22", 42), (FamilyD(4), "poset_d4", 38)],
    ids=["C(2,2)", "D(4)"],
)
def test_verdicts_check_each_member_once(family, poset, members, request, monkeypatch):
    """Each member is checked once per family object: one `verdicts`
    call checks every member, and a later `orbit_rows` reads the memo."""
    poset = request.getfixturevalue(poset)
    cls = type(family)
    check = cls._check
    calls = []

    def counted(self, clan):
        calls.append(clan)
        return check(self, clan)

    monkeypatch.setattr(cls, "_check", counted)
    family.verdicts(poset)
    assert len(calls) == members == sum(len(m) for m in poset.members)
    calls.clear()
    orbit_rows(family, poset)
    assert len(calls) == 0


VERDICT_FAMILIES = (
    [FamilyA(p, q) for p in range(1, 4) for q in range(1, 4)]
    + [FamilyC(p, q) for p in range(3) for q in range(3) if p + q]
    + [FamilyD(n, conv) for n in range(1, 5) for conv in ("paper", "figure")]
    + [FamilyD(5, "figure")]
)


@pytest.mark.parametrize("family", VERDICT_FAMILIES, ids=repr)
def test_verdicts_are_the_checked_verdict_and_witness(family):
    """Each node's (smooth, witness) is what the checked `classify` and
    `fiber_form` give its representative, at every isogeny level."""
    levels = ISOGENY_LEVELS_D if family.name == "d" else SIGN_FLIP_LEVELS
    base = build_poset(family)
    for level in levels:
        view = quotient_poset(base, family.isogeny_fold(level), level)
        judged = family.verdicts(view)
        assert len(judged) == len(view.orbits)
        for orbit, got in zip(view.orbits, judged):
            assert got == (family.classify(orbit), family.fiber_form(orbit)), (level, orbit)


def fresh(family):
    """A new family object with the same parameters, its memo empty."""
    return type(family)(**{k: v for k, v in family.meta().items() if k != "family"})


def level_views(family):
    levels = ISOGENY_LEVELS_D if family.name == "d" else SIGN_FLIP_LEVELS
    base = build_poset(family)
    return [quotient_poset(base, family.isogeny_fold(level), level) for level in levels]


def unmemoized_verdicts(family, view):
    """Each representative searched and scanned afresh, past the memo."""
    out = []
    for orbit in view.orbits:
        form = family._fiber_form(orbit)
        out.append((form is not None or avoids_bad_patterns(orbit), form))
    return out


@pytest.mark.parametrize("family", VERDICT_FAMILIES, ids=repr)
def test_a_seasoned_family_judges_each_view_as_a_fresh_one(family):
    """The memo serves one family's verdicts to every view: after judging
    all the other views, a family still gives each view the verdicts of a
    family that has judged nothing, and of no memo at all."""
    views = level_views(family)
    for k, view in enumerate(views):
        seasoned = fresh(family)
        for other in views[:k] + views[k + 1:]:
            seasoned.verdicts(other)
        got = seasoned.verdicts(view)
        assert got == fresh(family).verdicts(view) == unmemoized_verdicts(family, view), view.meta


@pytest.mark.parametrize(
    "family, foreign",
    [
        (FamilyA(2, 2), [Clan(("+", "+", "+", "-")), Clan((1, 0, "+", "+"))]),
        (FamilyC(2, 1), [Clan(("+", "-", "-", "+", "+", "-")), Clan((5, "+", "+", "-", "-", 0))]),
        (FamilyD(3), FamilyD(3, "figure").enumerate()),
    ],
    ids=repr,
)
def test_a_full_memo_still_refuses_foreign_clans(family, foreign):
    """Every member judged, at every level: the memo holds at most
    `count()` entries, and `classify` and `fiber_form` still raise on a
    clan outside the family without storing it."""
    for view in level_views(family):
        family.verdicts(view)
    assert len(family._judged) == family.count()
    for clan in foreign:
        assert not family.contains(clan)
        for ask in (family.classify, family.fiber_form):
            with pytest.raises(ClanError):
                ask(clan)
    assert len(family._judged) <= family.count()
