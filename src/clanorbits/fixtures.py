"""Golden fixtures: transcriptions of reference closure-order diagrams.

fig1 is U(2,2); fig2 the adjoint form of Sp(2,2) (vertices are sign-flip
classes); fig3 is SO*(6) in the flipped sign convention of the printed
diagram; fig4 is SO*(8) in compressed 4-symbol notation.  The data files
are literal transcriptions; documented misprints live in errata.txt and
are substituted on load, never silently.

`compare_fixture` rebuilds the corresponding poset from scratch and
diffs vertices, dimension rows, the labeled/dashed edge sets, and the
boxed (singular-closure) vertex set.  An empty diff list is a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from itertools import groupby

from .clans import Clan, parse_clan
from .closure import OrbitPoset, build_poset, quotient_poset
from .family_a import FamilyA
from .family_c import FamilyC
from .family_d import FamilyD, expand_compressed

FIGURES = ("fig1", "fig2", "fig3", "fig4")


@dataclass
class Fixture:
    fig_id: str
    family: str
    p: int = 0
    q: int = 0
    n: int = 0
    convention: str = "paper"
    fold: str | None = None
    notation: str | None = None
    rows: list[list[Clan]] = field(default_factory=list)
    boxed: set[Clan] = field(default_factory=set)
    edges: set[tuple[Clan, Clan, int | None]] = field(default_factory=set)

    @property
    def vertices(self) -> set[Clan]:
        return {v for row in self.rows for v in row}


def _read_data(name: str) -> str:
    return resources.files("clanorbits.data").joinpath(name).read_text()


def load_errata() -> dict[str, dict]:
    """Per-figure corrections: vertex-string substitutions plus edge-kind
    fixes of the form (lo, hi) -> root label."""
    out: dict[str, dict] = {}
    for line in _read_data("errata.txt").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        entry = out.setdefault(words[0], {"vertices": {}, "edges": {}})
        if words[1] == "edge":
            entry["edges"][(words[2], words[3])] = int(words[4])
        else:
            entry["vertices"][words[1]] = words[2]
    return out


def load_fixture(fig_id: str) -> Fixture:
    if fig_id not in FIGURES:
        raise ValueError(f"unknown fixture {fig_id!r}; have {FIGURES}")
    errata = load_errata().get(fig_id, {"vertices": {}, "edges": {}})

    def vertex(token: str) -> Clan:
        token = errata["vertices"].get(token, token)
        if fx.notation == "compressed":
            return expand_compressed(token)
        return parse_clan(token)

    fx = Fixture(fig_id=fig_id, family="")
    for line in _read_data(f"{fig_id}.txt").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        key, rest = words[0], words[1:]
        if key == "figure":
            pass
        elif key == "family":
            fx.family = rest[0]
        elif key in ("p", "q", "n"):
            setattr(fx, key, int(rest[0]))
        elif key == "convention":
            fx.convention = rest[0]
        elif key == "fold":
            fx.fold = rest[0]
        elif key == "notation":
            fx.notation = rest[0]
        elif key == "row":
            row = []
            for token in rest:
                boxed = token.startswith("*")
                clan = vertex(token.lstrip("*"))
                row.append(clan)
                if boxed:
                    fx.boxed.add(clan)
            fx.rows.append(row)
        elif key == "edge":
            fx.edges.add((vertex(rest[0]), vertex(rest[1]), int(rest[2])))
        elif key == "dashed":
            fixed = errata["edges"].get((rest[0], rest[1]))
            fx.edges.add((vertex(rest[0]), vertex(rest[1]), fixed))
        else:
            raise ValueError(f"bad fixture line: {line}")
    return fx


def family_for_fixture(fx: Fixture):
    if fx.family == "a":
        return FamilyA(fx.p, fx.q)
    if fx.family == "c":
        return FamilyC(fx.p, fx.q)
    return FamilyD(fx.n, fx.convention)


def poset_for_fixture(fx: Fixture):
    family = family_for_fixture(fx)
    level = "adjoint" if fx.fold else "sc"
    return family, quotient_poset(build_poset(family), family.isogeny_fold(level), level)


def compare_fixture(fx: Fixture, family=None, poset: OrbitPoset | None = None) -> list[str]:
    """Diff a poset against the fixture, a fresh build unless `poset` is
    given, judged by `family` or the fixture's own; [] means match."""
    if poset is None:
        family, poset = poset_for_fixture(fx)
    elif family is None:
        family = family_for_fixture(fx)
    diffs: list[str] = []

    def key(clan: Clan) -> Clan:
        i = poset.member_index.get(clan.code)
        return clan if i is None else poset.orbits[i]

    fixture_vertices = {key(v) for v in fx.vertices}
    computed_vertices = set(poset.orbits)
    for v in sorted(fixture_vertices - computed_vertices):
        diffs.append(f"vertex {v} in fixture only")
    for v in sorted(computed_vertices - fixture_vertices):
        diffs.append(f"vertex {v} computed only")

    ranks = groupby(range(len(poset)), key=poset.dims.__getitem__)  # ids rise with dimension
    computed_rows = [{poset.orbits[i] for i in run} for _, run in ranks][::-1]
    fixture_rows = [{key(v) for v in row} for row in fx.rows]
    if len(computed_rows) != len(fixture_rows):
        diffs.append(
            f"{len(fixture_rows)} dimension rows in fixture, "
            f"{len(computed_rows)} computed"
        )
    else:
        for k, (frow, crow) in enumerate(zip(fixture_rows, computed_rows)):
            if frow != crow:
                diffs.append(
                    f"row {k}: fixture-only {sorted(frow - crow)}, "
                    f"computed-only {sorted(crow - frow)}"
                )

    fixture_edges = {(key(a), key(b), r) for a, b, r in fx.edges}
    computed_edges = {
        (poset.orbits[lo], poset.orbits[hi], root) for lo, hi, root in poset.covers
    }
    for e in sorted(fixture_edges - computed_edges, key=str):
        diffs.append(f"edge {e[0]} -> {e[1]} ({e[2] or 'dashed'}) in fixture only")
    for e in sorted(computed_edges - fixture_edges, key=str):
        diffs.append(f"edge {e[0]} -> {e[1]} ({e[2] or 'dashed'}) computed only")

    fixture_boxed = {key(v) for v in fx.boxed}
    computed_boxed = {
        clan for clan, (smooth, _) in zip(poset.orbits, family.verdicts(poset)) if not smooth
    }
    for v in sorted(fixture_boxed - computed_boxed):
        diffs.append(f"boxed {v} in fixture only")
    for v in sorted(computed_boxed - fixture_boxed):
        diffs.append(f"boxed {v} computed only")
    return diffs
