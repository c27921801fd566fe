from __future__ import annotations

import pytest

from clanorbits import expand_compressed, parse_clan
from clanorbits.fixtures import (
    FIGURES,
    compare_fixture,
    load_errata,
    load_fixture,
    poset_for_fixture,
)

P = parse_clan


def test_loader_shapes():
    fx1 = load_fixture("fig1")
    assert len(fx1.vertices) == 21
    assert [len(r) for r in fx1.rows] == [1, 3, 5, 6, 6]
    assert {str(v) for v in fx1.boxed} == {"1,+,-,1", "1,2,1,2", "1,-,+,1"}
    assert len(fx1.edges) == 39  # 33 labeled + 6 dashed

    fx2 = load_fixture("fig2")
    assert len(fx2.vertices) == 27 and fx2.fold == "negate"
    assert len(fx2.boxed) == 13
    assert sum(1 for *_, r in fx2.edges if r is None) == 10

    fx3 = load_fixture("fig3")
    assert len(fx3.vertices) == 10 and fx3.convention == "figure"
    assert not fx3.boxed
    assert all(r is not None for *_, r in fx3.edges)

    fx4 = load_fixture("fig4")
    assert len(fx4.vertices) == 38 and fx4.notation == "compressed"
    assert len(fx4.boxed) == 9
    assert sum(1 for *_, r in fx4.edges if r is None) == 14


def test_unknown_figure():
    with pytest.raises(ValueError):
        load_fixture("fig9")


def test_errata_are_applied_not_silent():
    errata = load_errata()
    assert errata["fig2"]["vertices"]["++----+++"] == "++----++"
    assert errata["fig3"]["vertices"]["+1212+"] == "+1212-"
    assert errata["fig3"]["vertices"]["1+12-2"] == "1-12+2"
    assert errata["fig2"]["edges"][("+11--22+", "1+1--2+2")] == 1
    fx3 = load_fixture("fig3")
    assert P("+,1,2,1,2,-") in fx3.vertices
    assert P("+,1,2,1,2,+") not in fx3.vertices


@pytest.mark.parametrize("fig", FIGURES)
def test_every_figure_reproduced_exactly(fig):
    diffs = compare_fixture(load_fixture(fig))
    assert diffs == []


@pytest.mark.parametrize("fig", FIGURES)
def test_compare_a_given_poset_without_its_family(fig):
    """With a poset and no family, the fixture's own family judges the
    boxed vertices."""
    fx = load_fixture(fig)
    _, poset = poset_for_fixture(fx)
    assert compare_fixture(fx, poset=poset) == []


def test_fig4_vertices_expand_consistently():
    fx4 = load_fixture("fig4")
    assert expand_compressed("AABB") in fx4.vertices
    assert expand_compressed("a+-a") in fx4.boxed
