"""Rational-smoothness detection by root counting over closed orbits.

For an orbit O and a closed orbit O_cl below it, collect the positive
roots that are noncompact imaginary for O_cl (the only roots whose
raising action moves a closed orbit here, since closed orbits carry a
Cartan fixed pointwise by the defining involution) and whose raised
orbit still lies in the closure of O.  If that count exceeds
dim O - dim O_cl, the closure of O is not rationally smooth.

In these families the test is sharp: an orbit closure is rationally
smooth (equivalently smooth) iff no closed orbit below it violates the
inequality.  `cross_validate` checks this against the pattern-based
classifiers orbit by orbit.

Everything here also runs on isogeny-quotient posets: nodes then carry
several clans, the closed node's representative drives the root data,
and containment is read off the quotient order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clans import Clan
from .closure import OrbitPoset
from .errors import ConsistencyError, NotBelow, NotClosed
from .family import Family, Root


@dataclass(frozen=True)
class SpringerReport:
    orbit: Clan
    closed: Clan
    roots: tuple[Root, ...]
    s_size: int
    dim_gap: int
    violated: bool

    def to_json(self, family: Family) -> dict:
        return {
            "orbit": str(self.orbit),
            "closed": str(self.closed),
            "roots": [family.root_str(r) for r in self.roots],
            "s_size": self.s_size,
            "dim_gap": self.dim_gap,
            "violated": self.violated,
        }


def springer_report(family: Family, poset: OrbitPoset, orbit: Clan,
                    closed: Clan) -> SpringerReport:
    """Count the raising roots of `closed` that stay inside the closure
    of `orbit`; the inequality s_size > dim_gap certifies a singularity."""
    oid = poset.id_of(orbit)
    cid = poset.id_of(closed)
    rep = poset.orbits[cid]
    if not rep.is_all_signs():
        raise NotClosed(f"{closed} is not a closed orbit")
    if not poset.le_ids(cid, oid):
        raise NotBelow(f"{closed} does not lie below {orbit}")
    gap = poset.dims[oid] - poset.dims[cid]
    roots = []
    for root in family.positive_roots():
        if not family.is_noncompact(rep, root):
            continue
        moved = family.springer_move(rep, root)
        mid = poset.id_of(moved)
        if poset.dims[mid] <= poset.dims[cid]:
            raise ConsistencyError(f"raising root {root} failed to raise {rep}")
        if poset.le_ids(mid, oid):
            roots.append(root)
    return SpringerReport(orbit, rep, tuple(roots), len(roots), gap, len(roots) > gap)


def rationally_smooth(family: Family, poset: OrbitPoset, orbit: Clan) -> bool:
    """True when no closed orbit below `orbit` violates the inequality."""
    return not any(
        springer_report(family, poset, orbit, cl).violated
        for cl in poset.closed_below(orbit)
    )


def cross_validate(family: Family, poset: OrbitPoset) -> dict:
    """Compare the pattern classifier against the root-counting test on
    every orbit.  Mismatches are reported, not raised; the families here
    are expected to produce none."""
    smooth = 0
    singular = 0
    mismatches = []
    for orbit, by_pattern in zip(poset.orbits, family.verdicts(poset)):
        by_roots = rationally_smooth(family, poset, orbit)
        if by_pattern:
            smooth += 1
        else:
            singular += 1
        if by_pattern != by_roots:
            mismatches.append(
                {
                    "orbit": str(orbit),
                    "pattern_smooth": by_pattern,
                    "springer_smooth": by_roots,
                }
            )
    return {
        "orbits": len(poset.orbits),
        "smooth": smooth,
        "not_rationally_smooth": singular,
        "mismatches": mismatches,
    }
