"""Rational-smoothness detection by root counting over closed orbits.

For an orbit O and a closed orbit O_cl below it, collect the positive
roots that are noncompact imaginary for O_cl (the only roots whose
raising action moves a closed orbit here, since closed orbits carry a
Cartan fixed pointwise by the defining involution) and whose raised
orbit still lies in the closure of O.  If that count exceeds
dim O - dim O_cl, the closure of O is not rationally smooth.

In these families the test is sharp: an orbit closure is rationally
smooth (equivalently smooth) iff no closed orbit below it violates the
inequality.

Both counts start from one raise loop, `Family.raised`, run once per
closed orbit and family object, and read one table per poset of each
closed node's raised nodes (`raised_nodes`, which checks that each lies
strictly higher).  The explain path reads the byte rows of the full
down-sets, the poset's one per-orbit structure: `closed_below` a row's
prefix, and `springer_report`, also the oracle of the tests, `le_ids`
for the closed node, then one byte of the same row per raised node.
`cross_validate` checks every orbit against the pattern-based
classifiers without them: `raised_masks` folds the raised nodes into
bitmasks over the landmarks (the closed nodes and the nodes their roots
raise them to), so an orbit's count is a popcount against its down-set
over the landmarks (`root_count`).  `rationally_smooth` and
`SpringerReport.to_json` are public API for library callers; the package
calls neither.

Everything here also runs on isogeny-quotient posets: nodes then carry
several clans, the closed node's representative drives the root data,
and containment is read off the quotient order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .clans import Clan
from .closure import OrbitPoset
from .errors import ConsistencyError, NotBelow, UnknownOrbit
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


_TABLES: WeakKeyDictionary = WeakKeyDictionary()  # poset -> (family, {closed id: raised nodes})


def raised_nodes(family: Family, poset: OrbitPoset, cid: int) -> tuple[tuple[Root, int], ...]:
    """(root, node id) for each noncompact root of the closed node `cid`
    and the node it raises `cid` to, which must lie strictly higher:
    mapped once per closed node and kept in the poset's table, which
    another family object refills."""
    owner, table = _TABLES.get(poset, (None, None))
    if owner is not family:
        _TABLES[poset] = family, (table := {})
    if cid in table:
        return table[cid]
    closed, index, dims = poset.orbits[cid], poset.member_index, poset.dims
    out = []
    for root, orbit in family.raised(closed):
        mid = index.get(orbit.code)
        if mid is None:
            raise UnknownOrbit(f"{orbit} is not an orbit of this poset")
        if dims[mid] <= dims[cid]:
            raise ConsistencyError(f"raising root {root} failed to raise {closed}")
        out.append((root, mid))
    table[cid] = out = tuple(out)
    return out


def springer_report(family: Family, poset: OrbitPoset, orbit: Clan,
                    closed: Clan) -> SpringerReport:
    """Count the raising roots of `closed` that stay inside the closure
    of `orbit`; the inequality s_size > dim_gap certifies a singularity.
    A raised node, read off the poset's table, counts when it is no higher
    an id than the orbit and its bit is set in the orbit's byte row."""
    oid = poset.id_of(orbit)
    cid = poset.id_of(closed)
    raised = raised_nodes(family, poset, cid)
    if not poset.le_ids(cid, oid):
        raise NotBelow(f"{closed} does not lie below {orbit}")
    row = poset.row(oid)
    gap = poset.dims[oid] - poset.dims[cid]
    roots = tuple(root for root, mid in raised if mid <= oid and row[mid >> 3] >> (mid & 7) & 1)
    return SpringerReport(orbit, poset.orbits[cid], roots, len(roots), gap, len(roots) > gap)


def rationally_smooth(family: Family, poset: OrbitPoset, orbit: Clan) -> bool:
    """True when no closed orbit below `orbit` violates the inequality."""
    return not any(
        springer_report(family, poset, orbit, cl).violated
        for cl in poset.closed_below(orbit)
    )


def raised_masks(family: Family, poset: OrbitPoset) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Down-sets over the landmarks and, per closed node id, layered
    masks over the landmarks.

    The landmarks are the closed nodes, first and in id order, then the
    nodes their noncompact roots raise them to, read off the poset's
    table; bit k of a mask stands for the k-th landmark.  Bit k of the
    l-th layer (from 1) is set when at least l roots raise the closed
    node to landmark k, so a node counts once per root that reaches it,
    not once in all."""
    raised = {cid: raised_nodes(family, poset, cid) for cid in map(poset.id_of, poset.minima())}
    landmarks = list(raised) + sorted({mid for hits in raised.values() for _, mid in hits})
    position = {v: k for k, v in enumerate(landmarks)}
    masks = {}
    for cid, hits in raised.items():
        counts = Counter(position[mid] for _, mid in hits)
        layers = [0] * max(counts.values(), default=0)
        for k, times in counts.items():
            for layer in range(times):
                layers[layer] |= 1 << k
        masks[cid] = tuple(layers)
    return poset.down_over(landmarks), masks


def root_count(layers: tuple[int, ...], down: int) -> int:
    """The number of roots raising a closed node into a down-set over the
    landmarks: equal to `springer_report(...).s_size` for the orbit
    whose down-set it is."""
    return sum((layer & down).bit_count() for layer in layers)


def cross_validate(family: Family, poset: OrbitPoset) -> dict:
    """Compare the pattern classifier against the root-counting test on
    every orbit.  Mismatches are reported, not raised; the families here
    are expected to produce none."""
    verdicts = family.verdicts(poset)
    downs, masks = raised_masks(family, poset)
    closed = list(masks.items())  # landmark k is the k-th closed node
    closed_bits = (1 << len(closed)) - 1
    dims = poset.dims
    smooth = sum(by_pattern for by_pattern, _ in verdicts)
    mismatches = []
    for orbit, (by_pattern, _), down, dim in zip(poset.orbits, verdicts, downs, dims):
        below = down & closed_bits  # the closed nodes come first: a short int
        by_roots = True
        while below:  # only the closed nodes below the orbit, lowest bit first
            low = below & -below
            cid, layers = closed[low.bit_length() - 1]
            if root_count(layers, down) > dim - dims[cid]:
                by_roots = False
                break
            below ^= low
        if by_pattern != by_roots:
            mismatches.append(
                {
                    "orbit": str(orbit),
                    "pattern_smooth": by_pattern,
                    "springer_smooth": by_roots,
                }
            )
    return {
        "orbits": len(verdicts),
        "smooth": smooth,
        "not_rationally_smooth": len(verdicts) - smooth,
        "mismatches": mismatches,
    }
