"""Weak closure order, diamond completion, and graded orbit posets.

The weak order is generated by dimension-raising moves attached to
simple roots.  The full closure order is its completion under one rule:
whenever weak edges O2 -a-> O1 and O4 -a-> O3 carry the same root label,
some cover edge O4 -> O2 exists (labeled or completed), and O3 != O2,
the cover O3 -> O1 must be present; added edges are marked "completed"
(the dashed edges of closure diagrams).  The rule is applied to a
fixpoint; added edges participate again as the O4 -> O2 premise.

Family objects plugged into `build_poset` follow `clanorbits.family.Family`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .clans import Clan, _canonicalize
from .errors import (
    ConsistencyError,
    NotGraded,
    RankTooLarge,
    UnknownOrbit,
)

if TYPE_CHECKING:
    from .family import Family


def _move(sym: tuple, u: int):
    """Raising move on adjacent positions u, u+1 (0-based); tuple or None.

    Swaps the two entries when one of the three raising shapes applies
    (two numbers whose mates come in order; a sign before a number whose
    mate lies further right; a number after its mate followed by a
    sign), and replaces two opposite signs by a fresh pair.
    """
    v = u + 1
    a, b = sym[u], sym[v]
    a_int = isinstance(a, int)
    b_int = isinstance(b, int)
    if a_int and b_int:
        if a == b:
            return None
        ja = kb = -1
        for i, s in enumerate(sym):
            if s == a and i != u:
                ja = i
            elif s == b and i != v:
                kb = i
        if ja < kb:
            out = list(sym)
            out[u], out[v] = b, a
            return tuple(out)
        return None
    if not a_int and b_int:
        for i, s in enumerate(sym):
            if s == b and i != v:
                if i > v:
                    out = list(sym)
                    out[u], out[v] = b, a
                    return tuple(out)
                return None
    if a_int and not b_int:
        for i, s in enumerate(sym):
            if s == a and i != u:
                if i < u:
                    out = list(sym)
                    out[u], out[v] = b, a
                    return tuple(out)
                return None
    if not a_int and not b_int and a != b:
        fresh = 1 + max((s for s in sym if isinstance(s, int)), default=0)
        out = list(sym)
        out[u] = out[v] = fresh
        return tuple(out)
    return None


def simple_move_a(clan: Clan, i: int) -> Clan | None:
    """Raising move at 1-based positions (i, i+1); None when nothing raises."""
    if not 1 <= i < len(clan):
        raise ValueError(f"move position {i} out of range 1..{len(clan) - 1}")
    out = _move(clan.symbols, i - 1)
    return Clan(_canonicalize(out)) if out is not None else None


def _swap(sym: tuple, u: int, v: int) -> tuple:
    out = list(sym)
    out[u], out[v] = out[v], out[u]
    return tuple(out)


def lifted_double_move(sym: tuple, u: int, v: int):
    """Apply `_move` at u, then at v on the intermediate string.

    The two positions come from the same family root, so they must
    succeed or fail together when each is tested on the original string;
    anything else is a broken rule.  The composite may still come up
    empty when the second move dies on the intermediate string (the
    orbit was already dense in the relevant fiber).
    """
    first = _move(sym, u)
    mirror_on_original = _move(sym, v) is not None
    if first is None:
        if mirror_on_original:
            raise ConsistencyError(
                f"mirrored moves disagree on {sym}: position {v + 1} raises alone"
            )
        return None
    if not mirror_on_original:
        raise ConsistencyError(
            f"mirrored moves disagree on {sym}: position {u + 1} raises alone"
        )
    return _move(first, v)


def raising_moves_oracle(clan: Clan) -> set[Clan]:
    """Every clan reachable by one of the three order-raising operations:
    turn two opposite signs into a pair; move a number past a sign, away
    from its mate and on the same side; swap two numbers of different
    pairs whose mates come in the same order.

    Cross-check oracle for the completed order: each move lands strictly
    higher.  The moves do not generate the order (none creates signs,
    while completion places sign-free clans below signed ones), so only
    the soundness direction holds.
    """
    sym = clan.symbols
    mates = clan.mates
    n = len(sym)
    out: set[Clan] = set()
    fresh = 1 + max((s for s in sym if isinstance(s, int)), default=0)
    for i in range(n):
        a = sym[i]
        for j in range(i + 1, n):
            b = sym[j]
            a_int = isinstance(a, int)
            b_int = isinstance(b, int)
            if not a_int and not b_int:
                if a != b:
                    lifted = list(sym)
                    lifted[i] = lifted[j] = fresh
                    out.add(Clan(_canonicalize(lifted)))
            elif a_int and b_int:
                if a != b and mates[i] < mates[j]:
                    out.add(Clan(_canonicalize(_swap(sym, i, j))))
            elif a_int:  # number then sign: number moves right, mate must sit left
                if mates[i] < i:
                    out.add(Clan(_canonicalize(_swap(sym, i, j))))
            else:  # sign then number: number moves left, mate must sit right
                if mates[j] > j:
                    out.add(Clan(_canonicalize(_swap(sym, i, j))))
    return out


class OrbitPoset:
    """Graded orbit poset with labeled covers and bitset reachability.

    Covers are triples ``(lo, hi, root)`` of orbit ids; ``root`` is the
    1-based simple-root label of a weak-order edge or ``None`` for an
    edge added by completion.  ``members[i]`` lists the clans fused into
    node i (a single clan except on isogeny-quotient posets).
    """

    def __init__(self, meta: dict, orbits: Sequence[Clan], dims: Sequence[int],
                 covers: Iterable[tuple], members=None):
        self.meta = dict(meta)
        self.orbits = list(orbits)
        self.dims = list(dims)
        self.covers = sorted(
            covers, key=lambda e: (e[0], e[1], e[2] is None, e[2] or 0)
        )
        self.members = [tuple(m) for m in members] if members is not None \
            else [(c,) for c in self.orbits]
        self.member_index = {
            m: i for i, ms in enumerate(self.members) for m in ms
        }
        n = len(self.orbits)
        incoming: list[list[int]] = [[] for _ in range(n)]
        outgoing = [0] * n
        for lo, hi, _ in self.covers:
            incoming[hi].append(lo)
            outgoing[lo] += 1
        down = [0] * n
        for v in sorted(range(n), key=lambda i: self.dims[i]):
            d = 1 << v
            for u in incoming[v]:
                d |= down[u]
            down[v] = d
        self.down = down
        self._minima = [i for i in range(n) if not incoming[i]]
        self._maxima = [i for i in range(n) if not outgoing[i]]

    def __len__(self) -> int:
        return len(self.orbits)

    def id_of(self, clan: Clan) -> int:
        try:
            return self.member_index[clan]
        except KeyError:
            raise UnknownOrbit(f"{clan} is not an orbit of this poset") from None

    def le_ids(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    def le(self, a: Clan, b: Clan) -> bool:
        """Closure containment: the orbit of `a` lies in the closure of `b`."""
        return self.le_ids(self.id_of(a), self.id_of(b))

    def dim_of(self, clan: Clan) -> int:
        return self.dims[self.id_of(clan)]

    def minima(self) -> list[Clan]:
        return [self.orbits[i] for i in self._minima]

    def open_orbit(self) -> Clan:
        if len(self._maxima) != 1:
            raise ConsistencyError(f"poset has {len(self._maxima)} maximal orbits")
        return self.orbits[self._maxima[0]]

    def closed_below(self, clan: Clan) -> list[Clan]:
        j = self.id_of(clan)
        return [self.orbits[i] for i in self._minima if self.le_ids(i, j)]

    def completed_covers(self) -> list[tuple]:
        return [e for e in self.covers if e[2] is None]

    def validate(self) -> None:
        for lo, hi, _ in self.covers:
            if self.dims[hi] != self.dims[lo] + 1:
                raise NotGraded(
                    f"cover {self.orbits[lo]} -> {self.orbits[hi]} jumps "
                    f"{self.dims[lo]} -> {self.dims[hi]}"
                )
        if len(self.orbits) > 1 and len(self._maxima) != 1:
            raise ConsistencyError(f"{len(self._maxima)} maximal orbits, expected 1")
        if self.orbits:
            top = self._maxima[0]
            full = (1 << len(self.orbits)) - 1
            if self.down[top] != full:
                raise ConsistencyError("poset is not connected below its maximum")
        for i in self._minima:
            for clan in self.members[i]:
                if not clan.is_all_signs():
                    raise ConsistencyError(f"minimal orbit {clan} is not an all-sign clan")


def weak_order_graph(family: Family, max_orbits: int | None = None):
    """Upward move-closure of the family's closed orbits.

    Returns (dims, edges): a dict clan -> dimension and the list of
    labeled weak edges.  Verifies the harvested orbit set against the
    family's own enumeration and the +1 grading of every edge.  The
    closed-form count, taken before the walk, meets the enumeration's
    length cap and `max_orbits`, so oversized input fails at once.
    """
    total = family.count()
    if max_orbits is not None and total > max_orbits:
        raise RankTooLarge(f"{total} orbits exceed the cap of {max_orbits}")
    dims: dict[Clan, int] = {}
    for c in family.closed_clans():
        dims[c] = family.dimension(c)
    edges: list[tuple[Clan, Clan, int]] = []
    frontier = list(dims)
    while frontier:
        nxt = []
        for clan in frontier:
            base = dims[clan]
            for root in family.root_indices():
                raised = family.raise_by(clan, root)
                if raised is None:
                    continue
                edges.append((clan, raised, root))
                if raised not in dims:
                    dims[raised] = family.dimension(raised)
                    nxt.append(raised)
                if dims[raised] != base + 1:
                    raise NotGraded(f"{clan} -{root}-> {raised} is not a +1 edge")
        frontier = nxt
    expected = set(family.enumerate())
    if set(dims) != expected:
        missing = expected - set(dims)
        extra = set(dims) - expected
        raise ConsistencyError(
            f"move closure disagrees with enumeration: "
            f"{len(missing)} missing, {len(extra)} extra"
        )
    return dims, edges


def complete_closure(dims_by_id: Sequence[int], n_orbits: int,
                     weak_edges: Iterable[tuple[int, int, int]]) -> list[tuple]:
    """Close the weak edge set under the diamond rule; id-level covers."""
    weak_up: list[dict[int, int]] = [{} for _ in range(n_orbits)]
    triples: list[tuple] = []
    pairs: set[tuple[int, int]] = set()
    for lo, hi, root in weak_edges:
        weak_up[lo][root] = hi
        triples.append((lo, hi, root))
        pairs.add((lo, hi))
    work = deque(pairs)
    while work:
        u, v = work.popleft()
        up_v = weak_up[v]
        up_u = weak_up[u]
        if not up_v or not up_u:
            continue
        for root, w in up_v.items():
            x = up_u.get(root)
            if x is not None and x != v and (x, w) not in pairs:
                if dims_by_id[x] + 1 != dims_by_id[w]:
                    raise NotGraded("completion produced a non-grading edge")
                pairs.add((x, w))
                triples.append((x, w, None))
                work.append((x, w))
    return triples


def build_poset(family: Family, max_orbits: int | None = None) -> OrbitPoset:
    """Weak order graph, completed and wrapped with reachability."""
    dims, weak = weak_order_graph(family, max_orbits)
    order = sorted(dims, key=lambda c: (dims[c], str(c)))
    idx = {c: i for i, c in enumerate(order)}
    dim_list = [dims[c] for c in order]
    weak_ids = [(idx[a], idx[b], r) for a, b, r in weak]
    covers = complete_closure(dim_list, len(order), weak_ids)
    poset = OrbitPoset(family.meta(), order, dim_list, covers)
    poset.validate()
    if order and poset.open_orbit() != family.open_clan():
        raise ConsistencyError(
            f"poset maximum {poset.open_orbit()} differs from the expected "
            f"open orbit {family.open_clan()}"
        )
    if set(poset.minima()) != set(family.closed_clans()):
        raise ConsistencyError("poset minima differ from the closed orbits")
    return poset


def quotient_poset(poset: OrbitPoset, fold: Callable[[Clan], Clan] | None,
                   level: str) -> OrbitPoset:
    """Fold a poset by an order-preserving involution on its orbits; with
    no fold (`Family.isogeny_fold` found nothing to fold) the poset itself."""
    if fold is None:
        return poset
    rep: dict[Clan, Clan] = {}
    for c in poset.orbits:
        image = fold(c)
        if image not in poset.member_index:
            raise ConsistencyError(f"fold image {image} left the orbit set")
        if poset.dim_of(image) != poset.dim_of(c):
            raise ConsistencyError("fold does not preserve dimension")
        rep[c] = min(c, image)
    members: dict[Clan, set[Clan]] = {}
    for c, r in rep.items():
        members.setdefault(r, set()).add(c)
    reps = sorted(members, key=lambda c: (poset.dim_of(c), str(c)))
    dims = [poset.dim_of(r) for r in reps]
    covers = {
        (rep[poset.orbits[lo]], rep[poset.orbits[hi]], root)
        for lo, hi, root in poset.covers
    }
    ridx = {r: i for i, r in enumerate(reps)}
    cover_ids = [(ridx[a], ridx[b], root) for a, b, root in covers]
    meta = dict(poset.meta)
    meta["level"] = level
    folded = OrbitPoset(meta, reps, dims,
                        cover_ids, [sorted(members[r]) for r in reps])
    folded.validate()
    return folded
