"""Weak closure order, its completion, and graded orbit posets.

The weak order is generated by dimension-raising moves attached to
simple roots.  The full closure order follows from it by one identity
(Richardson and Springer 1990): if root s raises u to v, the lower
covers of v are the nodes s raises to v and the nodes s raises the lower
covers of u to.  Covers that the identity adds to the weak edges are
marked "completed" (the dashed edges of closure diagrams).  The weak-order
walk checks and numbers the orbits, one dimension layer at a time, by
text; `build_poset` marks its poset `walked_by` the family.  Covers are
held as `Covers`, int columns.

Family objects plugged into `build_poset` follow `clanorbits.family.Family`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress, islice
from operator import eq, lt
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Sequence

from .clans import Clan
from .errors import ConsistencyError, NotGraded, RankTooLarge, UnknownOrbit

if TYPE_CHECKING:
    from .family import Family

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits to the bytes 0 and 1
MAX_ORBITS = 100_000  # the default orbit cap of every build and load, library and CLI alike


def check_cap(total: int, max_orbits: int) -> None:
    """Refuse `total` orbits over the cap of `max_orbits`."""
    if total > max_orbits:
        raise RankTooLarge(f"{total} orbits exceed the cap of {max_orbits}")


def _swap(code: tuple, u: int, v: int) -> tuple:
    """The code of the clan with the entries at positions u and v
    exchanged: the mates that pointed at u and v follow them, so 2 to 4
    slots change."""
    a, b = code[u], code[v]
    if a == v:  # u and v are mates: the clan does not change
        return code
    out = list(code)
    out[u], out[v] = b, a
    if isinstance(a, int):
        out[a] = v
    if isinstance(b, int):
        out[b] = u
    return tuple(out)


def _raises(code: tuple, u: int) -> bool:
    """Whether the entries at adjacent positions u, u+1 (0-based) of a
    clan code take one of the three raising swap shapes (two pair ends
    whose mates come in order; a sign before a pair end whose mate lies
    further right; a pair end after its mate followed by a sign) or are
    two opposite signs: whether `_move` moves, without the move."""
    a, b = code[u], code[u + 1]
    if isinstance(a, int):
        return a < b if isinstance(b, int) else a < u
    return b > u + 1 if isinstance(b, int) else a != b


def _move(code: tuple, u: int):
    """Raising move on adjacent positions u, u+1 (0-based) of a clan
    code; the moved code, or None: where `_raises`, the two entries are
    swapped, or two opposite signs replaced by a pair."""
    if not _raises(code, u):
        return None
    v = u + 1
    if isinstance(code[u], int) or isinstance(code[v], int):
        return _swap(code, u, v)
    out = list(code)
    out[u], out[v] = v, u
    return tuple(out)


def lifted_double_move(code: tuple, u: int, v: int):
    """Apply `_move` at u, then at v on the intermediate code.

    The two positions come from the same family root, so they must
    succeed or fail together on the original code (`_raises` tests v);
    anything else is a broken rule.  The composite may still come up
    empty when the second move dies on the intermediate code (the
    orbit was already dense in the relevant fiber).
    """
    first = _move(code, u)
    if (first is None) == _raises(code, v):
        alone = v if first is None else u
        raise ConsistencyError(
            f"mirrored moves disagree on {Clan(code)}: position {alone + 1} raises alone")
    return None if first is None else _move(first, v)


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
    code = clan.code
    n = len(code)
    out: set[Clan] = set()
    for i in range(n):
        a = code[i]
        for j in range(i + 1, n):
            b = code[j]
            a_int = isinstance(a, int)
            b_int = isinstance(b, int)
            if not a_int and not b_int:
                if a != b:
                    lifted = list(code)
                    lifted[i], lifted[j] = j, i
                    out.add(Clan(tuple(lifted)))
            elif a_int and b_int:
                if a != j and a < b:
                    out.add(Clan(_swap(code, i, j)))
            elif a_int:  # number then sign: number moves right, mate must sit left
                if a < i:
                    out.add(Clan(_swap(code, i, j)))
            else:  # sign then number: number moves left, mate must sit right
                if b > j:
                    out.add(Clan(_swap(code, i, j)))
    return out


class Covers:
    """Labeled covers as three columns of one length: orbit ids `lo` and
    `hi` as `array('i')`, 4 bytes each, and `root`, the 1-based simple-root
    label of a weak-order edge or None for an edge added by completion.
    Iterating is a lazy view of the (lo, hi, root) triples; covers are
    equal when their columns are."""

    __slots__ = ("lo", "hi", "root")

    def __init__(self, lo=(), hi=(), root=()):
        self.lo, self.hi, self.root = array("i", lo), array("i", hi), list(root)
        if not len(self.lo) == len(self.hi) == len(self.root):
            raise ConsistencyError("the cover columns differ in length")

    @classmethod
    def of(cls, triples: Iterable[tuple]) -> Covers:
        """The covers of (lo, hi, root) triples, in canonical order: by
        (lo, hi), a pair's labelled roots ascending.  A repeated cover, or
        a None beside a label on one pair, is refused."""
        try:
            rows = sorted(triples)
        except TypeError as exc:  # None beside a label does not compare
            raise ConsistencyError(f"covers do not sort: {exc}") from None
        if any(map(eq, rows, islice(rows, 1, None))):
            last, cover = next((a, b) for a, b in zip(rows, rows[1:]) if a == b)
            raise ConsistencyError(f"cover {cover} repeats the pair of {last}")
        return cls(*zip(*rows))

    def in_order(self) -> bool:
        """Whether these covers are strictly in canonical order, with one
        comparison per cover."""
        try:
            return all(map(lt, self, islice(self, 1, None)))
        except TypeError:  # None beside a label
            return False

    def __len__(self) -> int:
        return len(self.root)

    def __iter__(self):
        return zip(self.lo, self.hi, self.root)

    def __eq__(self, other) -> bool:
        return isinstance(other, Covers) and (self.lo, self.hi, self.root) == (
            other.lo, other.hi, other.root)


class OrbitPoset:
    """Graded orbit poset with labeled covers; reachability by one upward
    pass over the covers, sized to what is asked.

    `covers` holds them as `Covers` in strict canonical order.  Covers
    given in that order, as `complete_closure` gives them and a saved file
    lists them, are kept after one comparison per cover; others are sorted
    by `Covers.of`.
    ``members[i]`` lists the clans fused into node i (a single clan
    except on isogeny-quotient posets).  Ids rise with dimension:
    `weak_order_graph` numbers each dimension layer by text when the layer
    closes, `quotient_poset` numbers classes by (dimension, text),
    `validate` checks it, and `down_over`, `complete_closure` and
    `cli.poset_dot` walk ids instead of sorting.

    `member_index` maps the code tuple of every member to its node id,
    so a lookup hashes in C.

    `down_over(ids)` gives each node its down-set restricted to `ids`.
    The full down-sets, Θ(N²) bits, are the one structure behind every
    per-orbit query, kept as byte rows that `row`, their one builder,
    makes at the first query: row j holds bit i of j's down-set in bit
    i & 7 of byte i >> 3, up to bit j (j // 8 + 1 bytes, as ids rise with
    dimension), so `le` reads one byte in O(1), `closed_below` a row's
    prefix, and `down` the rows as ints, lazily.  The trade-off: a first
    `closed_below` pays N²/16 bytes (122 MiB at A(5,5)) where N bits per
    closed node would do.  The minima and maxima are the ids missing from
    the hi and the lo column.
    """

    walked_by: Family | None = None  # whose walk checked every member: `build_poset` sets it

    def __init__(self, meta: dict, orbits: Sequence[Clan], dims: Sequence[int],
                 covers: Covers, members=None):
        self.meta = dict(meta)
        self.orbits = list(orbits)
        self.dims = list(dims)
        self.covers = covers = covers if covers.in_order() else Covers.of(covers)
        self.members = [tuple(m) for m in members] if members is not None \
            else [(c,) for c in self.orbits]
        self.member_index = {
            m.code: i for i, ms in enumerate(self.members) for m in ms
        }
        lows, highs = set(covers.lo), set(covers.hi)
        self._minima = [i for i in range(len(self.orbits)) if i not in highs]
        self._maxima = [i for i in range(len(self.orbits)) if i not in lows]
        self._closed_mask = sum(1 << i for i in self._minima)
        self._closed_bytes = self._minima[-1] // 8 + 1 if self._minima else 0
        self._down: list[bytes] | None = None

    def down_over(self, ids: Sequence[int]) -> list[int]:
        """Per node v, its down-set over `ids`: bit k is set when node
        ids[k] lies below v (or is v).  One pass over the covers, each
        pushing its lower end's set into its upper end's; exact because a
        cover into lo starts at a lower id (ids rise with dimension), so in
        lo order it comes first."""
        masks = [0] * len(self.orbits)
        for k, v in enumerate(ids):
            masks[v] = 1 << k
        for lo, hi in zip(self.covers.lo, self.covers.hi):
            masks[hi] |= masks[lo]
        return masks

    def row(self, j: int) -> bytes:
        """Row j of the full down-sets: bit i & 7 of byte i >> 3 is set
        when i <= j; there are no bytes past bit j.  The rows' one builder: the
        first call pushes them all and converts them in place, one int at a time."""
        try:
            return self._down[j]
        except TypeError:  # `_down` is None before the first query
            if self._down is not None:
                raise  # j is no index: the built rows stay
            rows = self.down_over(range(len(self.orbits)))
            for k, mask in enumerate(rows):
                rows[k] = mask.to_bytes(k // 8 + 1, "little")
            self._down = rows
            return rows[j]

    @property
    def down(self) -> Iterator[int]:
        """The full down-sets as ints, lazily, no list: bit i of the j-th is set when i <= j."""
        return (int.from_bytes(self.row(j), "little") for j in range(len(self.orbits)))

    def __len__(self) -> int:
        return len(self.orbits)

    def id_of(self, clan: Clan) -> int:
        try:
            return self.member_index[clan.code]
        except (KeyError, AttributeError):  # not one of these clans, or not a clan
            raise UnknownOrbit(f"{clan} is not an orbit of this poset") from None

    def le_ids(self, i: int, j: int) -> bool:
        """Whether id i lies below id j, by one byte of row j; an id that
        is not an int in range(N) is refused (True is no id 1).  A lower
        id never lies above a higher one, and i <= j keeps the read inside
        the row."""
        n = len(self.orbits)
        if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
            raise UnknownOrbit(f"({i!r}, {j!r}) are not both orbit ids of this poset")
        return i <= j and self.row(j)[i >> 3] >> (i & 7) & 1 == 1

    def le(self, a: Clan, b: Clan) -> bool:
        """Closure containment: the orbit of `a` lies in the closure of `b`.
        The hot query, in one frame: two lookups of code tuples, hashed in
        C, and the byte read of `le_ids` on a plain attribute, with no test
        once the rows exist (a try block costs nothing), else `le_ids`."""
        index = self.member_index
        try:
            i, j = index[a.code], index[b.code]
        except (KeyError, AttributeError):
            i, j = self.id_of(a), self.id_of(b)  # raises UnknownOrbit
        try:
            return i <= j and self._down[j][i >> 3] >> (i & 7) & 1 == 1
        except TypeError:  # `_down` is None before the first query
            return self.le_ids(i, j)

    def minima(self) -> list[Clan]:
        return [self.orbits[i] for i in self._minima]

    def open_orbit(self) -> Clan:
        if len(self._maxima) != 1:
            raise ConsistencyError(f"poset has {len(self._maxima)} maximal orbits")
        return self.orbits[self._maxima[0]]

    def closed_below(self, clan: Clan) -> list[Clan]:
        """The closed orbits below `clan`, lowest id first: its row up to
        the byte of the highest closed id, masked to the closed ids."""
        prefix = self.row(self.id_of(clan))[:self._closed_bytes]
        mask = int.from_bytes(prefix, "little") & self._closed_mask
        # the mask read once, as its binary digits lowest first, each made a
        # 0 or 1 byte for `compress`: no shift of the mask per closed node
        return list(compress(self.orbits, bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))

    def validate(self, roots: Container[int] | None = None) -> None:
        """Check the covers, the grading, the id order and the extremes.
        A cover joins two orbit ids; its root is None or a positive int, one
        of `roots` when they are given.  Each check reads whole columns; a
        failed one then names the first cover with a bad id or root, else
        the first off the grading."""
        dims, n = self.dims, len(self.orbits)
        lo, hi, root = self.covers.lo, self.covers.hi, self.covers.root
        labels = {int, type(None)}.issuperset(map(type, root)) and set(root) - {None}
        ok = labels is not False and min(labels, default=1) > 0 and (
            roots is None or labels <= set(roots)) and dims == sorted(dims) and (
            not lo or 0 <= lo[0] and lo[-1] < n)
        # with ids rising with dimension, the covers out of dimension d are a
        # run of the sorted lo column, and must all end at dimension d + 1
        for d in sorted(set(dims)) if ok else ():
            first, above, last = (bisect_left(dims, e) for e in (d, d + 1, d + 2))
            i, j = bisect_left(lo, first), bisect_left(lo, above)
            ok = i == j or above <= min(hi[i:j]) and max(hi[i:j]) < last
            if not ok:
                break
        if not ok:
            allowed = None if roots is None else frozenset(roots)
            for cover in self.covers:
                a, b, r = cover
                if not (0 <= a < n and 0 <= b < n and (r is None or type(r) is int and r > 0
                                                        and (allowed is None or r in allowed))):
                    raise ConsistencyError(f"cover {cover} has a bad id or a bad root")
            for a, b, _ in self.covers:
                if dims[b] != dims[a] + 1:
                    raise NotGraded(f"cover {self.orbits[a]} -> {self.orbits[b]} jumps "
                                    f"{dims[a]} -> {dims[b]}")
            raise ConsistencyError("ids do not rise with dimension")
        # graded and finite: every node reaches a maximal one by covers,
        # so a single maximum lies above every node
        if n > 1 and len(self._maxima) != 1:
            raise ConsistencyError(f"{len(self._maxima)} maximal orbits, expected 1")
        for i in self._minima:
            for clan in self.members[i]:
                if not clan.is_all_signs():
                    raise ConsistencyError(f"minimal orbit {clan} is not an all-sign clan")


def weak_order_graph(family: Family, max_orbits: int = MAX_ORBITS):
    """Upward move-closure of the family's closed orbits, numbered as it
    goes: (orbits, edges, dims), lists in id order, the weak edges as
    (lo, hi, root) id triples.

    The closed orbits share one dimension and each simple-root raise adds
    one (Richardson and Springer 1990), so the k-th frontier is the layer
    of dimension d_closed + k: walked in the order found, numbered by text
    when it closes, and only the open layer's code table kept.  The raises
    reach every orbit, so members as many as the closed-form `count()` are
    the family, which is never enumerated.  Each fact is checked once: the
    closed orbits through the checked `dimension`; each new orbit by
    `contains`, then its unchecked dimension against its layer's (the codes
    are well formed: `_swap` carries the mates and `tests/test_moves.py`
    pins each move); the total against the count, taken first against the
    length cap and `max_orbits` (the CLI's `MAX_ORBITS` unless a caller
    passes another), so oversized input fails at once.  Codes move by the
    unchecked `_raise`: one `Clan` per orbit.
    """
    check_cap(total := family.count(), max_orbits)
    layer = family.closed_clans()
    closed_dims = {family.dimension(c) for c in layer}
    if len(closed_dims) > 1:
        raise NotGraded(f"closed orbits lie at dimensions {sorted(closed_dims)}")
    dim = max(closed_dims, default=0)
    orbits, edges, dims = [], [], []
    into = []  # the weak edges into `layer`, as (lo id, position in the layer, root)
    roots, dimension, move = family.root_indices(), family._dimension, family._raise
    while layer:
        order = sorted(range(len(layer)), key=[str(c) for c in layer].__getitem__)
        new_id = [0] * len(layer)
        for k, p in enumerate(order, len(orbits)):
            new_id[p] = k
        orbits += [layer[p] for p in order]
        dims += [dim] * len(layer)
        edges += [(lo, new_id[p], root) for lo, p, root in into]
        position, nxt, into = {}, [], []  # the next layer: code -> position, and its orbits
        for clan, lo in zip(layer, new_id):
            code = clan.code
            for root in roots:
                moved = move(code, root)
                if moved is None:
                    continue
                p = position.get(moved)
                if p is None:
                    raised = Clan(moved)
                    if not family.contains(raised):
                        raise ConsistencyError(f"{clan} -{root}-> {raised} leaves the family")
                    if dimension(raised) != dim + 1:
                        raise NotGraded(f"{clan} -{root}-> {raised} is not a +1 edge")
                    p = position[moved] = len(nxt)
                    nxt.append(raised)
                into.append((lo, p, root))
        layer = nxt
        dim += 1
    if len(orbits) != total:
        raise ConsistencyError(f"move closure reaches {len(orbits)} orbits, the count is {total}")
    return orbits, edges, dims


def complete_closure(dims_by_id: Sequence[int],
                     weak_edges: Iterable[tuple[int, int, int]]) -> Covers:
    """The weak edges and the covers completing them (root None), in canonical order.

    If root s raises u to v, the closure of v is the P_s-saturation of the
    closure of u (Richardson and Springer 1990, section 7).  On a graded
    poset: the lower covers of v are the nodes s raises to v, plus m(s)x,
    the node s raises x to, for each lower cover x of u that s raises.
    This holds for every weak edge into v, so any one gives all of v's
    lower covers: its weak lower ends plus those m(s)x.  The nodes are
    visited by id, which rises with dimension, so u's lower covers are
    complete when v reads them.  A weak pair keeps its labels; each
    added cover is checked for the +1 grading.  As v is visited, it is
    listed as an upper end under each of its lower covers, so read off node
    by node the covers come in canonical order, a pair's labels in the
    order of its weak edges.
    """
    lower: list[list[int]] = [[] for _ in dims_by_id]
    lower_roots: list[list[int] | None] = [[] for _ in dims_by_id]  # beside the weak lower ends
    upper: list[list[int | None]] = [[] for _ in dims_by_id]  # upper end, root, upper end, ...
    weak_up: list[dict[int, int]] = [{} for _ in dims_by_id]
    # one weak edge (u, s) into each node; a minimum reads its own (empty) lower covers
    into_lo, into_root = list(range(len(dims_by_id))), [None] * len(dims_by_id)
    for lo, hi, root in weak_edges:
        lower[hi].append(lo)
        lower_roots[hi].append(root)
        weak_up[lo][root] = hi
        into_lo[hi], into_root[hi] = lo, root
    mark = [-1] * len(dims_by_id)  # mark[x] == v once x is a known lower cover of v
    for v, (u, s) in enumerate(zip(into_lo, into_root)):
        lows = lower[v]
        for x, root in zip(lows, lower_roots[v]):
            upper[x] += (v, root)
            mark[x] = v
        lower_roots[v] = None  # read once: freed now, it stays out of the build peak
        for x in lower[u]:
            w = weak_up[x].get(s)
            if w is not None and mark[w] != v:
                if dims_by_id[w] + 1 != dims_by_id[v]:
                    raise NotGraded("completion produced a non-grading edge")
                mark[w] = v
                lows.append(w)
                upper[w] += (v, None)
    del lower, lower_roots, weak_up, into_lo, into_root, mark  # freed before the columns are made
    lo = array("i", [x for x, ups in enumerate(upper) for _ in range(0, len(ups), 2)])
    hi = array("i", list(islice(chain.from_iterable(upper), 0, None, 2)))
    root = list(islice(chain.from_iterable(upper), 1, None, 2))
    del upper
    return Covers(lo, hi, root)


def build_poset(family: Family, max_orbits: int = MAX_ORBITS) -> OrbitPoset:
    """Weak order graph, completed, as a validated poset marked `walked_by` the family."""
    orbits, weak, dims = weak_order_graph(family, max_orbits)
    poset = OrbitPoset(family.meta(), orbits, dims, complete_closure(dims, weak))
    poset.validate()
    if orbits and poset.open_orbit() != family.open_clan():
        raise ConsistencyError(f"poset maximum {poset.open_orbit()} differs from the "
                               f"expected open orbit {family.open_clan()}")
    if set(poset.minima()) != set(family.closed_clans()):
        raise ConsistencyError("poset minima differ from the closed orbits")
    poset.walked_by = family
    return poset


def quotient_poset(poset: OrbitPoset, fold: Callable[[Clan], Clan] | None,
                   level: str) -> OrbitPoset:
    """Fold a poset by an order-preserving involution of its orbits, or
    refuse a fold that leaves them, changes a dimension or is no involution;
    with no fold (`Family.isogeny_fold` found nothing to fold) the poset
    itself.  A class is named by its member with the least text, and the
    classes are numbered by (dimension, text)."""
    if fold is None:
        return poset
    orbits, dims = poset.orbits, poset.dims
    image = [poset.member_index.get(fold(c).code) for c in orbits]
    if None in image:
        raise ConsistencyError(f"fold image {fold(orbits[image.index(None)])} left the orbit set")
    for i, j in enumerate(image):
        if dims[j] != dims[i]:
            raise ConsistencyError("fold does not preserve dimension")
        if image[j] != i:
            raise ConsistencyError("fold is not an involution")
    reps = [i for i, j in enumerate(image) if not orbits[j] < orbits[i]]
    reps.sort(key=lambda i: (dims[i], str(orbits[i])))
    new_id = [0] * len(orbits)
    for k, i in enumerate(reps):
        new_id[i] = new_id[image[i]] = k
    covers = {(new_id[lo], new_id[hi], root) for lo, hi, root in poset.covers}
    folded = OrbitPoset(
        {**poset.meta, "level": level}, [orbits[i] for i in reps], [dims[i] for i in reps],
        Covers.of(covers),
        [poset.members[i] if image[i] == i else poset.members[i] + poset.members[image[i]]
         for i in reps])
    folded.validate()
    folded.walked_by = poset.walked_by  # the members are the walked orbits
    return folded
