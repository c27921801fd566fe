"""Clan transforms the tests build expectations with: reversal,
reversal with every sign flipped, juxtaposition, the mate list, every
mirror clan of a rank, and the type-A move at a 1-based position.
The package builds its mirror clans with `clans.mirror_double`, cuts
them with `clans.block`, reads mates off `Clan.code` and moves codes
with `closure._move`, so it needs none of these.

Two oracles of the closure build keep its earlier, plainer forms: the
weak-order walk through the checked `Family.raise_by`, one `Clan` per
move, keyed by clan and unnumbered (the package numbers each dimension
layer by text when it closes), and `queue_closure`, the one oracle of the closure order: the
diamond rule run to a fixpoint, popping every cover from a queue,
visiting every root of its upper end and keeping a global set of pairs.
The package reads the same order off one weak edge per node.
`quotient_by_clans` keeps the clan-keyed isogeny quotient: a
representative per clan, member sets and a set of clan covers, renumbered
by a dict.  The package folds on orbit ids.
The clan parser keeps its earlier form too: every token checked and
converted in turn, then paired through `Clan.from_symbols`, and so does
the length statistic: each pair's span, less the pairs found by a scan
of its interior to have started before it (`clans.length_stat` takes
the spans minus the crossings in one pass).
Three readers only the tests ask for: the type-D outer twist `tau`, an
orbit's dimension `dim_of` and a poset's `completed_covers`."""

from __future__ import annotations

from collections import deque

from clanorbits import Clan, enumerate_clans, negate
from clanorbits.clans import MINUS, PLUS, _check_length, mirror_doubles
from clanorbits.closure import Covers, OrbitPoset, _move, _swap
from clanorbits.errors import ConsistencyError, MalformedToken, NotGraded


def reverse_rename(clan: Clan) -> Clan:
    """Reverse the position order; pair ids renumber canonically."""
    last = len(clan) - 1
    return Clan(tuple(last - m if isinstance(m, int) else m for m in clan.code[::-1]))


def reverse_negate_rename(clan: Clan) -> Clan:
    return negate(reverse_rename(clan))


def concat(*clans: Clan) -> Clan:
    """Juxtapose: each clan's mate positions shift by the length before it."""
    code: list = []
    for c in clans:
        offset = len(code)
        code.extend(m + offset if isinstance(m, int) else m for m in c.code)
    return Clan(tuple(code))


def mate_list(clan: Clan) -> tuple:
    """mates[i] is the position paired with i, or -1 at a sign."""
    return tuple(m if isinstance(m, int) else -1 for m in clan.code)


def mirror_clans(n: int, opposite: bool) -> list[Clan]:
    """All clans of length 2n equal to their own mirror image: the
    `mirror_double` of every clan of length n under every choice of
    crossing flags, each once.  Signatures are mixed: the families keep
    their own."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    _check_length(2 * n)
    halves = (half for p in range(n, -1, -1) for half in enumerate_clans(p, n - p))
    return mirror_doubles(halves, opposite)


def tau(family, clan: Clan) -> Clan:
    """The outer twist of a type-D family: flip every sign, after the
    middle swap when the rank is odd.  The first half holds n entries, and
    the pair ends among them come two at a time (a closed pair, or a
    crossing pair with its mirror), so its signs number n mod 2 and the
    flip moves the half parity by n.  The middle swap moves it by exactly
    one (a sign changes, or a pair turns from closed to crossing or back),
    so the image keeps the parity class at either rank."""
    family._check(clan)
    n = family.n
    return negate(Clan(_swap(clan.code, n - 1, n)) if n % 2 else clan)


def dim_of(poset: OrbitPoset, clan: Clan) -> int:
    return poset.dims[poset.id_of(clan)]


def completed_covers(poset: OrbitPoset) -> list[tuple]:
    """The covers completion added to the weak edges: root None."""
    return [e for e in poset.covers if e[2] is None]


def simple_move_a(clan: Clan, i: int) -> Clan | None:
    """Raising move at 1-based positions (i, i+1); None when nothing raises."""
    if not 1 <= i < len(clan.code):
        raise ValueError(f"move position {i} out of range 1..{len(clan) - 1}")
    out = _move(clan.code, i - 1)
    return None if out is None else Clan(out)


def raise_by_walk(family) -> tuple[dict, list]:
    """The orbits, dimensions and weak edges of `closure.weak_order_graph`
    keyed by clan: a dict clan -> dimension and (Clan, Clan, root) edges,
    by a breadth-first walk that raises each orbit through `raise_by` and
    checks each new orbit's dimension with the family's checked
    `dimension`.  The package's walk numbers each dimension layer by text
    when it closes and gives id triples; read back through its orbit
    list, they are these edges in this order."""
    dims = {c: family.dimension(c) for c in family.closed_clans()}
    edges = []
    frontier = list(dims)
    while frontier:
        nxt = []
        for clan in frontier:
            for root in family.root_indices():
                raised = family.raise_by(clan, root)
                if raised is None:
                    continue
                if raised not in dims:
                    dims[raised] = family.dimension(raised)
                    nxt.append(raised)
                edges.append((clan, raised, root))
        frontier = nxt
    return dims, edges


def queue_closure(dims_by_id, weak_edges) -> list[tuple]:
    """The covers of `closure.complete_closure` by the diamond rule: a
    queue of covers, each popped one tried against every root of its
    upper end, until no cover is new."""
    weak_up = [{} for _ in dims_by_id]
    triples = []
    pairs = set()
    for lo, hi, root in weak_edges:
        weak_up[lo][root] = hi
        triples.append((lo, hi, root))
        pairs.add((lo, hi))
    work = deque(pairs)
    while work:
        u, v = work.popleft()
        for root, w in weak_up[v].items():
            x = weak_up[u].get(root)
            if x is not None and x != v and (x, w) not in pairs:
                if dims_by_id[x] + 1 != dims_by_id[w]:
                    raise NotGraded("completion produced a non-grading edge")
                pairs.add((x, w))
                triples.append((x, w, None))
                work.append((x, w))
    return triples


def quotient_by_clans(poset: OrbitPoset, fold, level: str) -> OrbitPoset:
    """The poset of `closure.quotient_poset`: each orbit's class named by
    the lesser of it and its image, classes sorted by (dim, text), and the
    covers folded as clan triples into a set before they are renumbered."""
    if fold is None:
        return poset
    rep: dict[Clan, Clan] = {}
    for c in poset.orbits:
        image = fold(c)
        if image.code not in poset.member_index:
            raise ConsistencyError(f"fold image {image} left the orbit set")
        if dim_of(poset, image) != dim_of(poset, c):
            raise ConsistencyError("fold does not preserve dimension")
        rep[c] = min(c, image)
    members: dict[Clan, set[Clan]] = {}
    for c, r in rep.items():
        members.setdefault(r, set()).add(c)
    reps = sorted(members, key=lambda c: (dim_of(poset, c), str(c)))
    dims = [dim_of(poset, r) for r in reps]
    covers = {
        (rep[poset.orbits[lo]], rep[poset.orbits[hi]], root)
        for lo, hi, root in poset.covers
    }
    ridx = {r: i for i, r in enumerate(reps)}
    cover_ids = [(ridx[a], ridx[b], root) for a, b, root in covers]
    meta = dict(poset.meta)
    meta["level"] = level
    folded = OrbitPoset(meta, reps, dims,
                        Covers.of(cover_ids), [sorted(members[r]) for r in reps])
    folded.validate()
    return folded


def parse_clan_by_symbols(text: str) -> Clan:
    """The clan `clans.parse_clan` reads from `text`: each stripped token
    checked in position order and converted to a sign or an int, then
    the symbols paired by `Clan.from_symbols`."""
    text = text.strip()
    if "," in text:
        tokens = [t.strip() for t in text.split(",")]
    else:
        tokens = list(text)
    symbols = []
    for tok in tokens:
        if tok == PLUS or tok == MINUS:
            symbols.append(tok)
        elif tok.isdigit() and tok != "0" and not tok.startswith("0"):
            symbols.append(int(tok))
        elif tok == "":
            raise MalformedToken("empty clan token")
        else:
            raise MalformedToken(f"bad clan token {tok!r}")
    return Clan.from_symbols(symbols)


def length_stat_by_interiors(clan: Clan) -> int:
    """`clans.length_stat` in O(n^2): sum over pairs (i, j) of (j - i)
    minus the pairs started before i and finished strictly inside (i, j),
    read by scanning each pair's interior."""
    code = clan.code
    total = 0
    for i, j in enumerate(code):
        if isinstance(j, int) and j > i:
            total += j - i
            for s in code[i + 1 : j]:
                if isinstance(s, int) and s < i:  # its pair started before i
                    total -= 1
    return total
