"""Versioned JSON cache for computed orbit posets.

The on-disk schema is {version, family, p/q or n, convention, orbits,
dims, covers}: orbits are canonical clan strings, and covers are the
parallel columns {"lo", "hi", "root"}, a root being the 1-based label of
a weak-order edge or null for a completion edge.  `poset_to_dict` is the
one serializer: the file is `json.dumps(poset_to_dict(poset),
sort_keys=True)`, and `poset --format json` prints the same dict.
`CACHE_VERSION` versions what a file means, its schema and the algorithm
that computed its order: bump it when either changes.  A file of another
version is a `VersionMismatch`, not rebuilt silently.  Loading validates
the schema and the poset (`poset_from_dict`) but builds no reachability
and checks no clan's membership: the family's `verdicts` checks every
member of a poset it did not walk.  `load_or_build` checks the version,
the family and the orbit count on the raw dict before it decodes a clan
or a cover; a failed check raises rather than returning a bad poset.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from pathlib import Path
from typing import Container

from .clans import parse_clan
from .closure import Covers, OrbitPoset, build_poset
from .errors import CorruptCache, RankTooLarge, VersionMismatch
from .family import Family

CACHE_VERSION = 2


def poset_to_dict(poset: OrbitPoset) -> dict:
    """The cache dict, its covers as the columns lo, hi and root."""
    covers = poset.covers
    return {
        "version": CACHE_VERSION,
        **poset.meta,
        "orbits": [str(c) for c in poset.orbits],
        "dims": list(poset.dims),
        "covers": {
            "lo": covers.lo.tolist(),
            "hi": covers.hi.tolist(),
            "root": list(covers.root),
        },
    }


def _meta(data, path: str | Path | None = None) -> dict:
    """The meta fields of a cache dict whose version is checked; a file
    of another version is named, with what to do about it."""
    if not isinstance(data, dict):
        raise CorruptCache(f"cache holds a {type(data).__name__}, not an object")
    version = data.get("version")
    if type(version) is not int or version != CACHE_VERSION:
        raise VersionMismatch(f"cache version {version}, expected {CACHE_VERSION}" + (
            "" if path is None else f": delete {path} to rebuild the poset"))
    return {k: v for k, v in data.items() if k not in ("version", "orbits", "dims", "covers")}


def poset_from_dict(data: dict, roots: Container[int] | None = None) -> OrbitPoset:
    """The poset a cache dict holds, validated; with `roots`, the simple
    roots of the family, a cover labelled by any other root is refused."""
    meta = _meta(data)
    try:
        orbits = list(map(parse_clan, data["orbits"]))
        dims = list(data["dims"])
        lo, hi, root = (data["covers"][key] for key in ("lo", "hi", "root"))
        # JSON integers, not bools: `array('i')` would read `true` as 1
        if not {int}.issuperset(map(type, chain(dims, lo, hi))):
            raise ValueError("a dim or a cover id is not an integer")
        covers = Covers(lo, hi, root)
        if len(orbits) != len(dims):
            raise ValueError("orbit list malformed")
        poset = OrbitPoset(meta, orbits, dims, covers)
        if len(poset.member_index) != len(orbits):
            raise ValueError("orbit list repeats a clan")
        poset.validate(roots)
    except Exception as exc:
        raise CorruptCache(f"cache did not validate: {exc}") from exc
    return poset


def cache_key(meta: dict) -> str:
    if meta.get("family") == "d":
        core = f"d-n{meta['n']}-{meta.get('convention', 'paper')}"
    else:
        core = f"{meta['family']}-p{meta['p']}-q{meta['q']}"
    if meta.get("level"):
        core += f"-{meta['level']}"
    return core + ".json"


def save_poset(poset: OrbitPoset, path: str | Path) -> Path:
    """Write `json.dumps(poset_to_dict(poset), sort_keys=True)` through a
    temp file in the same directory and rename it into place, so a
    concurrent reader sees the old file or the new, never part."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(poset_to_dict(poset), sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_poset(path: str | Path, family: Family | None = None,
               max_orbits: int | None = None) -> OrbitPoset:
    """The poset saved at `path`, validated.  With `family`, the file must
    hold that family's poset, its covers labelled by the family's simple
    roots, and `family.count()` orbits, at most `max_orbits`; the meta and
    the orbit count are checked on the raw dict, before a clan is decoded."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise CorruptCache(f"unreadable cache file {path}: {exc}") from exc
    meta = _meta(data, path)
    if family is None:
        return poset_from_dict(data)
    # compared as JSON text, so a `true` or `1.0` in the file is not the family's `1`
    if json.dumps(meta, sort_keys=True) != json.dumps(family.meta(), sort_keys=True):
        raise CorruptCache(f"{path} holds the poset of {meta}, not {family.meta()}")
    orbits = data.get("orbits")
    if isinstance(orbits, list):
        if max_orbits is not None and len(orbits) > max_orbits:
            raise RankTooLarge(f"{len(orbits)} orbits exceed the cap of {max_orbits}")
        if len(orbits) != (total := family.count()):
            raise CorruptCache(f"{path} holds {len(orbits)} orbits, the family has {total}")
    return poset_from_dict(data, family.root_indices())


def load_or_build(family: Family, cache_dir: str | Path | None,
                  max_orbits: int | None = None) -> OrbitPoset:
    """Fetch the family's poset from the cache directory, building and
    storing it on a miss.  A cached poset of another family, or one with a
    cover labelled by a root that is not a simple root of the family, is a
    `CorruptCache`.  A build stops once it passes `max_orbits`; a cached
    poset over the cap is refused before it is decoded."""
    if cache_dir is None:
        return build_poset(family, max_orbits)
    path = Path(cache_dir) / cache_key(family.meta())
    if path.exists():
        return load_poset(path, family, max_orbits)
    poset = build_poset(family, max_orbits)
    save_poset(poset, path)
    return poset
