"""Versioned JSON cache for computed orbit posets.

The on-disk schema is {version, family, p/q or n, convention, orbits,
dims, covers}; orbits are canonical clan strings and covers carry their
1-based root label or null for completion edges.  Loading validates the
schema and the poset (cover ids, root labels among the family's simple
roots, one cover per pair unless the labels differ, grading, one open
orbit, all-sign minima); it builds no reachability, which the poset
computes when a query first needs it (the full down-sets at the first
`le`).  `load_or_build` checks that the file holds the requested
family; a failed check raises rather than returning a bad poset.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Container

from .clans import parse_clan
from .closure import OrbitPoset, build_poset
from .errors import CorruptCache, RankTooLarge, VersionMismatch
from .family import Family

CACHE_VERSION = 1


def poset_to_dict(poset: OrbitPoset) -> dict:
    return {
        "version": CACHE_VERSION,
        **poset.meta,
        "orbits": [str(c) for c in poset.orbits],
        "dims": list(poset.dims),
        "covers": [{"lo": lo, "hi": hi, "root": root} for lo, hi, root in poset.covers],
    }


def poset_from_dict(data: dict, roots: Container[int] | None = None) -> OrbitPoset:
    """The poset a cache dict holds, validated; with `roots`, the simple
    roots of the family, a cover labelled by any other root is refused."""
    version = data.get("version")
    if version != CACHE_VERSION:
        raise VersionMismatch(f"cache version {version}, expected {CACHE_VERSION}")
    try:
        orbits = [parse_clan(s) for s in data["orbits"]]
        dims = [int(d) for d in data["dims"]]
        covers = [(e["lo"], e["hi"], e["root"]) for e in data["covers"]]
        meta = {
            k: v
            for k, v in data.items()
            if k not in ("version", "orbits", "dims", "covers")
        }
        if len(orbits) != len(set(orbits)) or len(orbits) != len(dims):
            raise ValueError("orbit list malformed")
        poset = OrbitPoset(meta, orbits, dims, covers)
        poset.validate(roots)
    except VersionMismatch:
        raise
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
    """Write through a temp file in the same directory and rename it into
    place, so a concurrent reader sees the old file or the new, never part."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(poset_to_dict(poset), sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_poset(path: str | Path, roots: Container[int] | None = None) -> OrbitPoset:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptCache(f"unreadable cache file {path}: {exc}") from exc
    return poset_from_dict(data, roots)


def load_or_build(family: Family, cache_dir: str | Path | None,
                  max_orbits: int | None = None) -> OrbitPoset:
    """Fetch the family's poset from the cache directory, building and
    storing it on a miss.  A cached poset of another family, or one with a
    cover labelled by a root that is not a simple root of the family, is a
    `CorruptCache`.  A build stops once it passes `max_orbits`; a cached
    poset over the cap is refused."""
    if cache_dir is None:
        return build_poset(family, max_orbits)
    path = Path(cache_dir) / cache_key(family.meta())
    if path.exists():
        poset = load_poset(path, family.root_indices())
        if poset.meta != family.meta():
            raise CorruptCache(f"{path} holds the poset of {poset.meta}, not {family.meta()}")
        if max_orbits is not None and len(poset) > max_orbits:
            raise RankTooLarge(f"{len(poset)} orbits exceed the cap of {max_orbits}")
        return poset
    poset = build_poset(family, max_orbits)
    save_poset(poset, path)
    return poset
