from __future__ import annotations

import hashlib
import json
import random
import time

import pytest

from clanorbits import FamilyA, FamilyC, FamilyD, build_poset, parse_clan as P
from clanorbits.cache import (
    CACHE_VERSION,
    cache_key,
    load_or_build,
    load_poset,
    poset_from_dict,
    poset_to_dict,
    save_poset,
)
from clanorbits.cli import main
from clanorbits.closure import MAX_ORBITS, quotient_poset
from clanorbits.errors import CorruptCache, RankTooLarge, SignatureMismatch, VersionMismatch
from clanorbits.family import SIGN_FLIP_LEVELS
from clanorbits.family_d import ISOGENY_LEVELS_D


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def cover_rows(data: dict) -> list[tuple]:
    """A cache dict's covers, read off its columns as (lo, hi, root) rows."""
    columns = data["covers"]
    return list(zip(columns["lo"], columns["hi"], columns["root"], strict=True))


def set_cover_rows(data: dict, rows: list[tuple]) -> None:
    """Write (lo, hi, root) rows back into a cache dict as its columns."""
    data["covers"] = {key: [row[k] for row in rows] for k, key in enumerate(("lo", "hi", "root"))}


def test_list_u22(capsys):
    code, out = run(capsys, "list", "--family", "a", "--p", "2", "--q", "2")
    rows = [l for l in out.strip().splitlines()[1:]]
    assert code == 0 and len(rows) == 21


def test_list_sp22_adjoint_json(capsys):
    code, out = run(capsys, "list", "--family", "c", "--p", "2", "--q", "2",
                    "--isogeny", "adjoint", "--format", "json")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 27
    assert sum(1 for r in rows if not r["smooth"]) == 13
    assert all(set(r) >= {"clan", "dim", "closed", "smooth", "fiber_form"} for r in rows)


def test_list_d1(capsys):
    code, out = run(capsys, "list", "--family", "d", "--n", "1")
    assert code == 0 and len(out.strip().splitlines()) == 2


def test_list_is_deterministic(capsys):
    _, first = run(capsys, "list", "--family", "d", "--n", "3")
    _, second = run(capsys, "list", "--family", "d", "--n", "3")
    assert first == second
    clans = [l.split("\t")[0] for l in first.strip().splitlines()[1:]]
    assert clans == sorted(clans)


def test_poset_dot(tmp_path, capsys):
    target = tmp_path / "u22.dot"
    code, _ = run(capsys, "poset", "--family", "a", "--p", "2", "--q", "2",
                  "--dot", str(target))
    text = target.read_text()
    assert code == 0
    assert text.count("shape=box") == 3
    assert text.count("style=dashed") == 6
    assert text.count("->") == 39
    assert "rank=same" in text


def test_verify_figures(capsys):
    code, out = run(capsys, "verify", "figures")
    assert code == 0 and out.count("pass") == 4
    code, out = run(capsys, "verify", "figures", "--fixture", "fig4")
    assert code == 0 and "fig4: pass" in out


def test_verify_counts(capsys):
    code, out = run(capsys, "verify", "counts", "--family", "c", "--p", "2", "--q", "2")
    assert code == 0 and "42 orbits" in out
    code, out = run(capsys, "verify", "counts", "--family", "a", "--p", "2", "--q", "2")
    assert code == 0 and "21" in out


def test_verify_counts_checks_the_closed_form(capsys):
    code, out = run(capsys, "verify", "counts", "--family", "d", "--n", "5")
    assert code == 0 and "156 orbits vs closed form 156; move closure matches" in out
    code, out = run(capsys, "verify", "counts", "--family", "c", "--p", "2", "--q", "1")
    assert code == 0 and "9 orbits vs closed form 9; move closure matches" in out


def test_verify_counts_reports_a_disagreement(monkeypatch, tmp_path, capsys):
    """An enumeration that misses an orbit fails the check with exit 1 and
    a FAIL line, whether the move closure is built or read from a cache."""
    family = ["--family", "c", "--p", "1", "--q", "1"]
    assert main(["verify", "counts", *family, "--cache-dir", str(tmp_path)]) == 0
    full = FamilyC.enumerate
    monkeypatch.setattr(FamilyC, "enumerate", lambda self: full(self)[1:])
    for cache in ([], ["--cache-dir", str(tmp_path)]):
        code, out = run(capsys, "verify", "counts", *family, *cache)
        assert code == 1 and "move closure DIFFERS from the predicate: FAIL" in out


@pytest.mark.parametrize("family, flags", [
    (FamilyC, ["--family", "c", "--p", "2", "--q", "1"]),
    (FamilyD, ["--family", "d", "--n", "4"]),
], ids=["C(2,1)", "D(4)"])
def test_cold_verify_counts_enumerates_once(monkeypatch, tmp_path, capsys, family, flags):
    """The command enumerates the family; the build beside it does not."""
    calls = []
    full = family.enumerate
    monkeypatch.setattr(family, "enumerate", lambda self: calls.append(self) or full(self))
    for cache in ([], ["--cache-dir", str(tmp_path)]):  # built, or built and saved
        calls.clear()
        code, out = run(capsys, "verify", "counts", *flags, *cache)
        assert code == 0 and "move closure matches" in out and len(calls) == 1


def test_verify_springer(capsys):
    code, out = run(capsys, "verify", "springer", "--family", "a", "--p", "1", "--q", "1")
    assert code == 0 and "0 mismatches" in out
    code, out = run(capsys, "verify", "springer", "--family", "d", "--n", "4",
                    "--isogeny", "adjoint")
    assert code == 0


def test_verify_oracle(capsys):
    code, out = run(capsys, "verify", "oracle", "--family", "a", "--p", "2", "--q", "2")
    assert code == 0 and "0 unsound moves" in out and "misses 2 of" in out
    code, out = run(capsys, "verify", "oracle", "--family", "a", "--p", "3", "--q", "3")
    assert code == 0 and "0 unsound moves" in out and "misses 276 of" in out


def test_max_orbits_stops_the_build(tmp_path):
    # C(4,4) has far more orbits; the cap must fire before enumeration
    assert main(["list", "--family", "c", "--p", "4", "--q", "4", "--max-orbits", "10"]) == 2
    assert main(["verify", "counts", "--family", "c", "--p", "4", "--q", "4",
                 "--max-orbits", "10"]) == 2
    # type A compares the closed-form count with the cap before enumerating
    assert main(["verify", "counts", "--family", "a", "--p", "3", "--q", "3",
                 "--max-orbits", "10"]) == 2
    # a cached poset over the cap is refused too
    save_poset(build_poset(FamilyA(2, 2)), tmp_path / "a-p2-q2.json")
    assert main(["list", "--family", "a", "--p", "2", "--q", "2", "--max-orbits", "10",
                 "--cache-dir", str(tmp_path)]) == 2


def test_the_library_takes_the_cli_cap():
    """`build_poset` and `load_or_build` default to the cap of `--max-orbits`:
    A(6,6), with 845,691 orbits, is refused on its closed-form count, not
    after a walk."""
    for call in (lambda: build_poset(FamilyA(6, 6)), lambda: load_or_build(FamilyA(6, 6), None)):
        start = time.perf_counter()
        with pytest.raises(RankTooLarge, match="^845691 orbits exceed the cap of 100000$"):
            call()
        assert time.perf_counter() - start < 1


def test_a_negative_cap_is_a_usage_error(capsys):
    for argv in (["list", "--family", "a", "--p", "2", "--q", "2"],
                 ["verify", "counts", "--family", "c", "--p", "1", "--q", "1"]):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--max-orbits", "-1"])
        assert err.value.code == 2
        assert "argument --max-orbits: must be at least 0, got -1" in capsys.readouterr().err
    assert main(["list", "--family", "a", "--p", "0", "--q", "0", "--max-orbits", "1"]) == 0


def test_a_loaded_orbit_outside_the_family_is_refused_by_the_verdicts(tmp_path, capsys):
    """The load does not check membership; `verdicts` checks every member
    of a poset no walk of the family checked, so `list`, `poset --format
    json` and `verify oracle` refuse the foreign clan, by name, before
    they print anything."""
    family = FamilyA(2, 2)
    path = save_poset(build_poset(family), tmp_path / "a-p2-q2.json")
    path.write_text(path.read_text().replace('"+,+,-,-"', '"+,+,+,-"'))
    loaded = load_poset(path, family)
    assert P("+,+,+,-").code in loaded.member_index and loaded.walked_by is None
    with pytest.raises(SignatureMismatch):
        family.verdicts(loaded)
    capsys.readouterr()
    for argv in (["list"], ["poset", "--format", "json"], ["verify", "oracle"]):
        assert main([*argv, "--family", "a", "--p", "2", "--q", "2",
                     "--cache-dir", str(tmp_path)]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: +,+,+,- has signature (3, 1)"), argv


@pytest.mark.parametrize("argv", [
    ["list", "--family", "c", "--p", "5", "--q", "5"],  # over the length cap
    ["list", "--family", "a", "--p", "7", "--q", "7", "--max-orbits", "10"],
    # under the length cap, but over the default --max-orbits
    ["list", "--family", "a", "--p", "6", "--q", "6"],
    ["verify", "counts", "--family", "a", "--p", "8", "--q", "8"],
])
def test_oversized_input_fails_fast(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["list", "--family", "d"])  # missing --n
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "springer"])  # missing --family
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["poset", "--family", "a", "--p", "1", "--q", "1", "--format", "json",
              "--dot", str(tmp_path / "x.dot")])  # DOT output with a JSON format
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["list", "--family", "a", "--p", "-1", "--q", "2"],
    ["list", "--family", "d", "--n", "0"],
    ["list", "--family", "a", "--p", "2", "--q", "2", "--isogeny", "so"],
])
def test_bad_family_input_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_paths_exit_2(tmp_path, capsys):
    family = ["--family", "a", "--p", "1", "--q", "1"]
    assert main(["poset", *family, "--dot", str(tmp_path / "missing" / "x.dot")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["list", *family, "--cache-dir", str(afile / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ----------------------------------------------------------------- cache

def test_cache_round_trip(tmp_path, poset_a22):
    path = save_poset(poset_a22, tmp_path / cache_key(poset_a22.meta))
    loaded = load_poset(path)
    assert loaded.orbits == poset_a22.orbits
    assert loaded.dims == poset_a22.dims
    assert loaded.covers == poset_a22.covers
    assert loaded.meta == poset_a22.meta
    # bit-exact: serializing the loaded poset reproduces the file
    assert json.dumps(poset_to_dict(loaded), sort_keys=True) == path.read_text()


def test_cache_key_includes_convention():
    assert cache_key(FamilyD(3).meta()) != cache_key(FamilyD(3, "figure").meta())
    assert cache_key(FamilyA(2, 2).meta()) == "a-p2-q2.json"


def test_cache_rejects_bad_version(tmp_path, poset_a22):
    data = poset_to_dict(poset_a22)
    data["version"] = 999
    with pytest.raises(VersionMismatch):
        poset_from_dict(data)


def test_cache_of_version_1_is_refused(tmp_path, capsys, poset_a22):
    """A file in the layout of version 1, a dict per cover, is refused and
    named, not rebuilt behind the user's back."""
    data = poset_to_dict(poset_a22)
    data["version"] = 1
    data["covers"] = [{"lo": lo, "hi": hi, "root": root} for lo, hi, root in poset_a22.covers]
    path = tmp_path / cache_key(poset_a22.meta)
    path.write_text(json.dumps(data, sort_keys=True))
    with pytest.raises(VersionMismatch, match="delete .* to rebuild"):
        load_poset(path)
    with pytest.raises(VersionMismatch):
        load_poset(path, FamilyA(2, 2))
    argv = ["list", "--family", "a", "--p", "2", "--q", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(path) in captured.err
    assert json.loads(path.read_text()) == data  # left in place


@pytest.mark.parametrize("edit", ["short lo", "short root", "list of covers", "no root"])
def test_cache_with_malformed_cover_columns_is_corrupt(poset_a22, edit):
    """The covers are three columns of one length: a short column, a
    missing one, or a list of covers under version 2 is a `CorruptCache`."""
    data = poset_to_dict(poset_a22)
    assert len(poset_from_dict(data).covers) == len(poset_a22.covers)
    if edit == "short lo":
        data["covers"]["lo"].pop()
    elif edit == "short root":
        data["covers"]["root"].pop()
    elif edit == "list of covers":
        data["covers"] = [list(row) for row in cover_rows(data)]
    else:
        del data["covers"]["root"]
    with pytest.raises(CorruptCache):
        poset_from_dict(data)


@pytest.mark.parametrize("family, flags", [
    (FamilyA(2, 2), "--family a --p 2 --q 2 --isogeny sc"),
    (FamilyC(2, 2), "--family c --p 2 --q 2 --isogeny adjoint"),
    (FamilyD(4), "--family d --n 4 --isogeny so-prime"),
], ids=repr)
def test_poset_json_is_the_cache_dict(capsys, family, flags):
    """`poset --format json` prints the dict the cache stores, so it loads
    back as the poset it shows."""
    code, out = run(capsys, "poset", "--format", "json", *flags.split())
    level = flags.split()[-1]
    view = quotient_poset(build_poset(family), family.isogeny_fold(level), level)
    loaded = poset_from_dict(json.loads(out))
    assert code == 0
    assert (loaded.orbits, loaded.dims, loaded.covers) == (view.orbits, view.dims, view.covers)
    assert loaded.meta == view.meta


def test_cache_rejects_corruption(tmp_path, poset_a22):
    data = poset_to_dict(poset_a22)
    data["dims"] = data["dims"][:-1]
    with pytest.raises(CorruptCache):
        poset_from_dict(data)
    bad = tmp_path / "broken.json"
    for text in (b"{not json", b"[]", b"7", b"\xff\xfe"):  # not JSON, not an object, not UTF-8
        bad.write_bytes(text)
        with pytest.raises(CorruptCache):
            load_poset(bad)
        with pytest.raises(CorruptCache):
            load_poset(bad, FamilyA(2, 2))


@pytest.mark.parametrize("field, value", [
    ("hi", -1), ("lo", -2), ("hi", 6), ("root", "x"), ("root", 0), ("root", -1), ("root", True),
])
def test_cache_rejects_covers_out_of_range(field, value):
    """Cover ids must be orbit ids, never read back by negative indexing,
    and root labels None or positive ints."""
    data = poset_to_dict(build_poset(FamilyA(2, 1)))
    assert cover_rows(data)[-1] == (4, 5, 2) and len(data["orbits"]) == 6
    assert len(poset_from_dict(data).covers) == 6
    data["covers"][field][-1] = value
    with pytest.raises(CorruptCache):
        poset_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("dims", [0.9, 0.9, 1.9]), ("dims", ["0", "0", "1"]), ("dims", [False, False, 1]),
    ("lo", True), ("hi", True),
], ids=["float dims", "string dims", "bool dims", "bool lo", "bool hi"])
def test_cache_refuses_numbers_that_are_not_json_integers(tmp_path, field, value):
    """A dim or a cover id in its column must be a JSON integer: a float,
    a string or a bool is refused, not rounded or read as 0 or 1 (a bool
    id would be printed back as `true`)."""
    family = FamilyA(1, 1)  # +,- and -,+ below 1,1
    path = save_poset(build_poset(family), tmp_path / cache_key(family.meta()))
    data = json.loads(path.read_text())
    assert data["dims"] == [0, 0, 1]
    assert data["covers"] == {"lo": [0, 1], "hi": [2, 2], "root": [1, 1]}
    if field == "dims":
        data["dims"] = value
    elif field == "lo":
        data["covers"]["lo"][1] = value  # lo 1 read as True
    else:
        data["dims"] = [0, 1, 2]  # the chain +,- < -,+ < 1,1: its first cover ends at 1
        data["covers"]["hi"][0] = value
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptCache):
        load_poset(path, family)


@pytest.mark.parametrize("edit, error", [
    ({"version": True, "p": True, "q": True}, VersionMismatch),
    ({"version": float(CACHE_VERSION)}, VersionMismatch),
    ({"p": True, "q": True}, CorruptCache),
    ({"q": 1.0}, CorruptCache),
], ids=["all true", "float version", "true p and q", "float q"])
def test_cache_refuses_meta_of_another_json_type(tmp_path, capsys, edit, error):
    """JSON `true` and `1.0` equal 1 in Python, and `2.0` equals the
    version 2, but a version or a meta value of another JSON type is not
    the family's: it is refused, not loaded and printed back as `true`."""
    family = FamilyA(1, 1)
    path = save_poset(build_poset(family), tmp_path / cache_key(family.meta()))
    data = json.loads(path.read_text())
    assert (data["version"], data["p"], data["q"]) == (CACHE_VERSION, 1, 1)
    path.write_text(json.dumps({**data, **edit}))
    with pytest.raises(error):
        load_poset(path, family)
    code, out = run(capsys, "poset", "--format", "json", "--family", "a", "--p", "1", "--q", "1",
                    "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""


def test_cache_with_ids_that_do_not_rise_with_dimension_is_corrupt(tmp_path, capsys):
    """A saved A(2,2) with its ids reversed, covers renumbered to match,
    holds the same graded order, but its dimensions fall along the ids."""
    family = FamilyA(2, 2)
    path = save_poset(build_poset(family), tmp_path / cache_key(family.meta()))
    data = json.loads(path.read_text())
    last = len(data["orbits"]) - 1
    data["orbits"].reverse()
    data["dims"].reverse()
    set_cover_rows(data, [(last - lo, last - hi, root) for lo, hi, root in cover_rows(data)])
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptCache, match="ids do not rise with dimension"):
        load_poset(path, family)
    code, out = run(capsys, "list", "--family", "a", "--p", "2", "--q", "2",
                    "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""


@pytest.mark.parametrize("edit", ["foreign root", "exact duplicate", "null beside a label"])
def test_load_or_build_rejects_foreign_roots_and_repeated_pairs(tmp_path, edit):
    """A cover's root is one of the family's simple roots, and a pair
    carries one completed cover or labelled ones with distinct roots:
    completion never adds a pair the weak order has."""
    family = FamilyA(2, 1)  # simple roots 1 and 2
    path = save_poset(build_poset(family), tmp_path / cache_key(family.meta()))
    data = json.loads(path.read_text())
    assert cover_rows(data)[0] == (0, 3, 2)
    assert len(load_or_build(family, tmp_path).covers) == 6
    if edit == "foreign root":
        data["covers"]["root"][0] = 99
    elif edit == "exact duplicate":
        set_cover_rows(data, cover_rows(data) + [(0, 3, 2)])
    else:
        set_cover_rows(data, cover_rows(data) + [(0, 3, None)])
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptCache):
        load_or_build(family, tmp_path)


def test_load_or_build_keeps_distinct_labels_on_one_pair(tmp_path):
    # the weak order of A(2,2) joins 1,2,1,2 to 1,2,2,1 by roots 1 and 3
    family = FamilyA(2, 2)
    built = load_or_build(family, tmp_path)
    loaded = load_or_build(family, tmp_path)
    i, j = built.orbits.index(P("1,2,1,2")), built.orbits.index(P("1,2,2,1"))
    assert [e for e in loaded.covers if e[:2] == (i, j)] == [(i, j, 1), (i, j, 3)]
    assert loaded.covers == built.covers


def test_load_or_build_uses_cache(tmp_path):
    family = FamilyD(2)
    first = load_or_build(family, tmp_path)
    assert (tmp_path / cache_key(family.meta())).exists()
    second = load_or_build(family, tmp_path)
    assert first.orbits == second.orbits and first.covers == second.covers


def test_cli_cache_dir(tmp_path, capsys):
    code, _ = run(capsys, "list", "--family", "a", "--p", "1", "--q", "1",
                  "--cache-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "a-p1-q1.json").exists()


def test_save_poset_replaces_atomically(tmp_path, poset_a22):
    path = tmp_path / cache_key(poset_a22.meta)
    path.write_text("stale")
    with open(path) as reader:  # a concurrent reader keeps the whole old file
        save_poset(poset_a22, path)
        assert reader.read() == "stale"
    assert load_poset(path).orbits == poset_a22.orbits
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_with_an_orbit_missing_is_corrupt(tmp_path, capsys):
    """A saved A(2,2) with the closed orbit +,+,-,- dropped and the covers
    re-indexed still validates as a poset; only the family's closed-form
    count (21) tells it is not the family's, before a clan is decoded."""
    family = FamilyA(2, 2)
    path = save_poset(build_poset(family), tmp_path / cache_key(family.meta()))
    data = json.loads(path.read_text())
    gone = data["orbits"].index("+,+,-,-")
    del data["orbits"][gone], data["dims"][gone]
    set_cover_rows(data, [
        (lo - (lo > gone), hi - (hi > gone), root)
        for lo, hi, root in cover_rows(data) if gone not in (lo, hi)
    ])
    path.write_text(json.dumps(data))
    assert len(load_poset(path)) == 20
    with pytest.raises(CorruptCache, match="holds 20 orbits, the family has 21"):
        load_poset(path, family)
    code, out = run(capsys, "verify", "springer", "--family", "a", "--p", "2", "--q", "2",
                    "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""


def test_cache_rejects_another_familys_poset(tmp_path, capsys):
    save_poset(build_poset(FamilyC(1, 1)), tmp_path / "a-p2-q2.json")
    with pytest.raises(CorruptCache):
        load_or_build(FamilyA(2, 2), tmp_path)
    code, out = run(capsys, "list", "--family", "a", "--p", "2", "--q", "2",
                    "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""


@pytest.mark.parametrize("family, digest", [
    (FamilyA(3, 3), "9bd1326de7ebbcf74b34822bb5de61ab9783d6e8b652d4e342841c3e51b3b9d5"),
    (FamilyC(2, 2), "d3483606bcb936da8f22d3f0efc9f7e2ff56d57dd11c5c360358b2ab55f4ba09"),
    (FamilyD(4), "4581516e51c49dc0b52f70678eba91d1c3949a4a64a3f885a4cf3aff3b9e96ca"),
], ids=repr)
def test_cache_file_bytes_are_pinned(tmp_path, family, digest):
    """The saved JSON of cache version 2, covers as columns, is pinned
    byte for byte: a change to the bytes must change `CACHE_VERSION`."""
    path = save_poset(build_poset(family), tmp_path / cache_key(family.meta()))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


WRITER_FAMILIES = (
    [FamilyA(p, q) for p in range(1, 4) for q in range(1, 4)]
    + [FamilyC(p, q) for p in range(3) for q in range(3) if p + q]
    + [FamilyD(n) for n in range(1, 6)]
    + [FamilyD(n, "figure") for n in range(1, 5)]
)


@pytest.mark.parametrize("family", WRITER_FAMILIES, ids=repr)
def test_save_writes_the_bytes_of_json_dumps(tmp_path, family):
    """The saved file is the text `json.dumps` writes for the whole dict
    of `poset_to_dict`, at every isogeny level, so the `level` and
    `convention` keys sit in their sorted places."""
    levels = ISOGENY_LEVELS_D if family.name == "d" else SIGN_FLIP_LEVELS
    base = build_poset(family)
    for level in levels:
        view = quotient_poset(base, family.isogeny_fold(level), level)
        path = save_poset(view, tmp_path / cache_key(view.meta))
        assert path.read_text() == json.dumps(poset_to_dict(view), sort_keys=True), level


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_covers_out_of_order_load_sorted(tmp_path, order):
    """A file whose covers are out of order loads to the canonical list:
    by (lo, hi), a pair's labelled roots ascending."""
    family = FamilyA(2, 2)  # 1,2,1,2 -> 1,2,2,1 carries roots 1 and 3
    built = build_poset(family)
    path = save_poset(built, tmp_path / cache_key(family.meta()))
    data = json.loads(path.read_text())
    rows = cover_rows(data)  # the columns shuffled jointly, row by row
    if order == "reversed":
        rows.reverse()
    else:
        random.Random(15).shuffle(rows)
    set_cover_rows(data, rows)
    path.write_text(json.dumps(data))
    assert load_or_build(family, tmp_path).covers == built.covers


@pytest.mark.parametrize("saved, family, max_orbits, error", [
    (FamilyC(1, 1), FamilyA(2, 2), MAX_ORBITS, CorruptCache),
    (FamilyA(2, 2), FamilyA(2, 2), 10, RankTooLarge),
    (FamilyA(2, 2), None, 5, RankTooLarge),
], ids=["foreign", "oversized", "family-less"])
def test_load_or_build_refuses_before_decoding(tmp_path, monkeypatch, saved, family, max_orbits,
                                               error):
    """A cache of another family, or one over the cap, with or without a
    family to check it against, is refused on its raw dict: no clan of it
    is parsed."""
    path = save_poset(build_poset(saved), tmp_path / "a-p2-q2.json")
    parsed = []
    monkeypatch.setattr("clanorbits.cache.parse_clan", parsed.append)
    with pytest.raises(error):
        if family is None:
            load_poset(path, max_orbits=max_orbits)
        else:
            load_or_build(family, tmp_path, max_orbits)
    assert parsed == []
