from __future__ import annotations

import json
import time

import pytest

from clanorbits import FamilyA, FamilyC, FamilyD, build_poset
from clanorbits.cache import (
    cache_key,
    load_or_build,
    load_poset,
    poset_from_dict,
    poset_to_dict,
    save_poset,
)
from clanorbits.cli import main
from clanorbits.errors import CorruptCache, VersionMismatch


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


@pytest.mark.parametrize("argv", [
    ["list", "--family", "c", "--p", "5", "--q", "5"],  # over the length cap
    ["list", "--family", "a", "--p", "7", "--q", "7", "--max-orbits", "10"],
])
def test_oversized_input_fails_fast(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors():
    with pytest.raises(SystemExit) as err:
        main(["list", "--family", "d"])  # missing --n
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "springer"])  # missing --family
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


def test_cache_rejects_corruption(tmp_path, poset_a22):
    data = poset_to_dict(poset_a22)
    data["dims"] = data["dims"][:-1]
    with pytest.raises(CorruptCache):
        poset_from_dict(data)
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(CorruptCache):
        load_poset(bad)


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


def test_cache_rejects_another_familys_poset(tmp_path, capsys):
    save_poset(build_poset(FamilyC(1, 1)), tmp_path / "a-p2-q2.json")
    with pytest.raises(CorruptCache):
        load_or_build(FamilyA(2, 2), tmp_path)
    code, out = run(capsys, "list", "--family", "a", "--p", "2", "--q", "2",
                    "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
