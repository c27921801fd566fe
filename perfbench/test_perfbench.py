"""Tests of the benchmark's own code: tracer arithmetic and the answer gate.

Run with `python3 -m pytest perfbench` from the root of the repository.
They drive the gate on U(2,2), small enough to take well under a second.
"""

import math

import pytest

import bench_worker as bw
from bench_trace import Tracer, self_times

TINY = {
    "pipeline": {"mode": "pipeline",
                 "instances": [{"family": "a", "p": 2, "q": 2, "levels": ["sc", "adjoint"]}],
                 "repeats": {"warm": 2, "queries": 2}},
    "cache": {"mode": "cache",
              "instances": [{"family": "a", "p": 2, "q": 2, "levels": ["sc"]}],
              "repeats": {"warm": 2, "queries": 2}},
}


@pytest.fixture(scope="module")
def co():
    return bw.import_package()


def run(co, mode, answers, seed=7, tracer=None):
    spec = TINY[mode]
    fams = [(bw.make_family(co, inst), inst) for inst in spec["instances"]]
    return bw.run_workload(co, "tiny", spec, fams, seed, tracer, answers)


def test_self_time_of_nested_spans():
    # 0 root [0,10]; 1 child [1,4]; 2 grandchild [2,3]; 3 child [5,9];
    # 4 child of 3 overlapping its sibling 5 ([6,8] and [7,8.5]);
    # 6 child of 0 running past its parent's end ([9.5,12]).
    parent = [-1, 0, 1, 0, 3, 3, 0]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.5]
    end = [10.0, 4.0, 3.0, 9.0, 8.0, 8.5, 12.0]
    got = self_times(parent, start, end)
    want = [10 - 3 - 4 - 0.5, 3 - 1, 1, 4 - 2.5, 2, 1.5, 2.5]
    assert all(math.isclose(g, w) for g, w in zip(got, want)), got


def test_tracer_records_and_restores(co):
    tracer = Tracer()
    original = co.clans.avoids_bad_patterns
    wrapper = tracer.timed("clans.avoids_bad_patterns", original)
    tracer.wrap_function(original, wrapper, "clanorbits")
    fam = co.family_a.FamilyA(2, 2)
    with tracer.active("test"):
        assert co.family_a.avoids_bad_patterns is not original
        verdicts = [fam.classify(c) for c in fam.enumerate()]
    assert co.family_a.avoids_bad_patterns is original
    assert tracer.summary()["clans.avoids_bad_patterns"]["calls"] == len(verdicts) == 21


def test_digest_is_identical_across_runs(co):
    first = run(co, "pipeline", None)["answers"]
    second = run(co, "pipeline", None)["answers"]
    assert first == second and set(first) == {"a(2,2)/sc", "a(2,2)/adjoint"}
    assert first["a(2,2)/sc"]["orbits"] == 21 and first["a(2,2)/sc"]["mismatches"] == 0


@pytest.mark.parametrize("mode", ["pipeline", "cache"])
def test_clean_run_has_no_failures(co, mode):
    out = run(co, mode, run(co, mode, None)["answers"])
    assert out["failed"] == 0 and out["attempted"] > 40, out["notes"]


def test_corrupted_recorded_answer_is_a_failure(co):
    answers = run(co, "pipeline", None)["answers"]
    answers["a(2,2)/adjoint"]["singular"] += 1
    out = run(co, "pipeline", answers)
    assert out["failed"] == 1 and out["failed"] / out["attempted"] > 0


def corrupt_le_ids(co, monkeypatch):
    le_ids = co.closure.OrbitPoset.le_ids
    monkeypatch.setattr(co.closure.OrbitPoset, "le_ids",
                        lambda self, i, j: le_ids(self, i, j) != (i == 0 and j != 0))


def corrupt_springer_move(co, monkeypatch):
    # Swaps the moves of two noncompact roots.  The expected explain
    # answers come from springer_move too and still agree with
    # springer_report; only the recorded closed-orbit moves catch it.
    move = co.family_a.FamilyA.springer_move

    def swapped(self, cl, r):
        a, b = self.positive_roots()[:2]
        if self.is_noncompact(cl, a) and self.is_noncompact(cl, b):
            r = {a: b, b: a}.get(r, r)
        return move(self, cl, r)

    monkeypatch.setattr(co.family_a.FamilyA, "springer_move", swapped)


@pytest.mark.parametrize("corrupt", [corrupt_le_ids, corrupt_springer_move])
def test_corrupted_program_answer_is_a_failure(co, monkeypatch, corrupt):
    answers = run(co, "cache", None)["answers"]
    corrupt(co, monkeypatch)
    out = run(co, "cache", answers)
    assert out["failed"] > 0 and out["failed"] / out["attempted"] > 0
