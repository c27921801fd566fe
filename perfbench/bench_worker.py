"""One run of one clanorbits benchmark workload, in a process of its own.

    python3 perfbench/bench_worker.py --workload NAME --seed N --t0 T
        [--trace PATH] [--probe] [--fixtures] [--record]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` counts interpreter start, the import of the
package and the construction of the family objects.  `--probe` stops
there (and with `--fixtures` also diffs the four reference figures,
untimed).  Otherwise the workload runs once: the timed phases, then the
answer checks, untimed.  `--record` prints the answers of every instance
view instead of checking them.  `--trace PATH` runs the timed phases
under the outside-in tracer and writes the spans to PATH.  The last line
of standard output is one JSON object.

The package is imported from `src/` of the checkout this file sits in,
never from anywhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FAMILY_MODULES = ("family_a", "family_c", "family_d")
# The seeded query batch of one base poset: per dimension of the poset,
# TARGETS_PER_DIM target orbits, each with LE_PER_TARGET le sources and
# EXPLAIN_PER_TARGET explain queries.
TARGETS_PER_DIM = 4
LE_PER_TARGET = 250
EXPLAIN_PER_TARGET = 4
# Per-layer metrics read off one span name: (metric, span name, field).
SPAN_METRICS = (
    ("clans.enumerate_clans.s", "clans.enumerate_clans", "s"),
    ("clans.avoids_bad_patterns.calls", "clans.avoids_bad_patterns", "calls"),
    ("clans.avoids_bad_patterns.s", "clans.avoids_bad_patterns", "s"),
    ("closure.weak_order_graph.self_s", "closure.weak_order_graph", "self_s"),
    ("closure.complete_closure.s", "closure.complete_closure", "s"),
    ("closure.OrbitPoset.init_s", "closure.OrbitPoset.init", "s"),
    ("closure.OrbitPoset.validate.s", "closure.OrbitPoset.validate", "s"),
    ("closure.quotient_poset.s", "closure.quotient_poset", "s"),
    ("springer.cross_validate.self_s", "springer.cross_validate", "self_s"),
    ("springer.springer_report.calls", "springer.springer_report", "calls"),
    ("springer.springer_report.s", "springer.springer_report", "s"),
    ("cache.save_poset.s", "cache.save_poset", "s"),
    ("cache.load_poset.s", "cache.load_poset", "s"),
    ("cli.orbit_rows.self_s", "cli.orbit_rows", "self_s"),
)
COUNT_METRICS = ("clans.enumerate_clans.yielded", "closure.weak_edges",
                 "closure.completed_covers", "closure.le_ids.calls", "cache.file_bytes")
# Every timed part is scaled by a reference loop timed just before and
# after it: value = seconds * REFERENCE_NOMINAL_S / reference seconds.
# The host's speed changes by up to 1.6x every few seconds, and the
# reference loop tracks that change where wall time alone cannot.
REFERENCE_NOMINAL_S = 0.005
REFERENCE_STALE_S = 0.05
clock = time.perf_counter


def reference_s() -> float:
    """Mean of three runs of a fixed pure-Python loop of tuple and dict
    work, the kind of work the package does; it never calls the package.
    The mean, not the fastest run, because the timed work runs at the
    host's mean speed.  The garbage collector is held off, so the size of
    the heap the workload built does not change the reference."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for _ in range(3):
            t = clock()
            table: dict = {}
            for i in range(20000):
                key = (i % 7, i % 11, i)
                table[key] = table.get(key[:2], 0) + 1
            total += clock() - t
        return total / 3
    finally:
        if collecting:
            gc.enable()


class Samples:
    """Timed parts of one run, keyed by metric and part.  A sample is
    [seconds, seconds scaled to the reference speed]."""

    def __init__(self):
        self.parts: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        self.ref = reference_s()
        self._ref_at = clock()

    @contextlib.contextmanager
    def time(self, metric: str, part: str):
        """Time the block; a block that raises leaves no sample."""
        if clock() - self._ref_at > REFERENCE_STALE_S:
            self.ref = reference_s()
        t = clock()
        yield
        took = clock() - t
        after = reference_s()
        self._ref_at = clock()
        scaled = took * REFERENCE_NOMINAL_S * 2 / (self.ref + after)
        self.parts[metric][part].append([took, scaled])
        self.ref = after


def import_package() -> SimpleNamespace:
    """The clanorbits modules the benchmark drives, from ROOT/src only."""
    pkg = ROOT / "src" / "clanorbits"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no clanorbits package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import clanorbits
    from clanorbits import (cache, clans, cli, closure, family_a, family_c, family_d,
                            fixtures, springer)

    if Path(clanorbits.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"clanorbits was imported from {clanorbits.__file__}, not {pkg}")
    return SimpleNamespace(cache=cache, clans=clans, cli=cli, closure=closure,
                           family_a=family_a, family_c=family_c, family_d=family_d,
                           fixtures=fixtures, springer=springer)


def load_design() -> dict:
    return json.loads((HERE / "design.json").read_text())


def load_answers() -> dict:
    return json.loads((HERE / "answers.json").read_text())


def instance_key(inst: dict) -> str:
    if inst["family"] == "d":
        return f"d({inst['n']},{inst['convention']})"
    return f"{inst['family']}({inst['p']},{inst['q']})"


def make_family(co, inst: dict):
    if inst["family"] == "a":
        return co.family_a.FamilyA(inst["p"], inst["q"])
    if inst["family"] == "c":
        return co.family_c.FamilyC(inst["p"], inst["q"])
    return co.family_d.FamilyD(inst["n"], inst["convention"])


def poset_digest(poset) -> str:
    """sha256 of the sorted orbits (with dims and class members) and the
    sorted covers by clan names: equal for equal posets whatever their ids."""
    names = [str(c) for c in poset.orbits]
    h = hashlib.sha256()
    orbits = sorted(zip(names, poset.dims, ([str(m) for m in ms] for ms in poset.members)))
    h.update(json.dumps(orbits).encode())
    covers = sorted((names[lo], names[hi], 0 if r is None else r) for lo, hi, r in poset.covers)
    for i in range(0, len(covers), 4096):  # in chunks, to keep the text out of peak memory
        h.update(json.dumps(covers[i:i + 4096]).encode())
    return h.hexdigest()


def closed_moves_digest(fam, poset) -> str:
    """sha256 of the Springer data of every closed orbit (a minimum of the
    cover order): each noncompact positive root with the orbit it raises
    the closed orbit to.  The expected explain answers are derived from
    these same calls, so without this record a wrong move that
    `springer_report` shares would pass the explain check."""
    raised = {hi for _, hi, _ in poset.covers}
    table = sorted(
        (str(cl), [[list(r), str(fam.springer_move(cl, r))]
                   for r in fam.positive_roots() if fam.is_noncompact(cl, r)])
        for i, cl in enumerate(poset.orbits) if i not in raised
    )
    return hashlib.sha256(json.dumps(table).encode()).hexdigest()


def view_answers(poset, structure: str, rows=None, report=None) -> dict:
    """What the gate compares for one instance view; `structure` is the
    view's `poset_digest`, extended by the CLI rows when there are any."""
    digest = structure
    if rows is not None:
        digest = hashlib.sha256((structure + json.dumps(rows, sort_keys=True)).encode()).hexdigest()
    out = {
        "orbits": len(poset.orbits),
        "covers": len(poset.covers),
        "completed_covers": sum(1 for e in poset.covers if e[2] is None),
        "digest": digest,
    }
    if report is not None:
        out["singular"] = report["not_rationally_smooth"]
        out["smooth"] = report["smooth"]
        out["mismatches"] = len(report["mismatches"])
    return out


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, note) -> None:
        """Count one operation; `note` is a message, or a function making
        one, kept for the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note() if callable(note) else note)


class Reference:
    """Down-sets read off the cover list by graph search, independent of
    the poset's own reachability store."""

    def __init__(self, poset):
        n = len(poset.orbits)
        self.incoming: list[list[int]] = [[] for _ in range(n)]
        for lo, hi, _ in poset.covers:
            self.incoming[hi].append(lo)
        self.minima = [i for i in range(n) if not self.incoming[i]]

    def down(self, j: int) -> set[int]:
        seen = {j}
        frontier = seen
        while frontier:
            step = set()
            for v in frontier:
                step.update(self.incoming[v])
            frontier = step - seen
            seen |= frontier
        return seen


def draw_queries(fam, poset, rng: random.Random) -> dict:
    """A seeded batch of le pairs and explain pairs with expected answers.

    Targets are drawn per dimension, so every rank of the poset is
    queried.  Half of the le sources come from the target's down-set,
    half from the whole poset.  Expected explain roots are the raising
    roots of the closed orbit that land in the reference down-set.  Draws
    follow clan names, not the poset's internal ids.
    """
    orbits = poset.orbits
    index = {c: i for i, c in enumerate(orbits)}
    by_name = sorted(range(len(orbits)), key=lambda i: str(orbits[i]))
    rank = [0] * len(orbits)
    for r, i in enumerate(by_name):
        rank[i] = r
    by_dim: dict[int, list[int]] = defaultdict(list)
    for i in by_name:
        by_dim[poset.dims[i]].append(i)
    ref = Reference(poset)
    batch = {"le": [], "le_expect": [], "explain": [], "explain_expect": []}
    for d in sorted(by_dim):
        for _ in range(TARGETS_PER_DIM):
            b = rng.choice(by_dim[d])
            below = ref.down(b)
            below_list = sorted(below, key=rank.__getitem__)
            for k in range(LE_PER_TARGET):
                a = rng.choice(below_list) if k % 2 == 0 else rng.choice(by_name)
                batch["le"].append((orbits[a], orbits[b]))
                batch["le_expect"].append(a in below)
            closed = sorted((i for i in ref.minima if i in below), key=rank.__getitem__)
            closed_set = {orbits[i] for i in closed}
            for _ in range(EXPLAIN_PER_TARGET):
                cl = orbits[rng.choice(closed)]
                roots = sorted(
                    r for r in fam.positive_roots()
                    if fam.is_noncompact(cl, r) and index[fam.springer_move(cl, r)] in below
                )
                gap = poset.dims[b] - poset.dims[index[cl]]
                batch["explain"].append((orbits[b], cl))
                batch["explain_expect"].append((closed_set, roots, gap))
    return batch


def check_explain(got, expect) -> bool:
    below, rep = got
    closed, roots, gap = expect
    return (len(below) == len(closed) and set(below) == closed
            and sorted(rep.roots) == roots and rep.s_size == len(roots)
            and rep.dim_gap == gap and rep.violated == (len(roots) > gap))


def solve(co, mode: str, fams, cache_dir: Path, tally: Tally, samples: Samples, traced):
    """The timed compute phase, each build and each view a part.  Returns
    per instance (base poset, views), a view being (level, poset, rows,
    report); None when it raised."""
    solved = []
    for fam, inst in fams:
        key = instance_key(inst)
        try:
            if mode == "cache":
                with samples.time("solve", f"{key}/cold"), traced("bench.solve"):
                    base = co.cache.load_or_build(fam, cache_dir)
                views = [(lv, base, None, None) for lv in inst["levels"]]
            else:
                with samples.time("solve", f"{key}/build"), traced("bench.solve"):
                    base = co.closure.build_poset(fam)
                views = []
                for lv in inst["levels"]:
                    with samples.time("solve", f"{key}/{lv}"), traced("bench.solve"):
                        fold = fam.isogeny_fold(lv)
                        view = co.closure.quotient_poset(base, fold, lv) if fold else base
                        rows = co.cli.orbit_rows(fam, view)
                        report = co.springer.cross_validate(fam, view)
                    views.append((lv, view, rows, report))
            solved.append((base, views))
        except Exception as exc:  # a failed instance is a result, not a crash
            for lv in inst["levels"]:
                tally.op(False, f"{key}/{lv}: {type(exc).__name__}: {exc}")
            solved.append(None)
    return solved


def check_views(co, fams, solved, answers: dict, tally: Tally, record: dict | None) -> list:
    """Gate every instance view against the recorded answers (or record
    them).  Returns each base poset's digest, None where solving raised."""
    bases = []
    for (fam, inst), item in zip(fams, solved):
        if item is None:
            bases.append(None)
            continue
        base, views = item
        bases.append(poset_digest(base))
        for lv, view, rows, report in views:
            key = f"{instance_key(inst)}/{lv}"
            structure = bases[-1] if view is base else poset_digest(view)
            got = view_answers(view, structure, rows, report)
            if view is base:
                got["closed_moves"] = closed_moves_digest(fam, base)
            if record is not None:
                record[key] = got
                continue
            ok = got == answers.get(key) and got.get("mismatches", 0) == 0
            if inst["family"] == "a" and view is base:
                ok = ok and len(base.orbits) == co.clans.count_clans(inst["p"], inst["q"])
            tally.op(ok, f"{key}: got {got}, recorded {answers.get(key)}")
    return bases


def layer_metrics(tracer, reach_bytes: float) -> dict:
    """Per-layer metrics from the tracer, for the layers the run entered.

    Each family module the run entered gets its own `family_a.*`,
    `family_c.*` or `family_d.*` metrics; the `family_X.*` metrics sum
    them, so every workload has them whichever family it runs.  A
    family's enumeration yield is the orbits it kept over the candidates
    `clans.enumerate_clans` yielded below it (1.0 when it kept more than
    that, having bypassed the generic enumerator).
    """
    summary = tracer.summary()
    counts = tracer.counts
    m = {metric: summary[name][field] for metric, name, field in SPAN_METRICS if name in summary}
    m.update({key: counts[key] for key in COUNT_METRICS if counts.get(key)})
    if reach_bytes:
        m["closure.reach_bytes"] = reach_bytes
    kept_all = tried_all = 0
    for mod in FAMILY_MODULES:
        per = {}
        if f"{mod}.enumerate" in summary:
            kept = counts[f"{mod}.enumerate.kept"]
            tried = max(kept, tracer.counts_by_parent["clans.enumerate_clans.yielded",
                                                       f"{mod}.enumerate"])
            per.update({"enumerate.s": summary[f"{mod}.enumerate"]["s"],
                        "enumerate.kept": kept, "enumerate.yield": kept / tried})
            kept_all += kept
            tried_all += tried
        for op in ("raise_by", "classify"):
            if f"{mod}.{op}" in summary:
                per[f"{op}.calls"] = summary[f"{mod}.{op}"]["calls"]
                per[f"{op}.s"] = summary[f"{mod}.{op}"]["s"]
        if counts.get(f"{mod}.springer_move.calls"):
            per["springer_move.calls"] = counts[f"{mod}.springer_move.calls"]
        for key, value in per.items():
            m[f"{mod}.{key}"] = value
            if key != "enumerate.yield":
                m[f"family_X.{key}"] = m.get(f"family_X.{key}", 0) + value
    if tried_all:
        m["family_X.enumerate.yield"] = kept_all / tried_all
    return m


def plan_trace(co, tracer) -> None:
    """Wrap the public boundaries the per-layer metrics are read at."""
    t = tracer
    pkg = "clanorbits"
    t.wrap_function(co.clans.enumerate_clans,
                    t.timed("clans.enumerate_clans", co.clans.enumerate_clans,
                            {"clans.enumerate_clans.yielded": len}), pkg)
    t.wrap_function(co.clans.avoids_bad_patterns,
                    t.timed("clans.avoids_bad_patterns", co.clans.avoids_bad_patterns), pkg)
    for mod in FAMILY_MODULES:
        cls = {"family_a": co.family_a.FamilyA, "family_c": co.family_c.FamilyC,
               "family_d": co.family_d.FamilyD}[mod]
        t.wrap_method(cls, "enumerate", t.timed(f"{mod}.enumerate", cls.enumerate,
                                                {f"{mod}.enumerate.kept": len}))
        t.wrap_method(cls, "raise_by", t.timed(f"{mod}.raise_by", cls.raise_by))
        t.wrap_method(cls, "classify", t.timed(f"{mod}.classify", cls.classify))
        t.wrap_method(cls, "springer_move", t.counted(f"{mod}.springer_move", cls.springer_move))
    cl = co.closure
    for name, counters in (
        ("build_poset", None),
        ("weak_order_graph", {"closure.weak_edges": lambda r: len(r[1])}),
        ("complete_closure", {"closure.completed_covers":
                              lambda r: sum(1 for e in r if e[2] is None)}),
        ("quotient_poset", None),
    ):
        fn = getattr(cl, name)
        t.wrap_function(fn, t.timed(f"closure.{name}", fn, counters), pkg)
    poset_cls = cl.OrbitPoset
    t.wrap_method(poset_cls, "__init__", t.timed("closure.OrbitPoset.init", poset_cls.__init__))
    t.wrap_method(poset_cls, "validate", t.timed("closure.OrbitPoset.validate", poset_cls.validate))
    t.wrap_method(poset_cls, "le_ids", t.counted("closure.le_ids", poset_cls.le_ids))
    for name in ("cross_validate", "springer_report"):
        fn = getattr(co.springer, name)
        t.wrap_function(fn, t.timed(f"springer.{name}", fn), pkg)
    for name, counters in (
        ("load_or_build", None),
        ("save_poset", {"cache.file_bytes": lambda path: path.stat().st_size}),
        ("load_poset", None),
    ):
        fn = getattr(co.cache, name)
        t.wrap_function(fn, t.timed(f"cache.{name}", fn, counters), pkg)
    t.wrap_function(co.cli.orbit_rows, t.timed("cli.orbit_rows", co.cli.orbit_rows), pkg)


def run_queries(co, fam, warm, batch: dict, repeats: int, traced, tally: Tally, key: str,
                samples: Samples) -> None:
    """Time the le block and the explain block of one poset's batch,
    `repeats` times, and check every answer."""
    for _ in range(repeats):
        try:
            le = warm.le
            with samples.time("le", key), traced("bench.le"):
                got_le = [le(a, b) for a, b in batch["le"]]
            with samples.time("explain", key), traced("bench.explain"):
                report = co.springer.springer_report
                got_explain = [(warm.closed_below(o), report(fam, warm, o, c))
                               for o, c in batch["explain"]]
        except Exception as exc:
            for _ in batch["le"] + batch["explain"]:
                tally.op(False, f"{key} queries: {type(exc).__name__}: {exc}")
            return
        for (a, b), got, want in zip(batch["le"], got_le, batch["le_expect"]):
            tally.op(got == want, lambda: f"{key}: le({a}, {b}) = {got}, reference {want}")
        for (o, c), got, want in zip(batch["explain"], got_explain, batch["explain_expect"]):
            tally.op(check_explain(got, want), lambda: f"{key}: explain({o}, {c}) differs")


def warm_load(co, fam, key: str, cache_dir: Path, repeats: int, traced, samples: Samples):
    """Warm cache.load_or_build, `repeats` times; returns the last poset."""
    for _ in range(repeats):
        warm = None  # the previous load is freed before the next one
        with samples.time("warm", key), traced("bench.warm"):
            warm = co.cache.load_or_build(fam, cache_dir)
    return warm


def run_workload(co, name: str, spec: dict, fams, seed: int, tracer, answers: dict | None) -> dict:
    """Run the workload once and check it against `answers`, the recorded
    answers of its instance views; with None, record them instead."""
    traced = tracer.active if tracer is not None else lambda phase: contextlib.nullcontext()
    tally = Tally()
    record = {} if answers is None else None
    OUT.mkdir(exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT))
    samples = Samples()
    out = {"reference_s": samples.ref, "parts": samples.parts}
    try:
        solved = solve(co, spec["mode"], fams, cache_dir, tally, samples, traced)
        cold = check_views(co, fams, solved, answers, tally, record)
        if record is not None:
            out["answers"] = record
            return out
        with traced("bench.save"):  # saved already where the workload times a cold save
            for (fam, _), item in zip(fams, solved):
                path = cache_dir / co.cache.cache_key(fam.meta())
                if item is not None and not path.exists():
                    co.cache.save_poset(item[0], path)
        del solved, item  # free the cold posets, so peak memory never holds cold and warm
        reach_bytes = 0.0
        le_count = explain_count = le_true = 0
        for (fam, inst), cold_digest in zip(fams, cold):
            if cold_digest is None:
                continue
            key = instance_key(inst)
            try:
                warm = warm_load(co, fam, key, cache_dir, spec["repeats"]["warm"], traced, samples)
            except Exception as exc:
                tally.op(False, f"{key} warm load: {type(exc).__name__}: {exc}")
                continue
            tally.op(poset_digest(warm) == cold_digest, f"{key}: warm poset differs from cold")
            reach_bytes += sum(d.bit_length() for d in getattr(warm, "down", ())) / 8
            batch = draw_queries(fam, warm, random.Random(f"{name}:{seed}:{key}"))
            run_queries(co, fam, warm, batch, spec["repeats"]["queries"], traced, tally, key,
                        samples)
            le_count += len(batch["le"])
            explain_count += len(batch["explain"])
            le_true += sum(batch["le_expect"])
            del warm, batch
        out.update({
            "le_queries": le_count,
            "le_true": le_true,
            "explain_queries": explain_count,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, reach_bytes)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        out.update({"attempted": tally.attempted, "failed": tally.failed, "notes": tally.notes})
    return out


def run_fixtures(co) -> dict:
    tally = Tally()
    for fig in co.fixtures.FIGURES:
        try:
            diffs = co.fixtures.compare_fixture(co.fixtures.load_fixture(fig))
        except Exception as exc:
            diffs = [f"{type(exc).__name__}: {exc}"]
        tally.op(not diffs, f"{fig}: {diffs[:3]}")
    return {"attempted": tally.attempted, "failed": tally.failed, "notes": tally.notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--fixtures", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    co = import_package()
    spec = load_design()["workloads"][args.workload]
    fams = [(make_family(co, inst), inst) for inst in spec["instances"]]
    setup_s = time.monotonic() - args.t0

    if args.probe:
        ref = reference_s()
        result = {"setup": [setup_s, setup_s * REFERENCE_NOMINAL_S / ref]}
        if args.fixtures:
            result["fixtures"] = run_fixtures(co)
        print(json.dumps(result))
        return 0
    tracer = None
    if args.trace:
        from bench_trace import Tracer

        tracer = Tracer()
        plan_trace(co, tracer)
    answers = None if args.record else load_answers()[args.workload]
    result = run_workload(co, args.workload, spec, fams, args.seed, tracer, answers)
    result["setup"] = [setup_s, setup_s * REFERENCE_NOMINAL_S / result["reference_s"]]
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
