"""clanorbits benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record     # rewrite perfbench/answers.json

Run from the root of a checkout; the package is imported from its
`src/`.  The loop is closed with one client: every run of the workload
is a fresh child process (bench_worker.py), started only after the
previous one has exited, so peak memory and set-up time belong to that
run alone.  Set-up is also sampled by short probe processes, the first
of which diffs the four reference figures, untimed.

With `--trace 0` runs repeat until the next one would pass `--seconds`
(at least one).  Every timing is taken in parts (each build, each
isogeny view, each warm load, each block of queries) and each part is
scaled by a fixed reference loop timed just before and after it, to the
speed at which that loop takes `REFERENCE_NOMINAL_S`: the host's speed
changes by up to 1.6x every few seconds, which wall time alone cannot
tell from a change in the program.  `solve_s`, `warm_start_s` and the
query metrics sum the parts' medians over every sample of the run;
`setup_s` is the median over five probe starts and every workload start,
scaled the same way; `peak_rss_mb` is the median.  The line before the
result gives every sample, scaled and as measured.  With `--trace 1`
untraced and traced runs alternate; the per-layer metrics are medians
over the traced runs and `trace.overhead_frac` is the traced `solve_s`
over the untraced one, minus 1.  The result line gives the per-layer
metrics BENCHMARK.json names, which every workload enters; the line
before it also gives those of the layers only this workload enters.

Every answer is checked; a miss counts as a failed operation and makes
`correct` false.  The last line of standard output is the result object;
the line before it gives the samples behind each median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "bench_worker.py"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker process to completion and return its result object."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0), *flags], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker {' '.join(flags) or 'run'} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def part_sum(results: list[dict], metric: str, scaled: bool = True) -> float:
    """Sum over the metric's timed parts (one build, one view, one warm
    load, one query block) of the part's median over every sample of the
    runs, scaled to the reference speed or as measured."""
    merged: dict[str, list[float]] = {}
    for res in results:
        for part, pairs in res["parts"].get(metric, {}).items():
            merged.setdefault(part, []).extend(pair[scaled] for pair in pairs)
    return sum(median(v) for v in merged.values())


def per_query_us(results: list[dict], kind: str, scaled: bool = True) -> float:
    """Microseconds per query of one kind ("le" or "explain"); every run
    draws the same queries."""
    count = results[0][f"{kind}_queries"]
    return part_sum(results, kind, scaled) / count * 1e6 if count else 0.0


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def record() -> int:
    design = json.loads((HERE / "design.json").read_text())
    answers = {name: child(name, 0, "--record")["answers"] for name in design["workloads"]}
    (HERE / "answers.json").write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(json.dumps({name: len(views) for name, views in answers.items()}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "clanorbits" / "__init__.py").is_file():
        fail(f"no clanorbits source under {ROOT / 'src'}; run from a checkout")
    if args.record:
        return record()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    metric_list = bench["per_layer"] if args.trace else bench["end_to_end"]
    (HERE / "out").mkdir(exist_ok=True)

    attempted = failed = 0
    notes: list[str] = []

    def tally(res: dict) -> None:
        nonlocal attempted, failed
        attempted += res["attempted"]
        failed += res["failed"]
        notes.extend(res["notes"][: max(0, 20 - len(notes))])

    setup = []
    for i in range(SETUP_PROBES):
        res = child(args.workload, args.seed, "--probe", *(["--fixtures"] if i == 0 else []))
        setup.append(res["setup"])
        if i == 0:
            tally(res["fixtures"])

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    durations: list[float] = []
    while True:
        t = time.monotonic()
        res = child(args.workload, args.seed)
        tally(res)
        plain.append(res)
        setup.append(res["setup"])
        if args.trace:
            path = HERE / "out" / f"trace-{args.workload}-{args.seed}-{len(traced)}.json"
            res = child(args.workload, args.seed, "--trace", str(path))
            tally(res)
            traced.append(res)
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + median(durations) > args.seconds:
            break

    samples: dict[str, list[float]] = {}
    if args.trace:
        for res in traced:
            for name, value in res["layers"].items():
                samples.setdefault(name, []).append(value)
        values = {name: median(v) for name, v in samples.items()}
        values["trace.overhead_frac"] = part_sum(traced, "solve") / part_sum(plain, "solve") - 1
        samples["solve_s.untraced"] = [part_sum([r], "solve") for r in plain]
        samples["solve_s.traced"] = [part_sum([r], "solve") for r in traced]
    else:
        values = {
            "setup_s": median([scaled for _, scaled in setup]),
            "solve_s": part_sum(plain, "solve"),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "warm_start_s": part_sum(plain, "warm"),
            "le_query_us": per_query_us(plain, "le"),
            "explain_query_us": per_query_us(plain, "explain"),
        }
        samples = {
            "setup_s.measured": [measured for measured, _ in setup],
            "setup_s": [scaled for _, scaled in setup],
            "reference_s": [r["reference_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, metric in (("solve_s", "solve"), ("warm_start_s", "warm")):
            samples[name] = [part_sum([r], metric) for r in plain]
            samples[f"{name}.measured"] = [part_sum([r], metric, False) for r in plain]
        for kind in ("le", "explain"):
            samples[f"{kind}_query_us"] = [per_query_us([r], kind) for r in plain]
            samples[f"{kind}_query_us.measured"] = [per_query_us([r], kind, False) for r in plain]
    metrics = {}
    for m in metric_list:
        if m["name"] in values:
            value = values[m["name"]]
        elif args.trace:
            # BENCHMARK.json lists only layers every workload enters; one
            # that a later change takes out of the workload did no work.
            value = 0
        else:
            fail(f"the workers did not measure {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "runs": len(plain),
        "traced_runs": len(traced),
        "run_wall_s": durations,
        "failed_frac": failed / attempted if attempted else 1.0,
        "le_queries": plain[0].get("le_queries"),
        "le_true": plain[0].get("le_true"),
        "explain_queries": plain[0].get("explain_queries"),
        "samples": {k: {"n": len(v), "median": median(v), "quartiles": quartiles(v), "values": v}
                    for k, v in samples.items()},
        "failures": notes,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
