"""Per-phase breakdown of one trace file written by a traced run.

    python3 perfbench/breakdown.py perfbench/out/trace-<workload>-<seed>-<i>.json

The benchmark's phases (bench.solve, bench.save, bench.warm, bench.le,
bench.explain) are the root spans.  For each phase it prints every span
name below it with its calls, total seconds, self seconds and self share
of the phase, largest self time first, so a change's saving can be
placed in a layer.
"""

from __future__ import annotations

import json
import sys

from bench_trace import summarize


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    phases = summarize(trace["names"], spans["name"], spans["parent"], spans["start"],
                       spans["end"], by_root=True)
    for phase, layers in phases.items():
        total = layers[phase]["s"]
        print(f"{phase}: {total:.4f} s")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            share = row["self_s"] / total if total else 0.0
            print(f"  {name:34s} {row['calls']:>8d} calls  {row['s']:9.4f} s"
                  f"  self {row['self_s']:9.4f} s  {share:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
