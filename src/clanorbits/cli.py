"""Command-line driver: orbit tables, DOT diagrams, verification runs.

    clanorbits list   --family a --p 2 --q 2 [--isogeny adjoint] [--format tsv|json]
    clanorbits poset  --family d --n 4 [--dot out.dot]
    clanorbits verify springer --family a --p 2 --q 2
    clanorbits verify figures  [--fixture fig4]
    clanorbits verify counts   --family c --p 2 --q 2
    clanorbits verify oracle   --family a --p 1 --q 2

Exit codes: 0 pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import groupby

from .cache import load_or_build, poset_to_dict
from .clans import CONVENTIONS
from .closure import Covers, OrbitPoset, quotient_poset, raising_moves_oracle
from .errors import CacheError, ClanError, ConsistencyError, RankTooLarge
from .family_a import FamilyA
from .family_c import FamilyC
from .family_d import ISOGENY_LEVELS_D, FamilyD
from .fixtures import FIGURES, compare_fixture, load_fixture
from .springer import cross_validate


def make_family(args, parser):
    if args.family == "d":
        if args.n is None:
            parser.error("--family d needs --n")
        return FamilyD(args.n, args.convention)
    if args.p is None or args.q is None:
        parser.error(f"--family {args.family} needs --p and --q")
    return FamilyA(args.p, args.q) if args.family == "a" else FamilyC(args.p, args.q)


def family_poset(family, args) -> OrbitPoset:
    """The poset at the requested isogeny level."""
    fold = family.isogeny_fold(args.isogeny)
    poset = load_or_build(family, args.cache_dir, args.max_orbits)
    return quotient_poset(poset, fold, args.isogeny)


def orbit_rows(family, poset: OrbitPoset) -> list[dict]:
    judged = family.verdicts(poset)  # checks every member once
    rows = []
    for i, clan in sorted(enumerate(poset.orbits), key=lambda t: str(t[1])):
        smooth, form = judged[i]
        rows.append(
            {
                "clan": str(clan),
                "members": [str(m) for m in poset.members[i]],
                "dim": poset.dims[i],
                "closed": clan.is_all_signs(),
                "smooth": smooth,
                "fiber_form": form.describe() if form else "",
            }
        )
    return rows


def poset_dot(family, poset: OrbitPoset) -> str:
    """DOT digraph: one rank per dimension (a run of ids), boxes on singular
    closures, dashed style on completion edges, root labels on the rest."""
    lines = ["digraph closure {", "  rankdir=BT;", '  node [shape=ellipse];']
    for i, (clan, (smooth, _)) in enumerate(zip(poset.orbits, family.verdicts(poset))):
        shape = "ellipse" if smooth else "box"
        lines.append(f'  n{i} [label="{clan.compact()}" shape={shape}];')
    for _, run in groupby(range(len(poset)), key=poset.dims.__getitem__):
        group = "; ".join(f"n{i}" for i in run)
        lines.append(f"  {{ rank=same; {group}; }}")
    for lo, hi, root in poset.covers:
        attr = "style=dashed" if root is None else f'label="{root}"'
        lines.append(f"  n{lo} -> n{hi} [{attr}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_list(args, parser) -> int:
    family = make_family(args, parser)
    view = family_poset(family, args)
    rows = orbit_rows(family, view)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print("clan\tdim\tclosed\tsmooth\tfiber_form")
        for r in rows:
            print(
                f"{r['clan']}\t{r['dim']}\t{int(r['closed'])}"
                f"\t{int(r['smooth'])}\t{r['fiber_form']}"
            )
    return 0


def cmd_poset(args, parser) -> int:
    if args.format == "json" and args.dot:
        parser.error("--dot writes DOT; it does not go with --format json")
    family = make_family(args, parser)
    view = family_poset(family, args)
    if args.format == "json":
        family.verdicts(view)  # checks every member, as the DOT path does
        print(json.dumps(poset_to_dict(view), indent=2))
        return 0
    text = poset_dot(family, view)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(text)
        print(f"wrote {args.dot}")
    else:
        sys.stdout.write(text)
    return 0


def _verify_springer(args, parser) -> int:
    family = make_family(args, parser)
    view = family_poset(family, args)
    report = cross_validate(family, view)
    ok = not report["mismatches"]
    print(
        f"springer {family}: {report['orbits']} orbits, "
        f"{report['not_rationally_smooth']} singular, "
        f"{len(report['mismatches'])} mismatches: {'pass' if ok else 'FAIL'}"
    )
    for m in report["mismatches"]:
        print(f"  mismatch {m}")
    return 0 if ok else 1


def _verify_figures(args, parser) -> int:
    failures = 0
    targets = [args.fixture] if args.fixture else list(FIGURES)
    for fig in targets:
        fx = load_fixture(fig)
        diffs = compare_fixture(fx)
        print(f"figures {fig}: {'pass' if not diffs else 'FAIL'}")
        for d in diffs[:10]:
            print(f"  {d}")
        failures += bool(diffs)
    return 1 if failures else 0


def _verify_counts(args, parser) -> int:
    family = make_family(args, parser)
    expected = family.count()
    if expected > args.max_orbits:
        raise RankTooLarge(f"{expected} orbits exceed the cap of {args.max_orbits}")
    orbits = family.enumerate()
    ok = len(orbits) == expected
    line = f"counts {family}: {len(orbits)} orbits vs closed form {expected}"
    if args.family != "a":
        try:
            poset = load_or_build(family, args.cache_dir, args.max_orbits)
            same = set(poset.orbits) == set(orbits)
        except ConsistencyError as exc:  # the build's own closure check
            print(f"error: {exc}", file=sys.stderr)
            same = False
        ok = ok and same
        line += f"; move closure {'matches' if same else 'DIFFERS from'} the predicate"
    print(f"{line}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _verify_oracle(args, parser) -> int:
    """Every raising move must land strictly higher in the completed
    order (soundness).  The moves do not generate the order: none of
    them introduces signs, yet completion places sign-free clans below
    signed ones (e.g. 1,1,2,2 below 1,+,-,1 already at rank 4), so the
    generation gap is reported as a finding, not a failure."""
    if args.family != "a":
        parser.error("the raising-move oracle applies to --family a")
    family = make_family(args, parser)
    poset = load_or_build(family, args.cache_dir, args.max_orbits)
    family.verdicts(poset)  # checks every member: a foreign one is named, not a move off it
    unsound = 0
    moves = []
    for i, clan in enumerate(poset.orbits):
        for target in raising_moves_oracle(clan):
            j = poset.id_of(target)
            if not poset.le_ids(i, j) or i == j:
                unsound += 1
            moves.append((i, j, None))
    # the down-sets of the order the moves generate, by the poset's own pass
    back = OrbitPoset(poset.meta, poset.orbits, poset.dims, Covers.of(moves)).down_over(
        range(len(poset)))
    missing = sum((down & ~b).bit_count() for down, b in zip(poset.down, back))
    ok = unsound == 0
    print(
        f"oracle {family}: {unsound} unsound moves; move closure misses "
        f"{missing} of the order relations (expected for signed targets): "
        f"{'pass' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="clanorbits", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p, required=True):
        p.add_argument("--family", choices=("a", "c", "d"), required=required)
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--isogeny", default="sc", choices=ISOGENY_LEVELS_D)
        p.add_argument("--convention", default="paper", choices=CONVENTIONS)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--max-orbits", type=int, default=100_000)

    p_list = sub.add_parser("list", help="one row per orbit or orbit class")
    add_family_flags(p_list)
    p_list.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_poset = sub.add_parser("poset", help="emit the closure order as DOT or JSON")
    add_family_flags(p_poset)
    p_poset.add_argument("--dot", default=None, help="write DOT to this path")
    p_poset.add_argument("--format", choices=("dot", "json"), default="dot")

    p_verify = sub.add_parser("verify", help="run a verification target")
    p_verify.add_argument("target", choices=("springer", "figures", "counts", "oracle"))
    add_family_flags(p_verify, required=False)
    p_verify.add_argument("--fixture", choices=FIGURES, default=None)

    args = parser.parse_args(argv)
    if args.max_orbits < 0:
        parser.error(f"argument --max-orbits: must be at least 0, got {args.max_orbits}")
    if args.command == "verify" and args.target != "figures" and not args.family:
        parser.error(f"verify {args.target} needs --family")
    try:
        if args.command == "list":
            return cmd_list(args, parser)
        if args.command == "poset":
            return cmd_poset(args, parser)
        target = {
            "springer": _verify_springer,
            "figures": _verify_figures,
            "counts": _verify_counts,
            "oracle": _verify_oracle,
        }[args.target]
        return target(args, parser)
    except (ClanError, CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
