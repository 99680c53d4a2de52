#!/usr/bin/env python3
"""Compare e2ebench result sets by the rules BENCHMARK.json's bounds fix.

    compare_e2e.py pairs PARENT_ROOT CHANGE_ROOT --pairs 10 --seed 100 \\
        --out-parent parent.json --out-change change.json
        Runs every workload on two checkouts (each holding the same
        e2ebench/ and BENCHMARK.json), alternating which side runs first,
        one seed per pair.

    compare_e2e.py compare parent.json change.json
        Per (workload, end-to-end metric): each side's median and
        quartiles, and a verdict:
          gain         the change wins at least 9/10 of the pairs (ties
                       count for neither) and the medians differ by more
                       than the parent's interquartile distance;
          unresolved   the parent's own spread (IQR / median) exceeds the
                       bound, unless every change run beats every parent run;
          regression   the change's median is worse than the parent's by
                       more than the bound;
          held         otherwise.
        Also the failure-share check: a workload whose pooled
        failed/attempted share rose by more than FAILURE_SHARE_BOUND is
        flagged, and no gain counts there. Exits 1 on any regression or
        failure-share rise.

    compare_e2e.py agree A.json B.json
        The reproducibility criterion: two sets of runs of the same code
        agree when, for every (workload, metric), each set's spread is
        within the bound and the medians differ by no more than the bound.
        Exits 1 otherwise.

Result files are what `run.py --out` or the pairs mode writes; only plain
(untraced) runs are compared. Pairs are matched by seed. Only the workloads
BENCHMARK.json lists decide the exit code; others (cyclic_batch, whose
CPU-bound numbers move with the host's load by more than the bounds) are
printed and marked "ungated".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# The largest rise in the pooled failed/attempted share that still passes.
FAILURE_SHARE_BOUND = 0.001


def load_runs(path):
    """{workload: {seed: run}} of the plain runs in a result file."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for r in doc["runs"]:
        if not r.get("traced"):
            out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def values(runs, seeds, metric):
    return [runs[s]["metrics"][metric]["value"] for s in seeds]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med if med else 0.0


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def worse_share(new, old, direction):
    if old == 0:
        return 0.0
    return (old - new) / old if direction == "higher" else (new - old) / old


def failure_share(runs, seeds):
    attempted = sum(runs[s]["attempted"] for s in seeds)
    failed = sum(runs[s]["failed"] for s in seeds)
    return failed / attempted if attempted else 0.0


def cmd_compare(args, spec):
    parent, change = load_runs(args.parent), load_runs(args.change)
    gated = {w["name"] for w in spec["workloads"]}
    bad = False
    print(f"{'workload':16} {'metric':18} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
    for w in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[w]) & set(change[w]))
        pf, cf = failure_share(parent[w], seeds), failure_share(change[w], seeds)
        failures_rose = cf - pf > FAILURE_SHARE_BOUND
        for m in spec["end_to_end"]:
            name, direction, bound = m["name"], m["better"], m["bound"]
            p, c = values(parent[w], seeds, name), values(change[w], seeds, name)
            pq, cq = quartiles(p), quartiles(c)
            wins = sum(better(cv, pv, direction) for cv, pv in zip(c, p))
            if (wins >= 0.9 * len(seeds) and abs(cq[1] - pq[1]) > pq[2] - pq[0]
                    and not failures_rose):
                verdict = "gain"
            elif spread(p) > bound and not all(
                    better(cv, pv, direction) for cv in c for pv in p):
                verdict = "unresolved"
            elif worse_share(cq[1], pq[1], direction) > bound:
                verdict = "regression"
                bad |= w in gated
            else:
                verdict = "held"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:16} {name:18} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{wins:>3}/{len(seeds):<2}  {verdict}"
                  f"{'' if w in gated else ' (ungated)'}")
        note = "ROSE" if failures_rose else "ok"
        print(f"{w:16} failure share parent {pf:.5f} change {cf:.5f} ({note})")
        bad |= failures_rose
    return 1 if bad else 0


def cmd_agree(args, spec):
    a, b = load_runs(args.a), load_runs(args.b)
    gated = {w["name"] for w in spec["workloads"]}
    ok = True
    for w in sorted(set(a) | set(b)):
        if w not in a or w not in b:
            print(f"{w}: missing from one set")
            ok = False
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a[w].values()]
            vb = [r["metrics"][name]["value"] for r in b[w].values()]
            ma, mb = statistics.median(va), statistics.median(vb)
            drift = abs(mb - ma) / ma if ma else 0.0
            sa, sb = spread(va), spread(vb)
            fine = drift <= bound and max(sa, sb) <= bound
            if w in gated:
                ok &= fine
            print(f"{w:16} {name:18} median {ma:12.5g} -> {mb:12.5g} "
                  f"drift {drift:.4f} spread {sa:.4f}/{sb:.4f} bound {bound} "
                  f"{'agree' if fine else 'DISAGREE'}"
                  f"{'' if w in gated else ' (ungated)'}")
    return 0 if ok else 1


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: {workload} seed {seed} printed no result")
    line = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "traced": False,
            "ok": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"], "metrics": line["metrics"]}


def cmd_pairs(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    sides = {"parent": [], "change": []}
    roots = {"parent": args.parent_root, "change": args.change_root}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                sides[side].append(run_side(roots[side], w, args.seed + i,
                                            args.seconds))
                print(f"pair {i} {w} {side} done", file=sys.stderr)
    for side, path in (("parent", args.out_parent), ("change", args.out_change)):
        with open(path, "w") as f:
            json.dump({"benchmark": "e2ebench", "runs": sides[side]}, f, indent=1)
            f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spec", default=str(SPEC))
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    g = sub.add_parser("agree")
    g.add_argument("a")
    g.add_argument("b")
    p = sub.add_parser("pairs")
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    p.add_argument("--out-parent", required=True)
    p.add_argument("--out-change", required=True)
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    return {"compare": cmd_compare, "agree": cmd_agree, "pairs": cmd_pairs}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
