#!/usr/bin/env python3
"""End-to-end serving benchmark: builds bench_e2e and runs its workloads.

bench_e2e is built from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build). Each workload runs in a fresh
process, so peak RSS and the process-global metrics registry are per
workload. Metric names, units and bounds come from BENCHMARK.json at the
repository root.

One run (the form BENCHMARK.json's command takes):

    python3 e2ebench/run.py --workload ladder_stream --seed 1 --seconds 25 --trace 0

prints every metric by name and unit, then, as the last stdout line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1. A name the workload has no layer for reads 0. It exits 1 on any
wrong answer or failed check.

A suite (every workload, or one, over several seeds):

    python3 e2ebench/run.py --workload all --seed 1 --runs 5 --trace 1 --out results.json
    python3 e2ebench/run.py --workload all --smoke

runs the plain runs, plus one traced run per workload with --trace 1,
prints each, writes every run to --out for compare_e2e.py, and reports the
tracing overhead (traced HTTP p50 over the plain median p50). --smoke is
2 s per workload, plain only, with the same checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["ladder_stream", "cyclic_batch", "zipf_cached", "ingest_durable"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise SystemExit("e2ebench: no binchain sources next to the benchmark; nothing to build")
    if shutil.which("cmake") is None:
        raise SystemExit("e2ebench: cmake not found")
    out = build_dir() / "e2ebench"
    if not (out / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("e2ebench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise SystemExit("e2ebench: build failed")
    return out / "bench_e2e"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(binary, spec, workload, seed, seconds, traced, warmup=2.0, setups=5):
    """Runs one workload in a fresh process; returns its parsed result."""
    work = build_dir() / "e2ebench-run" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--warmup", str(warmup),
           "--setups", str(setups), "--workdir", str(work)]
    if traced:
        traces = build_dir() / "e2ebench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", str(traces / f"{workload}-seed{seed}")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"e2ebench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"e2ebench: {workload} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    # A metric of a layer the workload does not have reads 0, so every run
    # reports every name BENCHMARK.json lists.
    for m in spec["end_to_end"] + spec["per_layer"]:
        result["metrics"].setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    return result


def contract_line(result, names):
    return {"correct": bool(result["ok"]) and result["exit_code"] == 0,
            "attempted": max(1, int(result["attempted"])),
            "failed": int(result["failed"]),
            "metrics": {name: result["metrics"][name] for name in names}}


def print_result(result, names):
    mode = "traced" if result["traced"] else "plain"
    print(f"== {result['workload']} seed={result['seed']} {mode}: "
          f"ok={result['ok']} attempted={result['attempted']} "
          f"failed={result['failed']} wrong={result['wrong']} "
          f"samples={int(result['info'].get('samples', 0))}")
    for name in names:
        m = result["metrics"][name]
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")
    host = result["host"]
    print(f"   effective cores {host['effective_cores_start']:.2f} -> "
          f"{host['effective_cores_end']:.2f} of {host['nproc']}")
    for e in result["errors"]:
        print(f"   ! {e}")


def suite(binary, spec, args):
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    seconds = 2 if args.smoke else args.seconds
    warmup, setups = (0.5, 1) if args.smoke else (2.0, 5)
    runs, ok = [], True
    for w in workloads:
        plain = []
        for k in range(args.runs):
            r = run_one(binary, spec, w, args.seed + k, seconds, False, warmup, setups)
            print_result(r, e2e_names)
            plain.append(r)
        runs += plain
        ok &= all(r["ok"] and r["exit_code"] == 0 for r in plain)
        if args.smoke or not args.trace:
            continue
        t = run_one(binary, spec, w, args.seed, seconds, True, warmup, setups)
        print_result(t, layer_names)
        runs.append(t)
        ok &= t["ok"] and t["exit_code"] == 0
        base = statistics.median(r["metrics"]["p50_ms"]["value"] for r in plain)
        traced_p50 = t["metrics"]["trace.http_p50_ms"]["value"]
        if traced_p50 > 0 and base > 0:
            print(f"   tracing overhead: traced HTTP p50 / plain median p50 = "
                  f"{traced_p50 / base:.4f}")
    if args.out:
        doc = {"benchmark": "e2ebench", "seconds": seconds, "runs": [
            {k: r[k] for k in ("workload", "seed", "traced", "ok", "attempted",
                               "failed", "wrong", "metrics", "info", "host")}
            for r in runs]}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")
    print(json.dumps({"correct": ok, "runs": len(runs)}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    if args.workload == "all" or args.runs > 1 or args.smoke or args.out:
        return suite(binary, spec, args)
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    result = run_one(binary, spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, names)
    line = contract_line(result, names)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
