#!/usr/bin/env python3
"""CI bench-regression gate.

Compares a smoke-run bench JSON against the committed baseline snapshot and
fails (exit 1) on structural regressions that survive machine-speed noise:

* any benchmark entry with ``ok: false`` (covers result-set divergence
  across thread counts — bench_service folds its identical-results check
  into ``ok``);
* ``bench_service``: within one smoke run, entries of the same batch at
  different thread counts must agree on ``result_hash``, ``tuples``,
  ``fetches`` and ``evaluated`` (schedule-independence of results,
  aggregate t-cost and single-flight collapsing);
* ``bench_service``: every entry's blocking rep and async rep must
  evaluate the same number of queries (``evaluated`` vs
  ``async_evaluated``) — both paths collapse identical requests exactly,
  and an async path that lets duplicates escape their flight was the
  regression behind erratic async throughput;
* ``bench_service``: a batch family whose committed baseline shows zero
  batch fetches (the epoch-shared-artifact effect) must still show zero in
  the smoke run — fetch totals "bouncing back from zero" was the
  regression mode that motivated the artifacts work;
* ``bench_service``: unexpected per-query status codes — throughput
  batches must be all-OK, and the cancellation benchmark must report every
  query as ``deadline_exceeded`` (in-flight enforcement actually fired);
* ``bench_service``: the observability before/after column — the same
  batch with metrics recording off vs on, in interleaved pairs within one
  run so machine speed cancels, reported as the median of the per-pair
  ratios of process CPU time — must stay within ``OBS_OVERHEAD_BOUND``; the
  design target is <=1% (a handful of relaxed atomics per completed
  query), the gate bound is looser only to absorb CI-runner noise;
* ``bench_service``: the answer-cache A/B — the skewed-repeat stream must
  hash identically with the cache on and off (the cache may never change
  an answer), the cache-on side must be at least as fast as cache-off,
  and the publish-heavy invalidation rep must stay selective (publishes
  touching only one base relation retire only the entries it supports);
* ``bench_storage``: every ``ours-core`` row (``Engine::EvalFrom`` on
  prebuilt views) must report the same ``fetches`` and ``nodes`` as its
  ``ours`` row (the same query through ``QueryEngine::Query``): the
  facade may cost wall time, never EDB retrievals or nodes of G(p, a, i);
* ``bench_storage``: the paper's counts against the committed snapshot —
  a row named like a committed row (same workload, strategy and size)
  must report its ``fetches``, ``nodes`` and ``results``, so a change that
  moves them on ``ours`` and ``ours-core`` alike still fails. A smoke run
  uses other sizes and shares no row name; a run that shares any is a
  full-size run and must carry every committed row;
* ``bench_live``: the publish-scaling sanity flag, when present in both
  files, must not regress from sublinear to superlinear;
* ``bench_live``: write amplification must not grow with the database —
  the largest ladder train's ``compacted_rows_per_added_row`` (rows and
  spellings chain compaction copied per one added) may exceed the
  smallest's by at most ``WRITE_AMP_GROWTH_BOUND``, and the trains must
  stay below the doubling rule so no root rewrite mixes in. Counted
  copies, not time: deterministic on any machine. Size-tiered merges copy
  what the deltas added whatever the root size; a policy that re-copies a
  whole relation at the depth cap grows the ratio with the ladder;
* ``bench_live``: the durable-publish block must report ``ok`` (the
  recovered tip renders identical to the pre-shutdown tip) and the
  no-fsync WAL overhead ratio — durable publish over in-memory publish,
  measured within the same run so machine speed cancels — must stay
  within 25% (record framing, CRC and appends staying cheap relative to
  Publish() itself; raw fdatasync latency is hardware and is reported
  but not gated).

Wall-clock numbers are never compared: smoke runs use smaller inputs and
CI machines vary. The gate asserts invariants, not speed. It only warns
when the baseline's host block differs from this machine (CPU model,
nproc) or from the current run's (``effective_cores`` apart by more than
25%, or missing from a baseline that predates it).

Usage:  check_regression.py <baseline.json> <smoke.json>
"""

import json
import os
import re
import sys
from collections import defaultdict


def current_cpu_model():
    """Best-effort CPU model string, matching bench_util.h's CpuModel()."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


# Relative difference in host.effective_cores (bench_util.h's calibrated
# spin test) past which the baseline and the current run count as having
# had different parallelism.
EFFECTIVE_CORES_TOLERANCE = 0.25


def warn_host_mismatch(baseline, current):
    """Non-fatal: flag a baseline recorded on different hardware.

    The gate itself only checks machine-independent invariants, but the
    numbers humans read next to a failure (wall times, ratios near their
    bounds) are only comparable on like hardware — so say so out loud
    instead of leaving the mismatch to be discovered mid-investigation.
    `nproc` alone does not describe the parallelism a run got, so the
    effective cores both runs measured are compared too.
    """
    host = baseline.get("host")
    if not isinstance(host, dict):
        return
    mismatches = []
    nproc = os.cpu_count()
    if host.get("nproc") not in (None, 0) and nproc and host["nproc"] != nproc:
        mismatches.append(f"nproc {host['nproc']} vs {nproc}")
    cpu = current_cpu_model()
    if host.get("cpu") and cpu and host["cpu"] != cpu:
        mismatches.append(f"cpu '{host['cpu']}' vs '{cpu}'")
    cur_host = current.get("host")
    cores = cur_host.get("effective_cores") if isinstance(cur_host, dict) else None
    base_cores = host.get("effective_cores")
    if base_cores is None:
        print("NOTE: the baseline predates host.effective_cores, so the "
              "parallelism its run got is unknown"
              + (f" (this run: {cores:.2f} effective cores)."
                 if cores is not None else "."))
    elif cores is not None and (
            abs(cores - base_cores) > EFFECTIVE_CORES_TOLERANCE * base_cores):
        mismatches.append(
            f"effective_cores {base_cores:.2f} vs {cores:.2f}")
    if mismatches:
        print(
            "WARNING: baseline host differs from this machine "
            f"({'; '.join(mismatches)}). Invariant checks below are still "
            "valid; absolute timings in the baseline are not comparable.")


def fail(errors):
    for e in errors:
        print(f"REGRESSION: {e}")
    print(f"{len(errors)} bench regression(s) detected")
    sys.exit(1)


def family(name):
    """Batch family: the benchmark name with thread-count and size params
    stripped, so smoke (small n) and baseline (full n) entries match."""
    name = re.sub(r"/threads=\d+$", "", name)
    name = re.sub(r"/n=\d+", "", name)
    name = re.sub(r"/h=\d+", "", name)
    return name


def check_ok_flags(tag, entries, errors):
    for b in entries:
        if not b.get("ok", False):
            errors.append(f"{tag}: benchmark '{b.get('name')}' reports ok=false")


def check_service(baseline, smoke, errors):
    sm = smoke.get("benchmarks", [])
    base = baseline.get("benchmarks", [])
    check_ok_flags("service", sm, errors)

    # Cross-thread-count agreement within the smoke run.
    groups = defaultdict(list)
    for b in sm:
        groups[family(b["name"])].append(b)
    for fam, entries in groups.items():
        for key in ("result_hash", "tuples", "fetches", "evaluated"):
            if key not in entries[0]:
                continue  # older snapshot without the field
            values = {e.get(key) for e in entries}
            if len(values) > 1:
                errors.append(
                    f"service: batch '{fam}' disagrees on {key} across "
                    f"thread counts: {sorted(map(str, values))}")

    # Single-flight: the async path collapses exactly like the blocking one.
    for b in sm:
        if "evaluated" not in b or "async_evaluated" not in b:
            continue  # older snapshot without the fields
        if b["evaluated"] != b["async_evaluated"]:
            errors.append(
                f"service: batch '{b['name']}' evaluated {b['evaluated']} "
                f"queries blocking but {b['async_evaluated']} async — "
                "identical requests escaped single-flight on one path")

    # Fetch totals must not bounce back from zero where the baseline
    # established zero (epoch-shared artifacts serving every probe).
    base_zero = {
        family(b["name"])
        for b in base
        if b.get("ok") and b.get("fetches", 1) == 0
    }
    for fam, entries in groups.items():
        if fam not in base_zero:
            continue
        bad = [(e["name"], e.get("fetches", 0))
               for e in entries if e.get("fetches", 0) != 0]
        if bad:
            errors.append(
                f"service: field 'fetches' of batch '{fam}' regressed: "
                f"baseline=0, current={bad}")

    # Observability overhead: metrics on vs off, measured within one run.
    overhead = smoke.get("obs_overhead")
    base_overhead = baseline.get("obs_overhead")
    if overhead is not None:
        if not overhead.get("ok", False):
            errors.append(
                f"service: obs_overhead benchmark reports ok=false "
                f"({overhead.get('name')})")
        else:
            ratio = overhead.get("ratio", 0)
            if ratio > OBS_OVERHEAD_BOUND:
                errors.append(
                    "service: field 'obs_overhead.ratio' regressed: "
                    f"baseline={base_overhead.get('ratio') if base_overhead else 'n/a'}, "
                    f"current={ratio:.4f} (metrics on "
                    f"{overhead.get('cpu_on_ms')} ms vs off "
                    f"{overhead.get('cpu_off_ms')} ms of CPU), bound is "
                    f"x{OBS_OVERHEAD_BOUND} — metrics recording has crept "
                    "into the query hot path")
    elif base_overhead is not None:
        errors.append(
            "service: baseline has an obs_overhead block but the smoke run "
            "produced none")

    # Answer cache: the skewed-repeat stream must answer identically with
    # the cache on, and a cache that slows the repeat-heavy shape down has
    # lost its reason to exist (wall-noise-proof: both sides run
    # interleaved within the same process on the same frozen database).
    skewed = smoke.get("skewed")
    if skewed is not None:
        if not skewed.get("ok", False):
            errors.append(
                f"service: skewed cache benchmark reports ok=false "
                f"({skewed.get('name')})")
        else:
            if not skewed.get("hashes_match", False):
                errors.append(
                    "service: skewed cache benchmark diverged: cache-on "
                    f"hash {skewed.get('result_hash_on')} != cache-off "
                    f"hash {skewed.get('result_hash_off')} — the cache "
                    "changed an answer")
            if skewed.get("qps_on", 0) < skewed.get("qps_off", 0):
                errors.append(
                    "service: field 'skewed.qps_on' regressed below "
                    f"qps_off: on={skewed.get('qps_on'):.1f}, "
                    f"off={skewed.get('qps_off'):.1f} — the answer cache "
                    "costs more than it saves on its home workload")
    elif baseline.get("skewed") is not None:
        errors.append(
            "service: baseline has a skewed cache block but the smoke run "
            "produced none")

    invalidation = smoke.get("cache_invalidation")
    if invalidation is not None:
        if not invalidation.get("ok", False):
            errors.append(
                f"service: cache_invalidation benchmark reports ok=false "
                f"({invalidation.get('name')})")
        elif not invalidation.get("selective", False):
            errors.append(
                "service: cache invalidation lost selectivity: "
                f"{invalidation.get('invalidated')} entries invalidated "
                f"over {invalidation.get('publishes')} publishes, expected "
                f"{invalidation.get('expected_per_publish')} per publish "
                "with every unaffected entry still hitting")
    elif baseline.get("cache_invalidation") is not None:
        errors.append(
            "service: baseline has a cache_invalidation block but the "
            "smoke run produced none")

    # Streamed delivery: the first chunk must land strictly before the
    # full response on the ladder (the structural claim of the data
    # plane — chunks leave the engine mid-fixpoint). Wall-noise-proof:
    # both numbers come from the same queries in the same process.
    streaming = smoke.get("streaming")
    if streaming is not None:
        if not streaming.get("ok", False):
            errors.append(
                f"service: streaming benchmark reports ok=false "
                f"({streaming.get('name')})")
        else:
            first = streaming.get("first_chunk_p50_ms", 0)
            total = streaming.get("total_p50_ms", 0)
            if first >= total:
                errors.append(
                    "service: field 'streaming.first_chunk_p50_ms' "
                    f"regressed: first chunk p50 {first} ms >= full "
                    f"response p50 {total} ms on '{streaming.get('name')}' "
                    "— streamed chunks no longer leave mid-evaluation")
            queries = streaming.get("queries", 0)
            if streaming.get("chunks", 0) < 2 * queries:
                errors.append(
                    "service: streaming benchmark averaged fewer than 2 "
                    f"chunks per query ({streaming.get('chunks')} over "
                    f"{queries}) — incremental delivery collapsed")
    elif baseline.get("streaming") is not None:
        errors.append(
            "service: baseline has a streaming block but the smoke run "
            "produced none")

    # Status codes: throughput batches are all-OK...
    for b in sm:
        status = b.get("status")
        if status is None:
            continue
        unexpected = {k: v for k, v in status.items() if k != "ok" and v != 0}
        if unexpected:
            errors.append(
                f"service: batch '{b['name']}' has non-OK query statuses "
                f"{unexpected}")
    # ...and the cancellation benchmark is all-deadline_exceeded.
    cancel = smoke.get("cancellation")
    if cancel is not None:
        if not cancel.get("ok", False):
            errors.append("service: cancellation benchmark reports ok=false")
        status = cancel.get("status", {})
        queries = cancel.get("queries", 0)
        if status.get("deadline_exceeded", 0) != queries:
            errors.append(
                "service: cancellation benchmark expected "
                f"{queries} deadline_exceeded responses, got {status}")


def check_storage(baseline, smoke, errors):
    entries = smoke.get("benchmarks", [])
    check_ok_flags("storage", entries, errors)
    by_name = {b.get("name"): b for b in entries}
    committed = {b.get("name"): b for b in baseline.get("benchmarks", [])}
    shared = [name for name in by_name if name in committed]
    for name in shared:
        for key in ("fetches", "nodes", "results"):
            if by_name[name].get(key) != committed[name].get(key):
                errors.append(
                    f"storage: field '{key}' of '{name}' differs from the "
                    f"committed snapshot: baseline={committed[name].get(key)}, "
                    f"current={by_name[name].get(key)}")
    if shared:
        for name in committed:
            if name not in by_name:
                errors.append(
                    f"storage: full-size run has no '{name}' row, which the "
                    "committed snapshot has")
    for core in entries:
        name = core.get("name", "")
        if "/ours-core" not in name:
            continue
        facade = by_name.get(name.replace("/ours-core", "/ours", 1))
        if facade is None:
            errors.append(f"storage: '{name}' has no matching 'ours' row")
            continue
        for key in ("fetches", "nodes"):
            if core.get(key) != facade.get(key):
                errors.append(
                    f"storage: field '{key}' of '{name}' differs from "
                    f"'{facade['name']}': core={core.get(key)}, "
                    f"facade={facade.get(key)}")


# Durable publish (WAL attached, fsync off) may cost at most this much
# over in-memory publish, as a within-run p50 ratio.
DURABLE_OVERHEAD_BOUND = 1.25

# The largest ladder train's compaction copies per added row may exceed
# the smallest train's by at most this factor.
WRITE_AMP_GROWTH_BOUND = 2.0

# Metrics-enabled service throughput may cost at most this much over the
# same batch with recording disabled (within-run best-of-reps ratio). The
# design target is 1.01; the slack absorbs scheduler noise on small CI
# runners, not real overhead.
OBS_OVERHEAD_BOUND = 1.10


def ladder_trains(doc):
    """Part-1 publish trains that report write amplification, by size."""
    trains = [b for b in doc.get("benchmarks", [])
              if b.get("name", "").startswith("ladder/")
              and "compacted_rows_per_added_row" in b]
    return sorted(trains, key=lambda b: b.get("rows", 0))


def check_write_amplification(baseline, smoke, errors):
    trains = ladder_trains(smoke)
    if len(trains) < 2:
        if len(ladder_trains(baseline)) >= 2:
            errors.append(
                "live: baseline reports compacted_rows_per_added_row but the "
                "smoke run has fewer than two ladder trains with it")
        return
    for t in trains:
        if not t.get("below_doubling", False):
            errors.append(
                f"live: train '{t['name']}' reached the doubling rule, so "
                "its compacted_rows_per_added_row mixes in a root rewrite; "
                "run fewer publishes or a larger ladder")
    small, large = trains[0], trains[-1]
    small_ratio = small["compacted_rows_per_added_row"]
    large_ratio = large["compacted_rows_per_added_row"]
    if large_ratio > WRITE_AMP_GROWTH_BOUND * small_ratio:
        errors.append(
            "live: field 'compacted_rows_per_added_row' grows with the "
            f"database: {small['name']}={small_ratio:.3f}, "
            f"{large['name']}={large_ratio:.3f}, bound is "
            f"x{WRITE_AMP_GROWTH_BOUND} — compaction is re-copying whole "
            "relations instead of the layers the deltas added")


def check_live(baseline, smoke, errors):
    check_ok_flags("live", smoke.get("benchmarks", []), errors)
    durable = smoke.get("durable_publish")
    if durable is not None:
        if not durable.get("ok", False):
            errors.append(
                "live: durable-publish benchmark reports ok=false "
                f"({durable.get('name')}): recovery or a publish failed")
        ratio = durable.get("wal_overhead")
        if ratio is not None and ratio > DURABLE_OVERHEAD_BOUND:
            base_durable = baseline.get("durable_publish") or {}
            errors.append(
                "live: field 'durable_publish.wal_overhead' regressed: "
                f"baseline={base_durable.get('wal_overhead', 'n/a')}, "
                f"current=x{ratio:.2f}, bound is "
                f"x{DURABLE_OVERHEAD_BOUND} — WAL appends have crept into "
                "the publish critical path")
    elif baseline.get("durable_publish") is not None:
        errors.append(
            "live: baseline has a durable_publish block but the smoke "
            "run produced none")
    check_write_amplification(baseline, smoke, errors)
    base_scaling = baseline.get("publish_scaling", {})
    smoke_scaling = smoke.get("publish_scaling", {})
    if base_scaling.get("sublinear") and "sublinear" in smoke_scaling:
        if not smoke_scaling["sublinear"]:
            errors.append(
                "live: field 'publish_scaling.sublinear' regressed: "
                f"baseline=true (latency_ratio="
                f"{base_scaling.get('latency_ratio')}), current=false "
                f"(latency_ratio={smoke_scaling.get('latency_ratio')} over "
                f"size_ratio={smoke_scaling.get('size_ratio')})")


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        smoke = json.load(f)

    kind_b = baseline.get("bench")
    kind_s = smoke.get("bench")
    if kind_b != kind_s:
        fail([f"baseline is a '{kind_b}' snapshot but smoke is '{kind_s}'"])
    warn_host_mismatch(baseline, smoke)

    errors = []
    if kind_s == "service":
        check_service(baseline, smoke, errors)
    elif kind_s == "storage":
        check_storage(baseline, smoke, errors)
    elif kind_s == "live":
        check_live(baseline, smoke, errors)
    else:
        errors.append(f"unknown bench kind '{kind_s}'")
    if errors:
        fail(errors)
    n = len(smoke.get("benchmarks", []))
    print(f"bench-regression gate OK: {kind_s} ({n} benchmarks checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
