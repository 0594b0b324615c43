#!/usr/bin/env python3
"""CI perf gate: fail the multi-core perf job when the engine stops scaling.

Parses the BENCH_engine.json emitted by bench/micro_engine.cc and enforces
that the engine sweep (Submit round-robin, Flush, DrainEvents) at --threads
shards is at least --min-speedup times faster than the single-shard baseline
(the ">2x @ 4 threads" criterion from the roadmap).
Optionally also enforces the arena-ingest floor from BENCH_flatbag.json.

Also enforces the EMD-solver floor from BENCH_emd.json (bench/micro_emd.cc):
the workspace transport solver must beat the min-cost-flow reference by
--min-speedup on the named run AND every run must report zero steady-state
allocations per solve.

Also enforces the large-K floor from the same BENCH_emd.json (--emd-large):
the exact solver's 4-ary-heap Dijkstra must beat the dense scan by
--min-heap-speedup at K = --large-k, the batched rolling-step solve must beat
the serial per-pair dense loop by --min-batch-speedup at K = --batch-k, and
every large_k_runs / batch_runs row must report zero steady-state
allocations.

Also enforces the columnar-batch floor from BENCH_batch.json
(bench/micro_batch.cc): BatchTableBuilder ingest must beat the nested
per-vector baseline by --min-speedup, every detection run must preserve row
counts exactly (output rows == input steps, nothing quarantined on the clean
synthetic corpus), and all pool sizes must produce bitwise-identical score
checksums. With --max-table-bytes-per-row alone it instead gates only the
columnar table's footprint: table_bytes_per_row (the built BatchTable's
retained_bytes() per input row) must not exceed the ceiling. It is a byte
count, deterministic for a given shape, so it needs no retry.

Also enforces the approximate-EMD floor from the same BENCH_emd.json
(--emd-approx): every approximate solver (sinkhorn, sliced) must beat the
exact workspace solve by --min-speedup at K = --approx-k, every approx_runs
row must report zero steady-state allocations per solve, and the fidelity
section must stay under --max-score-delta / --max-delay-delta on every
fig07/fig11-style scenario.

Usage:
  check_perf_gate.py BENCH_engine.json [--threads 4] [--min-speedup 2.0]
  check_perf_gate.py BENCH_flatbag.json --memory-run arena_ingest \
      --min-speedup 1.15
  check_perf_gate.py BENCH_emd.json --emd-run emd_solve_k16 \
      --min-speedup 1.3
  check_perf_gate.py BENCH_emd.json --emd-approx --min-speedup 3.0
  check_perf_gate.py BENCH_emd.json --emd-large --min-heap-speedup 1.5 \
      --min-batch-speedup 1.2
  check_perf_gate.py BENCH_batch.json --batch --min-speedup 1.15
  check_perf_gate.py BENCH_batch.json --max-table-bytes-per-row 17.0

Exits 0 when the gate passes, 1 when it fails or the row is missing.
"""

import argparse
import json
import sys


def check_engine(data, threads, min_speedup):
    runs = data.get("runs", [])
    row = next((r for r in runs if r.get("threads") == threads), None)
    if row is None:
        print(f"FAIL: no run with threads={threads} in "
              f"{[r.get('threads') for r in runs]}")
        return False
    speedup = row.get("speedup_vs_first")
    if speedup is None:
        print("FAIL: run is missing 'speedup_vs_first'")
        return False
    ok = speedup >= min_speedup
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: engine speedup @ {threads} threads = {speedup:.3f}x "
          f"(gate: >= {min_speedup:.2f}x)")
    return ok


def check_memory_run(data, name, min_speedup):
    runs = data.get("memory_runs", [])
    row = next((r for r in runs if r.get("name") == name), None)
    if row is None:
        print(f"FAIL: no memory run named '{name}' in "
              f"{[r.get('name') for r in runs]}")
        return False
    speedup = row.get("pooled_speedup")
    if speedup is None:
        print(f"FAIL: memory run '{name}' is missing 'pooled_speedup'")
        return False
    ok = speedup >= min_speedup
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: {name} pooled speedup = {speedup:.3f}x "
          f"(gate: >= {min_speedup:.2f}x)")
    return ok


def check_emd_run(data, name, min_speedup):
    runs = data.get("runs", [])
    row = next((r for r in runs if r.get("name") == name), None)
    if row is None:
        print(f"FAIL: no EMD run named '{name}' in "
              f"{[r.get('name') for r in runs]}")
        return False
    speedup = row.get("speedup")
    if speedup is None:
        print(f"FAIL: EMD run '{name}' is missing 'speedup'")
        return False
    ok = speedup >= min_speedup
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: {name} speedup over the min-cost-flow reference = {speedup:.3f}x "
          f"(gate: >= {min_speedup:.2f}x)")
    # Steady-state allocations must be exactly zero on EVERY measured size,
    # not just the gated one — a single workspace regrowth per solve would
    # show up here long before it shows up in wall-clock.
    for r in runs:
        allocs = r.get("steady_state_allocs_per_solve")
        if allocs is None:
            print(f"FAIL: run '{r.get('name')}' is missing "
                  "'steady_state_allocs_per_solve'")
            ok = False
        elif allocs != 0:
            print(f"FAIL: run '{r.get('name')}' reports {allocs} "
                  "steady-state allocations per solve (gate: exactly 0)")
            ok = False
        else:
            print(f"PASS: {r.get('name')} steady-state allocs/solve = 0")
    return ok


def check_emd_approx(data, approx_k, min_speedup, max_score_delta,
                     max_delay_delta):
    ok = True

    runs = data.get("approx_runs", [])
    if not runs:
        print("FAIL: no 'approx_runs' section in BENCH_emd.json")
        return False

    # Speedup gate: every approximate solver present at K = approx_k must
    # clear the floor against the exact workspace solve.
    gated = [r for r in runs if r.get("k") == approx_k]
    if not gated:
        print(f"FAIL: no approx_runs rows with k={approx_k} in "
              f"{sorted({r.get('k') for r in runs})}")
        ok = False
    for row in gated:
        speedup = row.get("speedup_vs_exact")
        name = row.get("name")
        if speedup is None:
            print(f"FAIL: run '{name}' is missing 'speedup_vs_exact'")
            ok = False
            continue
        passed = speedup >= min_speedup
        verdict = "PASS" if passed else "FAIL"
        print(f"{verdict}: {name} speedup over exact = {speedup:.3f}x "
              f"(gate: >= {min_speedup:.2f}x)")
        ok = ok and passed

    # Allocation gate: zero steady-state allocations on EVERY approx row,
    # every size — the scratch buffers must reach a fixed point.
    for row in runs:
        allocs = row.get("steady_state_allocs_per_solve")
        name = row.get("name")
        if allocs is None:
            print(f"FAIL: run '{name}' is missing "
                  "'steady_state_allocs_per_solve'")
            ok = False
        elif allocs != 0:
            print(f"FAIL: run '{name}' reports {allocs} steady-state "
                  "allocations per solve (gate: exactly 0)")
            ok = False
        else:
            print(f"PASS: {name} steady-state allocs/solve = 0")

    # Fidelity gate: the approximate score paths must stay close to exact on
    # the fig07/fig11-style scenarios, and the argmax step must not drift.
    fidelity = data.get("fidelity", [])
    if not fidelity:
        print("FAIL: no 'fidelity' section in BENCH_emd.json")
        ok = False
    for row in fidelity:
        label = f"{row.get('scenario')}/{row.get('solver')}"
        delta = row.get("max_abs_score_delta")
        delay = row.get("delay_delta_steps")
        if delta is None or delay is None:
            print(f"FAIL: fidelity row '{label}' is missing fields")
            ok = False
            continue
        if delta > max_score_delta:
            print(f"FAIL: {label} max|dScore| = {delta:.4f} "
                  f"(gate: <= {max_score_delta:.4f})")
            ok = False
        elif abs(delay) > max_delay_delta:
            print(f"FAIL: {label} detection-delay shift = {delay} steps "
                  f"(gate: |shift| <= {max_delay_delta})")
            ok = False
        else:
            print(f"PASS: {label} max|dScore| = {delta:.4f}, "
                  f"delay shift = {delay:+d} steps")
    return ok


def check_emd_large(data, large_k, batch_k, min_heap_speedup,
                    min_batch_speedup):
    ok = True

    # Heap gate: the 4-ary-heap Dijkstra must clear the floor against the
    # dense scan at the gated size.
    large_runs = data.get("large_k_runs", [])
    if not large_runs:
        print("FAIL: no 'large_k_runs' section in BENCH_emd.json")
        ok = False
    row = next((r for r in large_runs if r.get("k") == large_k), None)
    if row is None:
        print(f"FAIL: no large_k_runs row with k={large_k} in "
              f"{sorted({r.get('k') for r in large_runs})}")
        ok = False
    else:
        speedup = row.get("heap_speedup")
        if speedup is None:
            print(f"FAIL: run '{row.get('name')}' is missing 'heap_speedup'")
            ok = False
        else:
            passed = speedup >= min_heap_speedup
            verdict = "PASS" if passed else "FAIL"
            print(f"{verdict}: {row.get('name')} heap speedup over dense "
                  f"= {speedup:.3f}x (gate: >= {min_heap_speedup:.2f}x)")
            ok = ok and passed

    # Batch gate: one ComputeBatch rolling step must clear the floor against
    # the serial per-pair dense loop it replaced.
    batch_runs = data.get("batch_runs", [])
    if not batch_runs:
        print("FAIL: no 'batch_runs' section in BENCH_emd.json")
        ok = False
    row = next((r for r in batch_runs if r.get("k") == batch_k), None)
    if row is None:
        print(f"FAIL: no batch_runs row with k={batch_k} in "
              f"{sorted({r.get('k') for r in batch_runs})}")
        ok = False
    else:
        speedup = row.get("batched_speedup")
        if speedup is None:
            print(f"FAIL: run '{row.get('name')}' is missing "
                  "'batched_speedup'")
            ok = False
        else:
            passed = speedup >= min_batch_speedup
            verdict = "PASS" if passed else "FAIL"
            print(f"{verdict}: {row.get('name')} batched speedup over serial "
                  f"= {speedup:.3f}x (gate: >= {min_batch_speedup:.2f}x)")
            ok = ok and passed

    # Allocation gate: zero steady-state allocations on EVERY row of both
    # sections, every size — the heap arrays and batch cost block must reach
    # a fixed point like the rest of the workspace scratch.
    for runs, field in ((large_runs, "steady_state_allocs_per_solve"),
                        (batch_runs, "steady_state_allocs_per_step")):
        for r in runs:
            allocs = r.get(field)
            name = r.get("name")
            if allocs is None:
                print(f"FAIL: run '{name}' is missing '{field}'")
                ok = False
            elif allocs != 0:
                print(f"FAIL: run '{name}' reports {allocs} steady-state "
                      "allocations (gate: exactly 0)")
                ok = False
            else:
                print(f"PASS: {name} steady-state allocs = 0")
    return ok


def check_batch(data, min_speedup):
    ok = True

    ingest = data.get("ingest", {})
    speedup = ingest.get("columnar_speedup")
    if speedup is None:
        print("FAIL: 'ingest' is missing 'columnar_speedup'")
        ok = False
    else:
        passed = speedup >= min_speedup
        verdict = "PASS" if passed else "FAIL"
        print(f"{verdict}: columnar ingest speedup over nested per-vector "
              f"= {speedup:.3f}x (gate: >= {min_speedup:.2f}x)")
        ok = ok and passed

    runs = data.get("detection", [])
    if not runs:
        print("FAIL: no detection runs in BENCH_batch.json")
        ok = False
    for run in runs:
        pool = run.get("pool")
        if run.get("row_count_preserved") is not True:
            print(f"FAIL: pool={pool} did not preserve row counts "
                  "(gate: output rows == input steps, nothing quarantined)")
            ok = False
        else:
            print(f"PASS: pool={pool} row counts preserved")

    checksums = {run.get("checksum") for run in runs}
    if data.get("checksums_match") is not True or len(checksums) > 1:
        print(f"FAIL: detection checksums diverge across pool sizes: "
              f"{sorted(checksums)}")
        ok = False
    elif runs:
        print(f"PASS: all {len(runs)} pool sizes agree on score checksum "
              f"{checksums.pop()}")
    return ok


def check_table_bytes(data, max_bytes_per_row):
    per_row = data.get("table_bytes_per_row")
    if per_row is None:
        print("FAIL: BENCH_batch.json is missing 'table_bytes_per_row'")
        return False
    ok = per_row <= max_bytes_per_row
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: columnar table retains {per_row:.3f} bytes/row "
          f"(gate: <= {max_bytes_per_row:.2f})")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="path to a BENCH_*.json file")
    parser.add_argument("--threads", type=int, default=4,
                        help="engine row to gate on (default: 4)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="minimum acceptable speedup (default: 2.0)")
    parser.add_argument("--memory-run", default=None,
                        help="gate on a memory_runs row of this name instead "
                             "of the engine thread-scaling rows")
    parser.add_argument("--emd-run", default=None,
                        help="gate on a BENCH_emd.json run of this name "
                             "(speedup vs the min-cost-flow reference, plus "
                             "zero steady-state allocations on every run)")
    parser.add_argument("--batch", action="store_true",
                        help="gate on BENCH_batch.json: columnar ingest "
                             "speedup, exact row-count preservation, and "
                             "matching detection checksums across pool sizes")
    parser.add_argument("--emd-approx", action="store_true",
                        help="gate on BENCH_emd.json approx_runs/fidelity: "
                             "approximate-solver speedup over exact at "
                             "--approx-k, zero steady-state allocations, and "
                             "score/delay fidelity ceilings")
    parser.add_argument("--emd-large", action="store_true",
                        help="gate on BENCH_emd.json large_k_runs/batch_runs: "
                             "heap-Dijkstra speedup over the dense scan at "
                             "--large-k, batched rolling-step speedup over "
                             "the serial per-pair loop at --batch-k, and "
                             "zero steady-state allocations on every row")
    parser.add_argument("--large-k", type=int, default=256,
                        help="signature size whose heap row is speedup-gated "
                             "(default: 256)")
    parser.add_argument("--batch-k", type=int, default=64,
                        help="signature size whose batch row is speedup-gated "
                             "(default: 64)")
    parser.add_argument("--min-heap-speedup", type=float, default=1.5,
                        help="minimum heap-over-dense speedup at --large-k "
                             "(default: 1.5)")
    parser.add_argument("--min-batch-speedup", type=float, default=1.2,
                        help="minimum batched-over-serial rolling-step "
                             "speedup at --batch-k (default: 1.2)")
    parser.add_argument("--approx-k", type=int, default=64,
                        help="signature size whose approx rows are speedup-"
                             "gated (default: 64)")
    parser.add_argument("--max-score-delta", type=float, default=1.0,
                        help="maximum allowed max|dScore| vs exact on any "
                             "fidelity scenario (default: 1.0)")
    parser.add_argument("--max-delay-delta", type=int, default=2,
                        help="maximum allowed argmax-step shift vs exact on "
                             "any fidelity scenario (default: 2)")
    parser.add_argument("--max-table-bytes-per-row", type=float,
                        default=None,
                        help="gate on BENCH_batch.json table_bytes_per_row: "
                             "the columnar table's retained bytes per input "
                             "row must not exceed this")
    args = parser.parse_args()

    try:
        with open(args.bench_json, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"FAIL: cannot parse {args.bench_json}: {error}")
        return 1

    if args.batch:
        ok = check_batch(data, args.min_speedup)
    elif args.max_table_bytes_per_row is not None:
        ok = check_table_bytes(data, args.max_table_bytes_per_row)
    elif args.emd_large:
        ok = check_emd_large(data, args.large_k, args.batch_k,
                             args.min_heap_speedup, args.min_batch_speedup)
    elif args.emd_approx:
        ok = check_emd_approx(data, args.approx_k, args.min_speedup,
                              args.max_score_delta, args.max_delay_delta)
    elif args.emd_run is not None:
        ok = check_emd_run(data, args.emd_run, args.min_speedup)
    elif args.memory_run is not None:
        ok = check_memory_run(data, args.memory_run, args.min_speedup)
    else:
        ok = check_engine(data, args.threads, args.min_speedup)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
