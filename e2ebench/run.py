#!/usr/bin/env python3
"""End-to-end benchmark runner for bagcpd.

Run from the repository root:

  python3 e2ebench/run.py --workload paper_step --seed 1 --seconds 20 --trace 0
      One run. Builds the library and the benchmark from source into
      .bench_build/ (first run only), then runs one workload. The last stdout
      line is the result object.

  python3 e2ebench/run.py --aa 10 [--workloads a,b] [--seed-base 1]
                          [--seconds 20] [--with-trace] [--save FILE]
      A/A mode: runs each workload RUNS times on one build, one seed each,
      and reports every end-to-end metric's median, quartiles and spread
      ((q3 - q1) / median) against the bound in BENCHMARK.json. With
      --with-trace each seed also runs traced, and the tracing overhead
      (traced minus untraced medians) is reported.

  python3 e2ebench/run.py --compare BASE.json NEW.json
      Compares two --save files (for example parent and change) metric by
      metric: the change's median may not be worse than the base's by more
      than the metric's bound.

  python3 e2ebench/run.py --self-test
      Builds and runs the C++ helper checks and the tests of this file.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "bagcpd_e2e")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(target="bagcpd_e2e"):
    """Configures (once) and builds `target`; returns False on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src", "bagcpd")):
        log("e2ebench: no library sources at src/bagcpd; cannot build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("e2ebench: build step failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """Commit of the checkout when it is a git work tree (read from .git
    directly, never searching above the root), plus a digest of the sources
    the benchmark builds."""
    commit = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as f:
                    commit = f.read().strip()
        else:
            commit = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s/src-%s" % (commit[:12], digest.hexdigest()[:12])


def run_once(workload, seed, seconds, trace, commit):
    """Runs the binary once; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%s.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: %s seed %s timed out" % (workload, seed))
        return 1, ""
    return proc.returncode, proc.stdout


def parse_result(stdout):
    """The result object (last line) and the traced end-to-end figures."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    under_trace = None
    for line in lines:
        if line.startswith("E2E_UNDER_TRACE "):
            under_trace = json.loads(line[len("E2E_UNDER_TRACE "):])
    return result, under_trace


def quartile_spread(values):
    """Median, first and third quartile, and (q3 - q1) / median, with the
    quartiles as statistics.quantiles(values, n=4) gives them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(base, new, better):
    """Share by which `new` is worse than `base` (negative when better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / base
    return change if better == "lower" else -change


def aa_mode(args, spec):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    commit = source_id()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    saved = {"commit": commit, "seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in workloads:
        runs, traced = [], []
        for i in range(args.aa):
            seed = args.seed_base + i
            code, out = run_once(workload, seed, seconds, 0, commit)
            if code != 0:
                log("e2ebench: %s seed %d failed (exit %d)" %
                    (workload, seed, code))
                return 1
            result, _ = parse_result(out)
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            if args.with_trace:
                code, out = run_once(workload, seed, seconds, 1, commit)
                if code != 0:
                    log("e2ebench: traced %s seed %d failed" % (workload, seed))
                    return 1
                traced.append(parse_result(out)[1])
            log("  %s seed %d done" % (workload, seed))
        saved["workloads"][workload] = runs
        print("== %s: %d runs, seeds %d..%d, %ss each" %
              (workload, len(runs), args.seed_base,
               args.seed_base + len(runs) - 1, seconds))
        print("%-24s %14s %14s %14s %8s %7s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "status"))
        for name, meta in bounds.items():
            values = [r[name] for r in runs]
            median, q1, q3, spread = quartile_spread(values)
            status = "ok"
            if spread > meta["bound"]:
                status, all_ok = "OVER BOUND", False
            elif spread > meta["bound"] / 3:
                status = "over bound/3"
            print("%-24s %14.6g %14.6g %14.6g %8.4f %7.3f %s" %
                  (name, median, q1, q3, spread, meta["bound"], status))
            if traced:
                t_median = statistics.median(t[name] for t in traced)
                print("%-24s %14.6g   (traced minus untraced median)" %
                      ("  trace overhead", t_median - median))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if all_ok else 1


def compare_mode(base_path, new_path, spec):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    ok = True
    print("%-12s %-24s %14s %14s %9s %7s %s" %
          ("workload", "metric", "base median", "new median", "worse by",
           "bound", "verdict"))
    for workload, base_runs in base["workloads"].items():
        new_runs = new["workloads"].get(workload)
        if not new_runs:
            continue
        for meta in spec["end_to_end"]:
            name = meta["name"]
            b = statistics.median(r[name] for r in base_runs)
            n = statistics.median(r[name] for r in new_runs)
            worse = worse_by(b, n, meta["better"])
            verdict = "ok" if worse <= meta["bound"] else "REGRESSION"
            ok = ok and verdict == "ok"
            print("%-12s %-24s %14.6g %14.6g %9.4f %7.3f %s" %
                  (workload, name, b, n, worse, meta["bound"], verdict))
    return 0 if ok else 1


def self_test():
    if not build("e2e_helpers_test"):
        return 1
    code = subprocess.run([os.path.join(BUILD_DIR, "e2e_helpers_test")]
                          ).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q",
                            "test_run"], cwd=HERE).returncode
    return 0 if code == 0 and tests == 0 else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, default=0, metavar="RUNS")
    parser.add_argument("--workloads")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--with-trace", action="store_true")
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    spec = load_spec()
    if args.compare:
        return compare_mode(args.compare[0], args.compare[1], spec)
    if not build():
        return 2
    if args.aa:
        return aa_mode(args, spec)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds or spec["run_seconds"]
    code, out = run_once(args.workload, args.seed, seconds, args.trace,
                         source_id())
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
