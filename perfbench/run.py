#!/usr/bin/env python3
"""Benchmark entry point for volsched.

Builds the perfbench binary from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, relays its report, and ends with one JSON
line holding exactly the metrics BENCHMARK.json declares for the mode.

  python3 perfbench/run.py --workload table1 --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --spread --workload desktop-grid --runs 5
  python3 perfbench/run.py --compare before.jsonl after.jsonl
  python3 perfbench/run.py --write-reference --seeds 1-10 [--workload W]

Run it from the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.txt")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds incrementally; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: the volsched sources (CMakeLists.txt, src/) are not "
            "next to perfbench/; nothing to build")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_binary(exe, args, relay=True):
    """Runs the perfbench binary once; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", work, "--reference", REFERENCE]
    if getattr(args, "reference_out", None):
        cmd += ["--reference-out", args.reference_out]
    lines = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if relay and not line.startswith("{"):
                print(line, end="", flush=True)
            if time.monotonic() > deadline:
                raise TimeoutError
        code = proc.wait(timeout=max(1, deadline - time.monotonic()))
    except (TimeoutError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        log("run.py: perfbench exceeded %d s" % RUN_TIMEOUT_S)
        code = 124
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, lines


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def filter_result(spec, trace, result):
    """Keeps exactly the declared metrics; None when one is missing."""
    metrics = {}
    for m in declared(spec, trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("run.py: metric %s (%s) missing or with another unit"
                % (m["name"], m["unit"]))
            return None
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def last_json(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def run_once(args):
    spec = load_spec()
    exe = build()
    code, lines = run_binary(exe, args)
    result = last_json(lines)
    if result is None:
        return code or 1
    filtered = filter_result(spec, args.trace, result)
    if filtered is None:
        return 1
    print(json.dumps(filtered), flush=True)
    return code


# --- comparing sets of runs -------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results, names):
    """Per metric: (median, q1, q3, spread as share of median)."""
    out = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results
                if name in r["metrics"]]
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        out[name] = (med, q1, q3, (q3 - q1) / med if med else 0.0)
    return out


def compare(a, b, spec):
    """Compares two sets of result objects against the declared bounds;
    returns the number of metrics that got worse by more than the bound."""
    names = [m["name"] for m in spec["end_to_end"]]
    sa, sb = summarize(a, names), summarize(b, names)
    worse = 0
    print("%-24s %14s %14s %8s %8s %8s  %s" % (
        "metric", "median A", "median B", "IQR A", "IQR B", "bound", "verdict"))
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in sa or name not in sb:
            print("%-24s missing" % name)
            worse += 1
            continue
        ma, mb = sa[name][0], sb[name][0]
        shift = (mb - ma) / ma if ma else 0.0
        if m["better"] == "higher":
            shift = -shift
        verdict = "ok"
        if shift > m["bound"]:
            verdict = "WORSE by %.1f%%" % (100 * shift)
            worse += 1
        elif name != "setup_s" and max(sa[name][3], sb[name][3]) > m["bound"]:
            verdict = "unsteady"
        print("%-24s %14.6g %14.6g %7.1f%% %7.1f%% %7.1f%%  %s" % (
            name, ma, mb, 100 * sa[name][3], 100 * sb[name][3],
            100 * m["bound"], verdict))
    return worse


def read_results(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.startswith("{")]


# --- modes --------------------------------------------------------------------

def spread(args):
    """Runs one workload --runs times with consecutive seeds and reports each
    end-to-end metric's quartile spread against its bound."""
    spec = load_spec()
    exe = build()
    results = []
    for i in range(args.runs):
        args.seed = args.first_seed + i
        code, lines = run_binary(exe, args, relay=False)
        r = last_json(lines)
        if code != 0 or r is None:
            log("run %d (seed %d) failed with code %d" % (i, args.seed, code))
            return 1
        results.append(r)
        log("seed %d: %s" % (args.seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())))
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(r) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, (med, q1, q3, sp) in summarize(results, results[0]["metrics"]).items():
        line = "%-24s median %-14.6g IQR %5.1f%%" % (name, med, 100 * sp)
        if name in bounds:
            line += "  (bound %4.1f%%, target < %4.1f%%)" % (
                100 * bounds[name], 100 * bounds[name] / 3)
        print(line)
    return 0


def self_test(args):
    """Every workload at tiny size: metrics present with their units, traced
    and untraced digests equal, and two sets of runs comparable."""
    spec = load_spec()
    exe = build()
    problems = []
    started = time.monotonic()
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        digests = {}
        for seed in (1, 2, 3, 4):
            ns = argparse.Namespace(workload=name, seed=seed, seconds=0.3,
                                    trace=0, size="tiny")
            code, lines = run_binary(exe, ns, relay=False)
            r = last_json(lines)
            if code != 0 or r is None or filter_result(spec, 0, r) is None:
                problems.append("%s seed %d: untraced run failed" % (name, seed))
                continue
            runs.append(r)
            digests[seed] = next(l.split()[1] for l in lines
                                 if l.startswith("digest "))
        ns = argparse.Namespace(workload=name, seed=1, seconds=0.3, trace=1,
                                size="tiny")
        code, lines = run_binary(exe, ns, relay=False)
        r = last_json(lines)
        if code != 0 or r is None or filter_result(spec, 1, r) is None:
            problems.append("%s: traced run failed" % name)
        else:
            def field(prefix, i):
                return next(l.split()[i] for l in lines if l.startswith(prefix))
            traced = field("traced digest ", 2)
            untraced = field("untraced digest ", 2)
            if traced != untraced or field("digest ", 1) != digests.get(1):
                problems.append("%s: traced digest %s, untraced %s, overall %s "
                                "vs %s in the untraced run"
                                % (name, traced, untraced, field("digest ", 1),
                                   digests.get(1)))
        print("== %s: runs with seeds 1,2 vs 3,4" % name)
        if len(runs) == 4:
            compare(runs[:2], runs[2:], spec)
    print("self-test took %.1f s" % (time.monotonic() - started))
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def write_reference(args):
    """Regenerates the stored digests and exact counters: one traced pass per
    (workload, seed), for the given size and --workload (default: all)."""
    spec = load_spec()
    exe = build()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    tmp = os.path.join(build_dir(), "reference.new")
    if os.path.exists(tmp):
        os.remove(tmp)
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    for name in names:
        for seed in seeds:
            ns = argparse.Namespace(workload=name, seed=seed, seconds=0,
                                    trace=1, size=args.size,
                                    reference_out=tmp)
            code, _ = run_binary(exe, ns, relay=False)
            log("%s seed %d: exit %d" % (name, seed, code))
    kept = []
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            kept = [l for l in f
                    if l.split()[:2] not in ([n, args.size] for n in names)]
    with open(tmp) as f:
        fresh = f.readlines()
    with open(REFERENCE, "w") as f:
        f.writelines(sorted(kept + fresh))
    os.remove(tmp)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--spread", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.self_test:
        return self_test(args)
    if args.compare:
        spec = load_spec()
        return 1 if compare(read_results(args.compare[0]),
                            read_results(args.compare[1]), spec) else 0
    if args.write_reference:
        return write_reference(args)
    if not args.workload:
        p.error("--workload is required")
    if args.spread:
        return spread(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
