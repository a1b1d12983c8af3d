#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run of one workload:

    python3 perfbench/run.py --workload dblp-typo --seed 1 --seconds 10 --trace 0

prints the host fingerprint, every metric by name with its unit, and, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics untraced, per-layer metrics with --trace 1).

Two helper modes use the same build:

    --repeat N     run N times on the same seed and print each end-to-end
                   metric's median, quartiles and spread (interquartile
                   range over median) against its bound; with --sets K,
                   make K such sets, alternating run by run between them,
                   print every set and each later set's median shift from
                   the first; --vary-seed uses seeds seed..seed+N-1
                   instead, which adds the spread of the inputs
    --overhead     run untraced and traced on the same seed, print the
                   difference in every end-to-end metric and the traced
                   run's self-time summary

Run from the root of a source checkout; the build goes to .bench_build
(or $CARGO_TARGET_DIR when set) and reports and span files to .bench_out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 175

# Gain claims are measured on DEFAULT_SEED and must also hold on
# HELD_OUT_SEED, which is not used while a change is being written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1000003

def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full source checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configured = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        if configured.returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    built = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        **quiet)
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def commit_id():
    if os.environ.get("PERFBENCH_COMMIT"):
        return os.environ["PERFBENCH_COMMIT"]
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary; returns (exit code, parsed result line or
    None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(ROOT, OUT_DIR), "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S}s", 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return proc.returncode, result


def report_path(workload, seed, trace):
    return os.path.join(ROOT, OUT_DIR,
                        f"{workload}-seed{seed}-trace{trace}.json")


def complete_metrics(spec, result, trace):
    """Checks the result's metrics against BENCHMARK.json. A traced run
    reports only the layers its workload ran; every other layer is added
    as 0 (no time spent, nothing counted)."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.setdefault("metrics", {})
    if trace:
        for m in declared:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    units = {m["name"]: m["unit"] for m in declared}
    got = set(metrics)
    if got != set(units):
        fail(f"metric names differ from BENCHMARK.json: missing "
             f"{sorted(set(units) - got)}, extra {sorted(got - set(units))}",
             3)
    wrong = [n for n in got if metrics[n]["unit"] != units[n]]
    if wrong:
        fail(f"metric units differ from BENCHMARK.json: {sorted(wrong)}", 3)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread_table(values, bounds):
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    medians = {}
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        medians[name] = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]["bound"]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6.3f}  {verdict}")
    return medians


def repeat(binary, spec, args):
    """Runs args.sets sets of args.repeat runs, alternating between the sets
    run by run, as a gate alternates between the two commits it compares."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [{name: [] for name in bounds} for _ in range(args.sets)]
    for i in range(args.repeat):
        seed = args.seed + i if args.vary_seed else args.seed
        for k, values in enumerate(sets):
            code, result = run_once(binary, args.workload, seed, args.seconds,
                                    0, echo=False)
            if code != 0 or result is None or not result.get("correct"):
                fail(f"{args.workload} seed {seed} failed (exit {code})", 1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"set {k + 1} run {i + 1} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in values),
                flush=True)
    seeds = (f"seeds {args.seed}..{args.seed + args.repeat - 1}"
             if args.vary_seed else f"seed {args.seed}")
    medians = []
    for k, values in enumerate(sets):
        print(f"\n{args.workload} set {k + 1}: {args.repeat} runs, {seeds}")
        medians.append(spread_table(values, bounds))
    for k in range(1, len(sets)):
        print(f"\nset {k + 1} median against set 1 (worse direction "
              f"positive):")
        for name, m in bounds.items():
            a, b = medians[0][name], medians[k][name]
            shift = (b - a) / a if a else 0.0
            if m["better"] == "higher":
                shift = -shift
            verdict = "ok" if shift <= m["bound"] else "WORSE THAN BOUND"
            print(f"{name:<16} {a:>12.6g} {b:>12.6g} {shift:>+8.4f} "
                  f"{m['bound']:>6.3f}  {verdict}")


def overhead(binary, args):
    runs = {}
    for trace in (0, 1):
        code, result = run_once(binary, args.workload, args.seed,
                                args.seconds, trace, echo=False)
        if code != 0 or result is None:
            fail(f"{args.workload} trace {trace} failed (exit {code})", 1)
        with open(report_path(args.workload, args.seed, trace)) as f:
            runs[trace] = json.load(f)
    plain, traced = runs[0]["end_to_end"], runs[1]["end_to_end"]
    print(f"{args.workload} seed {args.seed}: tracing overhead "
          f"(traced minus untraced)")
    print(f"{'metric':<16} {'untraced':>12} {'traced':>12} {'diff':>12} "
          f"{'rel':>8}")
    for name in plain:
        a, b = plain[name]["value"], traced[name]["value"]
        rel = (b - a) / a if a else 0.0
        print(f"{name:<16} {a:>12.6g} {b:>12.6g} {b - a:>12.6g} "
              f"{rel:>+8.2%}  {plain[name]['unit']}")
    print("\nself time per span in the traced run, by root span, in path "
          "order:")
    print(f"{'root':<10} {'span':<18} {'count':>8} {'offset_us':>10} "
          f"{'mean_us':>10} {'self_us':>10}")
    for t in runs[1]["self_time"]:
        print(f"{t['root']:<10} {t['name']:<18} {t['count']:>8} "
              f"{t['offset_us']:>10.1f} {t['mean_us']:>10.1f} "
              f"{t['self_us']:>10.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build()

    if args.repeat:
        if args.sets < 1:
            fail("--sets must be at least 1")
        repeat(binary, spec, args)
        return 0
    if args.overhead:
        overhead(binary, args)
        return 0
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        fail(f"no result line (exit {code})", code or 3)
    complete_metrics(spec, result, args.trace)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
