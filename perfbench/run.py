#!/usr/bin/env python3
"""Builds and runs the perfbench harness; prints one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload advise|serve|ingest --seed N \
        --seconds S --trace 0|1

The harness is built from the sources in this checkout (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset. The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with --trace 0, its `per_layer` metrics with --trace 1.

Repeat mode runs one workload on --repeat consecutive seeds and prints each
metric's median, quartiles, run count and spread (quartile distance over
median) next to its bound; --save writes that summary as JSON and --against
compares its medians with a saved one:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 \
        --trace 0 --repeat 10 --save first.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed; see " + log_path, 3)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs the harness; returns (metrics, attempted, failed, exit_ok)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s.jsonl" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S), 4)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    metrics, attempted, failed = {}, 0, 0
    for line in proc.stdout.splitlines():
        if echo:
            print(line)
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 5:
            metrics[fields[1]] = {"value": float(fields[2]), "unit": fields[3],
                                  "n": int(fields[4][2:])}
        elif fields[:1] == ["ops"]:
            counts = dict(f.split("=") for f in fields[1:])
            attempted, failed = int(counts["attempted"]), int(counts["failed"])
    return metrics, attempted, failed, proc.returncode == 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(spec, metrics, attempted, failed, exit_ok, trace):
    """The contract's JSON object. Per-layer metrics a workload does not
    exercise (its layer is idle there) are reported as 0."""
    chosen = {}
    missing = []
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name in metrics:
            chosen[name] = {"value": metrics[name]["value"], "unit": entry["unit"]}
        elif trace:
            chosen[name] = {"value": 0, "unit": entry["unit"]}
        else:
            missing.append(name)
    if missing:
        print("missing metrics: " + " ".join(missing), file=sys.stderr)
    correct = exit_ok and failed == 0 and attempted > 0 and not missing
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": chosen}


def repeat(binary, args, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    for i in range(args.repeat):
        seed = args.seed + i
        metrics, attempted, failed, exit_ok = run_once(
            binary, args.workload, seed, args.seconds, args.trace, echo=False)
        ok = exit_ok and failed == 0 and attempted > 0
        print("run %d seed %d: %s attempted=%d failed=%d" % (
            i + 1, seed, "correct" if ok else "INCORRECT", attempted, failed))
        for name, m in metrics.items():
            runs.setdefault(name, {"unit": m["unit"], "values": []})
            runs[name]["values"].append(m["value"])
    against = {}
    if args.against:
        with open(args.against) as f:
            against = json.load(f)["metrics"]
    summary = {}
    print("%-32s %-6s %4s %14s %14s %14s %8s %6s %s" % (
        "metric", "unit", "runs", "median", "q1", "q3", "spread", "bound",
        "shift vs --against" if against else ""))
    for name, r in runs.items():
        values = r["values"]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0], None, values[0]))
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": r["unit"], "runs": len(values), "median": med,
                         "q1": q1, "q3": q3, "spread": spread, "values": values}
        bound = bounds.get(name)
        note = ""
        if name in against and against[name]["median"]:
            shift = med / against[name]["median"] - 1.0
            summary[name]["shift"] = shift
            note = "%+.4f" % shift
            if bound is not None and abs(shift) > bound:
                note += " OVER BOUND"
        print("%-32s %-6s %4d %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, r["unit"], len(values), med, q1, q3, spread,
            "" if bound is None else "%.2f" % bound, note))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "metrics": summary}, f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["advise", "serve", "ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many consecutive seeds and summarise")
    parser.add_argument("--save", help="repeat mode: write the summary here")
    parser.add_argument("--against", help="repeat mode: compare with a summary")
    args = parser.parse_args()

    binary = build()
    spec = load_spec()
    if args.repeat > 0:
        repeat(binary, args, spec)
        return
    metrics, attempted, failed, exit_ok = run_once(
        binary, args.workload, args.seed, args.seconds, args.trace, echo=True)
    line = result_line(spec, metrics, attempted, failed, exit_ok, args.trace)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
