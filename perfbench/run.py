#!/usr/bin/env python3
"""numabfs benchmark: build numabench, run one workload, check it, report.

    python3 perfbench/run.py --workload bfs1d --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first run configures and builds the
benchmark binary numabench (perfbench/CMakeLists.txt, which compiles ../src)
into .bench_build/; later runs rebuild incrementally. numabench's own report
is echoed, then the checks below run, and the last line of standard output is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes Chrome traces under
.bench_build/traces/). Checks: every answer was validated by numabench (a
wrong answer exits 3 without a result), the graph fingerprints match
perfbench/pins.json (and the stream fingerprints, for pinned seeds), every
virtual value is bit-identical across the run's passes and across earlier
runs of the same binary, workload and seed in this checkout.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170

# Layers a workload does not run: their per-layer metrics read 0 there.
BYPASSED = {
    "bfs1d": ("bfs2d.", "engine.", "dyn."),
    "scale2d": ("engine.", "dyn."),
    "serve": ("bfs2d.",),
}


def die(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the program's sources (src/) are not here; run from the "
            "repository root")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "numabench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (full log: %s)" % log_path)
    return os.path.join(BUILD, "numabench")


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_virtual_history(binary, workload, seed, data, problems):
    """Virtual values must repeat bit for bit across runs of one binary with
    one seed. The history is keyed by the binary's digest, so a rebuilt
    program (a change under test) starts a history of its own."""
    path = os.path.join(BUILD, "virtual", "%s-seed%d-%s.json"
                        % (workload, seed, digest(binary)))
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    now = dict(data["virtual"])
    now.update({k: v for k, v in data["fingerprints"].items()
                if k.startswith("virtual.")})
    for k, v in now.items():
        if k in seen and seen[k] != v:
            problems.append("determinism: %s = %r, an earlier run read %r"
                            % (k, v, seen[k]))
    seen.update(now)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BYPASSED))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0", 2)

    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)

    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        # One directory per workload: a traced run replaces the last one's
        # files (the program's virtual-time trace runs to tens of MB).
        trace_dir = os.path.join(BUILD, "traces", args.workload)
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append("--trace-dir=" + trace_dir)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("numabench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode == 3:
        die("wrong answer (see numabench's message above)", 3)
    if proc.returncode not in (0, 4) or not lines:
        die("numabench failed with exit code %d" % proc.returncode)
    data = json.loads(lines[-1])

    problems = ["determinism: %s differs from the run's first pass" % m
                for m in data["mismatches"]]
    pin = pins["workloads"][args.workload]
    expected = {k: pin[k] for k in ("graph.edges", "graph.csr")}
    expected.update(pin["streams"].get(str(args.seed), {}))
    for k, v in expected.items():
        got = data["fingerprints"].get(k)
        if got != v:
            problems.append("input fingerprint %s is %s, pinned %s"
                            % (k, got, v))
    check_virtual_history(binary, args.workload, args.seed, data, problems)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[section]:
        name = m["name"]
        if name in data["host"]:
            value = data["host"][name]
        elif name in data["virtual"]:
            value = data["virtual"][name]
        elif name.startswith(BYPASSED[args.workload]):
            value = 0.0
        else:
            problems.append("metric %s was not reported" % name)
            continue
        if value is None:
            problems.append("metric %s is not finite" % name)
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}

    for p in problems:
        print("run.py: " + p, file=sys.stderr)
    print("fingerprints: " + ", ".join("%s=%s" % kv for kv in
                                       sorted(data["fingerprints"].items())))
    print(json.dumps({"correct": not problems,
                      "attempted": data["attempted"],
                      "failed": data["failed"],
                      "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
