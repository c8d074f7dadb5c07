#!/usr/bin/env python3
"""The ECFault benchmark: workloads paper_suite, scale_1m and codec.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 12 --trace 0

The first call builds perfbench_bin, from the simulator's sources in src/
and the C++ files beside this script, under .bench_build/perfbench. Each
repetition then runs the workload's fixed job once, on one thread, in a
fresh process; repetitions go on until --seconds have passed, and medians
are reported. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1. The exit code is 0 only when every output
check passed. README.md beside this script describes the workloads, the
metrics and the checks.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_bin")
WORKLOADS = ("paper_suite", "scale_1m", "codec")
CODEC_RATES = tuple("%s_gbps_%s" % (kind, size)
                    for kind in ("encode", "decode1", "decodem")
                    for size in ("4k", "4m"))
# A simulation workload spends this share of the run on its own job and the
# rest on the codec job, whose rates every workload reports.
SIM_SHARE = 0.75
MIN_REPS = 3
MIN_CODEC_REPS = 2
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def say(line):
    print(line, flush=True)


def build():
    """Configures and builds perfbench_bin, logging to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ beside perfbench/: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_bin",
              "-j", jobs])
    for _ in range(2):
        if all(subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0
               for step in steps):
            return
        # A build tree left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
    raise BenchError("build failed")


def run_binary(args):
    proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench_bin %s exited with %d: %s"
                         % (" ".join(args), proc.returncode,
                            proc.stderr.strip()[-800:]))
    return json.loads(lines[-1])


def repetition(opts, workload, traced, trace_out=None):
    args = [workload, "--seed", str(opts.seed), "--trace", str(int(traced))]
    if opts.smoke:
        args.append("--smoke")
    if trace_out:
        args += ["--trace-out", trace_out]
    return run_binary(args)


def collect(opts):
    """Repetitions until --seconds have passed: the untraced runs of the
    workload's job, the traced ones, and the codec-job runs that give the
    codec rates."""
    start = time.monotonic()

    def elapsed():
        return time.monotonic() - start

    plain, traced, codec = [], [], []
    if opts.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        while len(traced) < MIN_TRACED_REPS or elapsed() < opts.seconds:
            plain.append(repetition(opts, opts.workload, False))
            path = os.path.join(trace_dir, "%s-seed%d-rep%d.jsonl"
                                % (opts.workload, opts.seed, len(traced)))
            traced.append(repetition(opts, opts.workload, True, path))
        return plain, traced, codec
    if opts.workload == "codec":
        while len(plain) < MIN_REPS or elapsed() < opts.seconds:
            plain.append(repetition(opts, "codec", False))
        return plain, traced, plain
    while len(plain) < MIN_REPS or elapsed() < opts.seconds * SIM_SHARE:
        plain.append(repetition(opts, opts.workload, False))
    while len(codec) < MIN_CODEC_REPS or elapsed() < opts.seconds:
        codec.append(repetition(opts, "codec", False))
    return plain, traced, codec


def source_digest():
    """sha256 of src/ and perfbench/: names the code where git cannot."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def measure(opts, spec):
    errors = []
    record = run_binary(["record"])
    record.update(commit=git_commit(), source_sha256=source_digest(),
                  nproc=os.cpu_count(), workload=opts.workload,
                  seed=opts.seed, seconds=opts.seconds, trace=opts.trace)
    say("run_record " + json.dumps(record, sort_keys=True))

    # Once per run: the benchmark's composition must reproduce
    # Coordinator::run_experiment.
    check = run_binary(["selfcheck", "--seed", str(opts.seed)]
                       + (["--smoke"] if opts.smoke else []))
    attempted, failed = 1, 0
    if not check["ok"]:
        failed += 1
        errors.append("composition differs from Coordinator::run_experiment: "
                      + check["why"])

    plain, traced, codec = collect(opts)
    probe = [] if codec is plain else codec
    for rep in plain + traced + probe:
        attempted += rep["ops"]
        failed += rep["failed"]
        errors += rep["errors"]
    for label, group in ((opts.workload, plain + traced),
                         ("codec job", probe)):
        if not group:
            continue
        digests = sorted({rep["digest"] for rep in group})
        say("digest %s seed=%d: %s over %d repetitions"
            % (label, opts.seed, " ".join(digests), len(group)))
        if len(digests) != 1:
            failed += 1
            errors.append("%s: outputs differ across repetitions" % label)
    say("outputs " + json.dumps(plain[0]["outputs"], sort_keys=True))
    say("wall_s per repetition: "
        + " ".join("%.4f" % rep["wall_s"] for rep in plain))

    if opts.trace:
        declared = spec["per_layer"]
        # The traced repetition with the median wall, whole, so that its
        # self times still sum to its wall.
        chosen = sorted(traced, key=lambda r: r["wall_s"])[
            (len(traced) - 1) // 2]
        # Layers this workload bypasses read zero.
        values = {m["name"]: 0.0 for m in declared}
        values.update(chosen["layers"])
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
        if values["trace.unattributed_s"] < -0.01 * values["trace.wall_s"]:
            failed += 1
            errors.append("attributed self times exceed the traced wall")
    else:
        declared = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in plain),
        }
        for name in CODEC_RATES:
            values[name] = statistics.median(r["rates"][name] for r in codec)

    names = {m["name"] for m in declared}
    if set(values) != names:
        failed += 1
        errors.append("metrics differ from BENCHMARK.json: missing %s, "
                      "unexpected %s" % (sorted(names - set(values)),
                                         sorted(set(values) - names)))
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        usable = isinstance(value, (int, float)) and math.isfinite(value)
        if not usable or (not opts.trace and value <= 0):
            failed += 1
            errors.append("%s has no usable value: %r" % (m["name"], value))
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    say("ops=%d ops_failed=%d" % (attempted, failed))
    for error in errors[:20]:
        say("error: " + error)
    return {"correct": failed == 0 and not errors, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(
        description="ECFault benchmark; see perfbench/README.md")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    opts = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        result = measure(opts, spec)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
