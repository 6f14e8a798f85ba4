#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_run from source, runs one workload,
and prints its metrics as the last line of standard output.

Usage (from the repository root):
  python3 perfbench/run.py --workload scan_attack|cross_task|serve_mixed \
      --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the span trace and per-layer self times under
.bench_out/). --tiny runs smoke-test sizes. Everything the run builds or
writes stays under .bench_build/, .bench_data/ and .bench_out/ of the
checkout. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("scan_attack", "cross_task", "serve_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds perfbench_run; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no neuroprint sources under {ROOT}/src")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_run")


def summarize(raw, values, pass_spans):
    """Human-readable lines printed before the result line."""
    env = {k: raw[k] for k in ("workload", "seed", "threads", "isa",
                               "build_type", "tiny", "dimensions")}
    print("environment " + json.dumps(env, sort_keys=True))
    untraced = [p for p in raw["passes"] if not p["traced"]]
    print(f"passes {len(untraced)} untraced, "
          f"{len(raw['passes']) - len(untraced)} traced; "
          f"set-ups {len(raw['setup_s'])}")
    for op in sorted({op for p in untraced for op in p["samples_ms"]}):
        samples = [x for p in untraced for x in p["samples_ms"][op]]
        level = metrics.highest_tail(len(samples))
        tail = (f"p{level} {metrics.percentile(samples, level):.4f} ms"
                if level else "no p75 or higher has 10 samples beyond it")
        print(f"latency {op}: n={len(samples)} "
              f"p50 {metrics.median(samples):.4f} ms, {tail}")
    for p in raw["passes"]:
        for failure in p["failures"]:
            print("failure " + failure)
    if pass_spans is not None:
        print("self time per traced pass (s):")
        n_pass = len(raw["passes"]) - len(untraced)
        for name, seconds in sorted(metrics.self_times(pass_spans).items(),
                                    key=lambda kv: -kv[1]):
            print(f"  {name:28s} {seconds / n_pass:10.6f}")
        run_s = values.get("preprocess.run_s", 0.0)
        if run_s > 0:
            stages = [s for s in pass_spans if s["name"] == "preprocess.run"]
            heavy = sum(s["args"].get("motion_correction_s", 0.0) +
                        s["args"].get("slice_timing_s", 0.0) for s in stages)
            print(f"phase (b) motion_correction + slice_timing = "
                  f"{heavy / n_pass / run_s:.3f} of preprocess.run_s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    end_to_end_spec, per_layer_spec = metrics.benchmark_spec(spec_path)
    binary = build()

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    data_dir = os.path.join(ROOT, ".bench_data", tag)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(os.path.join(data_dir, "tmp"), exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    raw_path = os.path.join(data_dir, "raw.json")
    trace_path = os.path.join(out_dir, f"{args.workload}-{args.seed}.trace.json")

    # The program gets only its inputs: no inherited NEUROPRINT_* knobs,
    # and scratch files (spills, temps) stay inside the checkout.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NEUROPRINT_")}
    env["TMPDIR"] = os.path.join(data_dir, "tmp")
    env["NEUROPRINT_SPILL_DIR"] = os.path.join(data_dir, "tmp")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data", data_dir, "--out", raw_path]
    if args.trace:
        command += ["--trace-out", trace_path]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"perfbench_run exited with {done.returncode}")
        with open(raw_path) as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        fail(f"perfbench_run did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    pass_spans = None
    if args.trace:
        spans = metrics.load_spans(trace_path)
        values = metrics.per_layer(raw, spans)
        result_metrics = metrics.validate(values, per_layer_spec)
        pass_spans = [s for s in spans if s["cat"] == "pass"]
        with open(os.path.join(
                out_dir, f"{args.workload}-{args.seed}.self_time.json"),
                "w") as f:
            json.dump(metrics.self_times(pass_spans), f, indent=1,
                      sort_keys=True)
    else:
        values = metrics.end_to_end(raw)
        result_metrics = metrics.validate(values, end_to_end_spec)
    summarize(raw, values, pass_spans)

    attempted = sum(p["attempted"] for p in raw["passes"])
    failed = sum(p["failed"] for p in raw["passes"])
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
