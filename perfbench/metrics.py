"""Turns a raw perfbench_run record (and, for traced runs, its span list)
into the metrics BENCHMARK.json names.

Kept free of I/O beyond reading BENCHMARK.json so that the helpers can be
unit-tested on synthetic inputs (see tests/test_metrics.py).
"""

import json
import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_SAMPLES_BEYOND = 10

# Stages of preprocess::PipelineOutput::stage_seconds.
STAGES = ("slice_timing", "motion_correction", "masking", "smoothing",
          "intensity_normalization", "region_averaging", "temporal_cleanup")


# --- statistics -----------------------------------------------------------

def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """Samples strictly above the nearest-rank q-th percentile of `count`."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_ok(count, q):
    """True when the q-th percentile of `count` samples has enough beyond."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def median(values):
    return statistics.median(values)


# --- spans ----------------------------------------------------------------

def load_spans(path):
    """Reads the harness's chrome-trace file into plain span dicts (seconds)."""
    with open(path) as f:
        events = json.load(f)
    spans = []
    for e in events:
        args = dict(e.get("args", {}))
        spans.append({
            "name": e["name"],
            "cat": e["cat"],
            "thread": e["tid"],
            "start": e["ts"] * 1e-6,
            "end": (e["ts"] + e["dur"]) * 1e-6,
            "id": args.pop("id"),
            "parent": args.pop("parent"),
            "args": args,
        })
    return spans


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span name: total duration minus the time its children cover."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    result = {}
    for s in spans:
        own = s["end"] - s["start"] - _covered(
            children.get(s["id"], []), s["start"], s["end"])
        result[s["name"]] = result.get(s["name"], 0.0) + own
    return result


def coverage(spans, wall_s):
    """Share of `wall_s` covered by top-level spans."""
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    return top / wall_s if wall_s > 0 else 0.0


# --- metrics --------------------------------------------------------------

def benchmark_spec(path):
    """(end_to_end, per_layer) metric lists from BENCHMARK.json."""
    with open(path) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def validate(values, spec):
    """Attaches units from `spec`; the names must match it exactly."""
    expected = [m["name"] for m in spec]
    missing = sorted(set(expected) - set(values))
    extra = sorted(set(values) - set(expected))
    if missing or extra:
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")
    out = {}
    for m in spec:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def _passes(raw, traced):
    return [p for p in raw["passes"] if p["traced"] == traced]


def _pooled(passes, op):
    return [x for p in passes for x in p["samples_ms"].get(op, [])]


def highest_tail(count, levels=(99, 90, 75)):
    """Highest tail percentile level with enough samples beyond it, or None."""
    for level in levels:
        if tail_ok(count, level):
            return level
    return None


def p99(samples):
    """p99 of `samples`. Full-size runs are sized so that it has enough
    samples beyond it; smoke-test runs are not, and get the maximum."""
    if not samples:
        return 0.0
    return percentile(samples, 99 if tail_ok(len(samples), 99) else 100)


def end_to_end(raw):
    """End-to-end metrics of the untraced passes."""
    passes = _passes(raw, False)
    trials = sum(p["trials"] for p in passes)
    attempted = sum(p["attempted"] for p in raw["passes"])
    failed = sum(p["failed"] for p in raw["passes"])
    return {
        "setup_s": median(raw["setup_s"]),
        "wall_s": median([p["wall_s"] for p in passes]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "accuracy": sum(p["hits"] for p in passes) / trials if trials else 0.0,
        "success_rate": 1.0 - failed / attempted if attempted else 0.0,
        "ops_per_s": median([p["ops"] / p["wall_s"] for p in passes]),
        "known_build_s": median([p["known_build_s"] for p in passes]),
        "probe_p50_ms": median(_pooled(passes, "probe")),
    }


def per_layer(raw, spans):
    """Per-layer metrics of a traced run, from its spans: totals are per
    traced pass (set-up layers per set-up), latency percentiles pool the
    spans of every traced pass."""
    traced = _passes(raw, True)
    untraced = _passes(raw, False)
    n_pass = len(traced)
    n_setup = len(raw["setup_s"])
    threads = raw["threads"]
    in_pass = [s for s in spans if s["cat"] == "pass"]
    in_setup = [s for s in spans if s["cat"] == "setup"]

    def total(name, pool=in_pass):
        return sum(s["end"] - s["start"] for s in pool if s["name"] == name)

    def calls(*names):
        return sum(1 for s in in_pass if s["name"] in names)

    def arg(key, *names):
        return sum(s["args"].get(key, 0.0) for s in in_pass
                   if s["name"] in names)

    m = {
        "nifti.read_s": total("nifti.read") / n_pass,
        "nifti.read_calls": calls("nifti.read") / n_pass,
        "nifti.read_mb": arg("bytes", "nifti.read") / 2**20 / n_pass,
        "atlas.read_s": total("atlas.read", in_setup) / n_setup,
        "preprocess.batch_s": total("preprocess.batch") / n_pass,
        "preprocess.run_s": total("preprocess.run") / n_pass,
        "preprocess.frames":
            arg("frames", "preprocess.batch", "preprocess.run") / n_pass,
        "preprocess.degraded_frames":
            arg("degraded_frames", "preprocess.batch", "preprocess.run")
            / n_pass,
        "connectome.build_s": total("connectome.build") / n_pass,
        "connectome.store_open_s": total("connectome.store_open") / n_pass,
        "core.fit_s": total("core.fit") / n_pass,
        "core.fit_calls": calls("core.fit") / n_pass,
        "core.identify_s": total("core.identify") / n_pass,
        "core.identify_streamed_s": total("core.identify_streamed") / n_pass,
        "core.identify_calls":
            calls("core.identify", "core.identify_streamed") / n_pass,
        "service.identify_s": total("service.identify") / n_pass,
        "service.identify_calls": calls("service.identify") / n_pass,
        "service.enroll_s": total("service.enroll") / n_pass,
        "service.remove_s": total("service.remove") / n_pass,
        "service.mutations":
            calls("service.enroll", "service.remove") / n_pass,
        "durability.journal_bytes":
            arg("journal_bytes", "service.enroll", "service.remove") / n_pass,
        "durability.compactions":
            arg("compactions", "service.enroll", "service.remove") / n_pass,
        "durability.open_s": total("durability.open") / n_pass,
        "sim.cohort_s": total("sim.cohort", in_setup) / n_setup,
        "sim.gallery_s": total("sim.gallery", in_setup) / n_setup,
    }
    for stage in STAGES:
        seconds = arg(stage + "_s", "preprocess.batch", "preprocess.run")
        m[f"preprocess.{stage}_s"] = seconds / n_pass
    batch_stages = sum(arg(stage + "_s", "preprocess.batch")
                       for stage in STAGES)
    batch_wall = total("preprocess.batch")
    m["preprocess.batch_efficiency"] = (
        batch_stages / (batch_wall * threads) if batch_wall > 0 else 0.0)
    scanned = arg("scanned", "service.identify")
    gallery = arg("gallery", "service.identify")
    m["service.scan_fraction"] = scanned / gallery if gallery > 0 else 0.0

    def durations_ms(*names):
        return [(s["end"] - s["start"]) * 1e3 for s in in_pass
                if s["name"] in names]

    mutations = durations_ms("service.enroll", "service.remove")
    m["service.identify_p99_ms"] = p99(durations_ms("service.identify"))
    m["service.mutate_p50_ms"] = median(mutations) if mutations else 0.0
    m["service.mutate_p99_ms"] = p99(mutations)

    traced_wall = sum(p["wall_s"] for p in traced)
    m["trace.coverage"] = coverage(in_pass, traced_wall)
    m["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                             - median([p["wall_s"] for p in untraced]))
    return m
