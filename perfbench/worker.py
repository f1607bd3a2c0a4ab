#!/usr/bin/env python3
"""One benchmark process: set up a workload, then time or trace its passes.

run.py starts this script and passes the monotonic time at which it spawned
it, so that set-up time covers interpreter start, ``import gbsed``, corpus
generation and the ``.scenes`` round trip. The last line of standard output
is one JSON object with the samples; run.py turns them into metrics.

A pass sweeps every chunk of the corpus once (see workloads.py).

Untraced (``--trace 0``): the reference work (reference.py) runs
``SETUP_PROBES`` times right after set-up and once after every chunk sweep.
One tiny warm-up sweep, then whole passes, one after another, as many as fit
in ``--seconds`` (at least one).

Traced (``--trace 1``): untraced and traced passes alternate, as many as fit
in ``--seconds`` (at least one untraced and two traced); no reference work
runs. Every traced pass must give the same CSV bytes as the untraced ones
and the same counts as the first traced pass.
"""

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from gbsed import rng, sweep  # noqa: E402
from tracer import Tracer, self_times, write_spans  # noqa: E402

# spans whose self time per received frame is a per-layer metric
SELF_US = (
    "ontology.digest", "codec.encode_tensor", "codec.compress", "codec.serialize",
    "codec.parse", "codec.decompress", "codec.regenerate", "channel.transmit",
    "channel.map", "channel.awgn", "channel.demap", "rng.normals", "rng.uniforms",
    "metrics.fidelity", "metrics.classification", "metrics.auc", "task.consistency",
    "sweep.run_sweep",
)
# spans whose call count per pass is a per-layer metric
CALLS = (
    "ontology.digest", "codec.parse", "channel.transmit", "channel.map",
    "channel.awgn", "channel.demap", "rng.normals", "rng.uniforms",
)
# boundary counts per pass
COUNTS = (
    "codec.parse.fail.FormatError", "codec.parse.fail.TruncationError",
    "codec.parse.fail.OntologyMismatch", "codec.decompress.repaired",
    "codec.decompress.dropped", "codec.decompress.duplicate", "channel.bits",
    "channel.bit_errors", "rng.normals.samples", "rng.uniforms.samples",
    "sweep.fallback_frames",
)


# reference runs after each set-up, to tell the host's speed during it
SETUP_PROBES = 8


def env_info():
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "gbsed")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "rng_path": "numba" if rng.USING_NUMBA else "numpy",
        "src_gbsed_lines": lines,
        "machine": platform.machine(),
    }


def run_one(corpus, ontology, cfg, tracer=None):
    """Run one sweep; returns (wall_s, csv_text) or raises what the sweep raised."""
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        rows = sweep.run_sweep(corpus, ontology, cfg)
        wall = time.perf_counter() - t0
    return wall, sweep.rows_to_csv(rows)


def run_pass(chunks, ontology, tracer=None, probe=None):
    """Sweep every chunk once; returns (wall_s, csv_texts, probe_s).

    ``wall_s`` sums the chunks' sweep times. ``probe``, when given, runs after
    every chunk, and ``probe_s`` lists what it returned.
    """
    wall, texts, probe_s = 0.0, [], []
    for sequences, cfg in chunks:
        chunk_wall, text = run_one(sequences, ontology, cfg, tracer)
        wall += chunk_wall
        texts.append(text)
        if probe is not None:
            probe_s.append(probe())
    return wall, texts, probe_s


def layer_sample(spans, counts, frames):
    """Per-layer numbers of one traced pass: self µs per received frame,
    inclusive µs per call, and the exact counts."""
    stats = self_times(spans)
    sample = {"self_us": {}, "incl_us_per_call": {}, "counts": dict(counts)}
    for name, (calls, self_ns, incl_ns) in stats.items():
        sample["self_us"][name] = self_ns / 1e3 / frames
        sample["incl_us_per_call"][name] = incl_ns / 1e3 / calls
        sample["counts"][name + ".calls"] = calls
    sample["accounted_ns"] = sum(self_ns for _, self_ns, _ in stats.values())
    return sample


def median_or_0(values):
    """Median of ``values``, or 0 when no traced pass returned one."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(samples, setup_stats, corpus_frames, frames, traced_walls, untraced_walls):
    """Per-layer metrics; every one is 0 when no traced pass returned."""
    med = median_or_0
    out = {}
    for name in SELF_US:
        out[name + ".self_us"] = (med(s["self_us"].get(name, 0.0) for s in samples), "us/frame")
    counts = samples[0]["counts"] if samples else {}
    for name in CALLS:
        out[name + ".calls"] = (counts.get(name + ".calls", 0), "count")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    parse_fails = sum(v for k, v in counts.items() if k.startswith("codec.parse.fail."))
    parse_calls = counts.get("codec.parse.calls", 0)
    out["codec.parse.fail"] = (parse_fails, "count")
    out["sweep.frames"] = (frames, "count")
    out["sweep.parsed_ratio"] = ((parse_calls - parse_fails) / parse_calls if parse_calls
                                 else 0.0, "ratio")
    out["sweep.wall_us"] = (med(traced_walls) * 1e6 / frames, "us/frame")
    out["trace.overhead_frac"] = (med(traced_walls) / med(untraced_walls) - 1.0
                                  if traced_walls and untraced_walls else 0.0, "ratio")
    out["trace.accounted_frac"] = (
        med(s["accounted_ns"] / 1e9 / w for s, w in zip(samples, traced_walls)), "ratio")
    gen = setup_stats.get("scenarios.generate", (0, 0, 0))
    read = setup_stats.get("scenarios.read_scenes", (0, 0, 0))
    infer = setup_stats.get("scene_graph.infer_relations", (0, 0, 0))
    out["scenarios.generate.s"] = (gen[2] / 1e9, "s")
    out["scenarios.read_scenes.s"] = (read[2] / 1e9, "s")
    out["scene_graph.infer_relations.self_us"] = (infer[1] / 1e3 / corpus_frames, "us/frame")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def breakdown(samples, traced_walls, frames):
    """Rows (name, calls, self µs/frame, inclusive µs/call, share of traced wall)."""
    if not samples:
        return []
    med = statistics.median
    wall_us = med(traced_walls) * 1e6 / frames
    rows = []
    for name in sorted(samples[0]["self_us"], key=lambda n: -samples[0]["self_us"][n]):
        self_us = med(s["self_us"][name] for s in samples)
        rows.append([name, samples[0]["counts"][name + ".calls"], self_us,
                     med(s["incl_us_per_call"][name] for s in samples), self_us / wall_us])
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        chunks, ontology, round_trip_ok = workloads.build_inputs(
            args.workload, args.seed, OUT_DIR)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "round_trip_ok": round_trip_ok}
    if not tracer:
        result["setup_ref_s"] = statistics.mean(reference.run() for _ in range(SETUP_PROBES))
    if args.setup_only:
        print(json.dumps(result))
        return 0

    setup_spans, _ = tracer.take() if tracer else ([], None)
    corpus_frames = sum(cfg.trials_per_point for _, cfg in chunks)
    frames = workloads.received_frames(chunks)
    snr_points = chunks[0][1].snr_points
    # seeds without a recorded digest get every check but the byte comparison
    expected_sha = check.recorded_digest(check.load_digests(), args.workload, args.seed)
    # warm-up: one sequence, one SNR point, so that lazy set-up is not timed
    first_seq, first_cfg = chunks[0][0][:1], chunks[0][1]
    sweep.run_sweep(first_seq, ontology, dataclasses.replace(
        first_cfg, snr_points=snr_points[:1], trials_per_point=1))

    passes = []
    ref_s = []
    samples = []
    last_spans = []
    first_sha = None
    last_elapsed = 0.0
    t_start = time.monotonic()
    while True:
        n_traced = sum(s["traced"] for s in passes)
        n_untraced = len(passes) - n_traced
        enough = n_untraced >= 1 and n_traced >= 2 if tracer else bool(passes)
        # stop before a pass that would end past --seconds, judged by the last one
        t_pass = time.monotonic()
        if enough and t_pass - t_start + last_elapsed > args.seconds:
            break
        traced = tracer is not None and n_untraced > n_traced
        record = {"traced": traced, "wall_s": None, "sha256": None, "problems": []}
        passes.append(record)
        try:
            wall, texts, probe_s = run_pass(chunks, ontology, tracer if traced else None,
                                            None if tracer else reference.run)
        except Exception:
            traceback.print_exc()
            record["problems"].append("pass raised " + traceback.format_exc(limit=1).strip())
            if traced:
                tracer.take()
            continue
        finally:
            last_elapsed = time.monotonic() - t_pass
        ref_s += probe_s
        text = "".join(texts)
        record["wall_s"] = wall
        record["sha256"] = check.sha256(text)
        record["problems"] += check.check_pass(texts, snr_points, expected_sha)
        first_sha = first_sha or record["sha256"]
        if record["sha256"] != first_sha:
            record["problems"].append("CSV bytes differ from the run's first pass")
        if traced:
            spans, counts = tracer.take()
            sample = layer_sample(spans, counts, frames)
            if samples and sample["counts"] != samples[0]["counts"]:
                record["problems"].append("counts differ from the first traced pass")
            samples.append(sample)
            last_spans = spans

    result.update({
        "frames": frames,
        "corpus_frames": corpus_frames,
        "chunks": len(chunks),
        "passes": passes,
        "ref_s": ref_s,
        "digest_checked": expected_sha is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env_info(),
    })
    traced_walls = [s["wall_s"] for s in passes if s["traced"] and s["wall_s"]]
    untraced_walls = [s["wall_s"] for s in passes if not s["traced"] and s["wall_s"]]
    if tracer is not None:
        result["layers"] = layer_metrics(samples, self_times(setup_spans), corpus_frames,
                                         frames, traced_walls, untraced_walls)
        result["breakdown"] = breakdown(samples, traced_walls, frames)
        result["probes_missing"] = tracer.missing
        result["spans_files"] = []
        for phase, spans in (("setup", setup_spans), ("pass", last_spans)):
            path = os.path.join(OUT_DIR, f"spans-{args.workload}-{phase}.tsv")
            write_spans(path, spans)
            result["spans_files"].append(os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
