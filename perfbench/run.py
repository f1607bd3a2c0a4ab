#!/usr/bin/env python3
"""Benchmark of gbsed's SNR sweep, end to end and layer by layer.

    python3 perfbench/run.py --workload awgn_small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gbsed is imported from ``src/``.
The sweep runs in a closed loop: one process, one caller, each
``run_sweep`` starting after the previous one returned. A pass sweeps each
of the corpus's chunks once and receives as many frames as one sweep of the
whole corpus (see workloads.py).

``--trace 0`` reports the end-to-end metrics. Set-up is measured in
``SETUP_SAMPLES`` fresh processes (median), and the last of them then times
as many whole passes as fit in ``--seconds``. The host's speed drifts, so
both timings are scaled to a fixed host speed by the reference work timed
in the same process (reference.py); the unscaled figures go to the report.

- frames_per_s: received frames (SNR points x trials) per second of warm
  ``run_sweep`` wall time, summed over the run's passes, scaled by the mean
  reference time over ``reference.NOMINAL_S``
- setup_s: process start to first sweep (interpreter, ``import gbsed``,
  corpus generation, ``.scenes`` write/read), scaled by
  ``reference.NOMINAL_S`` over the mean reference time right after it
- peak_rss_mb: peak resident memory of the sweeping process
- ok_rate: share of passes that returned and passed the output check

``--trace 1`` alternates untraced and traced passes in one process and
reports the per-layer metrics, taken from spans recorded around gbsed's
public functions (see tracer.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report,
with the environment and every sample, goes to ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

import workloads  # noqa: E402
from reference import NOMINAL_S  # noqa: E402

SETUP_SAMPLES = 3
# every run, workers included, ends within this many seconds
DEADLINE_S = 170.0
# knobs that would change what the numbers measure
FORBIDDEN_ENV = ("GBSED_THREADS", "GBSED_NO_NUMBA")


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline, setup_only=False):
    spawned_at = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def pass_outcome(result):
    passes = result["passes"]
    failed = sum(1 for s in passes if s["problems"] or s["wall_s"] is None)
    for k, s in enumerate(passes):
        for problem in s["problems"]:
            print(f"pass {k}: {problem}")
    if not result["round_trip_ok"]:
        print("set-up: corpus changed in the .scenes round trip")
    return len(passes), failed


def end_to_end(args, deadline):
    setups = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(args, deadline)
    setups.append(result)
    attempted, failed = pass_outcome(result)
    walls = [s["wall_s"] for s in result["passes"] if s["wall_s"]]
    # no pass returned: no frame got through, and the run is not correct
    wall_rate = result["frames"] * len(walls) / sum(walls) if walls else 0.0
    slowness = statistics.mean(result["ref_s"]) / NOMINAL_S if result["ref_s"] else 1.0
    setup_wall = [s["setup_s"] for s in setups]
    setup_scaled = [s["setup_s"] * NOMINAL_S / s["setup_ref_s"] for s in setups]
    metrics = {
        "frames_per_s": {"value": wall_rate * slowness, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    correct = failed == 0 and all(s["round_trip_ok"] for s in setups)
    report = {"unscaled": {"frames_per_s": wall_rate, "setup_s": statistics.median(setup_wall),
                           "reference_slowness": slowness},
              "setups_s": setup_wall, "setups_scaled_s": setup_scaled,
              "frames_per_s_samples": [result["frames"] / w for w in walls],
              **result}
    return correct, attempted, failed, metrics, report


def per_layer(args, deadline):
    result = spawn(args, deadline)
    attempted, failed = pass_outcome(result)
    print(f"{'span':<28} {'calls':>8} {'self us/frame':>14} {'incl us/call':>13} {'share':>7}")
    for name, calls, self_us, incl_us, share in result["breakdown"]:
        print(f"{name:<28} {calls:>8} {self_us:>14.2f} {incl_us:>13.2f} {share:>7.1%}")
    correct = failed == 0 and result["round_trip_ok"]
    return correct, attempted, failed, result.pop("layers"), result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    knobs = [k for k in FORBIDDEN_ENV if k in os.environ]
    if knobs:
        print(f"error: unset {', '.join(knobs)}: they change what is measured", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "gbsed", "__init__.py")):
        print(f"error: no gbsed source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        correct, attempted, failed, metrics, report = measure(args, deadline)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} passes, {failed} failed (error_rate {failed / attempted:.3f}), "
          f"recorded digest {'compared' if report['digest_checked'] else 'absent for this seed'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if "unscaled" in report:
        print("unscaled " + json.dumps(report["unscaled"], sort_keys=True))
    print("env " + json.dumps(report["env"], sort_keys=True))
    path = os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "correct": correct, "metrics": metrics, **report},
                  fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
