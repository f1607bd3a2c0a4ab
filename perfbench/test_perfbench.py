"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They check that tracing leaves gbsed as it found it, that the tracer's
counts and self times add up, that the output check catches bad CSVs, and
that a short run of every workload passes its output check.
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import PROBES, Tracer, self_times  # noqa: E402
import worker  # noqa: E402
from worker import run_one  # noqa: E402

# a seed recorded in digests.json, so the smoke runs also check the bytes
SMOKE_SEED = 3


def _bindings():
    return {(p.module, p.attr): getattr(importlib.import_module(p.module), p.attr)
            for p in PROBES}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    chunks, ontology, _ = workloads.build_inputs(
        "bsc_unprotected", 5, str(tmp_path_factory.mktemp("corpus")))
    corpus, cfg = chunks[0]
    cfg = dataclasses.replace(cfg, snr_points=cfg.snr_points[:2], trials_per_point=1)
    return corpus[:3], ontology, cfg


def test_tracer_restores_every_wrapped_attribute(tiny):
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(_bindings()[k] is not fn for k, fn in before.items())
            run_one(*tiny)
            raise RuntimeError("leave the context by an error")
    assert tracer.missing == []
    after = _bindings()
    assert all(after[k] is fn for k, fn in before.items())


def test_self_times_account_for_the_sweep_and_counts_repeat(tiny):
    corpus, ontology, cfg = tiny
    tracer = Tracer()
    results = []
    for _ in range(2):
        wall, text = run_one(corpus, ontology, cfg, tracer)
        spans, counts = tracer.take()
        results.append((text, self_times(spans), counts))
    (text_a, stats_a, counts_a), (text_b, stats_b, counts_b) = results
    assert text_a == text_b == run_one(corpus, ontology, cfg)[1]
    assert counts_a == counts_b
    assert {k: v[0] for k, v in stats_a.items()} == {k: v[0] for k, v in stats_b.items()}
    root_ns = stats_a["sweep.run_sweep"][2]
    assert sum(v[1] for v in stats_a.values()) == root_ns
    parse_fails = sum(v for k, v in counts_a.items() if k.startswith("codec.parse.fail."))
    assert counts_a["sweep.fallback_frames"] == parse_fails


def test_check_catches_bad_output(tiny):
    corpus, ontology, cfg = tiny
    _, text = run_one(corpus, ontology, cfg)
    texts = [text, text]
    assert check.check_pass(texts, cfg.snr_points, check.sha256(text + text)) == []
    assert check.check_pass(texts, cfg.snr_points, check.sha256(text))
    assert check.check_pass([text, "snr_db\n"], cfg.snr_points)
    assert check.check_csv(text, cfg.snr_points[:1])
    assert check.check_csv(text.replace("snr_db", "snr"), cfg.snr_points)
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[2] = "1.5"  # fidelity above 1
    bad = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert any("fidelity" in p for p in check.check_csv(bad, cfg.snr_points))


def _spec_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_a_run_where_no_pass_returned_still_reports(monkeypatch):
    import run

    failed_pass = {"traced": False, "wall_s": None, "sha256": None,
                   "problems": ["pass raised"]}
    result = {"setup_s": 1.0, "setup_ref_s": 0.02, "round_trip_ok": True, "frames": 10,
              "passes": [failed_pass], "ref_s": [], "peak_rss_mb": 100.0, "env": {},
              "digest_checked": True}
    monkeypatch.setattr(run, "spawn", lambda *a, **k: dict(result))
    args = run.argparse.Namespace(workload="awgn_small", seed=1, seconds=1, trace=0)
    correct, attempted, failed, metrics, _ = run.end_to_end(args, deadline=0.0)
    assert (correct, attempted, failed) == (False, 1, 1)
    assert set(metrics) == _spec_names("end_to_end")
    assert metrics["ok_rate"]["value"] == 0.0 and metrics["frames_per_s"]["value"] == 0.0
    layers = worker.layer_metrics([], {}, 10, 10, [], [])
    assert set(layers) == _spec_names("per_layer")
    assert worker.breakdown([], [], 10) == []


def test_smoke_seed_is_recorded():
    digests = check.load_digests()
    for name in workloads.NAMES:
        assert check.recorded_digest(digests, name, SMOKE_SEED)


def _run(cwd, *args, env=None):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)


@pytest.mark.parametrize("workload,trace",
                         [(name, 0) for name in workloads.NAMES] + [("bsc_unprotected", 1)])
def test_short_run_passes_output_check(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(SMOKE_SEED),
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "awgn_small", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_when_a_knob_is_set():
    env = dict(os.environ, GBSED_THREADS="2")
    proc = _run(ROOT, "--workload", "awgn_small", "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
