import importlib
import importlib.util
import os
from collections import Counter

import numpy as np

from gbsed import codec, rng, scenarios, scene_graph
from gbsed.ontology import default_ontology

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(_PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_probe_resolves():
    # perfbench's tracer wraps these module attributes and its worker reads
    # rng.USING_NUMBA; deleting one of them breaks the benchmark
    tracer = _load("tracer")
    assert tracer.PROBES
    missing = [f"{p.module}.{p.attr}" for p in tracer.PROBES
               if not hasattr(importlib.import_module(p.module), p.attr)]
    assert missing == []
    assert hasattr(rng, "USING_NUMBA")


def test_generate_infers_through_the_probed_name(monkeypatch):
    # perfbench times corpus generation's relation inference by wrapping the
    # module attribute scene_graph.infer_relations: generate must call it,
    # a batch of frames per call under the pair budget, in corpus order
    spec = scenarios.ScenarioSpec(seed=4, num_sequences=6, vehicles_range=(2, 12))
    ontology = default_ontology()
    plain = scenarios.generate(spec, ontology)
    original = scene_graph.infer_relations
    batches = []

    def spy(features, ontology, sizes=None):
        batches.append(list(sizes))
        return original(features, ontology, sizes)

    monkeypatch.setattr(scene_graph, "infer_relations", spy)
    monkeypatch.setattr(scene_graph, "_PAIR_BUDGET", 400)
    assert scenarios.generate(spec, ontology) == plain
    assert len(batches) > 1
    assert [n for sizes in batches for n in sizes] == [
        f.num_nodes for seq in plain for f in seq.frames]
    assert all(sum(n * n for n in sizes) <= 400 or len(sizes) == 1 for sizes in batches)


def test_perfbench_counts_decompress_warnings():
    # the tracer counts repaired, dropped and duplicate matrices from the
    # warnings decompress returns, by their prefix
    count = _load("tracer").ON_RETURN["codec.decompress"]
    repaired = np.array([[[0, 5], [2, 0]]], dtype=np.uint8)
    dropped = np.zeros((1, 2, 2), dtype=np.uint8)
    duplicate = np.array([[[0, 3], [0, 0]], [[0, 0], [3, 0]]], dtype=np.uint8)
    for retained, key in ((repaired, "repaired"), (dropped, "dropped"),
                          (duplicate, "duplicate")):
        counts = Counter()
        args = (retained, 8)
        count(counts, args, {}, codec.decompress(*args))
        assert counts == {f"codec.decompress.{key}": 1}, key


def test_perfbench_corpus_survives_its_scenes_round_trip(tmp_path):
    # perfbench counts a run correct only if the corpus read back from its
    # .scenes file equals the generated one
    workloads = _load("workloads")
    for name in workloads.NAMES:
        assert workloads.build_inputs(name, 3, tmp_path)[2] is True, name
