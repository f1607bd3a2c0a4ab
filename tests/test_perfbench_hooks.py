import importlib
import importlib.util
import os

from gbsed import rng

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracer.py")


def test_every_perfbench_probe_resolves():
    # perfbench's tracer wraps these module attributes and its worker reads
    # rng.USING_NUMBA; deleting one of them breaks the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PROBES
    missing = [f"{p.module}.{p.attr}" for p in tracer.PROBES
               if not hasattr(importlib.import_module(p.module), p.attr)]
    assert missing == []
    assert hasattr(rng, "USING_NUMBA")


def test_perfbench_corpus_survives_its_scenes_round_trip(tmp_path):
    # perfbench counts a run correct only if the corpus read back from its
    # .scenes file equals the generated one
    path = os.path.join(os.path.dirname(_TRACER), "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.NAMES:
        assert workloads.build_inputs(name, 3, tmp_path)[2] is True, name
