"""Span tracer that wraps gbsed's public functions from outside the package.

Each probe replaces one module attribute with a wrapper that records a span
(name, start, end, parent span, frame id) around the call, plus counts taken
from the call's arguments, return value or raised error. Nothing under
``src/`` knows about it: the wrappers are installed on entry to the tracer's
context and every original attribute is put back on exit.

A frame id groups the spans of one frame. Probes marked ``OPEN`` start a new
frame (a received frame at ``transmit``, an encoded frame at
``encode_tensor``, a generated frame at ``infer_relations``), ``INHERIT``
probes belong to the frame open at the time, and ``NONE`` probes run once
per sweep or corpus and carry frame id -1.
"""

import importlib
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

OPEN = "open"
INHERIT = "inherit"
NONE = "none"


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str
    span: str
    frame: str = INHERIT


# Where a function is imported by name into the module that calls it, both
# bindings are wrapped, so the span appears however the caller reaches it.
PROBES = (
    Probe("gbsed.sweep", "run_sweep", "sweep.run_sweep", NONE),
    Probe("gbsed.sweep", "transmit", "channel.transmit", OPEN),
    Probe("gbsed.channel", "transmit", "channel.transmit", OPEN),
    Probe("gbsed.channel", "qam64_map", "channel.map"),
    Probe("gbsed.channel", "awgn", "channel.awgn"),
    Probe("gbsed.channel", "qam64_demap", "channel.demap"),
    Probe("gbsed.rng", "normals", "rng.normals"),
    Probe("gbsed.rng", "uniforms", "rng.uniforms"),
    Probe("gbsed.codec", "encode_tensor", "codec.encode_tensor", OPEN),
    Probe("gbsed.codec", "compress", "codec.compress"),
    Probe("gbsed.codec", "serialize", "codec.serialize"),
    Probe("gbsed.codec", "parse", "codec.parse"),
    Probe("gbsed.codec", "decompress", "codec.decompress"),
    Probe("gbsed.codec", "regenerate", "codec.regenerate"),
    Probe("gbsed.ontology", "ontology_digest", "ontology.digest"),
    Probe("gbsed.codec", "ontology_digest", "ontology.digest"),
    Probe("gbsed.metrics", "ontology_digest", "ontology.digest"),
    Probe("gbsed.sweep", "semantic_fidelity", "metrics.fidelity"),
    Probe("gbsed.metrics", "semantic_fidelity", "metrics.fidelity"),
    Probe("gbsed.sweep", "classification_metrics", "metrics.classification", NONE),
    Probe("gbsed.metrics", "classification_metrics", "metrics.classification", NONE),
    Probe("gbsed.sweep", "auc_metric", "metrics.auc", NONE),
    Probe("gbsed.metrics", "auc", "metrics.auc", NONE),
    Probe("gbsed.sweep", "task_consistency", "task.consistency", NONE),
    Probe("gbsed.task", "task_consistency", "task.consistency", NONE),
    Probe("gbsed.scenarios", "generate", "scenarios.generate", NONE),
    Probe("gbsed.scenarios", "write_scenes", "scenarios.write_scenes", NONE),
    Probe("gbsed.scenarios", "read_scenes", "scenarios.read_scenes", NONE),
    Probe("gbsed.scene_graph", "infer_relations", "scene_graph.infer_relations", OPEN),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_transmit(counts, args, kwargs, result):
    counts["channel.bits"] += 8 * len(_arg(args, kwargs, 0, "payload"))
    counts["channel.bit_errors"] += int(result[1])


def _count_decompress(counts, args, kwargs, result):
    for warning in result[1]:
        if warning.startswith("matrix repaired"):
            counts["codec.decompress.repaired"] += 1
        elif warning.startswith("matrix dropped"):
            counts["codec.decompress.dropped"] += 1
        elif warning.startswith("duplicate matrix"):
            counts["codec.decompress.duplicate"] += 1


def _count_samples(span):
    def count(counts, args, kwargs, result):
        counts[span + ".samples"] += int(_arg(args, kwargs, 1, "n"))
    return count


def _count_fidelity(counts, args, kwargs, result):
    # the sweep scores an unparseable frame as received=None
    if _arg(args, kwargs, 1, "received") is None:
        counts["sweep.fallback_frames"] += 1


ON_RETURN = {
    "channel.transmit": _count_transmit,
    "codec.decompress": _count_decompress,
    "rng.normals": _count_samples("rng.normals"),
    "rng.uniforms": _count_samples("rng.uniforms"),
    "metrics.fidelity": _count_fidelity,
}


class Tracer:
    """Context manager that installs every probe and restores it on exit.

    ``spans`` holds (name, start_ns, end_ns, parent_index, frame_id) tuples
    in call order; ``counts`` holds the boundary counts, including one
    ``<span>.fail.<ErrorClass>`` entry per raised error.
    """

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._frame = -1
        self._saved = []

    def __enter__(self):
        self.missing = []
        for probe in self.probes:
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr, None)
            if original is None:
                self.missing.append(f"{probe.module}.{probe.attr}")
                continue
            self._saved.append((module, probe.attr, original))
            setattr(module, probe.attr, self._wrap(original, probe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def take(self):
        """Return (spans, counts) recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        self._frame = -1
        return spans, counts

    def _wrap(self, fn, probe):
        name = probe.span
        mode = probe.frame
        on_return = ON_RETURN.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans = self.spans
            if mode == OPEN:
                self._frame += 1
            frame = -1 if mode == NONE else self._frame
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.fail.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent, frame)
                stack.pop()
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return traced


def self_times(spans):
    """Per-name totals over ``spans``: {name: (calls, self_ns, inclusive_ns)}.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the benchmark runs one thread.
    """
    if not spans:
        return {}
    names = [s[0] for s in spans]
    start = np.fromiter((s[1] for s in spans), dtype=np.int64, count=len(spans))
    end = np.fromiter((s[2] for s in spans), dtype=np.int64, count=len(spans))
    parent = np.fromiter((s[3] for s in spans), dtype=np.int64, count=len(spans))
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    out = {}
    for i, name in enumerate(names):
        calls, self_ns, incl_ns = out.get(name, (0, 0, 0))
        out[name] = (calls + 1, self_ns + int(own[i]), incl_ns + int(dur[i]))
    return out


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span\tname\tstart_ns\tend_ns\tparent\tframe\n")
        for i, (name, start, end, parent, frame) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{frame}\n")
