"""The benchmark's workloads and the set-up that builds their inputs.

Every input derives from the run's seed: it is the corpus seed and the
sweep's ``base_seed``. The corpus is swept in ``CHUNKS`` slices of whole
sequences, one ``run_sweep`` each, over the default 0-20 dB grid in 2 dB
steps with one pass of the slice's frames per SNR point. One pass of the
benchmark sweeps every slice once, so it receives as many frames as one
sweep of the whole corpus.

gbsed is imported inside the functions, so that the parent process, which
only needs the names, never loads it.
"""

import os

# Why each workload exists is recorded in BENCHMARK.json. awgn_small is the
# acceptance sweep's per-frame mix at fewer trials; awgn_dense moves the cost
# to per-bit and per-N^2 work; bsc_unprotected bypasses the QAM kernels and
# drives the parse error path.
NAMES = ("awgn_small", "awgn_dense", "bsc_unprotected")

# A slice takes a fraction of a second to sweep, about as long as the host
# keeps one speed, so that the reference work timed between slices
# (reference.py) sees the speed the slice ran at.
CHUNKS = 10


def corpus_spec(name, seed):
    from gbsed.scenarios import ScenarioSpec

    if name == "awgn_dense":
        return ScenarioSpec(seed=seed, num_sequences=20, vehicles_range=(24, 30),
                            lane_count=5)
    return ScenarioSpec(seed=seed)


def sweep_config(name, seed, frames):
    """The sweep of ``frames`` frames: one pass of them per SNR point."""
    from gbsed.channel import BSC, UNPROTECTED
    from gbsed.sweep import SweepConfig

    if name == "bsc_unprotected":
        return SweepConfig(trials_per_point=frames, base_seed=seed,
                           channel_kind=BSC, bsc_flip_prob=0.002,
                           header_protection=UNPROTECTED)
    return SweepConfig(trials_per_point=frames, base_seed=seed)


def chunk_sweeps(name, seed, corpus):
    """The corpus as ``CHUNKS`` (sequences, sweep config) pairs."""
    n = min(CHUNKS, len(corpus))
    chunks = []
    for k in range(n):
        part = corpus[k * len(corpus) // n:(k + 1) * len(corpus) // n]
        chunks.append((part, sweep_config(name, seed, sum(len(s.frames) for s in part))))
    return chunks


def received_frames(chunks):
    """Frames received in one pass: SNR points x trials, summed over chunks."""
    return sum(len(cfg.snr_points) * cfg.trials_per_point for _, cfg in chunks)


def build_inputs(name, seed, scratch_dir):
    """Generate the corpus and pass it through a ``.scenes`` write/read round
    trip, as the CLI's input path does.

    Returns (chunks, ontology, round_trip_ok); see ``chunk_sweeps``.
    """
    from gbsed import scenarios
    from gbsed.ontology import default_ontology

    ontology = default_ontology()
    generated = scenarios.generate(corpus_spec(name, seed), ontology)
    path = os.path.join(scratch_dir, f"corpus-{name}-{seed}-{os.getpid()}.scenes")
    try:
        scenarios.write_scenes(generated, path)
        corpus = scenarios.read_scenes(path, ontology)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return chunk_sweeps(name, seed, corpus), ontology, corpus == generated
