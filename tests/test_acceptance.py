"""End-to-end acceptance gate.

One test per criterion; each prints a single ``criterion N: PASS|FAIL``
line (visible with -s, or in the captured output of a failing test) before
asserting, so the gate reads as a checklist.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import spearmanr

from gbsed import codec, sweep
from gbsed.channel import BSC, UNPROTECTED, LinkConfig, qam64_map, transmit
from gbsed.errors import GbsedError
from gbsed.metrics import (
    ConfusionCounts,
    classification_metrics,
    compression_ratio,
    f1_from_precision_recall,
    semantic_fidelity,
)
from gbsed.metrics import auc as auc_metric
from gbsed.ontology import default_ontology
from gbsed.rng import SplitMix64, splitmix64_stream, uniforms
from gbsed.task import RISKY, assess_risk

ONT = default_ontology()


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def snr_sweep_rows(default_corpus):
    # 1,000 sequence transmissions per point (10 corpus passes of 1,000
    # frames each); consistency is judged per sequence, so this is the
    # trial count that gives the monotonicity test statistical power
    cfg = sweep.SweepConfig(snr_points=tuple(float(s) for s in range(0, 21, 2)),
                            trials_per_point=10_000, base_seed=0)
    return sweep.run_sweep(default_corpus, ONT, cfg)


@pytest.fixture(scope="module")
def noiseless_row(default_corpus):
    cfg = sweep.SweepConfig(snr_points=(math.inf,), trials_per_point=1000)
    return sweep.run_sweep(default_corpus, ONT, cfg)[0]


def test_criterion_1_round_trip_identity(corpus_frames):
    start = time.monotonic()
    failures = 0
    for frame in corpus_frames:
        payload = sweep.encode_frame(frame, ONT)
        back = sweep.decode_frame(payload, ONT)
        if back is None or not np.array_equal(back.edges, frame.edges):
            failures += 1
            continue
        if not np.array_equal(back.features,
                              frame.features.astype(np.float32)):
            failures += 1
            continue
        if semantic_fidelity(frame, back, ONT).fidelity != 1.0:
            failures += 1
    elapsed = time.monotonic() - start
    _verdict(1, failures == 0 and elapsed < 10.0,
             f"{len(corpus_frames)} scenes round-tripped, "
             f"{failures} failures, {elapsed:.2f}s")


def test_criterion_2_compression_exactness():
    gen = SplitMix64(99)
    mismatches = 0
    trials = 10_000
    for t in range(trials):
        n = gen.randint(2, 7)
        density = gen.random() * 0.4
        mask = uniforms(t, 8 * n * n).reshape(8, n, n) < density
        diag = np.arange(n)
        mask[:, diag, diag] = False
        slices = (mask * np.arange(1, 9, dtype=np.uint8)[:, None, None]).astype(np.uint8)
        retained_ids = [int(m.max()) for m in codec.compress(slices)]
        oracle = [r + 1 for r in range(8) if bool(np.any(slices[r] > 0))]
        if retained_ids != oracle:
            mismatches += 1
    _verdict(2, mismatches == 0,
             f"{trials} random tensors, {mismatches} selection-rule mismatches")


def test_criterion_3_relation_level_compression_rate(corpus_frames):
    reductions = []
    for frame in corpus_frames:
        k = len(codec.compress(codec.encode_tensor(frame, ONT)))
        reductions.append(1.0 - k / ONT.num_relations)
    mean = 100.0 * float(np.mean(reductions))
    _verdict(3, 62.0 <= mean <= 72.0,
             f"mean slice-count reduction {mean:.2f}% (target 67% ± 5%)")


def test_criterion_4_compression_ratio_vs_raw_frames(corpus_frames):
    sizes = [len(sweep.encode_frame(f, ONT)) for f in corpus_frames]
    mean_payload = float(np.mean(sizes))
    cr, _ = compression_ratio(2_764_800, mean_payload)
    table_cr, table_reduction = compression_ratio(13.0e9, 5.37e6)
    ok = (mean_payload <= 2000.0 and cr >= 1382.0
          and abs(table_cr - 2425) / 2425 < 0.002 and table_reduction >= 99.9)
    _verdict(4, ok,
             f"mean payload {mean_payload:.1f} octets, CR {cr:.0f}; "
             f"reference sizes -> CR {table_cr:.1f}, reduction {table_reduction:.3f}%")


def _qfunc(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def _qam64_ber_exact(snr_db):
    """Exact BER of Gray-coded square 64-QAM on AWGN, unit average symbol
    energy, gamma = Es/N0 (Cho & Yoon, "On the general BER expression of
    one- and two-dimensional amplitude modulations", IEEE Trans. Commun.
    2002, with sqrt(M) = 8)."""
    arg = math.sqrt(3.0 * 10.0 ** (snr_db / 10.0) / 126.0)
    p_b = 0.0
    for k in (1, 2, 3):
        w = 2 ** (k - 1)
        p_b += sum((-1) ** (i * w // 8) * (w - (i * w + 4) // 8) * erfc((2 * i + 1) * arg)
                   for i in range(8 - (8 >> k))) / 8.0
    return p_b / 3.0


# per-axis Gray labels of the levels (2i-7)/sqrt(42), i = 0..7
_GRAY_AXIS = np.array([0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100])


def _qam64_ber_by_regions(snr_db):
    """BER by integrating the per-axis noise density over the decision
    regions of the eight levels, noise variance N0/2 per axis."""
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    levels = (2.0 * np.arange(8) - 7.0) / math.sqrt(42.0)
    edges = np.concatenate([[-np.inf], (levels[:-1] + levels[1:]) / 2.0, [np.inf]])
    cdf = 0.5 * erfc((levels[:, None] - edges[None, :]) / (sigma * math.sqrt(2.0)))
    p_decide = np.diff(cdf, axis=1)  # [sent level, decided level]
    wrong_bits = np.array([[bin(a ^ b).count("1") for b in _GRAY_AXIS] for a in _GRAY_AXIS])
    return float((p_decide * wrong_bits).sum() / (8 * 3))


def test_criterion_5_channel_ber_matches_closed_form():
    # Gray property first (exhaustive) — covered in depth in test_channel
    bits_all = np.array([[(v >> (5 - k)) & 1 for k in range(6)] for v in range(64)],
                        dtype=np.uint8).reshape(-1)
    symbols64, _ = qam64_map(bits_all)
    scale = math.sqrt(42.0)
    by_point = {(round(s.real * scale), round(s.imag * scale)): v
                for v, s in enumerate(symbols64)}
    gray_ok = all(
        bin(v ^ by_point[nb]).count("1") == 1
        for (i, q), v in by_point.items()
        for nb in ((i + 2, q), (i, q + 2)) if nb in by_point
    )

    # the reference itself, against decision-region integration
    ref_err = max(abs(_qam64_ber_exact(s) - _qam64_ber_by_regions(s))
                  for s in range(0, 21, 2))
    ref_ok = ref_err <= 1e-12

    start = time.monotonic()
    n_bits = 10_000_000
    bits = (splitmix64_stream(7, n_bits) & 1).astype(np.uint8)
    payload = np.packbits(bits).tobytes()
    details = []
    worst = 0.0
    for snr_db in (8.0, 10.0, 12.0, 14.0):
        # one payload through the link the sweep uses, every bit exposed
        link = LinkConfig(snr_db=snr_db, seed=int(snr_db) * 1009,
                          header_protection=UNPROTECTED)
        received = np.unpackbits(np.frombuffer(transmit(payload, link)[0], dtype=np.uint8))
        measured = np.count_nonzero(received != bits) / n_bits
        expected = _qam64_ber_exact(snr_db)
        # nearest-neighbour approximation, shown only: it undershoots at low SNR
        approx = (7.0 / 12.0) * _qfunc(math.sqrt(10.0 ** (snr_db / 10.0) / 21.0))
        rel = abs(measured - expected) / expected
        worst = max(worst, rel)
        details.append(f"{snr_db:g}dB meas {measured:.4f} vs exact {expected:.4f} "
                       f"({100 * rel:.2f}%), approx {approx:.4f}")
    elapsed = time.monotonic() - start
    ok = gray_ok and ref_ok and worst <= 0.05 and elapsed < 60.0
    _verdict(5, ok, f"gray={gray_ok}; reference vs regions {ref_err:.1e}; "
                    + "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_6_fidelity_vs_snr(snr_sweep_rows, noiseless_row, default_corpus):
    snrs = [r["snr_db"] for r in snr_sweep_rows]
    fid = [r["fidelity"] for r in snr_sweep_rows]
    rho = float(spearmanr(snrs, fid).statistic)
    bsc_cfg = sweep.SweepConfig(snr_points=(0.0,), trials_per_point=1000,
                                channel_kind=BSC, bsc_flip_prob=0.2)
    bsc_fid = sweep.run_sweep(default_corpus, ONT, bsc_cfg)[0]["fidelity"]
    ok = rho >= 0.95 and noiseless_row["fidelity"] == 1.0 and bsc_fid < 0.2
    _verdict(6, ok,
             f"Spearman(snr, fidelity) {rho:.3f}, noiseless fidelity "
             f"{noiseless_row['fidelity']:.3f}, BSC(0.2) fidelity {bsc_fid:.3f}")


def test_criterion_7_metric_formulas():
    f1 = f1_from_precision_recall(0.769, 0.909)
    f1_ok = abs(f1 - 0.833) <= 0.001

    gen = SplitMix64(12)
    worst_mcc = 0.0
    for _ in range(100):
        tp, fp, tn, fn = (gen.randint(0, 60) for _ in range(4))
        if tp + fp + tn + fn == 0:
            tp = 1
        m = classification_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        den = (math.sqrt(tp + fp) * math.sqrt(tp + fn)
               * math.sqrt(tn + fp) * math.sqrt(tn + fn))
        oracle = (tp * tn - fp * fn) / den if den else 0.0
        worst_mcc = max(worst_mcc, abs(m.mcc - oracle))

    worst_auc = 0.0
    for trial in range(100):
        g = SplitMix64(trial + 500)
        scored = [(round(g.random(), 2), g.randint(0, 1)) for _ in range(40)]
        scored += [(0.5, 0), (0.5, 1)]  # guarantee both classes
        pos = [s for s, l in scored if l == 1]
        neg = [s for s, l in scored if l == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        oracle = wins / (len(pos) * len(neg))
        scores, labels = zip(*scored)
        worst_auc = max(worst_auc, abs(auc_metric(scores, labels) - oracle))

    ok = f1_ok and worst_mcc <= 1e-9 and worst_auc <= 1e-9
    _verdict(7, ok, f"F1 {f1:.4f} (target 0.833±0.001), max |MCC err| "
                    f"{worst_mcc:.2e}, max |AUC err| {worst_auc:.2e}")


def test_criterion_8_task_consistency(snr_sweep_rows, noiseless_row, default_corpus):
    labels_ok = all(assess_risk(s, ONT).decision == s.label for s in default_corpus)
    snrs = [r["snr_db"] for r in snr_sweep_rows]
    cons = [r["consistency"] for r in snr_sweep_rows]
    rho = float(spearmanr(snrs, cons).statistic)
    ok = noiseless_row["consistency"] == 1.0 and labels_ok and rho >= 0.95
    _verdict(8, ok,
             f"noiseless consistency {noiseless_row['consistency']:.3f}, "
             f"labels agree {labels_ok}, Spearman(snr, consistency) {rho:.3f}")


def test_criterion_9_wire_robustness():
    crashes = 0
    gen = SplitMix64(31337)
    for trial in range(10_000):
        length = gen.randint(0, 4096)
        payload = (splitmix64_stream(trial, (length + 7) // 8)
                   .view(np.uint8).tobytes()[:length]) if length else b""
        try:
            codec.parse(payload, ONT)
        except GbsedError:
            pass
        except Exception:
            crashes += 1

    # exhaustive single-bit corruption of self-describing matrices
    n = 5
    total = recovered = 0
    for mat_seed in range(200):
        g = SplitMix64(mat_seed)
        rel = g.randint(1, 8)
        mat = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            for j in range(n):
                if i != j and g.random() < 0.3:
                    mat[i, j] = rel
        if not mat.any():
            mat[0, 1] = rel
        for bit in range(8 * n * n):
            corrupted = mat.copy().reshape(-1)
            corrupted[bit // 8] ^= 1 << (7 - bit % 8)
            triplets, _ = codec.decompress(corrupted.reshape(1, n, n), 8)
            total += 1
            # recovered iff the original relation's slice is the one populated
            placed = set(triplets[:, 1].tolist())
            if placed <= {rel} and (placed or not mat.any()):
                recovered += 1
    rate = recovered / total
    ok = crashes == 0 and rate >= 0.99
    _verdict(9, ok, f"fuzz crashes {crashes}/10000, single-bit repair "
                    f"recovery {100 * rate:.2f}% (target ≥ 99%)")
