import csv
import dataclasses
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gbsed
from gbsed import channel, codec, sweep
from gbsed.channel import BSC, UNPROTECTED, LinkConfig, frames_required, transmit
from gbsed.cli import build_parser, config_from_args, main
from gbsed.codec import HEADER_LEN
from gbsed.errors import FormatError, GbsedError
from gbsed.metrics import auc, classification_metrics, semantic_fidelity
from gbsed.ontology import default_ontology, emit_ontology
from gbsed.scenarios import ScenarioSpec, generate
from gbsed.scene_graph import SceneGraph
from gbsed.task import GraphSequence, task_consistency
from reference_link import reference_transmit

ONT = default_ontology()


@pytest.fixture(scope="module")
def small_corpus():
    return generate(ScenarioSpec(seed=7, num_sequences=10, frames_per_sequence=5), ONT)


# -- sweep engine -------------------------------------------------------------

def test_encode_decode_frame_round_trip(small_corpus):
    frame = small_corpus[0].frames[0]
    payload = sweep.encode_frame(frame, ONT)
    back = sweep.decode_frame(payload, ONT)
    assert back.edges == frame.edges


def test_decode_frame_garbage_is_none():
    assert sweep.decode_frame(b"garbage", ONT) is None
    assert sweep.decode_frame(b"", ONT) is None


# two header bit flips that keep the length 21 + K·N² + 4·N·d: the feature
# width must still match the ontology's, or the frame parses and is
# scored with too few or misaligned feature columns
@pytest.mark.parametrize("n, edges, d_flip, k_flip", [
    (4, ((0, 1, 1), (1, 2, 0)), 4, 4),              # d 4 -> 0, K 2 -> 6
    (8, ((0, 1, 1), (2, 3, 4), (5, 6, 7)), 2, 1),   # d 4 -> 6, K 3 -> 2
])
def test_header_of_another_feature_width_is_unparseable(n, edges, d_flip, k_flip):
    frame = SceneGraph(np.arange(4.0 * n).reshape(n, 4), edges)
    payload = bytearray(sweep.encode_frame(frame, ONT))
    payload[16] ^= d_flip  # low octet of d
    payload[18] ^= k_flip  # K
    payload = bytes(payload)
    with pytest.raises(FormatError) as e:
        codec.parse(payload, ONT)
    assert e.value.offset == 15
    assert sweep.decode_frame(payload, ONT) is None
    lay = sweep._lay_out([GraphSequence((frame,))], ONT)
    received = np.frombuffer(payload, dtype=np.uint8)
    fidelity, near_ego = sweep._score_pass(lay, received, ONT)
    assert fidelity.tolist() == [0.0] and near_ego == [(False, ())]


def test_noiseless_sweep_row(small_corpus):
    cfg = sweep.SweepConfig(snr_points=(math.inf,), trials_per_point=1)
    (row,) = sweep.run_sweep(small_corpus, ONT, cfg)
    assert row["ber"] == 0.0
    assert row["fidelity"] == 1.0
    assert row["consistency"] == 1.0
    assert row["accuracy"] == 1.0


def test_sweep_deterministic(small_corpus):
    cfg = sweep.SweepConfig(snr_points=(6.0, 12.0), trials_per_point=50, base_seed=3)
    a = sweep.rows_to_csv(sweep.run_sweep(small_corpus, ONT, cfg))
    b = sweep.rows_to_csv(sweep.run_sweep(small_corpus, ONT, cfg))
    assert a == b


# -- the per-frame reference --------------------------------------------------
# The sweep computed frame by frame: every trial goes through the float64
# reference link (reference_link.py, built from the channel's primitives,
# not from send), decode_frame and semantic_fidelity, and the received
# sequences through task_consistency. run_sweep, which batches whole corpus
# passes, must write the same CSV bytes.

def _fallback_frame():
    return SceneGraph([(1.0, 0.0, 0.0, 0.0)], ())


def _reference_point(point_index, snr_db, sequences, payloads, cfg):
    repeats = -(-cfg.trials_per_point // len(payloads))
    bits_total = errors_total = n_frames = trial = 0
    fidelity_sum = 0.0
    recv_all, sent_all = [], []
    for _ in range(repeats):
        frame_cursor = 0
        for seq in sequences:
            recv_frames = []
            for frame in seq.frames:
                payload = payloads[frame_cursor]
                link = LinkConfig(snr_db=snr_db, channel_kind=cfg.channel_kind,
                                  bsc_flip_prob=cfg.bsc_flip_prob,
                                  seed=cfg.base_seed ^ point_index ^ trial,
                                  header_protection=cfg.header_protection)
                received, bit_errors = reference_transmit(payload, link)
                bits_total += 8 * len(payload)
                errors_total += bit_errors
                decoded = sweep.decode_frame(received, ONT)
                fidelity_sum += semantic_fidelity(frame, decoded, ONT).fidelity
                recv_frames.append(decoded if decoded is not None else _fallback_frame())
                n_frames += 1
                frame_cursor += 1
                trial += 1
            recv_all.append(GraphSequence(tuple(recv_frames)))
            sent_all.append(seq)
    counts, consistency, scored = task_consistency(sent_all, recv_all, ONT)
    cls = classification_metrics(counts)
    try:
        auc_val = auc(scored)
    except GbsedError:
        auc_val = float("nan")
    return {
        "snr_db": snr_db,
        "ber": errors_total / bits_total if bits_total else 0.0,
        "fidelity": fidelity_sum / n_frames,
        "consistency": consistency,
        "accuracy": cls.accuracy,
        "precision": cls.precision,
        "recall": cls.recall,
        "f1": cls.f1,
        "mcc": cls.mcc,
        "auc": auc_val,
        "mean_payload_octets": sum(len(p) for p in payloads) / len(payloads),
        "frames_per_payload": sum(frames_required(len(p))
                                  for p in payloads) / len(payloads),
    }


def _reference_sweep(sequences, cfg):
    payloads = [sweep.encode_frame(f, ONT) for seq in sequences for f in seq.frames]
    return [_reference_point(i, s, sequences, payloads, cfg)
            for i, s in enumerate(cfg.snr_points)]


def _dense_corpus():
    # 45-49 nodes: every frame's body is longer than the channel's block
    return generate(ScenarioSpec(seed=5, num_sequences=2, frames_per_sequence=3,
                                 vehicles_range=(40, 48), lane_count=5), ONT)


EQUIVALENCE_CASES = {
    "awgn": (sweep.SweepConfig(snr_points=(0.0, 6.0, 12.0, 20.0, math.inf),
                               trials_per_point=50, base_seed=4), False),
    "awgn_unprotected": (sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50,
                                           header_protection=UNPROTECTED), False),
    "bsc_0": (sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50,
                                channel_kind=BSC), False),
    "bsc_002": (sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50, base_seed=9,
                                  channel_kind=BSC, bsc_flip_prob=0.02), False),
    "bsc_02_unprotected": (sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50,
                                             channel_kind=BSC, bsc_flip_prob=0.2,
                                             header_protection=UNPROTECTED), False),
    "several_passes": (sweep.SweepConfig(snr_points=(4.0, 10.0), trials_per_point=121,
                                         base_seed=17), False),
    "dense": (sweep.SweepConfig(snr_points=(8.0, 16.0), trials_per_point=6,
                                base_seed=2), True),
    "seed_above_2_63": (sweep.SweepConfig(snr_points=(2.0, 14.0), trials_per_point=50,
                                          base_seed=(1 << 63) + 12345), False),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_sweep_matches_per_frame_reference(small_corpus, case):
    cfg, dense = EQUIVALENCE_CASES[case]
    corpus = _dense_corpus() if dense else small_corpus
    expect = sweep.rows_to_csv(_reference_sweep(corpus, cfg))
    assert sweep.rows_to_csv(sweep.run_sweep(corpus, ONT, cfg)) == expect


def test_equivalence_cases_cover_pads_and_blocks(small_corpus):
    def body_bits(corpus):
        return [8 * (len(sweep.encode_frame(f, ONT)) - HEADER_LEN)
                for seq in corpus for f in seq.frames]

    # 64-QAM closes each body with 0, 2 or 4 zero bits
    assert {-b % 6 for b in body_bits(small_corpus)} == {0, 2, 4}
    assert min(body_bits(_dense_corpus())) > channel._BLOCK_BITS
    # on the BSC at p = 0.2 most headers arrive changed: the per-frame path runs
    cfg = EQUIVALENCE_CASES["bsc_02_unprotected"][0]
    payloads = [sweep.encode_frame(f, ONT) for seq in small_corpus for f in seq.frames]
    changed = sum(
        transmit(p, LinkConfig(channel_kind=BSC, bsc_flip_prob=cfg.bsc_flip_prob, seed=t,
                               header_protection=UNPROTECTED))[0][:HEADER_LEN]
        != p[:HEADER_LEN]
        for t, p in enumerate(payloads))
    assert changed > len(payloads) // 2


def test_csv_schema(small_corpus):
    cfg = sweep.SweepConfig(snr_points=(math.inf,), trials_per_point=1)
    text = sweep.rows_to_csv(sweep.run_sweep(small_corpus, ONT, cfg))
    header = text.splitlines()[0]
    assert header == ("snr_db,ber,fidelity,consistency,accuracy,precision,"
                      "recall,f1,mcc,auc,mean_payload_octets,frames_per_payload")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1 and rows[0]["snr_db"] == "inf"


def test_bsc_sweep(small_corpus):
    cfg = sweep.SweepConfig(snr_points=(0.0,), trials_per_point=20,
                            channel_kind=BSC, bsc_flip_prob=0.02)
    (row,) = sweep.run_sweep(small_corpus, ONT, cfg)
    assert row["ber"] == pytest.approx(0.02, abs=0.01)


def test_unprotected_header_degrades(small_corpus):
    protected = sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50)
    unprotected = sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50,
                                    header_protection=UNPROTECTED)
    (p,) = sweep.run_sweep(small_corpus, ONT, protected)
    (u,) = sweep.run_sweep(small_corpus, ONT, unprotected)
    assert u["fidelity"] < p["fidelity"]


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        sweep.SweepConfig(snr_points=())
    with pytest.raises(ValueError):
        sweep.SweepConfig(trials_per_point=0)
    with pytest.raises(ValueError):
        sweep.run_sweep([], ONT, sweep.SweepConfig())
    # every point's link is checked when the config is built
    for bad in (dict(channel_kind="foo"), dict(header_protection="foo"),
                dict(bsc_flip_prob=0.7), dict(snr_points=(0.0, math.nan)),
                dict(snr_points=(-math.inf,))):
        with pytest.raises(ValueError):
            sweep.SweepConfig(**bad)


# -- CLI ----------------------------------------------------------------------

def _gen(tmp_path, **kw):
    scenes = tmp_path / "c.scenes"
    args = ["gen", "--seed", "5", "--sequences", "6", "--frames", "4",
            "--out", str(scenes)]
    for k, v in kw.items():
        args += [f"--{k}", str(v)]
    assert main(args) == 0
    return scenes


def test_cli_gen_deterministic(tmp_path):
    a = _gen(tmp_path)
    b = tmp_path / "again.scenes"
    assert main(["gen", "--seed", "5", "--sequences", "6", "--frames", "4",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_encode(tmp_path, capsys):
    scenes = _gen(tmp_path)
    out = tmp_path / "payloads"
    assert main(["encode", "--scenes", str(scenes), "--out", str(out)]) == 0
    files = sorted(out.iterdir())
    assert len(files) == 24  # 6 sequences x 4 frames
    assert all(f.suffix == ".gbsd" for f in files)
    assert "compression ratio" in capsys.readouterr().out


def test_cli_encode_empty(tmp_path, capsys):
    scenes = tmp_path / "empty.scenes"
    scenes.write_text("")
    assert main(["encode", "--scenes", str(scenes), "--out", str(tmp_path / "o")]) == 0
    assert "0 frames" in capsys.readouterr().out


def test_cli_sweep_and_report(tmp_path, capsys):
    scenes = _gen(tmp_path)
    out = tmp_path / "r.csv"
    assert main(["sweep", "--scenes", str(scenes), "--out", str(out),
                 "--snr", "noiseless,10", "--trials", "10"]) == 0
    text = out.read_text()
    assert text.startswith("snr_db,")
    assert len(text.splitlines()) == 3
    capsys.readouterr()
    assert main(["report", "--csv", str(out)]) == 0
    rendered = capsys.readouterr().out
    assert "CR" in rendered and "Reduction (%)" in rendered


def test_cli_report_empty(tmp_path, capsys):
    empty = tmp_path / "e.csv"
    empty.write_text("snr_db,ber\n")
    assert main(["report", "--csv", str(empty)]) == 0
    assert "no rows" in capsys.readouterr().out


def test_cli_custom_ontology(tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text(emit_ontology(ONT))
    scenes = _gen(tmp_path, ontology=str(cfg))
    assert main(["encode", "--scenes", str(scenes), "--ontology", str(cfg),
                 "--out", str(tmp_path / "p")]) == 0


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["bogus"]) == 2                       # usage
    assert main([]) == 2
    assert main(["encode", "--scenes", str(tmp_path / "missing.scenes"),
                 "--out", str(tmp_path / "o")]) == 3  # data error
    bad = tmp_path / "bad.scenes"
    bad.write_text("not a scene line\n")
    assert main(["encode", "--scenes", str(bad), "--out", str(tmp_path / "o")]) == 3
    sweep_args = ["sweep", "--scenes", str(_gen(tmp_path)), "--out", str(tmp_path / "r.csv")]
    for value in (["--trials", "0"], ["--trials", "x"], ["--flip-prob", "0.7"],
                  ["--flip-prob", "-0.1"], ["--snr", ""], ["--snr", "abc"],
                  ["--snr", "nan"], ["--snr=-inf"], ["--snr=-3100"], ["--snr=0,-inf"]):
        assert main(sweep_args + value) == 2, value  # usage
    assert main(["sweep", "--scenes", str(bad), "--out", str(tmp_path / "r.csv")]) == 3
    gen_args = ["gen", "--sequences", "2", "--out", str(tmp_path / "g.scenes")]
    for value in (["--vehicles", "x"], ["--vehicles", "2"], ["--vehicles", "8,2"],
                  ["--vehicles", "0,2"], ["--frames", "0"], ["--lanes", "0"],
                  ["--risky-fraction", "1.5"], ["--risky-fraction", "-0.1"],
                  ["--sequences", "-1"], ["--sequences", "x"]):
        assert main(gen_args + value) == 2, value  # usage
    assert main(gen_args + ["--vehicles", "1,40"]) == 3  # beyond the lanes' capacity
    assert main(gen_args + ["--vehicles", "3,3", "--risky-fraction", "1"]) == 0
    assert main(gen_args + ["--sequences", "0"]) == 0
    # a path that is a directory is a data error
    assert main(["encode", "--scenes", str(tmp_path), "--out", str(tmp_path / "o")]) == 3
    assert main(["gen", "--out", str(tmp_path)]) == 3
    # ontologies whose attributes are not the .scenes columns in order, or
    # that lack a relation the relation rules emit
    default = emit_ontology(ONT)
    unusable = {
        "swapped": default.replace("attribute 0 class", "attribute 1 class")
                          .replace("attribute 1 bev_x", "attribute 0 bev_x"),
        "renamed": default.replace("attribute 3 speed", "attribute 3 heading"),
        "relation": default.replace("relation 1 is_near", "relation 1 close_to"),
        "five": default + "attribute 4 heading length-meters\n",
    }
    scenes = str(_gen(tmp_path))
    capsys.readouterr()
    for name, text in unusable.items():
        path = tmp_path / f"{name}.ontology"
        path.write_text(text)
        for args in (["gen", "--out", str(tmp_path / f"{name}.scenes")],
                     ["encode", "--scenes", scenes, "--out", str(tmp_path / "p")],
                     ["sweep", "--scenes", scenes, "--out", str(tmp_path / "r.csv")]):
            assert main(args + ["--ontology", str(path)]) == 3, (name, args[0])
            assert capsys.readouterr().err.startswith("error: "), (name, args[0])
    # a CSV with rows but without a column the report shows
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("snr_db,ber\n0.0,0.1\n")
    assert main(["report", "--csv", str(csv_path)]) == 3
    err = capsys.readouterr().err
    assert "fidelity" in err and "mean_payload_octets" in err and "snr_db" not in err
    # a row with fewer cells than the header
    csv_path.write_text(",".join(sweep.CSV_COLUMNS) + "\n0.0,0.1\n")
    assert main(["report", "--csv", str(csv_path)]) == 3
    assert "row 1 " in capsys.readouterr().err
    csv_path.write_text("snr_db,ber\n")
    assert main(["report", "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out == "no rows\n"


def test_cli_defaults_are_the_config_defaults():
    parser = build_parser()
    gen = parser.parse_args(["gen", "--out", "x"])
    for f in dataclasses.fields(ScenarioSpec):
        assert getattr(gen, f.name) == getattr(ScenarioSpec(), f.name), f.name
    run = parser.parse_args(["sweep", "--scenes", "x", "--out", "y"])
    for f in dataclasses.fields(sweep.SweepConfig):
        assert getattr(run, f.name) == getattr(sweep.SweepConfig(), f.name), f.name
    assert config_from_args(ScenarioSpec, gen) == ScenarioSpec()
    assert config_from_args(sweep.SweepConfig, run) == sweep.SweepConfig()


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the package and its CLI
    # must not pull it in
    code = ("import sys, gbsed, gbsed.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gbsed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0
