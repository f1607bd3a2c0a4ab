"""Command-line driver: gbsed gen|encode|sweep|report.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal invariant
violation.
"""

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import codec, scenarios, sweep
from .channel import AWGN64QAM, BSC, PROTECTED, UNPROTECTED
from .errors import GbsedError, SpecError
from .metrics import compression_ratio, raw_frame_octets
from .ontology import default_ontology
from .scenarios import ScenarioSpec
from .sweep import DEFAULT_SNR_POINTS, SweepConfig

RAW_FRAME = raw_frame_octets(1280, 720)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


# argparse types only turn text into numbers: what they raise is a usage
# error; ScenarioSpec and SweepConfig check the numbers


def _snr_list(text):
    tokens = [t.strip() for t in text.split(",")]
    return tuple(math.inf if t == "noiseless" else float(t) for t in tokens if t)


def _min_max(text):
    return tuple(int(v) for v in text.split(","))


def config_from_args(cls, args):
    """The ScenarioSpec or SweepConfig whose fields the parsed options name."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def cmd_gen(args, spec):
    seqs = scenarios.generate(spec, default_ontology())
    scenarios.write_scenes(seqs, args.out)
    frames = sum(len(s.frames) for s in seqs)
    print(f"wrote {len(seqs)} sequences ({frames} frames) to {args.out}")
    return EXIT_OK


def cmd_encode(args):
    o = default_ontology()
    seqs = scenarios.read_scenes(args.scenes, o)
    os.makedirs(args.out, exist_ok=True)
    buffer, lengths, _ = codec.encode_frames([f for seq in seqs for f in seq.frames], o)
    names = [f"seq{s:04d}_f{k:03d}.gbsd" for s, seq in enumerate(seqs)
             for k in range(len(seq.frames))]
    ends = np.cumsum(lengths).tolist()
    for name, lo, hi in zip(names, [0] + ends, ends):
        with open(os.path.join(args.out, name), "wb") as fh:
            fh.write(buffer[lo:hi].tobytes())
    count, total = len(names), int(lengths.sum())
    if count == 0:
        print("0 frames encoded")
        return EXIT_OK
    mean = total / count
    cr, reduction = compression_ratio(RAW_FRAME * count, total)
    print(f"{count} frames encoded, {total} octets total, {mean:.1f} mean/frame")
    print(f"compression ratio vs raw 1280x720 frames: {cr:.1f} ({reduction:.4f}% reduction)")
    return EXIT_OK


def cmd_sweep(args, cfg):
    o = default_ontology()
    seqs = scenarios.read_scenes(args.scenes, o)
    rows = sweep.run_sweep(seqs, o, cfg)
    text = sweep.rows_to_csv(rows)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _format_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(str(c).rjust(w) for c, w in zip(r, widths))
             for r in [header] + rows]
    return "\n".join(lines)


def cmd_report(args):
    with open(args.csv, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        print("no rows")
        return EXIT_OK
    display = ["snr_db", "ber", "fidelity", "consistency", "accuracy",
               "precision", "recall", "f1", "mcc", "auc"]
    missing = [c for c in display + ["mean_payload_octets"] if c not in reader.fieldnames]
    if missing:
        print(f"error: {args.csv} lacks the columns {', '.join(missing)}", file=sys.stderr)
        return EXIT_DATA
    for i, r in enumerate(rows, start=1):
        if None in r.values():  # csv.DictReader's filler for a missing cell
            raise ValueError(f"{args.csv} row {i} has fewer cells than the header")
    body = [[_round(r[c]) for c in display] for r in rows]
    print(_format_table(display, body))
    print()
    mean_payload = float(rows[0]["mean_payload_octets"])
    cr, reduction = compression_ratio(RAW_FRAME, mean_payload)
    size_rows = [
        ["Raw RGB (24 bits)", f"{RAW_FRAME} B", "1.0", "0.0 %"],
        ["GBSED payload", f"{mean_payload:.1f} B", f"{cr:.1f}", f"{reduction:.4f} %"],
    ]
    print(_format_table(["Method", "Size", "CR", "Reduction (%)"], size_rows))
    return EXIT_OK


def _round(cell):
    try:
        return f"{float(cell):.6g}"
    except ValueError:
        return cell


def build_parser():
    parser = argparse.ArgumentParser(prog="gbsed",
                                     description="scene-graph semantic codec toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario corpus")
    p.add_argument("--seed", type=int, default=ScenarioSpec.seed)
    p.add_argument("--sequences", dest="num_sequences", type=int,
                   default=ScenarioSpec.num_sequences)
    p.add_argument("--frames", dest="frames_per_sequence", type=int,
                   default=ScenarioSpec.frames_per_sequence)
    p.add_argument("--vehicles", dest="vehicles_range", type=_min_max,
                   default=ScenarioSpec.vehicles_range, help="min,max vehicles per sequence")
    p.add_argument("--risky-fraction", type=float, default=ScenarioSpec.risky_fraction)
    p.add_argument("--lanes", dest="lane_count", type=int, default=ScenarioSpec.lane_count)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen, configs=[ScenarioSpec])

    p = sub.add_parser("encode", help="encode scenes into .gbsd payload files")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("sweep", help="run an SNR sweep and write a results CSV")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snr", dest="snr_points", type=_snr_list,
                   default=DEFAULT_SNR_POINTS,
                   help="comma-separated dB values; inf or noiseless for no noise")
    p.add_argument("--trials", dest="trials_per_point", type=int,
                   default=SweepConfig.trials_per_point)
    p.add_argument("--seed", dest="base_seed", type=int, default=SweepConfig.base_seed)
    p.add_argument("--channel", dest="channel_kind", choices=[AWGN64QAM, BSC],
                   default=SweepConfig.channel_kind)
    p.add_argument("--flip-prob", dest="bsc_flip_prob", type=float,
                   default=SweepConfig.bsc_flip_prob)
    p.add_argument("--header-protection", choices=[PROTECTED, UNPROTECTED],
                   default=SweepConfig.header_protection)
    p.set_defaults(func=cmd_sweep, configs=[SweepConfig])

    p = sub.add_parser("report", help="render a sweep CSV as aligned tables")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:  # gen's and sweep's configs check their options
        configs = [config_from_args(cls, args) for cls in getattr(args, "configs", ())]
    except (SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, *configs)
    except (GbsedError, OSError, ValueError) as e:
        line = getattr(e, "line_number", None)  # a malformed .scenes line
        print(f"error: {'' if line is None else f'line {line}: '}{e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # invariant violation
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
