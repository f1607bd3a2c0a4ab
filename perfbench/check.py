"""Output check for one pass: every chunk's CSV for schema, row count and
value ranges and, for recorded seeds, the SHA-256 of the chunks' CSVs
joined in order.

The recorded digests live in ``digests.json`` beside this file and are
written by ``record.py``. A change that alters the sweep's output bytes on
purpose records them again in the same change.
"""

import csv
import hashlib
import io
import json
import math
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

COLUMNS = (
    "snr_db", "ber", "fidelity", "consistency", "accuracy", "precision",
    "recall", "f1", "mcc", "auc", "mean_payload_octets", "frames_per_payload",
)
UNIT = (0.0, 1.0)
RANGES = {
    "ber": UNIT, "fidelity": UNIT, "consistency": UNIT, "accuracy": UNIT,
    "precision": UNIT, "recall": UNIT, "f1": UNIT, "mcc": (-1.0, 1.0), "auc": UNIT,
    # a payload is at least the 21-octet header plus one node's features
    "mean_payload_octets": (37.0, math.inf), "frames_per_payload": (1.0, math.inf),
}
# auc is NaN when every sequence carries one label
NAN_OK = {"auc"}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(path=DIGESTS_PATH):
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def recorded_digest(digests, workload, seed):
    return digests.get(workload, {}).get(str(seed))


def check_pass(texts, snr_points, expected_sha=None):
    """Return the problems found in one pass's chunk CSVs (empty when it passes)."""
    problems = [f"chunk {k}: {p}" for k, text in enumerate(texts)
                for p in check_csv(text, snr_points)]
    text = "".join(texts)
    if expected_sha is not None and sha256(text) != expected_sha:
        problems.append(f"sha256 {sha256(text)} != recorded {expected_sha}")
    return problems


def check_csv(text, snr_points):
    """Return the list of problems found in a sweep CSV (empty when it passes)."""
    problems = []
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != COLUMNS:
        return [f"header {rows[0] if rows else None} != {list(COLUMNS)}"]
    body = rows[1:]
    if len(body) != len(snr_points):
        problems.append(f"{len(body)} rows for {len(snr_points)} SNR points")
    for k, row in enumerate(body):
        if len(row) != len(COLUMNS):
            problems.append(f"row {k}: {len(row)} cells")
            continue
        try:
            values = dict(zip(COLUMNS, (float(cell) for cell in row)))
        except ValueError:
            problems.append(f"row {k}: non-numeric cell in {row}")
            continue
        if k < len(snr_points) and values["snr_db"] != snr_points[k]:
            problems.append(f"row {k}: snr_db {values['snr_db']} != {snr_points[k]}")
        for col, (lo, hi) in RANGES.items():
            v = values[col]
            if math.isnan(v) and col in NAN_OK:
                continue
            if not lo <= v <= hi:
                problems.append(f"row {k}: {col}={v} outside [{lo}, {hi}]")
    return problems
