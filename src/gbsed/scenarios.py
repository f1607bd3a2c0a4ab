"""Deterministic synthetic lane-change scenario generator and the
``.scenes`` text file format.

Sequences are constructed so that the ground-truth label provably agrees
with the risk rule at noiseless transmission: a risky sequence forces one
vehicle to close within the very-near range of the ego and stay there for
the rule's consecutive-frame window, while safe sequences keep every
vehicle outside 1.2x the near range at all times.

All feature values are quantized to multiples of 1/64 so they survive both
the 32-bit wire format and the 6-decimal text format without loss.
"""

from dataclasses import dataclass

from .errors import CapacityError, ParseError, ShapeError, SpecError, integer, number
from .rng import SplitMix64
from .scene_graph import (CLASS_VEHICLE, D_NEAR, D_VERY, L_FRONT, L_SIDE, LANE_WIDTH,
                          SceneGraph, graphs_from_bev)
from .task import CONSECUTIVE_FRAMES, RISKY, SAFE, GraphSequence

_DT = 0.5            # seconds per frame
_EGO_SPEED = 10.0    # m/s
_SLOT_BASE = 40.0    # first isolated longitudinal slot
_SLOT_STEP = 40.0    # spacing keeps isolated vehicles out of every predicate band
_SAFE_MARGIN = 1.2   # safe sequences stay outside D_NEAR * margin
# companion placement rates, calibrated so the default corpus averages
# about one third of the relation slices active per frame
_P_SIDE_COMPANION = 0.15
_P_LANE_COMPANION = 0.10


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 42
    num_sequences: int = 100
    frames_per_sequence: int = 10
    vehicles_range: tuple = (2, 8)
    risky_fraction: float = 0.3
    lane_count: int = 3

    def __post_init__(self):
        """Refuse a field out of its domain with a SpecError that names it;
        the integer fields are stored as ints."""
        try:
            lo, hi = self.vehicles_range
        except (TypeError, ValueError):  # not two values
            raise SpecError(f"vehicles_range {self.vehicles_range!r} is not min, max") from None
        lo = integer("vehicles_range min", lo, at_least=1, error=SpecError)
        hi = integer("vehicles_range max", hi, at_least=lo, error=SpecError)
        object.__setattr__(self, "vehicles_range", (lo, hi))
        for name, at_least in (("seed", None), ("num_sequences", 0),
                               ("frames_per_sequence", 1), ("lane_count", 1)):
            value = integer(name, getattr(self, name), at_least, SpecError)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "risky_fraction",
                           number("risky_fraction", self.risky_fraction, 0.0, 1.0, SpecError))


def _quantize(v):
    return round(v * 64.0) / 64.0


def _lane_positions(lane_count, width):
    offset = (lane_count - 1) / 2.0
    return [(k - offset) * width for k in range(lane_count)]


def _safe_trajectories(gen, count, lanes, frames):
    """Vehicle trajectories guaranteed outside margin*D_NEAR of the ego.

    Returns a list of per-vehicle (lane_x, y0, rel_v). Isolated vehicles go
    to widely separated slots; a fraction are placed as companions of the
    previous vehicle to light up the side/front relation pairs.
    """
    min_dist = _SAFE_MARGIN * D_NEAR + 0.5
    span = frames * _DT
    out = []
    slot = 0
    for k in range(count):
        u = gen.random()
        prev = out[-1] if out else None
        if prev is not None and u < _P_SIDE_COMPANION and len(lanes) > 1:
            # adjacent lane, close enough longitudinally for left/right;
            # companions share the leader's drift so the gap stays fixed
            base_lane = lanes.index(prev[0])
            step = 1 if base_lane + 1 < len(lanes) else -1
            lane_x = lanes[base_lane + step]
            gap = gen.uniform(10.5, L_SIDE - 2.0)
            y0 = prev[1] + (gap if prev[1] > 0 else -gap)
            rel_v = prev[2]
        elif prev is not None and u < _P_SIDE_COMPANION + _P_LANE_COMPANION:
            # same lane, within the front/behind band
            lane_x = prev[0]
            gap = gen.uniform(13.0, L_FRONT - 2.0)
            y0 = prev[1] + (gap if prev[1] > 0 else -gap)
            rel_v = prev[2]
        else:
            lane_x = gen.choice(lanes)
            sign = 1.0 if gen.random() < 0.5 else -1.0
            y0 = sign * (_SLOT_BASE + _SLOT_STEP * slot + gen.uniform(0.0, 4.0))
            rel_v = gen.uniform(-0.4, 0.4)
            slot += 1
        drift = abs(rel_v) * span
        if abs(y0) < min_dist + drift:
            y0 = (min_dist + drift) * (1.0 if y0 >= 0 else -1.0)
        out.append((lane_x, y0, rel_v))
    return out


def _threat_trajectory(gen, frames):
    """Same-lane vehicle closing on the ego, inside D_VERY for at least
    the risk rule's CONSECUTIVE_FRAMES."""
    floor = gen.uniform(1.5, D_VERY - 0.5)
    t_cross = gen.randint(1, max(1, frames - CONSECUTIVE_FRAMES))
    y0 = gen.uniform(D_NEAR + 2.0, 25.0)
    rate = (y0 - floor) / t_cross  # meters per frame
    return y0, floor, rate


def generate(spec, ontology):
    """Generate the scenario corpus; fully determined by spec.seed."""
    # each vehicle occupies one longitudinal slot per side in the worst case
    capacity = spec.lane_count * 2 * 6
    if spec.vehicles_range[1] > capacity:
        raise SpecError(f"{spec.vehicles_range[1]} vehicles exceed lane capacity {capacity}")
    labels = []
    graphs = graphs_from_bev(_frames(spec, labels), ontology)
    per = spec.frames_per_sequence
    return [GraphSequence(tuple(graphs[s * per:(s + 1) * per]), label)
            for s, label in enumerate(labels)]


def _frames(spec, labels):
    """Every frame's records, in corpus order; appends each sequence's label
    to ``labels`` as it starts."""
    lanes = _lane_positions(spec.lane_count, LANE_WIDTH)
    for s in range(spec.num_sequences):
        gen = SplitMix64(spec.seed ^ s)
        n_veh = gen.randint(*spec.vehicles_range)
        risky = gen.random() < spec.risky_fraction
        frames_count = spec.frames_per_sequence
        if risky and frames_count <= CONSECUTIVE_FRAMES:
            risky = False  # the risk rule cannot fire
        labels.append(RISKY if risky else SAFE)
        threat = _threat_trajectory(gen, frames_count) if risky else None
        n_safe = n_veh - (1 if risky else 0)
        safe_traj = _safe_trajectories(gen, n_safe, lanes, frames_count)
        for t in range(frames_count):
            records = [(CLASS_VEHICLE, 0.0, 0.0, _EGO_SPEED)]
            if threat is not None:
                y0, floor, rate = threat
                y = max(floor, y0 - rate * t)
                speed = _EGO_SPEED - rate / _DT
                records.append((CLASS_VEHICLE, 0.0, _quantize(y), _quantize(speed)))
            for lane_x, y0, rel_v in safe_traj:
                y = y0 + rel_v * t * _DT
                records.append((CLASS_VEHICLE, _quantize(lane_x), _quantize(y),
                                _quantize(_EGO_SPEED + rel_v)))
            yield records


# ---------------------------------------------------------------------------
# .scenes text format


def write_scenes(sequences, path):
    text = scenes_to_text(sequences)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def scenes_to_text(sequences):
    lines = []
    for s, seq in enumerate(sequences):
        if seq.label is not None:
            lines.append(f"seq {s} label {seq.label}")
        for k, frame in enumerate(seq.frames):
            rows = frame.features.tolist()
            if not all(row[0].is_integer() for row in rows):  # False for NaN and ±inf
                raise CapacityError(f"sequence {s} frame {k} has a class that is no integer")
            nodes = " ".join("%d:%d:%.6f:%.6f:%.6f" % (i, f[0], f[1], f[2], f[3])
                             for i, f in enumerate(rows))
            edges = " ".join(f"{a}:{r}:{b}" for a, r, b in frame.edges.tolist())
            lines.append(f"seq {s} frame {k} | {nodes} | {edges}")
    return "\n".join(lines) + ("\n" if lines else "")


def read_scenes(path, ontology):
    with open(path, encoding="utf-8") as fh:
        return scenes_from_text(fh.read(), ontology)


def scenes_from_text(text, ontology):
    """Parse the .scenes grammar back into GraphSequence objects. A
    malformed file raises ParseError with the line at fault."""
    num_relations = ontology.num_relations
    seqs = {}    # id -> {frame number: (line number, SceneGraph)}
    labels = {}  # id -> (label, line number)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *fields = line.split("|")
        tokens = head.split()
        if len(tokens) == 4 and tokens[0] == "seq" and tokens[2] == "label":
            try:
                seq_id = int(tokens[1])
            except ValueError:
                seq_id = None
            if fields or tokens[3] not in (RISKY, SAFE) or seq_id is None:
                raise ParseError(f"bad label line {line!r}", line_number=lineno)
            if seq_id in labels:
                raise ParseError(f"second label for sequence {seq_id}", line_number=lineno)
            labels[seq_id] = tokens[3], lineno
            continue
        if len(fields) != 2 or len(tokens) != 4 or tokens[0] != "seq" or tokens[2] != "frame":
            raise ParseError(f"unrecognized line {line!r}", line_number=lineno)
        try:
            seq_id, frame_k = int(tokens[1]), int(tokens[3])
        except ValueError:
            raise ParseError(f"bad seq/frame ids in {line!r}", line_number=lineno) from None
        nodes, edges = fields
        rows = []
        for tok in nodes.split():
            try:
                i, cls, x, y, speed = tok.split(":")
                i, row = int(i), (float(int(cls)), float(x), float(y), float(speed))
            except (ValueError, OverflowError):  # OverflowError: a class beyond float range
                raise ParseError(f"bad node record {tok!r}", line_number=lineno) from None
            if i != len(rows):
                raise ParseError(f"node index {i} out of order", line_number=lineno)
            rows.append(row)
        triplets = []
        for tok in edges.split():
            try:
                src, rel, dst = map(int, tok.split(":"))
            except ValueError:
                raise ParseError(f"bad edge triplet {tok!r}", line_number=lineno) from None
            if not 1 <= rel <= num_relations:
                raise ParseError(f"relation id {rel} outside 1..{num_relations}",
                                 line_number=lineno)
            if src == dst:
                raise ParseError(f"edge {(src, rel, dst)} references invalid nodes",
                                 line_number=lineno)
            triplets.append((src, rel, dst))
        try:  # the graph refuses no nodes, a node outside the frame, a repeated triplet
            graph = SceneGraph(rows, sorted(triplets))
        except ShapeError as e:
            raise ParseError(str(e), line_number=lineno) from None
        frames = seqs.setdefault(seq_id, {})
        if frame_k in frames:
            raise ParseError(f"second frame {frame_k} for sequence {seq_id}",
                             line_number=lineno)
        frames[frame_k] = lineno, graph
    # the ids must be 0..S-1; name the first line of one that is not
    named = [(lineno, i) for i, (_, lineno) in labels.items()]
    named += [(next(iter(frames.values()))[0], i) for i, frames in seqs.items()]
    stray = [(lineno, i) for lineno, i in named if not 0 <= i < len(seqs)]
    if stray:
        lineno, i = min(stray)
        raise ParseError(f"sequence {i} is not one of the frame sequences "
                         f"0..{len(seqs) - 1}", line_number=lineno)
    out = []
    for seq_id in range(len(seqs)):
        frames = seqs[seq_id]
        graphs = [frames.get(k) for k in range(len(frames))]
        if None in graphs:  # the frame numbers, each once, are not 0..n-1
            got = sorted(frames)
            past = next(k for n, k in enumerate(got) if k != n)  # the first past a gap
            raise ParseError(f"sequence {seq_id} frames {got} not contiguous",
                             line_number=frames[past][0])
        label, _ = labels.get(seq_id, (None, None))
        out.append(GraphSequence(tuple(g for _, g in graphs), label))
    return out
