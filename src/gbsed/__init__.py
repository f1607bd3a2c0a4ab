"""gbsed: graph-based semantic scene-graph codec and noisy-link simulator."""

from .codec import (
    compress,
    decompress,
    encode_tensor,
    parse,
    regenerate,
    serialize,
)
from .channel import LinkConfig, frames_required, transmit
from .metrics import (
    ConfusionCounts,
    FidelityReport,
    auc,
    classification_metrics,
    compression_ratio,
    raw_frame_octets,
    semantic_fidelity,
)
from .ontology import RelationOntology, default_ontology, ontology_digest
from .scenarios import ScenarioSpec, generate, read_scenes, write_scenes
from .scene_graph import SceneGraph, infer_relations
from .sweep import SweepConfig, encode_frame, decode_frame, run_sweep
from .task import GraphSequence, RiskVerdict, assess_risk, task_consistency

__version__ = "0.1.0"
