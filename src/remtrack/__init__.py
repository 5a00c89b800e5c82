"""Relation-aware multi-object tracking on synthetic crowd scenes."""

from .autodiff import (
    GruCellParams,
    ParameterStore,
    Tensor,
    adam_step,
    backward,
    gradient_check,
    no_grad,
)
from .geometry import BoundingBox, giou_loss, iou
from .rem import RelationEmbedding, RemParameters, RemState, rem_step
from .metrics import (
    FrameMatching,
    MetricsReport,
    clear_mot,
    evaluate,
    hota,
    idf1,
    match_frame,
    mt_ml,
)
from .simulator import Detection, GroundTruthSequence, ScenarioConfig, detect, detect_sequence, generate
from .st_graph import SpatioTemporalGraph, build_graph, update_graph
from .tracker import (
    TrackerParameters,
    TrainConfig,
    TrainResult,
    appearance_feature,
    regress_baseline,
    regress_from_relations,
    regress_relation_aware,
    track_sequence,
    train,
)

__all__ = [
    "BoundingBox",
    "Detection",
    "FrameMatching",
    "GroundTruthSequence",
    "GruCellParams",
    "MetricsReport",
    "ParameterStore",
    "RelationEmbedding",
    "RemParameters",
    "RemState",
    "ScenarioConfig",
    "SpatioTemporalGraph",
    "Tensor",
    "TrackerParameters",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "appearance_feature",
    "backward",
    "build_graph",
    "clear_mot",
    "detect",
    "detect_sequence",
    "evaluate",
    "generate",
    "giou_loss",
    "gradient_check",
    "hota",
    "idf1",
    "iou",
    "match_frame",
    "mt_ml",
    "no_grad",
    "regress_baseline",
    "regress_from_relations",
    "regress_relation_aware",
    "rem_step",
    "track_sequence",
    "train",
    "update_graph",
]

__version__ = "0.1.0"
