"""The M2AI core: configuration, network, trainer, pipeline."""

from repro.core.config import M2AIConfig
from repro.core.dataset import ActivityDataset, ChannelScaler
from repro.core.model import MODEL_MODES, ConvBranch, DenseBranch, M2AINet
from repro.core.pipeline import (
    SERVE_DTYPES,
    EvaluationResult,
    M2AIPipeline,
    ServeParityError,
    baseline_arrays,
)
from repro.core.serialization import load_pipeline, save_pipeline
from repro.core.streaming import ABSTAIN, StreamingIdentifier, WindowDecision
from repro.core.trainer import TrainHistory, Trainer

__all__ = [
    "ABSTAIN",
    "MODEL_MODES",
    "ActivityDataset",
    "ChannelScaler",
    "ConvBranch",
    "DenseBranch",
    "EvaluationResult",
    "M2AIConfig",
    "M2AINet",
    "M2AIPipeline",
    "SERVE_DTYPES",
    "ServeParityError",
    "StreamingIdentifier",
    "TrainHistory",
    "Trainer",
    "WindowDecision",
    "baseline_arrays",
    "load_pipeline",
    "save_pipeline",
]
