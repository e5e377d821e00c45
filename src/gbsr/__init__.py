"""Social recommendation with a learned denoiser on the social graph.

Learns which social edges to trust: per-edge confidences from a small MLP on
user embeddings reweight the social graph, an HSIC penalty keeps the denoised
representations from simply copying the raw graph, and a multi-layer
propagation backbone turns the result into top-N item rankings.
"""

from .backbone import EmbeddingTable, NodeRepresentations, forward, score_all_items
from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset
from .denoiser import DenoiserParams, EdgeConfidenceMap, denoise, relax_sample
from .errors import (CheckpointError, ConfigError, DataError, GbsrError,
                     NumericError, ParseError)
from .evaluation import MetricsReport, RunMetrics, evaluate, rank_user
from .graph import WeightedAdjacency, build_adjacency
from .hsic import hsic_estimate, rbf_kernel
from .objective import LossBreakdown, gradients
from .trainer import (TrainConfig, TrainState, fit, init, load_checkpoint,
                      save_checkpoint, train_epoch)

__all__ = [
    "CheckpointError", "ConfigError", "DataError", "Dataset", "DenoiserParams",
    "EdgeConfidenceMap", "EmbeddingTable", "GbsrError", "LossBreakdown",
    "MetricsReport", "NodeRepresentations", "NumericError", "ParseError",
    "RunMetrics", "SyntheticSpec", "TrainConfig", "TrainState",
    "WeightedAdjacency", "build_adjacency", "denoise", "evaluate", "fit",
    "forward", "generate_synthetic", "gradients", "hsic_estimate", "init",
    "load_checkpoint", "load_dataset", "rank_user", "rbf_kernel",
    "relax_sample", "save_checkpoint", "score_all_items", "train_epoch",
]

__version__ = "0.1.0"
