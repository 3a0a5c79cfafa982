"""Desk-scale single-stage detector kernels with a deterministic tensor engine.

Public surface: the Tensor4 engine with tape-based backward and gradient
checking, the architectural blocks (energy attention, ghost/C3 blocks,
pooling pyramid, gather-distribute neck), model assembly with decode,
detection losses and metrics, the steering-driven ROI planner, and file IO.
"""

from .tensor import (
    BatchNormState,
    ConvSpec,
    DomainError,
    GradCheckReport,
    GradTape,
    ShapeError,
    Tensor4,
    backward,
    grad_check,
)
from .activations import mish, relu, silu
from .simam import energy_numeric_oracle, simam_energy_min, simam_forward
from .ghost import C3Block, GhostConv, count_params_flops
from .sppf import SimConv, SimSppf
from .neck import IgdNeck, PyramidFeatures
from .model import (
    ModelConfig,
    RawPredictions,
    build_model,
    decode,
    load_weights,
    save_weights,
)
from .losses import (
    Box,
    LossWeights,
    assign_targets,
    bce_logits,
    ciou,
    detection_loss,
    dfl,
    iou,
    loss_and_grads,
)
from .metrics import Detection, EvalReport, GroundTruth, average_precision, evaluate
from .droi import DroiConfig, DroiResult, critical_width, replay_trajectory
from .dataio import (
    DatasetManifest,
    generate_toy_dataset,
    generate_toy_scene,
    load_annotations,
    load_manifest,
    read_t4,
    write_t4,
)
from .train import TrainParams, TrainState, train_toy

__version__ = "0.1.0"
