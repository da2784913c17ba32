"""Unsupervised object-centric embeddings for cell instance segmentation.

A small valid-convolution U-Net is trained self-supervised to predict, per
pixel, its offset relative to the containing object's center.  Instances
then fall out of mean-shift clustering of the per-pixel center estimates,
with noise-variance background detection and distance-based shrinkage.
"""

from .autodiff import (
    Tape,
    Tensor,
    conv2d_valid,
    crop_concat,
    gather_coords,
    maxpool2,
    relu,
    upsample_nearest2,
)
from .errors import (
    ConfigError,
    DegenerateError,
    FormatError,
    LabelError,
    PlacementError,
    ShapeError,
)
from .loss import LossConfig, PairSet, oce_loss, sample_pairs
from .metrics import (
    Tally,
    format_score_table,
    iou_matrix,
    scores_from_counts,
    seg_score_dataset,
    threshold_sweep,
)
from .network import (
    CONTEXT,
    AdamState,
    ModelConfig,
    ModelParams,
    TrainConfig,
    TrainResult,
    adam_step,
    forward,
    init_params,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train,
)
from .segmentation import (
    SegmenterConfig,
    bandwidth_search,
    detect_foreground,
    embedding_variance,
    mean_shift,
    otsu_threshold,
    predict_full,
    salt_pepper,
    segment,
    segment_image,
    shrink_instances,
)
from .synth import SceneSpec, generate_dataset, object_template, synth_generate
from .theory import (
    OffsetDecomposition,
    decompose_offsets,
    make_scenes,
    occurrences,
    offset_report,
    place_scene,
)

__version__ = "0.1.0"
