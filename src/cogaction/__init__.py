"""Unsupervised learning of motion-invariant convolutional features from video.

A filter bank maps a video clip (or a lower layer's feature field) to
per-pixel probability distributions over a symbol alphabet.  Training
minimizes a composite objective that maximizes the information index of the
symbols while penalizing motion-transport violations and non-parsimonious
filters, with every term and its analytic gradient verifiable against
independent oracles at desk scale.
"""

from .action import (
    ActionBreakdown,
    ActionInputs,
    Multipliers,
    TemporalWeights,
    cognitive_action,
    spatial_parsimony,
    temporal_parsimony,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .features import (
    FilterBank,
    convolve_features,
    load_bank,
    save_bank,
    stack_layers,
    to_probabilities,
)
from .flow import VelocityField, constant_flow, horn_schunck, load_flow, save_flow
from .optimizer import (
    DivergenceError,
    LayerPlan,
    TrainConfig,
    TrainTrace,
    evaluate_bank,
    init_bank,
    run_gradient_check,
    train_deep,
    train_layer,
)
from .video import (
    PatternSpec,
    VideoClip,
    load_image_sequence,
    save_clip,
    save_feature_maps,
    synth_translating_clip,
)

__version__ = "0.1.0"
