"""Lottery-ticket style pruning of fully connected image classifiers and
structural analysis of the masks it leaves behind."""

from .datasets import (
    ClassMapping,
    ImageDataset,
    ImageGeometry,
    cluster_classes,
    generate_synthetic,
    load_cifar_binary,
    load_idx,
    pixel_coords,
    pixel_index,
    rotate_images,
    split_train_val,
    subsample,
)
from .network import (
    MaskSet,
    ParamSet,
    accuracy,
    forward,
    init_params,
    loss_and_grads,
)
from .observables import (
    ConnectivityHistogram,
    LocalityMap,
    ablation_curve,
    ablation_curves,
    binomial_reference,
    connectivity,
    effective_masks,
    locality_map,
    locality_map_binned,
)
from .pruner import (
    ImpConfig,
    ImpRun,
    density,
    prune_step,
    random_prune,
    rewind,
    run_imp,
    stop_condition,
)
from .trainer import (
    AdamState,
    Checkpoint,
    TrainConfig,
    TrainRecord,
    TrainResult,
    TrainingDiverged,
    adam_step,
    sgd_step,
    train,
)

__version__ = "0.1.0"
