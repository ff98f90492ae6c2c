"""Minibatch training loop with SGD and Adam, checkpoint capture, and
deterministic seeding.

One master seed derives independent streams for epoch shuffling and
translation augmentation; weight initialization is seeded separately by the
caller. Epochs reshuffle the training set and draw batches without
replacement; a final partial batch is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import ImageDataset, translate_wrap_each
from .network import MaskSet, ParamSet, _accuracy, _check_net, _loss_and_grads


@dataclass
class TrainConfig:
    batch_size: int = 1000
    lr: float = 0.1
    optimizer: str = "sgd"  # "sgd" or "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    steps: int = 100_000
    eval_every: int = 500
    rewind_step: int = 1000
    seed: int = 0
    translate_augment: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (train-mode batch norm)")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be > 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not 0 <= self.rewind_step <= self.steps:
            raise ValueError("rewind_step must lie in [0, steps]")


@dataclass
class TrainRecord:
    step: int
    train_loss: float
    val_accuracy: float


@dataclass
class Checkpoint:
    step: int
    params: ParamSet


@dataclass
class TrainResult:
    params: ParamSet
    best_val: float | None
    records: list
    rewind: Checkpoint | None


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite training loss {loss} at step {step}")
        self.step = step
        self.loss = loss


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """In-place w <- w - lr * g on every trainable array; returns params.
    grads is overwritten with lr * g (train rewrites it every step)."""
    np.multiply(grads._flat, lr, out=grads._flat)  # no temporary the size of the network
    params._flat -= grads._flat  # running-statistic slots of grads are 0
    return params


@dataclass
class AdamState:
    t: int = 0
    m: ParamSet | None = None
    v: ParamSet | None = None


def adam_step(
    params: ParamSet,
    grads: ParamSet,
    lr: float,
    state: AdamState,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One Adam update with bias correction; mutates params and state.

    Masked weights and running statistics have zero gradient, so their
    moments stay identically zero and they do not move.
    """
    if state.m is None:
        state.m = ParamSet._zeros(params.dims, params._flat.dtype)
        state.v = ParamSet._zeros(params.dims, params._flat.dtype)
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    g, m, v = grads._flat, state.m._flat, state.v._flat
    m[...] = beta1 * m + (1.0 - beta1) * g
    v[...] = beta2 * v + (1.0 - beta2) * g * g
    params._flat -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


def train(
    params: ParamSet,
    masks: MaskSet,
    train_ds: ImageDataset,
    val_ds: ImageDataset,
    cfg: TrainConfig,
    capture_rewind: bool = False,
) -> TrainResult:
    """Run cfg.steps optimizer steps; the input ParamSet is not modified, and
    the returned parameters and checkpoints hold +0.0 at masked positions.

    Evaluates on val_ds every eval_every steps (and at the final step); with
    an empty validation set no records are produced and best_val is None.
    With capture_rewind, a full deep-copy checkpoint is taken right after
    step cfg.rewind_step (step 0 means the untrained state).
    """
    n = len(train_ds)
    if n < cfg.batch_size:
        raise ValueError(f"training set ({n}) smaller than batch_size ({cfg.batch_size})")
    p = params.copy()
    _check_net(p, masks, train_ds.images)
    for w, m in zip(p.weights, masks.masks):
        w[m == 0] = 0.0  # stored as +0.0 from here on; the masked gradient keeps them there
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    augment_rng = np.random.default_rng([cfg.seed, 2])
    geom = train_ds.geometry
    grads = ParamSet._zeros(p.dims, np.result_type(p._flat, train_ds.images))  # rewritten every step
    gates = [m.astype(grads._flat.dtype) for m in masks.masks]  # masks the gradient without a cast
    adam = AdamState() if cfg.optimizer == "adam" else None
    rewind = Checkpoint(0, p.copy()) if capture_rewind and cfg.rewind_step == 0 else None
    records: list = []
    batches_per_epoch = n // cfg.batch_size
    step = 0
    # a diverging step overflows before its loss turns non-finite; the loss check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        while step < cfg.steps:
            perm = shuffle_rng.permutation(n)
            for b in range(batches_per_epoch):
                if step >= cfg.steps:
                    break
                idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                xb = train_ds.images[idx]
                yb = train_ds.labels[idx]
                if cfg.translate_augment:
                    shifts = np.stack(
                        [
                            augment_rng.integers(0, geom.width, size=cfg.batch_size),
                            augment_rng.integers(0, geom.height, size=cfg.batch_size),
                        ],
                        axis=1,
                    )
                    xb = translate_wrap_each(xb, geom, shifts)
                loss, _ = _loss_and_grads(p, gates, p.weights, xb, yb, grads)
                if not math.isfinite(loss):
                    raise TrainingDiverged(step + 1, loss)
                if cfg.optimizer == "sgd":
                    sgd_step(p, grads, cfg.lr)
                else:
                    adam_step(p, grads, cfg.lr, adam, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
                step += 1
                if capture_rewind and step == cfg.rewind_step:
                    rewind = Checkpoint(step, p.copy())
                if (step % cfg.eval_every == 0 or step == cfg.steps) and len(val_ds) > 0:
                    records.append(TrainRecord(step, float(loss), _accuracy(p, p.weights, val_ds)))
    best_val = max((r.val_accuracy for r in records), default=None)
    return TrainResult(p, best_val, records, rewind)
