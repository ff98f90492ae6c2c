"""Masked fully connected classifier: parameters, forward pass with batch
normalization, softmax cross-entropy gradients, and accuracy.

Layer numbering used across the package: layer 0 is the input plane, layers
1..k are hidden layers, and the output layer carries no mask, batch norm, or
nonlinearity. ``masks[i]`` gates the weight matrix feeding hidden layer i+1,
i.e. the incoming mask of node layer i+1. Each hidden layer applies
affine -> batch norm -> ReLU.

The public passes multiply the masks into the weights, so a masked weight's
stored value is irrelevant there; masked weights get exactly zero gradient.
Training instead stores masked weights as +0.0, set once when it starts and
kept there by the masked gradient under SGD and Adam, and runs the same
arithmetic on the stored weights with no ``W * M`` product.

A training step takes every column sum over the batch as a ones-vector BLAS
product ``ones @ A``, and its batch-norm backward reuses the shift and scale
gradients: since ``d_x_hat = gamma * d_bn`` column-wise,
``sum(d_x_hat) = gamma * g_beta`` and ``sum(d_x_hat * x_hat) = gamma * g_gamma``.
Eval mode keeps ``(z - running_mean) * inv_std * gamma + beta`` in that order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch
_EVAL_ROWS = 1000  # eval-mode passes run over chunks of this many images
_GROUPS = ("weights", "biases", "gamma", "beta", "running_mean", "running_var")


def check_dims(dims) -> list:
    dims = [int(d) for d in dims]
    if len(dims) < 3:
        raise ValueError("dims needs at least input, one hidden layer, and output")
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer sizes must be >= 1, got {dims}")
    return dims


def _size(dims) -> int:
    """Length of a network's buffer: weights, biases, 4 batch-norm vectors per hidden layer."""
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:])) + 4 * sum(dims[1:-1])


class ParamSet:
    """All trainable state plus batch-norm running statistics.

    weights[l] has shape (dims[l], dims[l+1]); the batch-norm vectors exist
    for hidden layers only (len(weights) - 1 entries). Every array is a view
    into one contiguous buffer of the arrays' common dtype, laid out in .tkts
    order: write into the arrays (``w[...] = x``), never replace an entry.
    Gradients and Adam moments are ParamSets whose running-statistic slots hold 0.
    """

    def __init__(self, dims, flat: np.ndarray):
        """Bind every list field to views into flat, a 1-D buffer of length _size(dims)."""
        if flat.shape != (_size(dims),):
            raise ValueError(f"dims {dims} need a buffer of shape ({_size(dims)},), got {flat.shape}")
        self._flat, pos = flat, 0
        for group in _GROUPS:
            setattr(self, group, [])
        for l, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            for group in _GROUPS if l < len(dims) - 2 else _GROUPS[:2]:
                shape = (a, b) if group == "weights" else (b,)
                getattr(self, group).append(flat[pos : pos + math.prod(shape)].reshape(shape))
                pos += math.prod(shape)

    @classmethod
    def _zeros(cls, dims, dtype):
        return cls(dims, np.zeros(_size(dims), dtype))

    @property
    def dims(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def n_hidden(self) -> int:
        return len(self.weights) - 1

    def copy(self):
        return type(self)(self.dims, self._flat.copy())


@dataclass
class MaskSet:
    """Binary gates for every weight matrix except the output layer's."""

    masks: list  # masks[i]: uint8 (dims[i], dims[i+1]), i < len(weights) - 1

    def __post_init__(self) -> None:
        self.masks = [np.ascontiguousarray(m, dtype=np.uint8) for m in self.masks]
        for m in self.masks:
            if m.ndim != 2:
                raise ValueError("masks must be 2-D")
            if m.size and m.max() > 1:
                raise ValueError("mask entries must be 0 or 1")

    @classmethod
    def full(cls, dims) -> "MaskSet":
        dims = check_dims(dims)
        return cls([np.ones((dims[i], dims[i + 1]), dtype=np.uint8) for i in range(len(dims) - 2)])

    def copy(self) -> "MaskSet":
        return MaskSet([m.copy() for m in self.masks])


def init_params(dims, seed) -> ParamSet:
    """float32 Gaussian weights with variance 2 / (fan_in + fan_out); biases
    zero; batch-norm scale 1, shift 0, running mean 0, running variance 1."""
    dims = check_dims(dims)
    rng = np.random.default_rng(seed)
    params = ParamSet._zeros(dims, np.float32)
    for w in params.weights:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / sum(w.shape)), size=w.shape)
    for v in params.gamma + params.running_var:
        v[...] = 1
    return params


@dataclass
class ForwardCache:
    """Intermediates needed by the backward pass.

    activations[l] is the input to weight matrix l (activations[0] is the
    batch itself); x_hat and inv_std have one entry per hidden layer.
    """

    activations: list
    x_hat: list
    inv_std: list


def _check_net(params: ParamSet, masks: MaskSet, batch: np.ndarray, mode: str = "eval") -> None:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if len(masks.masks) != len(params.weights) - 1:
        raise ValueError(
            f"need one mask per hidden weight matrix: "
            f"{len(masks.masks)} masks for {len(params.weights)} weight layers"
        )
    for m, w in zip(masks.masks, params.weights):
        if m.shape != w.shape:
            raise ValueError(f"mask shape {m.shape} != weight shape {w.shape}")
    if batch.ndim != 2 or batch.shape[1] != params.dims[0]:
        raise ValueError(f"batch must be (N, {params.dims[0]}), got {batch.shape}")
    if mode == "train" and batch.shape[0] < 2:
        raise ValueError("train-mode batch norm needs at least 2 images")


def _masked_weights(params: ParamSet, masks: MaskSet) -> list:
    """W * M for every masked layer, then the unmasked output weights."""
    return [w * m for w, m in zip(params.weights, masks.masks)] + params.weights[-1:]


def _hidden_layer(params: ParamSet, l: int, z: np.ndarray, mode: str, out=None):
    """Batch norm -> ReLU of hidden layer l + 1 from its pre-activation z;
    returns (x_hat, inv_std, activation). Overwrites z, which becomes x_hat;
    train mode centres z in place before squaring it for the variance. The
    activation is written into ``out`` when given, an array of z's shape and
    of the dtype of ``z * gamma``, and is a new array otherwise.
    """
    if mode == "train":
        ones = np.ones(len(z), z.dtype)
        mean = (ones @ z) / len(z)
        z -= mean
        var = (ones @ np.square(z)) / len(z)
        params.running_mean[l][...] = BN_MOMENTUM * params.running_mean[l] + (1 - BN_MOMENTUM) * mean
        params.running_var[l][...] = BN_MOMENTUM * params.running_var[l] + (1 - BN_MOMENTUM) * var
    else:
        var = params.running_var[l]
        z -= params.running_mean[l]
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    z *= inv_std
    a = np.multiply(z, params.gamma[l], out=out)
    a += params.beta[l]
    return z, inv_std, np.maximum(a, 0, out=a)


def forward(params: ParamSet, masks: MaskSet, batch: np.ndarray, mode: str = "train"):
    """Run the network; returns (logits, cache).

    mode "train" normalizes with batch statistics and updates the running
    statistics in place; mode "eval" uses the stored running statistics and
    leaves all state untouched. Train mode needs a batch of at least 2.
    """
    batch = np.asarray(batch)
    _check_net(params, masks, batch, mode)
    return _forward(params, _masked_weights(params, masks), batch, mode)


def _forward(params: ParamSet, weights: list, batch: np.ndarray, mode: str):
    """``forward``'s arithmetic on effective weights: W * M, or stored weights zeroed where masked."""
    a = batch
    cache = ForwardCache([a], [], [])
    for l in range(params.n_hidden):
        z = a @ weights[l]
        z += params.biases[l]
        x_hat, inv_std, a = _hidden_layer(params, l, z, mode)
        cache.x_hat.append(x_hat)
        cache.inv_std.append(inv_std)
        cache.activations.append(a)
    return a @ weights[-1] + params.biases[-1], cache


def loss_and_grads(params: ParamSet, masks: MaskSet, batch: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over the batch and its full gradient.

    Runs a train-mode forward pass (so running statistics advance exactly as
    during training). Gradients of masked weights are identically zero; the
    output layer is unmasked.
    """
    batch = np.asarray(batch)
    _check_net(params, masks, batch, "train")
    grads = ParamSet._zeros(params.dims, np.result_type(params._flat, batch))
    return _loss_and_grads(params, masks.masks, _masked_weights(params, masks), batch, labels, grads)


def _loss_and_grads(params: ParamSet, gates: list, weights: list, batch, labels, grads):
    """``loss_and_grads``'s arithmetic on effective weights (see ``_forward``) and 0/1 mask
    arrays ``gates``; writes every trainable gradient into ``grads``.

    Column sums over the batch are ones-vector products ``ones @ A``. Batch-norm
    backward reuses the shift and scale gradients: with d_bn the gradient at the
    batch-norm output, ``g_beta = sum(d_bn)`` and ``g_gamma = sum(d_bn * x_hat)``,
    and since ``d_x_hat = gamma * d_bn`` column-wise, ``sum(d_x_hat) = gamma * g_beta``
    and ``sum(d_x_hat * x_hat) = gamma * g_gamma``; so with ``k = gamma * inv_std``,
    ``d_z = d_bn * k - x_hat * (k * g_gamma / n) - k * g_beta / n``.
    """
    labels = np.asarray(labels)
    logits, cache = _forward(params, weights, batch, "train")
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must be one per image")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = float(-log_p[np.arange(n), labels].mean())

    d_logits = np.exp(log_p)
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n

    ones = np.ones(n, d_logits.dtype)
    np.matmul(cache.activations[-1].T, d_logits, out=grads.weights[-1])
    np.matmul(ones, d_logits, out=grads.biases[-1])
    d_a = d_logits @ weights[-1].T
    for l in range(params.n_hidden - 1, -1, -1):
        x_hat = cache.x_hat[l]
        d_bn = np.multiply(d_a, cache.activations[l + 1] > 0, out=d_a)
        g_beta = np.matmul(ones, d_bn, out=grads.beta[l])
        g_gamma = np.matmul(ones, d_bn * x_hat, out=grads.gamma[l])
        k = params.gamma[l] * cache.inv_std[l]
        d_z = np.multiply(d_bn, k, out=d_bn)
        d_z -= x_hat * (k * g_gamma / n)
        d_z -= k * g_beta / n
        np.matmul(cache.activations[l].T, d_z, out=grads.weights[l])
        grads.weights[l] *= gates[l]
        np.matmul(ones, d_z, out=grads.biases[l])
        if l > 0:
            d_a = d_z @ weights[l].T
    return loss, grads


def accuracy(params: ParamSet, masks: MaskSet, ds) -> float:
    """Eval-mode classification accuracy; argmax ties go to the lowest index."""
    _check_net(params, masks, ds.images)
    return _accuracy(params, _masked_weights(params, masks), ds)


def _accuracy(params: ParamSet, weights: list, ds) -> float:
    """``accuracy``'s arithmetic on effective weights (see ``_forward``)."""
    correct = 0
    for chunk in _eval_chunks(ds):
        logits, _ = _forward(params, weights, ds.images[chunk], "eval")
        correct += int((np.argmax(logits, axis=1) == ds.labels[chunk]).sum())
    return correct / len(ds)


def _eval_chunks(ds) -> list:
    """The slices of _EVAL_ROWS images that eval-mode passes over ds run in."""
    if len(ds) == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    return [slice(s, min(s + _EVAL_ROWS, len(ds))) for s in range(0, len(ds), _EVAL_ROWS)]


def _lanes(n_tasks: int) -> int:
    """How many lanes ``_run_lanes`` should split n_tasks independent tasks
    over: 2 when there are at least 2 tasks and the process may run on at
    least 2 cores, else 1."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return 2 if cores >= 2 and n_tasks >= 2 else 1


def _run_lanes(lane_task, n_lanes: int) -> None:
    """Call ``lane_task(lane)`` for every lane in range(n_lanes), n_lanes 1 or 2.

    Lane 0 runs on the calling thread. Lane 1 runs on the one worker of an
    executor whose ``with`` exit joins that worker, also when a lane raises,
    so no lane still runs once the caller sees the result. An exception
    raised in a lane is re-raised unchanged, lane 0's first.
    """
    if n_lanes == 1:
        lane_task(0)
        return
    # imported here: it brings logging and queue, which nothing else needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="ticketsift-lane") as pool:
        lane_1 = pool.submit(lane_task, 1)
        lane_task(0)
    lane_1.result()
