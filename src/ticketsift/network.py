"""Masked fully connected classifier: parameters, forward pass with batch
normalization, softmax cross-entropy gradients, accuracy, and node ablation.

Layer numbering used across the package: layer 0 is the input plane, layers
1..k are hidden layers, and the output layer carries no mask, batch norm, or
nonlinearity. ``masks[i]`` gates the weight matrix feeding hidden layer i+1,
i.e. the incoming mask of node layer i+1.

Masked weights stay in storage; they are multiplied out of every forward and
backward pass and receive exactly zero gradient. Each hidden layer applies
affine -> batch norm -> ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch


def check_dims(dims) -> list:
    dims = [int(d) for d in dims]
    if len(dims) < 3:
        raise ValueError("dims needs at least input, one hidden layer, and output")
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer sizes must be >= 1, got {dims}")
    return dims


@dataclass
class ParamSet:
    """All trainable state plus batch-norm running statistics.

    weights[l] has shape (dims[l], dims[l+1]); the batch-norm vectors exist
    for hidden layers only (len(weights) - 1 entries).
    """

    weights: list
    biases: list
    gamma: list
    beta: list
    running_mean: list
    running_var: list

    @property
    def dims(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def n_hidden(self) -> int:
        return len(self.weights) - 1

    def copy(self) -> "ParamSet":
        return ParamSet(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            [g.copy() for g in self.gamma],
            [b.copy() for b in self.beta],
            [m.copy() for m in self.running_mean],
            [v.copy() for v in self.running_var],
        )


@dataclass
class ParamGrads:
    """Gradients mirroring the trainable fields of ParamSet."""

    weights: list
    biases: list
    gamma: list
    beta: list


def _trainable_groups(obj):
    return (obj.weights, obj.biases, obj.gamma, obj.beta)


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


def init_params(dims, seed, dtype=np.float32) -> ParamSet:
    """Gaussian weights with variance 2 / (fan_in + fan_out); biases zero;
    batch-norm scale 1, shift 0, running mean 0, running variance 1."""
    dims = check_dims(dims)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / (a + b)), size=(a, b)).astype(dtype))
        biases.append(np.zeros(b, dtype=dtype))
    hidden = dims[1:-1]
    return ParamSet(
        weights,
        biases,
        gamma=[np.ones(h, dtype=dtype) for h in hidden],
        beta=[np.zeros(h, dtype=dtype) for h in hidden],
        running_mean=[np.zeros(h, dtype=dtype) for h in hidden],
        running_var=[np.ones(h, dtype=dtype) for h in hidden],
    )


@dataclass
class ForwardCache:
    """Intermediates needed by the backward pass and activation probes.

    activations[l] is the input to weight matrix l (activations[0] is the
    batch itself); x_hat, inv_std, bn_out have one entry per hidden layer.
    """

    mode: str
    activations: list
    x_hat: list
    inv_std: list
    bn_out: list


def _check_net(params: ParamSet, masks: MaskSet, batch: np.ndarray) -> None:
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


def _hidden_layer(params: ParamSet, l: int, z: np.ndarray, mode: str):
    """Batch norm -> ReLU of hidden layer l + 1 from its pre-activation z;
    returns (x_hat, inv_std, bn_out, activation)."""
    if mode == "train":
        mean, var = z.mean(axis=0), z.var(axis=0)
        params.running_mean[l][...] = BN_MOMENTUM * params.running_mean[l] + (1 - BN_MOMENTUM) * mean
        params.running_var[l][...] = BN_MOMENTUM * params.running_var[l] + (1 - BN_MOMENTUM) * var
    else:
        mean, var = params.running_mean[l], params.running_var[l]
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (z - mean) * inv_std
    bn_out = params.gamma[l] * x_hat + params.beta[l]
    return x_hat, inv_std, bn_out, np.maximum(bn_out, 0)


def forward(params: ParamSet, masks: MaskSet, batch: np.ndarray, mode: str = "train"):
    """Run the network; returns (logits, cache).

    mode "train" normalizes with batch statistics and updates the running
    statistics in place; mode "eval" uses the stored running statistics and
    leaves all state untouched. Train mode needs a batch of at least 2.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    batch = np.asarray(batch)
    _check_net(params, masks, batch)
    if mode == "train" and batch.shape[0] < 2:
        raise ValueError("train-mode batch norm needs at least 2 images")
    a = batch
    cache = ForwardCache(mode, [a], [], [], [])
    for l in range(params.n_hidden):
        z = a @ (params.weights[l] * masks.masks[l]) + params.biases[l]
        x_hat, inv_std, bn_out, a = _hidden_layer(params, l, z, mode)
        cache.x_hat.append(x_hat)
        cache.inv_std.append(inv_std)
        cache.bn_out.append(bn_out)
        cache.activations.append(a)
    logits = a @ params.weights[-1] + params.biases[-1]
    return logits, cache


def loss_and_grads(params: ParamSet, masks: MaskSet, batch: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over the batch and its full gradient.

    Runs a train-mode forward pass (so running statistics advance exactly as
    during training). Gradients of masked weights are identically zero; the
    output layer is unmasked.
    """
    labels = np.asarray(labels)
    logits, cache = forward(params, masks, batch, mode="train")
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

    n_w = len(params.weights)
    g_w = [None] * n_w
    g_b = [None] * n_w
    g_gamma = [None] * params.n_hidden
    g_beta = [None] * params.n_hidden

    g_w[-1] = cache.activations[-1].T @ d_logits
    g_b[-1] = d_logits.sum(axis=0)
    d_a = d_logits @ params.weights[-1].T
    for l in range(params.n_hidden - 1, -1, -1):
        d_bn = d_a * (cache.bn_out[l] > 0)
        g_gamma[l] = (d_bn * cache.x_hat[l]).sum(axis=0)
        g_beta[l] = d_bn.sum(axis=0)
        d_xhat = d_bn * params.gamma[l]
        d_z = (cache.inv_std[l] / n) * (
            n * d_xhat - d_xhat.sum(axis=0) - cache.x_hat[l] * (d_xhat * cache.x_hat[l]).sum(axis=0)
        )
        g_w[l] = (cache.activations[l].T @ d_z) * masks.masks[l]
        g_b[l] = d_z.sum(axis=0)
        if l > 0:
            d_a = d_z @ (params.weights[l] * masks.masks[l]).T
    return loss, ParamGrads(g_w, g_b, g_gamma, g_beta)


def accuracy(params: ParamSet, masks: MaskSet, ds, batch_size: int = 1000) -> float:
    """Eval-mode classification accuracy; argmax ties go to the lowest index."""
    correct = 0
    for chunk in _eval_chunks(ds, batch_size):
        logits, _ = forward(params, masks, ds.images[chunk], mode="eval")
        correct += int((np.argmax(logits, axis=1) == ds.labels[chunk]).sum())
    return correct / len(ds)


def _eval_chunks(ds, batch_size: int = 1000) -> list:
    """The slices eval-mode passes over ds run in."""
    if len(ds) == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    return [slice(s, min(s + batch_size, len(ds))) for s in range(0, len(ds), batch_size)]


def ablate_nodes(masks: MaskSet, layer: int, nodes) -> MaskSet:
    """Zero the incoming mask columns of the given nodes of hidden layer ``layer``
    (1-based). Returns a new MaskSet; already-pruned nodes may be listed."""
    if not 1 <= layer <= len(masks.masks):
        raise ValueError(f"layer must lie in [1, {len(masks.masks)}], got {layer}")
    nodes = np.asarray(nodes, dtype=np.int64)
    width = masks.masks[layer - 1].shape[1]
    if nodes.size and (nodes.min() < 0 or nodes.max() >= width):
        raise ValueError(f"node indices must lie in [0, {width})")
    out = masks.copy()
    out.masks[layer - 1][:, nodes] = 0
    return out
