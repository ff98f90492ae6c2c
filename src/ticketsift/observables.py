"""Structural observables of pruned networks: connectivity counts, spatial
locality of surviving inputs, effective input masks of deep nodes, ablation
curves, and the binomial baseline for random pruning.

Displacement grids are indexed grid[dy + H - 1, dx + W - 1] and count ordered
pairs of distinct surviving inputs feeding the same node, so every grid is
symmetric under d -> -d.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .datasets import ImageGeometry, pixel_coords
from .network import (
    MaskSet, ParamSet, _check_net, _eval_chunks, _hidden_layer, _lanes, _masked_weights, _run_lanes,
)


@dataclass
class ConnectivityHistogram:
    """Per-node surviving-weight counts plus a binned view.

    bins is a list of (count, lower, upper) with upper exclusive; the bins
    tile [0, max], so the counts sum to the number of nodes.
    """

    values: np.ndarray
    bins: list
    layer: int
    direction: str


def connectivity(masks: MaskSet, layer: int, direction: str, bin_width: int = 1) -> ConnectivityHistogram:
    """Surviving-weight counts per node of ``layer``.

    direction "in" counts the incoming weights of hidden layer >= 1;
    direction "out" counts the outgoing weights into the next hidden layer
    and accepts layer 0 for the per-pixel map over the input plane.
    """
    n_masked = len(masks.masks)
    if direction == "in":
        if not 1 <= layer <= n_masked:
            raise ValueError(f"in-connectivity needs layer in [1, {n_masked}], got {layer}")
        values = masks.masks[layer - 1].sum(axis=0, dtype=np.int64)
    elif direction == "out":
        if not 0 <= layer <= n_masked - 1:
            raise ValueError(f"out-connectivity needs layer in [0, {n_masked - 1}], got {layer}")
        values = masks.masks[layer].sum(axis=1, dtype=np.int64)
    else:
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    top = int(values.max()) if values.size else 0
    edges = np.arange(0, top + bin_width + 1, bin_width)
    counts, _ = np.histogram(values, bins=edges)
    bins = list(zip(counts.tolist(), edges[:-1].tolist(), edges[1:].tolist()))
    return ConnectivityHistogram(values, bins, layer, direction)


@dataclass
class LocalityMap:
    """Displacement histogram over ordered pairs of surviving inputs."""

    grid: np.ndarray  # (2H-1, 2W-1) int64
    channel_mode: str  # "same" or "different"
    width: int
    height: int


def _check_mask(mask_matrix, geom: ImageGeometry, channel_mode: str) -> np.ndarray:
    """Validate locality arguments; returns the mask as a boolean matrix."""
    if channel_mode not in ("same", "different"):
        raise ValueError(f"channel_mode must be 'same' or 'different', got {channel_mode!r}")
    mask_matrix = np.asarray(mask_matrix)
    if mask_matrix.ndim != 2 or mask_matrix.shape[0] != geom.input_size:
        raise ValueError(f"mask matrix must be ({geom.input_size}, n_nodes)")
    return mask_matrix != 0


# Float64 cells (8 bytes each) of the images of one chunk of transform-path
# nodes, and of the x-spectra of one group of x-frequencies of a chunk. They
# bound the transform path's working memory whatever the node count; a group
# small enough to stay off the allocator's mmap path also saves the page
# faults of a fresh mapping per group.
_DFT_CHUNK_CELLS = 1 << 17
_DFT_GROUP_CELLS = 1 << 14


def _diagonal_sums(gram: np.ndarray, h: int) -> np.ndarray:
    """P(dy, kx), shape (2, n_kx, 2H-1), from the Gram of each kx over the
    rows (part, y): the real part Qr = Re Re^T + Im Im^T and the imaginary
    part Qi = Im Re^T - (Im Re^T)^T, each summed along its diagonals y' - y.

    Row y of Q^T is written into row y of an (H, 2H) buffer starting at
    column H - 1 - y, so Q[y', y] lands in column y' - y + H - 1 and each
    column sums one diagonal. Qr is symmetric, and Qi^T = -Qi.
    """
    n_kx, gh = len(gram), 2 * h - 1
    skew = np.zeros((2, n_kx, h, 2 * h))
    rows = skew.reshape(2, n_kx, 2 * h * h)[:, :, h - 1 : h - 1 + h * gh].reshape(2, n_kx, h, gh)[..., :h]
    np.add(gram[:, :h, :h], gram[:, h:, h:], out=rows[0])
    np.subtract(gram[:, h:, :h].transpose(0, 2, 1), gram[:, h:, :h], out=rows[1])
    return skew.sum(axis=2)[..., :gh]


def _locality_grids(
    mask_matrix: np.ndarray, geom: ImageGeometry, channel_mode: str, edges: list
) -> np.ndarray:
    """Exact displacement grids, shape (len(edges), 2H-1, 2W-1), one per
    connectivity bin of locality_map_binned.

    mask_matrix is a validated boolean (input_size, n_nodes) matrix and edges
    validated bin edges. Each node's surviving count picks one of two exact
    paths; see locality_map.
    """
    w, h, c = geom.width, geom.height, geom.channels
    gw, gh = 2 * w - 1, 2 * h - 1
    cells = gh * gw
    n_bins = len(edges)
    k = np.count_nonzero(mask_matrix, axis=0)
    bin_of_node = np.searchsorted(edges, k, side="right") - 1  # -1: below edges[0], in no bin
    active = (bin_of_node >= 0) & (k >= 2)
    dense = active & (k * k > c * (2 * h) * (2 * w))
    grids = np.zeros((n_bins, gh, gw), dtype=np.int64)

    # Pair path. dy * gw + dx is the difference of y * gw + x, so one outer
    # difference gives every pair's flat cell; bin b's grid starts at b * cells.
    x, y, ch = pixel_coords(np.arange(geom.input_size), geom)
    pos = y * gw + x
    center = (h - 1) * gw + (w - 1)
    offsets = []
    for j in np.flatnonzero(active & ~dense):
        idx = np.flatnonzero(mask_matrix[:, j])
        same_c = ch[idx][None, :] == ch[idx][:, None]
        off = pos[idx][None, :] - pos[idx][:, None] + (center + int(bin_of_node[j]) * cells)
        offsets.append(off[same_c] if channel_mode == "same" else off[~same_c])
    if offsets:
        grids += np.bincount(np.concatenate(offsets), minlength=n_bins * cells).reshape(grids.shape)

    # Transform path; see locality_map. Sorting by bin makes each bin one run
    # of columns in every chunk.
    nodes = np.flatnonzero(dense)
    if nodes.size:
        nodes = nodes[np.argsort(bin_of_node[nodes], kind="stable")]
        angle = (np.pi / w) * np.outer(np.arange(w + 1), np.arange(w))
        # rows (kx, part): the real and the imaginary part of the length-2W DFT
        dft = np.stack([np.cos(angle), -np.sin(angle)], axis=1).reshape(2 * (w + 1), w)
        spectra = np.zeros((n_bins, 2, w + 1, gh))  # P(dy, kx): real part, imaginary part
        chunk = max(1, _DFT_CHUNK_CELLS // (w * h * c))
        for start in range(0, nodes.size, chunk):
            part = nodes[start : start + chunk]
            # transposed as bytes, then cast: a transposing cast takes twice as long
            images = mask_matrix[:, part].reshape(c, h, w, part.size).transpose(2, 1, 3, 0)
            images = np.ascontiguousarray(images).astype(np.float64).reshape(w, -1)
            part_bins = bin_of_node[part]
            starts = np.flatnonzero(np.r_[True, part_bins[1:] != part_bins[:-1]])
            runs = list(zip(starts, np.r_[starts[1:], part.size]))
            group = max(1, _DFT_GROUP_CELLS // (2 * h * part.size * c))
            for k0 in range(0, w + 1, group):
                k1 = min(k0 + group, w + 1)
                # f[kx, (part, y), node, channel]: the x-spectrum of every image row
                f = (dft[2 * k0 : 2 * k1] @ images).reshape(k1 - k0, 2 * h, part.size, c)
                for lo, hi in runs:
                    z = f[:, :, lo:hi].reshape(k1 - k0, 2 * h, -1)
                    gram = z @ z.transpose(0, 2, 1)
                    if channel_mode == "different":
                        total = f[:, :, lo:hi].sum(axis=3)
                        gram = np.subtract(total @ total.transpose(0, 2, 1), gram, out=gram)
                    spectra[part_bins[lo], :, k0:k1] += _diagonal_sums(gram, h)
        corr = np.fft.irfft(spectra[:, 0] + 1j * spectra[:, 1], n=2 * w, axis=1)
        corr = np.roll(corr, w - 1, axis=1)[:, :gw].transpose(0, 2, 1)
        counts = np.rint(corr)
        residual = float(np.abs(corr - counts).max())
        if residual > 0.25:
            raise RuntimeError(f"transform locality grid is {residual} away from integer counts")
        grids += counts.astype(np.int64)

    if channel_mode == "same":
        # both paths also paired every surviving input with itself at d = 0
        grids[:, h - 1, w - 1] -= np.bincount(
            bin_of_node[active], weights=k[active], minlength=n_bins
        ).astype(np.int64)
    return grids


def locality_map(mask_matrix: np.ndarray, geom: ImageGeometry, channel_mode: str) -> LocalityMap:
    """Count, per displacement d = (x'-x, y'-y), ordered pairs of distinct
    surviving inputs that feed the same node.

    mask_matrix is any binary (input_size, n_nodes) matrix: the first hidden
    layer's mask or an effective deep-layer mask. Mode "same" pairs inputs of
    the same channel (d = 0 is impossible there); mode "different" pairs
    inputs of different channels and allows d = 0.

    A node with k surviving inputs takes one of two exact paths. When k^2
    is at most C*(2H)*(2W), its k^2 pair displacements are enumerated, and
    one bincount counts them for all such nodes. Otherwise the node takes
    the transform path, whose work is BLAS products over all such nodes:

    - Along x, a grid row is the autocorrelation of zero-padded image rows
      of length 2W (so no dx wraps around), taken in the Fourier domain: one
      product of a [cos; -sin] DFT matrix with the nodes' images, laid out
      as (x, (y, node, channel)), gives F[kx, y] for every row.
    - Along y the sum is direct. For each kx, the Gram over the (node,
      channel) columns of the rows (Re F, Im F) gives G[y', y] = sum F[y']
      conj(F[y]) as Qr = Re Re^T + Im Im^T and Qi = Im Re^T - (Im Re^T)^T;
      mode "different" takes the Gram of the channel sums minus this
      same-channel one. G summed along its diagonals y' - y = dy (the
      column sums of a skewed copy) is P(dy, kx), and one irfft along kx
      per bin, rolled by W - 1 and cropped, gives the grid.

    Every intermediate is a float64 sum of products of 0/1 inputs with
    sines and cosines, and the counts are integers of at most
    n_nodes*(C*H*W)^2, far inside float64's exact range. The rounding error
    of the products and the inverse transform is orders of magnitude below
    0.5, so np.rint recovers the counts exactly, and a residual above 0.25
    raises. Nodes are taken in chunks whose float64 images hold at most
    _DFT_CHUNK_CELLS cells, and x-frequencies in groups whose spectra hold
    at most _DFT_GROUP_CELLS cells (or one frequency's, if more); a group's
    Gram and skewed copy hold 8H^2 cells per frequency. So the working
    memory is bounded whatever the node count.
    """
    return locality_map_binned(mask_matrix, geom, channel_mode, [0])[0]


def locality_map_binned(
    mask_matrix: np.ndarray, geom: ImageGeometry, channel_mode: str, bin_edges
) -> list:
    """One LocalityMap per connectivity bin.

    bin_edges are ascending lower bounds; bin i holds nodes with surviving
    count in [edges[i], edges[i+1]), the last bin is unbounded above. Nodes
    below edges[0] belong to no bin. Edges must be integers (numpy integers
    included); any other value is refused rather than truncated.
    """
    edges = list(bin_edges)
    try:
        edges = [operator.index(e) for e in edges]
    except TypeError:
        raise ValueError(f"bin_edges must be integers, got {edges!r}") from None
    if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bin_edges must be non-empty and strictly ascending")
    grids = _locality_grids(_check_mask(mask_matrix, geom, channel_mode), geom, channel_mode, edges)
    return [LocalityMap(g, channel_mode, geom.width, geom.height) for g in grids]


def effective_masks(mask_chain) -> np.ndarray:
    """Binary reachability from input pixels to the nodes of a deeper layer.

    Entry (i, j) is 1 iff some chain of surviving weights connects input i to
    node j through the given consecutive masks (boolean matrix product).
    Returns a uint8 (input_size, n_nodes) matrix.

    The products run in float32 through BLAS. The path counts are exact
    while below 2^24, and in any case every term is 0 or 1, so a float sum
    is 0 exactly when no path exists.
    """
    if not mask_chain:
        raise ValueError("need at least one mask")
    acc = np.asarray(mask_chain[0])  # one mask is its own effective mask
    for m in mask_chain[1:]:
        m = np.asarray(m)
        if m.shape[0] != acc.shape[1]:
            raise ValueError(f"mask shapes do not chain: {acc.shape} then {m.shape}")
        acc = (acc @ m.astype(np.float32) > 0).astype(np.float32)
    return (acc > 0).astype(np.uint8)


def ablation_curve(params: ParamSet, masks: MaskSet, ds, order: str, step_counts) -> list:
    """Accuracy after zeroing the first-hidden-layer nodes in connectivity order.

    order "ascending" removes least-connected nodes first, "descending" most-
    connected first; ties go to the lower node index. No retraining happens;
    each entry of step_counts gives one (removed_count, accuracy) point, and
    every count is checked before any evaluation. The curve is
    ``ablation_curves``'s for this one order.

    Each accuracy equals, bit for bit, ``accuracy`` on a copy of the masks
    whose removed nodes' incoming columns are zeroed, although the network is
    not run once per count. The plan is fixed before any evaluation: a count
    ablates the set of its removed nodes that are live (some incoming weight
    survives), and each distinct set is scored once, whatever order and
    count name it. Over the 1000-image chunks of ``accuracy``, the layer-1
    pass (product, bias, batch norm, ReLU) runs once per chunk, and each set
    then only overwrites its columns of that activation before layers 2 and
    up run. This is exact because:

    - an ablated node's incoming column is all zero, so its eval
      pre-activation is ``±0 + b1[j] == b1[j]`` for every image, and column j
      of a matrix product of unchanged shape does not depend on the other
      columns;
    - eval-mode batch norm and ReLU act on each column alone, so the
      overwritten value, the same layer applied to a one-row copy of ``b1``,
      comes from the same IEEE operations on the same numbers;
    - a dead node's column already holds ``b1[j]``, so ablating it changes
      nothing and it is left out of the set.

    The distinct sets of each chunk are split between two lanes when the
    process may run on two or more cores: the calling thread scores the
    even-indexed sets and one worker thread, joined before the next chunk,
    the odd ones. Each lane writes only into buffers the calling thread
    allocated for it (its activations, pre-activations and logits), and a
    set's count depends only on the shared read-only arrays and its own
    lane's buffers, so it is the same integer on either lane and the curves
    do not depend on the lane count. On one core, or with one set, the same
    code runs in one lane.
    """
    return ablation_curves(params, masks, ds, (order,), step_counts)[order]


def ablation_curves(params: ParamSet, masks: MaskSet, ds, orders, step_counts) -> dict:
    """``{order: ablation_curve(params, masks, ds, order, step_counts)}`` for
    each order, from one pass over ds that scores each distinct set of live
    ablated nodes once (see ``ablation_curve``). Every order and count is
    checked before any evaluation."""
    for order in orders:
        if order not in ("ascending", "descending"):
            raise ValueError(f"order must be 'ascending' or 'descending', got {order!r}")
    incoming = masks.masks[0].sum(axis=0, dtype=np.int64)
    n_nodes = incoming.size
    counts = [int(count) for count in step_counts]
    for count in counts:
        if not 0 <= count <= n_nodes:
            raise ValueError(f"cannot remove {count} of {n_nodes} nodes")
    if not counts:
        return {order: [] for order in orders}

    # the plan: every (order, count) names its sorted set of live removed nodes
    live = incoming > 0
    sets, index = [], {}  # distinct node arrays; their bytes -> position in sets
    plan = {order: [] for order in orders}  # order -> the position of each count's set
    for order in orders:
        ranked = np.argsort(incoming if order == "ascending" else -incoming, kind="stable")
        for count in counts:
            removed = ranked[:count]
            nodes = np.sort(removed[live[removed]])
            key = nodes.tobytes()
            if key not in index:
                index[key] = len(sets)
                sets.append(nodes)
            plan[order].append(index[key])

    chunks = _eval_chunks(ds)
    _check_net(params, masks, ds.images)
    weights = _masked_weights(params, masks)
    b1 = params.biases[0]
    # z1's dtype; the parameters share one dtype, so every later layer has it too
    dtype = np.result_type(ds.images, weights[0], b1)
    ablated = _hidden_layer(params, 0, np.array(b1[None, :], dtype=dtype), "eval")[-1][0]
    n_lanes = _lanes(len(sets))
    # each lane's own buffers, at chunk size: an activation buffer, which
    # starts as the ablated copy of the layer-1 activation, a pre-activation
    # buffer, and the logits; each layer reads one and writes the other
    rows, dims = len(ds.labels[chunks[0]]), params.dims
    size = rows * max(dims[1:-1])
    buffers = [(np.empty(size, dtype), np.empty(size, dtype), np.empty((rows, dims[-1]), dtype))
               for _ in range(n_lanes)]
    correct = [0] * len(sets)

    def score(lane, a1, labels):
        """Count the correct predictions of this chunk under every n_lanes-th set."""
        act_buf, z_buf, logits = buffers[lane]
        n, logits = len(a1), logits[: len(a1)]

        def view(buf, width):
            return buf[: n * width].reshape(n, width)

        for s in range(lane, len(sets), n_lanes):
            act = view(act_buf, dims[1])
            np.copyto(act, a1)
            act[:, sets[s]] = ablated[sets[s]]
            for l in range(1, params.n_hidden):
                z = np.matmul(act, weights[l], out=view(z_buf, dims[l + 1]))
                z += params.biases[l]
                act = _hidden_layer(params, l, z, "eval", out=view(act_buf, dims[l + 1]))[-1]
            np.matmul(act, weights[-1], out=logits)
            logits += params.biases[-1]
            correct[s] += int(np.count_nonzero(np.argmax(logits, axis=1) == labels))

    for chunk in chunks:
        z1 = ds.images[chunk] @ weights[0] + b1
        a1 = _hidden_layer(params, 0, z1, "eval")[-1]
        _run_lanes(lambda lane: score(lane, a1, ds.labels[chunk]), n_lanes)
    return {order: [(count, correct[s] / len(ds)) for count, s in zip(counts, plan[order])]
            for order in orders}


def binomial_reference(n_prev: int, u: float, k_max: int) -> np.ndarray:
    """Binomial(n_prev, u) pmf for k = 0..k_max, computed in log space.

    This is the connectivity distribution a uniformly random mask of density
    u would give a node with n_prev potential inputs.
    """
    if n_prev < 1:
        raise ValueError("n_prev must be >= 1")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    pmf = np.zeros(k_max + 1)
    if u == 0.0:
        pmf[0] = 1.0
        return pmf
    if u == 1.0:
        if n_prev <= k_max:
            pmf[n_prev] = 1.0
        return pmf
    log_u = math.log(u)
    log_1mu = math.log1p(-u)
    lg_n = math.lgamma(n_prev + 1)
    for k in range(min(k_max, n_prev) + 1):
        log_pk = (
            lg_n - math.lgamma(k + 1) - math.lgamma(n_prev - k + 1)
            + k * log_u + (n_prev - k) * log_1mu
        )
        pmf[k] = math.exp(log_pk)
    return pmf
