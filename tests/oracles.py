"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (scalar loops,
brute-force pair enumeration, double precision) and shares no code with the
package under test.
"""

import numpy as np

from ticketsift.datasets import pixel_coords
from ticketsift.network import ParamSet, forward, loss_and_grads


def finite_diff_grads(params, masks, batch, labels, step=1e-5):
    """Central finite differences of the batch loss for every trainable array.

    Runs in double precision on deep copies; returns {(group, layer): grads}
    for groups weights/biases/gamma/beta.
    """

    def loss_at(group, l, i, delta):
        p2 = params.copy()  # throwaway: running-stat updates die with it
        getattr(p2, group)[l].reshape(-1)[i] += delta
        loss, _ = loss_and_grads(p2, masks, batch, labels)
        return loss

    out = {}
    for group in ("weights", "biases", "gamma", "beta"):
        for l, arr in enumerate(getattr(params, group)):
            g = np.zeros(arr.size, dtype=np.float64)
            for i in range(arr.size):
                g[i] = (loss_at(group, l, i, +step) - loss_at(group, l, i, -step)) / (2 * step)
            out[(group, l)] = g.reshape(arr.shape)
    return out


def max_relative_error(analytic, numeric, floor=1e-6):
    # the floor keeps analytically-zero gradients (e.g. biases under batch
    # norm) from amplifying finite-difference cancellation noise
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def brute_force_prune(weights, mask, fraction):
    """Sort-and-select oracle for one layer: remove the floor(fraction * count)
    surviving entries of smallest |w|, ties broken by ascending flat index."""
    flat_w = weights.ravel()
    flat_m = mask.ravel().copy()
    surviving = [i for i in range(flat_m.size) if flat_m[i] == 1]
    k = int(np.floor(fraction * len(surviving)))
    ranked = sorted(surviving, key=lambda i: (abs(flat_w[i]), i))
    for i in ranked[:k]:
        flat_m[i] = 0
    return flat_m.reshape(mask.shape)


def brute_force_locality(mask_matrix, geom, channel_mode):
    """O(k^2) per node enumeration of ordered surviving-input pairs."""
    w, h = geom.width, geom.height
    grid = np.zeros((2 * h - 1, 2 * w - 1), dtype=np.int64)
    plane = w * h
    for j in range(mask_matrix.shape[1]):
        idx = np.flatnonzero(mask_matrix[:, j])
        coords = []
        for i in idx:
            c, rem = divmod(int(i), plane)
            y, x = divmod(rem, w)
            coords.append((x, y, c))
        for a, (xa, ya, ca) in enumerate(coords):
            for b, (xb, yb, cb) in enumerate(coords):
                if a == b:
                    continue
                same = ca == cb
                if (channel_mode == "same") != same:
                    continue
                grid[yb - ya + h - 1, xb - xa + w - 1] += 1
    return grid


def brute_force_effective(mask_chain):
    """Reachability by explicit path search through the mask chain."""
    reach = np.asarray(mask_chain[0]) != 0
    for m in mask_chain[1:]:
        m = np.asarray(m) != 0
        n_in, n_out = reach.shape[0], m.shape[1]
        nxt = np.zeros((n_in, n_out), dtype=bool)
        for i in range(n_in):
            for j in range(n_out):
                nxt[i, j] = any(reach[i, k] and m[k, j] for k in range(m.shape[0]))
        reach = nxt
    return reach.astype(np.uint8)


def scalar_forward_logits(params, masks, batch, eps=1e-5):
    """Pure-Python train-mode forward pass (batch statistics), double precision."""
    import math

    batch = [[float(v) for v in row] for row in np.asarray(batch)]
    n = len(batch)
    a = batch
    n_hidden = len(params.weights) - 1
    for l in range(n_hidden):
        w = params.weights[l]
        m = masks.masks[l]
        width = w.shape[1]
        z = [[sum(a[r][i] * float(w[i, j]) * int(m[i, j]) for i in range(w.shape[0]))
              + float(params.biases[l][j]) for j in range(width)] for r in range(n)]
        nxt = []
        means = [sum(z[r][j] for r in range(n)) / n for j in range(width)]
        variances = [sum((z[r][j] - means[j]) ** 2 for r in range(n)) / n for j in range(width)]
        for r in range(n):
            row = []
            for j in range(width):
                x_hat = (z[r][j] - means[j]) / math.sqrt(variances[j] + eps)
                bn = float(params.gamma[l][j]) * x_hat + float(params.beta[l][j])
                row.append(max(bn, 0.0))
            nxt.append(row)
        a = nxt
    w = params.weights[-1]
    return np.array(
        [[sum(a[r][i] * float(w[i, j]) for i in range(w.shape[0])) + float(params.biases[-1][j])
          for j in range(w.shape[1])] for r in range(n)]
    )


def textbook_loss_and_grads(params, masks, batch, labels, eps=1e-5):
    """Train-mode mean cross-entropy and its gradient, double precision, by the
    textbook batch-norm backward: d_x_hat = gamma * d_bn and
    d_z = inv_std / n * (n * d_x_hat - sum(d_x_hat) - x_hat * sum(d_x_hat * x_hat)).

    Returns (loss, {(group, layer): grad}) for groups weights/biases/gamma/beta.
    """
    f64 = lambda v: np.asarray(v, dtype=np.float64)
    n_hidden = len(params.weights) - 1
    weights = [f64(w) * f64(m) for w, m in zip(params.weights, masks.masks)] + [f64(params.weights[-1])]
    a = f64(batch)
    n = a.shape[0]
    inputs, x_hats, inv_stds, pre_relu = [], [], [], []
    for l in range(n_hidden):
        inputs.append(a)
        z = a @ weights[l] + f64(params.biases[l])
        mu = z.sum(axis=0) / n
        var = ((z - mu) ** 2).sum(axis=0) / n
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (z - mu) * inv_std
        bn = f64(params.gamma[l]) * x_hat + f64(params.beta[l])
        x_hats.append(x_hat)
        inv_stds.append(inv_std)
        pre_relu.append(bn)
        a = np.where(bn > 0, bn, 0.0)
    inputs.append(a)
    logits = a @ weights[-1] + f64(params.biases[-1])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    prob = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    loss = float(-np.log(prob[rows, labels]).sum() / n)

    grads = {}
    d = prob.copy()
    d[rows, labels] -= 1.0
    d /= n
    grads[("weights", n_hidden)] = inputs[-1].T @ d
    grads[("biases", n_hidden)] = d.sum(axis=0)
    d_a = d @ weights[-1].T
    for l in reversed(range(n_hidden)):
        d_bn = np.where(pre_relu[l] > 0, d_a, 0.0)
        x_hat = x_hats[l]
        grads[("gamma", l)] = (d_bn * x_hat).sum(axis=0)
        grads[("beta", l)] = d_bn.sum(axis=0)
        d_x_hat = f64(params.gamma[l]) * d_bn
        d_z = inv_stds[l] / n * (
            n * d_x_hat - d_x_hat.sum(axis=0) - x_hat * (d_x_hat * x_hat).sum(axis=0)
        )
        grads[("weights", l)] = (inputs[l].T @ d_z) * f64(masks.masks[l])
        grads[("biases", l)] = d_z.sum(axis=0)
        d_a = d_z @ weights[l].T
    return loss, grads


def one_shot_synthetic(geom, n_per_class, patch, n_classes, noise_sd, seed):
    """(images, labels) of generate_synthetic made in one piece: the noise is
    one full-size standard-normal draw added at once, between the class
    patterns and the permutation, as the generator's stream order requires."""
    x0, y0, pw, ph = patch
    plane = geom.height * geom.width
    patch_idx = np.array([c * plane + y * geom.width + x
                          for c in range(geom.channels)
                          for y in range(y0, y0 + ph)
                          for x in range(x0, x0 + pw)])
    rng = np.random.default_rng(seed)
    patterns = rng.uniform(0.0, 1.0, size=(n_classes, patch_idx.size)).astype(np.float32)
    n = n_classes * n_per_class
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    images = np.full((n, geom.input_size), 0.5, dtype=np.float32)
    images[:, patch_idx] = patterns[labels]
    if noise_sd > 0:
        images += noise_sd * rng.standard_normal(images.shape, dtype=np.float32)
    np.clip(images, 0.0, 1.0, out=images)
    perm = rng.permutation(n)
    return images[perm], labels[perm]


def split_by_take(ds, n_val, seed):
    """(train, val) of split_train_val as two gathers of sorted row indices:
    val takes the first n_val entries of the seeded permutation, train the rest."""
    perm = np.random.default_rng(seed).permutation(len(ds))
    return ds.take(np.sort(perm[n_val:])), ds.take(np.sort(perm[:n_val]))


def quantize_whole(images):
    """Pixel bytes of float32 images in [0, 1], converted as one array."""
    return np.floor(images * 255.0 + 0.5).astype(np.uint8)


def bytes_to_unit_float(raw):
    """Pixel bytes as float32 in [0, 1]: convert the whole array, then divide."""
    return np.asarray(raw, dtype=np.uint8).astype(np.float32) / 255.0


def to_float64(params):
    """Double-precision copy of a ParamSet (for finite-difference work)."""
    return ParamSet(params.dims, params._flat.astype(np.float64))


def translate_wrap(batch, geom, shift):
    """Cyclic shift of every flat image of batch by the one (dx, dy), the same
    for all channels, by np.roll: (1, 0) sends pixel column W-1 to column 0."""
    dx, dy = shift
    arr = np.asarray(batch)
    planes = arr.reshape(-1, geom.channels, geom.height, geom.width)
    return np.roll(planes, shift=(dy, dx), axis=(2, 3)).reshape(arr.shape)


def ablate_nodes(masks, layer, nodes):
    """Copy of masks with the incoming mask columns of the given nodes of hidden
    layer ``layer`` (1-based) zeroed; already-pruned nodes may be listed."""
    out = masks.copy()
    out.masks[layer - 1][:, np.asarray(nodes, dtype=np.int64)] = 0
    return out


def locality_csv_text(grid):
    """Displacement CSV text of a 2-D grid with odd sides: every cell's
    (dx, dy) offset from the centre taken from np.indices, each line written
    with one %s per field."""
    gh, gw = grid.shape
    dy, dx = np.indices(grid.shape).reshape(2, -1) - np.array([[(gh - 1) // 2], [(gw - 1) // 2]])
    rows = zip(dx.tolist(), dy.tolist(), grid.astype(np.int64).ravel().tolist())
    return "dx,dy,count\n" + "".join("%s,%s,%s\n" % row for row in rows)


def pixmap_csv_text(values, geom):
    """Pixmap CSV text: pixel_coords columns (checked against scalar loops in
    test_datasets) of every flat input index zipped with its count, each line
    written with one %s per field."""
    columns = pixel_coords(np.arange(values.size), geom)
    rows = zip(*(a.tolist() for a in columns), values.tolist())
    return "x,y,c,count\n" + "".join("%s,%s,%s,%s\n" % row for row in rows)
