"""Image dataset loading, generation, relabeling, and spatial transforms.

Every dataset stores images as flat float32 rows in [0, 1] using the canonical
input layout

    index = c * H * W + y * W + x

so input index i of a flattened image corresponds to pixel (x, y) of channel c.
All exporters in this package document the same layout.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
# generate_synthetic draws its noise, and the writers quantize, in row blocks of
# about this many bytes, so each holds one block beside its full-size images.
BLOCK_BYTES = 1 << 20


def _write_whole(path, chunks) -> None:
    """Write bytes-like chunks (bytes, or C-contiguous arrays), taken one at a
    time, to path.tmp and rename it over path; on any exception remove path.tmp
    and re-raise. No fsync: this guards against a killed process, not a power cut."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _row_blocks(n: int, width: int) -> list:
    """Slices, in order, that cover n float32 rows of width values in blocks of about BLOCK_BYTES."""
    rows = max(1, BLOCK_BYTES // (4 * width))
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


def _pixel_blocks(images: np.ndarray):
    """(rows, pixel bytes floor(v * 255 + 0.5)) of images, one row block at a time."""
    for rows in _row_blocks(len(images), images.shape[1]):
        scaled = images[rows] * 255.0
        yield rows, np.floor(np.add(scaled, 0.5, out=scaled), out=scaled).astype(np.uint8)


def _permute_rows(images: np.ndarray, order) -> None:
    """Set images[j] to the old images[order[j]] for every j, in place: follows the cycles of
    order with one row held aside, moving rows as bytes (cheaper than numpy indexing)."""
    w = images.shape[1] * images.itemsize
    order, buf, row = order.tolist(), memoryview(images).cast("B"), bytearray(w)
    for start, k in enumerate(order):  # a moved row's entry reads -1
        if k >= 0:
            row[:], j = buf[start * w:(start + 1) * w], start
            while k != start:
                buf[j * w:(j + 1) * w] = buf[k * w:(k + 1) * w]
                order[j], j = -1, k
                k = order[j]
            buf[j * w:(j + 1) * w], order[j] = row, -1


@dataclass(frozen=True)
class ImageGeometry:
    """Spatial shape of the input plane; channels is 1 (gray) or 3 (RGB)."""

    width: int
    height: int
    channels: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image sides must be >= 1, got {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")

    @property
    def input_size(self) -> int:
        return self.width * self.height * self.channels


def pixel_index(x: int, y: int, c: int, geom: ImageGeometry) -> int:
    """Flat input index of pixel (x, y) in channel c under the canonical layout."""
    if not (0 <= x < geom.width and 0 <= y < geom.height and 0 <= c < geom.channels):
        raise ValueError(f"pixel ({x}, {y}, {c}) outside geometry {geom}")
    return c * geom.height * geom.width + y * geom.width + x


def pixel_coords(i, geom: ImageGeometry):
    """Inverse of pixel_index: (x, y, c) of flat input index i. Accepts arrays."""
    i = np.asarray(i)
    if i.size and (i.min() < 0 or i.max() >= geom.input_size):
        raise ValueError("input index outside geometry")
    plane = geom.height * geom.width
    c, rem = np.divmod(i, plane)
    y, x = np.divmod(rem, geom.width)
    return x, y, c


def patch_input_indices(geom: ImageGeometry, patch) -> np.ndarray:
    """Flat input indices (all channels) of the rectangle patch = (x0, y0, w, h)."""
    x0, y0, pw, ph = patch
    if pw < 1 or ph < 1:
        raise ValueError(f"patch sides must be >= 1, got {pw}x{ph}")
    if x0 < 0 or y0 < 0 or x0 + pw > geom.width or y0 + ph > geom.height:
        raise ValueError(f"patch {patch} does not fit inside {geom.width}x{geom.height}")
    cs, ys, xs = np.meshgrid(
        np.arange(geom.channels), np.arange(y0, y0 + ph), np.arange(x0, x0 + pw),
        indexing="ij",
    )
    plane = geom.height * geom.width
    return (cs * plane + ys * geom.width + xs).ravel()


@dataclass
class ImageDataset:
    """Labeled images as flat rows."""

    geometry: ImageGeometry
    images: np.ndarray  # (N, input_size) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64, each < n_classes
    n_classes: int

    def __post_init__(self) -> None:
        self.images = np.ascontiguousarray(self.images, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[1] != self.geometry.input_size:
            raise ValueError(
                f"images must be (N, {self.geometry.input_size}), got {self.images.shape}"
            )
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels must be one per image")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if self.labels.size:
            if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
                raise ValueError("labels must lie in [0, n_classes)")
        if self.images.size:
            lo, hi = float(self.images.min()), float(self.images.max())
            if not (lo >= 0.0 and hi <= 1.0):
                raise ValueError(f"pixel values must lie in [0, 1], got [{lo}, {hi}]")

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, indices: np.ndarray) -> "ImageDataset":
        return ImageDataset(self.geometry, self.images[indices], self.labels[indices], self.n_classes)


def _read_idx(path, magic: int, ndim: int) -> np.ndarray:
    data = Path(path).read_bytes()
    header = 4 + 4 * ndim
    if len(data) < header:
        raise ValueError(f"truncated IDX file {path}: header incomplete")
    got = struct.unpack(">I", data[:4])[0]
    if got != magic:
        raise ValueError(f"bad IDX magic {got:#010x} in {path}, expected {magic:#010x}")
    dims = struct.unpack(f">{ndim}I", data[4:header])
    count = math.prod(dims)
    if len(data) != header + count:
        raise ValueError(
            f"IDX file {path} has {len(data) - header} payload bytes, expected {count}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def _scale_bytes(raw: np.ndarray, out: np.ndarray) -> None:
    """out = raw / 255 in float32 (each byte b to float32(b) / float32(255)),
    written straight into out with no full-size temporary."""
    np.divide(raw, np.float32(255.0), out=out, dtype=np.float32)


def load_idx(images_path, labels_path) -> ImageDataset:
    """Load a big-endian IDX image/label file pair (single channel).

    Pixel bytes are scaled straight into the one float32 image array.
    """
    raw = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if raw.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image/label count mismatch: {raw.shape[0]} images, {labels.shape[0]} labels"
        )
    if raw.shape[0] == 0:
        raise ValueError(f"IDX file {images_path} contains no images")
    geom = ImageGeometry(width=raw.shape[2], height=raw.shape[1], channels=1)
    images = np.empty((raw.shape[0], geom.input_size), dtype=np.float32)
    _scale_bytes(raw.reshape(raw.shape[0], -1), images)
    labels = labels.astype(np.int64)
    return ImageDataset(geom, images, labels, n_classes=int(labels.max()) + 1)


def _idx_label_chunks(labels: np.ndarray, n_classes: int) -> list:
    """The chunks of an IDX label file of labels, each < n_classes, as single bytes."""
    if n_classes > 256:
        raise ValueError(f"IDX labels are single bytes; need n_classes <= 256, got {n_classes}")
    return [struct.pack(">II", IDX_LABEL_MAGIC, labels.size), labels.astype(np.uint8)]


def save_idx(ds: ImageDataset, images_path, labels_path) -> None:
    """Write a single-channel dataset as an IDX image/label pair, the images
    first, so a failed image write leaves both earlier files as they were."""
    if ds.geometry.channels != 1:
        raise ValueError("IDX export supports single-channel images only")
    label_chunks = _idx_label_chunks(ds.labels, ds.n_classes)
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, len(ds), ds.geometry.height, ds.geometry.width)
    _write_whole(images_path, itertools.chain([header], (pixels for _, pixels in _pixel_blocks(ds.images))))
    _write_whole(labels_path, label_chunks)


def load_cifar_binary(paths) -> ImageDataset:
    """Load CIFAR-style binary batches: 3073-byte records, channel-planar pixels.

    The record pixel order (channel plane, then rows) matches the canonical
    layout directly, so bytes map onto flat rows without reordering. The
    images are allocated once from the file sizes, and each file's records
    are scaled straight into their own rows, so only one file's bytes are
    held beside the result.
    """
    if not paths:
        raise ValueError("no CIFAR batch files given")
    counts = [_cifar_record_count(path) for path in paths]
    n = sum(counts)
    geom = ImageGeometry(width=32, height=32, channels=3)
    images = np.empty((n, geom.input_size), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for path, count in zip(paths, counts):
        recs = _read_cifar_records(path, count)
        end = row + count
        labels[row:end] = recs[:, 0]
        _scale_bytes(recs[:, 1:], images[row:end])
        row = end
    return ImageDataset(geom, images, labels, n_classes=10)


def _cifar_record_count(path) -> int:
    """Records in a CIFAR batch file, from its size; refuses a size that is not
    a positive multiple of CIFAR_RECORD_BYTES."""
    size = Path(path).stat().st_size
    if size == 0 or size % CIFAR_RECORD_BYTES != 0:
        raise ValueError(
            f"CIFAR file {path} has {size} bytes, not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    return size // CIFAR_RECORD_BYTES


def _read_cifar_records(path, count: int) -> np.ndarray:
    """The count records of a CIFAR batch file (see _cifar_record_count) as a
    read-only (count, CIFAR_RECORD_BYTES) uint8 array: label byte, then pixels."""
    data = Path(path).read_bytes()
    if len(data) != count * CIFAR_RECORD_BYTES:
        raise ValueError(f"CIFAR file {path} changed size while being read")
    return np.frombuffer(data, dtype=np.uint8).reshape(count, CIFAR_RECORD_BYTES)


def save_cifar_binary(ds: ImageDataset, path) -> None:
    """Write a 32x32 RGB dataset as one CIFAR-style binary batch."""
    if (ds.geometry.width, ds.geometry.height, ds.geometry.channels) != (32, 32, 3):
        raise ValueError("CIFAR export requires 32x32 RGB geometry")
    if ds.n_classes > 10:
        raise ValueError("CIFAR labels must be < 10")
    _write_whole(path, (np.concatenate([ds.labels[rows].astype(np.uint8)[:, None], pixels], axis=1)
                        for rows, pixels in _pixel_blocks(ds.images)))


def generate_synthetic(
    geom: ImageGeometry,
    n_per_class: int,
    patch,
    n_classes: int,
    noise_sd: float,
    seed: int,
) -> ImageDataset:
    """Dataset whose label is decodable only from pixels inside ``patch``.

    Each class gets a fixed random pattern over the patch; outside the patch
    every pixel is mid-gray background. The same i.i.d. Gaussian noise is
    added everywhere, so pixels outside the patch carry no label information
    and with noise_sd=0 all images of a class are identical.

    The noise is drawn and added in row blocks of about BLOCK_BYTES; the
    blocks take the generator's draws in row order, so the images equal
    those of one full-size draw; the closing shuffle moves rows in place.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if n_per_class < 1:
        raise ValueError("need at least 1 image per class")
    if not noise_sd >= 0:
        raise ValueError("noise_sd must be >= 0")
    patch_idx = patch_input_indices(geom, patch)
    rng = np.random.default_rng(seed)
    patterns = rng.uniform(0.0, 1.0, size=(n_classes, patch_idx.size)).astype(np.float32)
    for a in range(n_classes):  # distinct patterns; collisions have measure zero
        for b in range(a + 1, n_classes):
            if np.array_equal(patterns[a], patterns[b]):
                raise RuntimeError("drew identical class patterns; change the seed")
    n = n_classes * n_per_class
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    images = np.full((n, geom.input_size), 0.5, dtype=np.float32)
    for rows in _row_blocks(n, geom.input_size):
        block = images[rows]
        block[:, patch_idx] = patterns[labels[rows]]
        if noise_sd > 0:
            noise = rng.standard_normal(block.shape, dtype=np.float32)
            block += np.multiply(noise, noise_sd, out=noise)
        np.clip(block, 0.0, 1.0, out=block)
    perm = rng.permutation(n)
    _permute_rows(images, perm)
    return ImageDataset(geom, images, labels[perm], n_classes)


def subsample(ds: ImageDataset, fraction: float, seed: int) -> ImageDataset:
    """Keep floor(fraction * N) images drawn uniformly without replacement.

    Selected images keep their original relative order, so fraction=1.0 is the
    identity.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = math.floor(fraction * len(ds))
    if n == 0:
        raise ValueError(f"subsampling {len(ds)} images at {fraction} leaves none")
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(len(ds), size=n, replace=False))
    return ds.take(keep)


@dataclass(frozen=True)
class ClassMapping:
    """Lookup table sending original label k to macro class table[k]."""

    n_macro: int
    table: tuple

    def __post_init__(self) -> None:
        if self.n_macro < 1:
            raise ValueError("n_macro must be >= 1")
        if any(not (0 <= t < self.n_macro) for t in self.table):
            raise ValueError("mapping entries must lie in [0, n_macro)")
        hit = set(self.table)
        missing = [m for m in range(self.n_macro) if m not in hit]
        if missing:
            raise ValueError(f"macro classes {missing} receive no original class")


def load_class_mapping(path) -> ClassMapping:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"mapping file {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict) or set(data) != {"n_macro", "table"}:
        raise ValueError(f"mapping file {path} must hold exactly n_macro and table")
    n_macro, table = data["n_macro"], data["table"]
    # type(x) is int: JSON true/false load as bool, an int subclass
    if type(n_macro) is not int or type(table) is not list or any(type(t) is not int for t in table):
        raise ValueError(f"mapping file {path} must give an integer n_macro and a list of integers")
    return ClassMapping(n_macro=n_macro, table=tuple(table))


def _cluster_labels(labels: np.ndarray, mode: str, mapping: ClassMapping | None):
    """(macro labels, macro class count) of int64 labels; see cluster_classes."""
    if mode == "random":
        return labels % 10, 10
    if mode != "semantic":
        raise ValueError(f"unknown clustering mode {mode!r}")
    if mapping is None:
        raise ValueError("semantic clustering requires a class mapping")
    if labels.size and int(labels.max()) >= len(mapping.table):
        raise ValueError(
            f"mapping covers labels < {len(mapping.table)} "
            f"but the data contains label {int(labels.max())}"
        )
    return np.asarray(mapping.table, dtype=np.int64)[labels], mapping.n_macro


def cluster_classes(ds: ImageDataset, mode: str, mapping: ClassMapping | None = None) -> ImageDataset:
    """Coarsen labels: mode "random" takes label mod 10, "semantic" uses a table."""
    new_labels, n_macro = _cluster_labels(ds.labels, mode, mapping)
    return ImageDataset(ds.geometry, ds.images, new_labels, n_macro)


def cluster_idx_labels(src, out, mode: str, mapping: ClassMapping | None = None) -> None:
    """Write the labels of IDX label file src, coarsened as by cluster_classes, to out.
    Every refusal comes before out is opened."""
    labels = _read_idx(src, IDX_LABEL_MAGIC, 1).astype(np.int64)
    _write_whole(out, _idx_label_chunks(*_cluster_labels(labels, mode, mapping)))


def cluster_cifar_batch(src, out, mode: str, mapping: ClassMapping | None = None) -> None:
    """Write CIFAR batch src to out with its labels coarsened as by cluster_classes
    and its pixel bytes unchanged. Every refusal comes before out is opened."""
    recs = _read_cifar_records(src, _cifar_record_count(src)).copy()
    labels, n_macro = _cluster_labels(recs[:, 0].astype(np.int64), mode, mapping)
    if n_macro > 10:
        raise ValueError(f"CIFAR labels must be < 10; the mapping has {n_macro} macro classes")
    recs[:, 0] = labels
    _write_whole(out, [recs])


def rotate_images(ds: ImageDataset, degrees: float) -> ImageDataset:
    """Rotate every image by ``degrees`` about the pixel center ((W-1)/2, (H-1)/2).

    Nearest-neighbor sampling; destination pixels whose source falls outside
    the image are zero-filled. Requires square images. degrees=90 sends
    destination (x, y) to source (y, W-1-x).
    """
    geom = ds.geometry
    if geom.width != geom.height:
        raise ValueError("rotation requires square images")
    w = geom.width
    cx = (w - 1) / 2.0
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    ys, xs = np.mgrid[0:w, 0:w]
    sx = cx + cos_t * (xs - cx) + sin_t * (ys - cx)
    sy = cx - sin_t * (xs - cx) + cos_t * (ys - cx)
    sxi = np.floor(sx + 0.5).astype(np.int64)
    syi = np.floor(sy + 0.5).astype(np.int64)
    inside = (sxi >= 0) & (sxi < w) & (syi >= 0) & (syi < w)
    sxc = np.clip(sxi, 0, w - 1)
    syc = np.clip(syi, 0, w - 1)
    planes = ds.images.reshape(len(ds), geom.channels, w, w)
    rotated = planes[:, :, syc, sxc]
    rotated[:, :, ~inside] = 0.0
    return ImageDataset(geom, rotated.reshape(len(ds), -1), ds.labels, ds.n_classes)


def translate_wrap_each(batch: np.ndarray, geom: ImageGeometry, shifts: np.ndarray) -> np.ndarray:
    """Cyclically shift each flat image of a batch by its own (dx, dy), the same
    for all channels. A shift (1, 0) moves content one column to the right, so
    pixel column W-1 wraps around to column 0.

    Source rows (y - dy) % H and columns (x - dx) % W are computed per image
    as (N, H) and (N, W) tables; one broadcast sum turns them into flat
    source offsets and one gather reads the pixels.
    """
    n0 = geom.input_size
    if batch.ndim != 2 or batch.shape[1] != n0:
        raise ValueError(f"batch must be (N, {n0})")
    shifts = np.asarray(shifts)
    n = batch.shape[0]
    if shifts.shape != (n, 2):
        raise ValueError("need one (dx, dy) per image")
    h, w = geom.height, geom.width
    src_x = (np.arange(w) - shifts[:, 0:1]) % w
    src_y = (np.arange(h) - shifts[:, 1:2]) % h
    # offset of source row y of channel c in image i, as (N, C, H)
    row_start = (
        (np.arange(n) * n0)[:, None, None]
        + (np.arange(geom.channels) * (h * w))[None, :, None]
        + (src_y * w)[:, None, :]
    )
    src = row_start[..., None] + src_x[:, None, None, :]
    return np.take(batch, src).reshape(n, n0)


def split_train_val(ds: ImageDataset, n_val: int, seed: int):
    """Random disjoint split into (train, val) with exactly n_val validation images.

    Both splits keep the original relative image order. ds is left unchanged:
    train and val are the two row ranges of one copy of its images.
    """
    return _split_rows(replace(ds, images=ds.images.copy()), n_val, seed)


def _split_rows(ds: ImageDataset, n_val: int, seed: int):
    """split_train_val by moving the rows of ds, which the caller owns, in place:
    train and val are the two row ranges of its one image buffer."""
    if not 0 <= n_val < len(ds):
        raise ValueError(f"n_val must lie in [0, {len(ds)}), got {n_val}")
    perm = np.random.default_rng(seed).permutation(len(ds))
    order = np.concatenate([np.sort(perm[n_val:]), np.sort(perm[:n_val])])
    _permute_rows(ds.images, order)
    labels, n_train = ds.labels[order], len(ds) - n_val
    return tuple(ImageDataset(ds.geometry, ds.images[rows], labels[rows], ds.n_classes)
                 for rows in (slice(None, n_train), slice(n_train, None)))
