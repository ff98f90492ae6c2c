"""Binary checkpoint/mask/split files, netpbm image exports, CSV curves, and
the run-directory manifest.

The binary formats are little-endian with a 4-byte magic and a u32 format
version. Checkpoints store float32 arrays row-major; mask files store each
layer bit-packed LSB-first, padded to a byte boundary, with a per-layer
surviving-weight count that is verified against the payload popcount on load;
split files store a dataset's float32 images row-major, then its int64 labels.

Every file the package writes goes through datasets._write_whole: it is
written to NAME.tmp, then renamed over NAME, with no fsync. An interrupted
write leaves NAME missing or with its earlier complete bytes; a killed one may
also leave NAME.tmp, which the next write of NAME replaces. Each IMP round
writes its files and imp_curve.csv before manifest.json, so the manifest never
names an incomplete iteration.

A manifest has one shape, manifest_version MANIFEST_VERSION with the keys
MANIFEST_KEYS; load_manifest refuses any other, such as an earlier version's,
whose binary files stay readable here.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from pathlib import Path

import numpy as np

from .datasets import ImageDataset, ImageGeometry, _write_whole
from .network import MaskSet, ParamSet, _size

CHECKPOINT_MAGIC = b"TKTS"
MASK_MAGIC = b"TKMS"
SPLIT_MAGIC = b"TKDS"
FORMAT_VERSION = 1
PIXEL_LAYOUT = "index = c*H*W + y*W + x"
MANIFEST_VERSION = 1
MANIFEST_KEYS = ("manifest_version", "kind", "pixel_layout", "created_at", "dims", "imp_config",
                 "dataset", "data_sha256", "geometry", "rewind_file", "val_file", "stopped_reason",
                 "iterations")


class _Reader:
    """Strict reader of one binary file, used as a context manager: raises on
    truncation and on trailing garbage, judged against the file's size when
    it was opened.

    array reads a payload with readinto straight into a new array, so each
    payload is copied once, from the file, and a header that implies more
    bytes than the file holds is refused before anything is allocated.
    """

    def __init__(self, path):
        self.path = path
        self.f = open(path, "rb")
        self.size = os.fstat(self.f.fileno()).st_size
        self.pos = 0

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, *exc) -> None:
        self.f.close()

    def _advance(self, n: int) -> None:
        if self.pos + n > self.size:
            raise ValueError(f"truncated file {self.path}")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        data = self.f.read(n)
        if len(data) != n:
            raise ValueError(f"truncated file {self.path}")
        return data

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, count: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        self._advance(count * dtype.itemsize)
        out = np.empty(count, dtype=dtype)
        if self.f.readinto(out) != out.nbytes:
            raise ValueError(f"truncated file {self.path}")
        return out

    def finish(self) -> None:
        if self.pos != self.size:
            raise ValueError(f"trailing bytes in {self.path}")


def _check_header(r: _Reader, magic: bytes) -> None:
    got = r.take(4)
    if got != magic:
        raise ValueError(f"bad magic {got!r} in {r.path}, expected {magic!r}")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version} in {r.path}")


def save_checkpoint(path, params: ParamSet) -> None:
    """Write a ParamSet as float32: a header, then its buffer (per layer: weights,
    biases and, for hidden layers, gamma, beta, running mean, running variance),
    written from the array without a bytes copy."""
    dims = params.dims
    header = CHECKPOINT_MAGIC + struct.pack(f"<II{len(dims)}I", FORMAT_VERSION, len(dims) - 1, *dims)
    _write_whole(path, [header, np.ascontiguousarray(params._flat, dtype=np.float32)])


def load_checkpoint(path) -> ParamSet:
    with _Reader(path) as r:
        _check_header(r, CHECKPOINT_MAGIC)
        (n_layers,) = r.unpack("<I")
        if n_layers < 2:
            raise ValueError(f"checkpoint {path} must hold at least 2 weight layers")
        dims = list(r.unpack(f"<{n_layers + 1}I"))
        flat = r.array(_size(dims), np.float32)
        r.finish()
    return ParamSet(dims, flat)


def save_masks(path, masks: MaskSet) -> None:
    """Write a MaskSet bit-packed (LSB-first, each layer padded to a byte)."""
    dims = [masks.masks[0].shape[0]] + [m.shape[1] for m in masks.masks]
    for i, m in enumerate(masks.masks):
        if m.shape != (dims[i], dims[i + 1]):
            raise ValueError("mask shapes do not chain into consecutive layers")
    parts = [MASK_MAGIC, struct.pack(f"<II{len(dims)}I", FORMAT_VERSION, len(masks.masks), *dims)]
    for m in masks.masks:
        flat = m.ravel()
        parts += [struct.pack("<Q", int(flat.sum(dtype=np.int64))), np.packbits(flat, bitorder="little")]
    _write_whole(path, parts)


def load_masks(path) -> MaskSet:
    with _Reader(path) as r:
        _check_header(r, MASK_MAGIC)
        (n_masks,) = r.unpack("<I")
        if n_masks < 1:
            raise ValueError(f"mask file {path} holds no layers")
        dims = list(r.unpack(f"<{n_masks + 1}I"))
        masks = []
        for i in range(n_masks):
            size = dims[i] * dims[i + 1]
            (stored_count,) = r.unpack("<Q")
            flat = np.unpackbits(r.array((size + 7) // 8, np.uint8), count=size, bitorder="little")
            if np.count_nonzero(flat) != stored_count:
                raise ValueError(
                    f"mask file {path} layer {i + 1}: popcount does not match stored count"
                )
            masks.append(flat.reshape(dims[i], dims[i + 1]))
        r.finish()
    return MaskSet(masks)


def save_split(path, ds: ImageDataset) -> None:
    """Write a dataset split: a header (width, height, channels, n, n_classes),
    the float32 images row-major, then the int64 labels, each written from its
    array without a bytes copy."""
    g = ds.geometry
    header = SPLIT_MAGIC + struct.pack(
        "<6I", FORMAT_VERSION, g.width, g.height, g.channels, len(ds), ds.n_classes
    )
    _write_whole(path, [header, np.ascontiguousarray(ds.images, dtype="<f4"),
                        np.ascontiguousarray(ds.labels, dtype="<i8")])


def load_split(path) -> ImageDataset:
    """Read a save_split file; ImageDataset validates pixel and label ranges.
    Each payload is read from the file straight into its array."""
    with _Reader(path) as r:
        _check_header(r, SPLIT_MAGIC)
        width, height, channels, n, n_classes = r.unpack("<5I")
        geom = ImageGeometry(width, height, channels)
        images = r.array(n * geom.input_size, "<f4").reshape(n, geom.input_size)
        labels = r.array(n, "<i8")
        r.finish()
    return ImageDataset(geom, images, labels, n_classes)


def _image_planes(row: np.ndarray, geom) -> np.ndarray:
    row = np.asarray(row)
    if row.shape != (geom.input_size,):
        raise ValueError(f"need a flat row of {geom.input_size} entries, got {row.shape}")
    return row.reshape(geom.channels, geom.height, geom.width)


def _write_netpbm(path, byte_planes: np.ndarray) -> None:
    c, h, w = byte_planes.shape
    magic = b"P6" if c == 3 else b"P5"
    header = magic + b"\n# pixel layout: " + PIXEL_LAYOUT.encode() + b"\n"
    header += f"{w} {h}\n255\n".encode()
    pixels = byte_planes.transpose(1, 2, 0) if c == 3 else byte_planes[0]  # RGB interleaved per pixel
    _write_whole(path, [header, np.ascontiguousarray(pixels)])


def export_mask_image(row, geom, path) -> None:
    """Binary netpbm of one mask row: surviving -> 255, pruned -> 0.

    RGB geometry gives P6 with the three channel planes interleaved; single
    channel gives P5.
    """
    planes = _image_planes(row, geom)
    if not ((planes == 0) | (planes == 1)).all():
        raise ValueError("mask row entries must be 0 or 1")
    _write_scaled_counts(path, planes)  # peak 1 -> 255; an all-zero row stays 0


def export_weighted_mask_image(values, geom, path, mask_row) -> None:
    """Netpbm of a weight row under its mask row, affinely mapped min -> 0, max -> 255.

    The affine map is fitted over surviving entries (mask_row != 0); pruned
    entries get the byte the map assigns to 0, clipped to [0, 255], whatever
    their value. A constant surviving value maps everything to 128.
    """
    planes = _image_planes(values, geom).astype(np.float64)
    surviving = _image_planes(mask_row, geom) != 0
    if not surviving.any():
        _write_netpbm(path, np.full(planes.shape, 128, dtype=np.uint8))
        return
    lo = planes[surviving].min()
    hi = planes[surviving].max()
    if lo == hi:
        byte_planes = np.full(planes.shape, 128, dtype=np.uint8)
    else:
        mapped = (planes - lo) * (255.0 / (hi - lo))
        mapped[~surviving] = (0.0 - lo) * (255.0 / (hi - lo))
        byte_planes = np.clip(np.floor(mapped + 0.5), 0, 255).astype(np.uint8)
    _write_netpbm(path, byte_planes)


def export_locality_csv(grid: np.ndarray, path) -> None:
    """CSV of every cell of a displacement grid (see LocalityMap.grid), header
    dx,dy,count, zeros included: dy ascending, and dx ascending within each dy.

    A displacement grid has odd sides (2H-1, 2W-1), centred on (0, 0); any
    other shape is refused with ValueError."""
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] % 2 == 0 or grid.shape[1] % 2 == 0:
        raise ValueError(f"a displacement grid is 2-D with odd sides, got shape {grid.shape}")
    half_h, half_w = grid.shape[0] // 2, grid.shape[1] // 2
    _write_count_grid(path, "dx,dy,count", range(-half_w, half_w + 1),
                      map(str, range(-half_h, half_h + 1)), grid.astype(np.int64, copy=False).ravel())


def export_pixmap_csv(values, geom, path) -> None:
    """CSV of one count per input, header x,y,c,count, in flat input order
    (index = c*H*W + y*W + x): x fastest, then y, then c."""
    planes = _image_planes(values, geom)
    outer = [f"{y},{c}" for c in range(geom.channels) for y in range(geom.height)]
    _write_count_grid(path, "x,y,c,count", range(geom.width), outer, planes.ravel())


def load_locality_csv(path) -> np.ndarray:
    """Parse export_locality_csv output back into the displacement grid.

    The grid's half-widths are the largest |dx| and |dy| listed; a file that
    repeats a cell or leaves one out is refused, naming the first such cell
    (in file order for a repeat, in dy-then-dx order for a gap), and so is a
    line that is not three integers or has a negative count, by line number."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != "dx,dy,count":
        raise ValueError(f"{path} is not a displacement CSV")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            dx, dy, count = (int(v) for v in line.split(","))
        except ValueError:
            raise ValueError(f"{path} line {number} is not three integers: {line!r}") from None
        if count < 0:
            raise ValueError(f"{path} line {number} has a negative count: {line!r}")
        rows.append((dx, dy, count))
    if not rows:
        raise ValueError(f"{path} holds no displacement cells")
    half_w = max(abs(r[0]) for r in rows)
    half_h = max(abs(r[1]) for r in rows)
    grid = np.zeros((2 * half_h + 1, 2 * half_w + 1), dtype=np.int64)
    seen = np.zeros(grid.shape, dtype=bool)
    for dx, dy, count in rows:
        cell = (dy + half_h, dx + half_w)
        if seen[cell]:
            raise ValueError(f"{path} repeats the cell dx={dx}, dy={dy}")
        seen[cell] = True
        grid[cell] = count
    if not seen.all():
        dy, dx = np.argwhere(~seen)[0]
        raise ValueError(f"{path} has no row for the cell dx={dx - half_w}, dy={dy - half_h}")
    return grid


def _write_scaled_counts(path, planes: np.ndarray) -> None:
    """Netpbm of non-negative counts scaled 0 -> 0, max -> 255, halves up."""
    peak = planes.max()
    if peak <= 0:
        byte_planes = np.zeros(planes.shape, dtype=np.uint8)
    else:
        byte_planes = np.floor(planes * (255.0 / peak) + 0.5).astype(np.uint8)
    _write_netpbm(path, byte_planes)


def export_count_image(values, geom, path) -> None:
    """Netpbm of one count per input (P6 for RGB geometry, else P5), scaled
    0 -> 0, max -> 255."""
    _write_scaled_counts(path, _image_planes(values, geom))


def export_locality_image(grid: np.ndarray, path) -> None:
    """P5 grayscale of a displacement grid, scaled 0 -> 0, max -> 255."""
    _write_scaled_counts(path, grid[None, :, :])


def export_train_curve_csv(records, path) -> None:
    """CSV step,train_loss,val_accuracy at full float precision."""
    _write_csv(path, "step,train_loss,val_accuracy",
               ((r.step, float(r.train_loss), float(r.val_accuracy)) for r in records))


def export_imp_curve_csv(rows, path) -> None:
    """CSV iteration,u,best_val; rows are (iteration, density, best_val|None)."""
    _write_csv(path, "iteration,u,best_val",
               ((int(n), float(u), "" if best is None else float(best)) for n, u, best in rows))


def _write_count_grid(path, header: str, inner_keys, outer_keys, counts: np.ndarray) -> None:
    """CSV of a row-major grid of counts whose lines are ``inner,outer,count``,
    the inner key varying fastest; outer keys are strings. One line template
    for a grid row is built once and takes each outer key by ``str.replace``;
    every count is then formatted by one ``%``, so the keys are not formatted
    again per cell."""
    row = "".join([f"{k},@,%s\n" for k in inner_keys])
    body = "".join([row.replace("@", k) for k in outer_keys])
    _write_whole(path, [(header + "\n" + body % tuple(counts.tolist())).encode()])


def _write_csv(path, header: str, rows) -> None:
    """The header line, then one line per row tuple of values written with str
    (which gives a Python float at full precision). All rows are formatted by
    one ``%`` over the flattened values, which is faster than one per row."""
    n_fields = header.count(",") + 1
    line = ",".join(["%s"] * n_fields) + "\n"
    flat = tuple(itertools.chain.from_iterable(rows))
    _write_whole(path, [(header + "\n" + (line * (len(flat) // n_fields)) % flat).encode()])


def write_manifest(run_dir, data: dict) -> None:
    """Write manifest.json describing a run directory."""
    _write_whole(Path(run_dir) / "manifest.json", [(json.dumps(data, indent=2) + "\n").encode()])


def load_manifest(run_dir) -> dict:
    """Read manifest.json, refuse any shape but this version's (naming the
    version and the missing or extra keys), and verify every referenced file
    exists."""
    run_dir = Path(run_dir)
    path = run_dir / "manifest.json"
    if not path.is_file():
        raise ValueError(f"no manifest.json in {run_dir}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    version = data.get("manifest_version", "none")
    missing = [key for key in MANIFEST_KEYS if key not in data]
    extra = [key for key in data if key not in MANIFEST_KEYS]
    if version != MANIFEST_VERSION or missing or extra:
        keys = "".join(f", {what} keys {', '.join(names)}"
                       for what, names in (("missing", missing), ("extra", extra)) if names)
        raise ValueError(f"{path} has manifest_version {version}{keys}; this version reads only "
                         f"manifest_version {MANIFEST_VERSION}, so start the run in a new directory")
    referenced = [data["rewind_file"], data["val_file"]]
    for it in data["iterations"]:
        referenced += [it["mask_file"], it["params_file"], it["curve_file"]]
    for rel in referenced:  # os.path: a Path per file costs more than its stat
        if not os.path.isfile(os.path.join(run_dir, rel)):
            raise ValueError(f"manifest references missing file {rel}")
    return data
