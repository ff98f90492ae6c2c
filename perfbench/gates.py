"""Output gates and result digests, computed from the files a run leaves.

Every check reads the files itself, with its own parsers and oracles, so a
defect in the package's readers or observables cannot hide a defect in its
writers. Each gate returns a list of failure messages; empty means passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from pathlib import Path

import numpy as np


def _header(data: bytes, magic: bytes):
    if data[:4] != magic:
        raise ValueError(f"bad magic {data[:4]!r}")
    n = struct.unpack_from("<I", data, 8)[0]
    dims = list(struct.unpack_from(f"<{n + 1}I", data, 12))
    return dims, 12 + 4 * (n + 1)


def read_masks(path) -> list:
    """Layers of a .tkms file as uint8 matrices (bit-packed LSB-first)."""
    data = Path(path).read_bytes()
    dims, pos = _header(data, b"TKMS")
    masks = []
    for a, b in zip(dims, dims[1:]):
        nbytes = (a * b + 7) // 8
        packed = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=pos + 8)
        masks.append(np.unpackbits(packed, count=a * b, bitorder="little").reshape(a, b))
        pos += 8 + nbytes
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return masks


def masked_params_digest(params_path, masks: list) -> str:
    """SHA-256 of a .tkts file with every masked weight replaced by +0.0, so
    the digest does not depend on what a run stores at pruned positions."""
    data = bytearray(Path(params_path).read_bytes())
    dims, pos = _header(bytes(data), b"TKTS")
    n_hidden = len(dims) - 2
    for l, (a, b) in enumerate(zip(dims, dims[1:])):
        w = np.frombuffer(data, dtype="<f4", count=a * b, offset=pos).reshape(a, b)
        if l < n_hidden:
            w[masks[l] == 0] = 0.0
        pos += 4 * (a * b + b + (4 * b if l < n_hidden else 0))
    if pos != len(data):
        raise ValueError(f"{params_path}: {len(data) - pos} trailing bytes")
    return hashlib.sha256(bytes(data)).hexdigest()


def run_digests(run_dir) -> dict:
    """Digests of every result file of an IMP run, keyed by relative path."""
    run_dir = Path(run_dir)
    out = {}
    for it_dir in sorted((run_dir / "iters").iterdir()):
        rel = it_dir.relative_to(run_dir)
        masks = read_masks(it_dir / "masks.tkms")
        for name in ("masks.tkms", "train_curve.csv"):
            out[f"{rel}/{name}"] = hashlib.sha256((it_dir / name).read_bytes()).hexdigest()
        out[f"{rel}/params.tkts(masked-zeroed)"] = masked_params_digest(it_dir / "params.tkts", masks)
    out["imp_curve.csv"] = hashlib.sha256((run_dir / "imp_curve.csv").read_bytes()).hexdigest()
    return out


def combined_digest(digests: dict) -> str:
    return hashlib.sha256("".join(f"{k}:{v}\n" for k, v in sorted(digests.items())).encode()).hexdigest()


def floor_rule_densities(dims, fraction: float, rounds: int) -> list:
    """Global density after 0..rounds pruning steps that each remove
    floor(fraction * surviving) weights of every hidden-layer matrix."""
    sizes = [a * b for a, b in zip(dims[:-2], dims[1:-1])]
    alive = list(sizes)
    out = [sum(alive) / sum(sizes)]
    for _ in range(rounds):
        alive = [s - math.floor(fraction * s) for s in alive]
        out.append(sum(alive) / sum(sizes))
    return out


def check_imp_run(run_dir, recipe: dict) -> list:
    """IMP gates: the density curve follows the floor rule for every round,
    every best_val beats chance, and the last layer-1 mask is enriched on the
    label patch."""
    run_dir = Path(run_dir)
    with open(run_dir / "imp_curve.csv") as f:
        rows = list(csv.DictReader(f))
    rounds = recipe["imp"]["max_iterations"]
    errors = []
    want = floor_rule_densities(recipe["network"]["dims"], recipe["imp"]["prune_fraction"], rounds)
    got = [float(r["u"]) for r in rows]
    if got != want:
        errors.append(f"imp_curve densities {got} != floor rule {want}")
    chance = 1.0 / recipe["dataset"]["synthetic"]["n_classes"]
    low = [(r["iteration"], r["best_val"]) for r in rows if not float(r["best_val"] or 0) > chance]
    if low:
        errors.append(f"best_val not above chance {chance}: {low}")
    last = read_masks(run_dir / f"iters/{len(rows) - 1:03d}/masks.tkms")[0]
    enrichment = patch_enrichment(last, recipe["dataset"]["synthetic"])
    if not enrichment > 1.0:
        errors.append(f"patch enrichment of the last layer-1 mask is {enrichment}, not above 1")
    return errors


def patch_enrichment(mask1: np.ndarray, synth: dict) -> float:
    """Surviving density of layer-1 weights from patch pixels over the
    layer's overall density."""
    x0, y0, pw, ph = synth["patch"]
    w, h, c = synth["width"], synth["height"], synth["channels"]
    pixels = mask1.reshape(c, h, w, -1)
    inside = pixels[:, y0:y0 + ph, x0:x0 + pw].mean()
    return float(inside / mask1.mean())


def effective_oracle(masks: list, layer: int) -> np.ndarray:
    """Input-to-layer reachability as a boolean matrix product."""
    reach = masks[0].astype(bool)
    for m in masks[1:layer]:
        reach = (reach.astype(np.float64) @ m.astype(np.float64)) > 0
    return reach.astype(np.uint8)


def read_locality_csv(path) -> dict:
    with open(path) as f:
        return {(int(r["dx"]), int(r["dy"])): int(r["count"]) for r in csv.DictReader(f)}


def check_locality(path, matrix: np.ndarray) -> list:
    """A single-channel same-mode grid is symmetric under d -> -d and counts
    sum_j k_j (k_j - 1) ordered pairs, k_j the surviving inputs of node j."""
    grid = read_locality_csv(path)
    errors = []
    asym = [d for d, v in grid.items() if grid.get((-d[0], -d[1])) != v]
    if asym:
        errors.append(f"{Path(path).name}: not symmetric under d -> -d at {asym[:3]}")
    k = matrix.sum(axis=0, dtype=np.int64)
    want = int((k * (k - 1)).sum())
    if sum(grid.values()) != want:
        errors.append(f"{Path(path).name}: grid sums to {sum(grid.values())}, pairs give {want}")
    return errors


def check_locality_binned(out_dir, stem: str, matrix: np.ndarray, edges: list) -> list:
    k = matrix.sum(axis=0, dtype=np.int64)
    errors = []
    for i, lo in enumerate(edges):
        hi = edges[i + 1] if i + 1 < len(edges) else None
        pick = (k >= lo) if hi is None else (k >= lo) & (k < hi)
        path = Path(out_dir) / f"{stem}_bin{i}_{lo}-{'inf' if hi is None else hi}.csv"
        errors += check_locality(path, matrix[:, pick])
    return errors


def check_effmask(path, masks: list, layer: int) -> list:
    got = read_masks(path)
    want = effective_oracle(masks, layer)
    if len(got) != 1 or not np.array_equal(got[0], want):
        return [f"{Path(path).name}: differs from the boolean matrix-product oracle"]
    return []


def check_ablation(path, expected_rows: int) -> list:
    with open(path) as f:
        rows = list(csv.DictReader(f))
    errors = []
    if len(rows) != expected_rows:
        errors.append(f"{Path(path).name}: {len(rows)} rows, expected {expected_rows}")
    at_zero = {r["order"]: r["accuracy"] for r in rows if r["removed"] == "0"}
    if len(at_zero) != 2 or len(set(at_zero.values())) != 1:
        errors.append(f"{Path(path).name}: removed=0 accuracy differs by order: {at_zero}")
    return errors
