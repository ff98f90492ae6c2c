"""Iterative magnitude pruning with weight rewinding.

Each pruning step removes, per layer, the floor(fraction * surviving) gated
weights of smallest trained magnitude (|w| ties broken by ascending flat row-
major index), so the surviving density follows u = (1 - fraction)^n up to the
accumulated floor rounding. After pruning, weights are rewound to the full
checkpoint captured early in the dense run and retrained under the new mask.
The loop stops once, in any pruned layer, more than stop_node_fraction of the
nodes have no incoming connection left.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import reports
from .network import MaskSet, ParamSet, check_dims, init_params
from .trainer import Checkpoint, TrainConfig, train


@dataclass
class ImpConfig:
    train_cfg: TrainConfig
    prune_fraction: float = 0.3
    rewind_step: int | None = None  # None = train_cfg.rewind_step
    stop_node_fraction: float = 0.8
    max_iterations: int = 20
    layers_to_prune: list | None = None  # hidden layer numbers (1-based); None = all

    def __post_init__(self) -> None:
        if self.rewind_step is None:
            self.rewind_step = self.train_cfg.rewind_step
        if not 0.0 < self.prune_fraction < 1.0:
            raise ValueError("prune_fraction must lie in (0, 1)")
        if not 0.0 < self.stop_node_fraction <= 1.0:
            raise ValueError("stop_node_fraction must lie in (0, 1]")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0 <= self.rewind_step <= self.train_cfg.steps:
            raise ValueError("rewind_step must lie in [0, train_cfg.steps]")


def imp_settings(run_config: dict):
    """(dims, ImpConfig) of a normalized run configuration (ImpConfig defaults
    if it has no imp section)."""
    train_cfg = TrainConfig(translate_augment=run_config["dataset"]["translate_augment"],
                            **run_config["train"])
    return list(run_config["network"]["dims"]), ImpConfig(train_cfg, **(run_config["imp"] or {}))


def _prunable(layers, n_hidden: int):
    """The listed hidden layers (1-based; None = all) after checking each is
    one of the n_hidden and listed once."""
    if layers is None:
        return range(1, n_hidden + 1)
    for layer in layers:
        if not 1 <= layer <= n_hidden:
            raise ValueError(f"layer {layer} is not a prunable hidden layer")
    if len(set(layers)) != len(layers):
        raise ValueError(f"layers {list(layers)} list a layer more than once")
    return layers


def _prune_layers(masks: MaskSet, fraction: float, layers, select) -> MaskSet:
    """Remove k = floor(fraction * surviving) weights from each listed hidden
    layer (1-based; None = all): the ones that select(layer, surviving, k)
    picks from the layer's surviving flat indices, as a boolean mask over
    them or as positions into them. Returns a new MaskSet."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    out = masks.copy()
    for layer in _prunable(layers, len(masks.masks)):
        flat_mask = out.masks[layer - 1].ravel()
        surviving = np.flatnonzero(flat_mask)
        k = math.floor(fraction * surviving.size)
        if k:
            flat_mask[surviving[select(layer, surviving, k)]] = 0
    return out


def prune_step(params: ParamSet, masks: MaskSet, fraction: float, layers=None) -> MaskSet:
    """Remove the floor(fraction * surviving) smallest-|w| surviving weights of
    each listed hidden layer (1-based; default all). Returns a new MaskSet."""

    def smallest(layer, surviving, k):
        magnitudes = np.abs(params.weights[layer - 1].ravel()[surviving])
        # the k smallest in a stable sort on |w|: everything below the k-th
        # smallest value, then the first ties in ascending flat index
        kth = np.partition(magnitudes, k - 1)[k - 1]
        drop = magnitudes < kth
        drop[np.flatnonzero(magnitudes == kth)[: k - np.count_nonzero(drop)]] = True
        return drop

    return _prune_layers(masks, fraction, layers, smallest)


def density(masks: MaskSet):
    """(per-layer densities, global density) of the gated weights."""
    per_layer = [float(m.sum(dtype=np.int64)) / m.size for m in masks.masks]
    total = sum(int(m.sum(dtype=np.int64)) for m in masks.masks)
    size = sum(m.size for m in masks.masks)
    return per_layer, total / size


def rewind(params: ParamSet, ckpt: Checkpoint, masks: MaskSet) -> ParamSet:
    """Full restore of the checkpoint state (weights, biases, batch norm).

    The mask is not touched; surviving weights come out bit-identical to the
    checkpoint.
    """
    if params.dims != ckpt.params.dims:
        raise ValueError(f"checkpoint dims {ckpt.params.dims} != network dims {params.dims}")
    if len(masks.masks) != len(params.weights) - 1:
        raise ValueError("mask count does not match the network")
    return ckpt.params.copy()


def stop_condition(masks: MaskSet, threshold: float) -> bool:
    """True iff in any layer more than ``threshold`` of the nodes have no
    surviving incoming weight."""
    for m in masks.masks:
        dead = (m.sum(axis=0, dtype=np.int64) == 0).mean()
        if dead > threshold:
            return True
    return False


def random_prune(masks: MaskSet, fraction: float, seed: int, layers=None) -> MaskSet:
    """Like prune_step but removes uniformly random surviving weights."""
    rng = np.random.default_rng(seed)
    return _prune_layers(masks, fraction, layers,
                         lambda layer, surviving, k: rng.choice(surviving.size, size=k, replace=False))


@dataclass
class ImpIteration:
    n: int
    u_per_layer: list
    u_global: float
    best_val: float | None
    masks: MaskSet
    mask_file: str
    params_file: str
    curve_file: str


@dataclass
class ImpRun:
    dims: list
    config: ImpConfig
    iterations: list
    rewind_ckpt: Checkpoint
    stopped_reason: str
    run_dir: Path


def init_seed(master_seed: int):
    """Seed material for weight initialization derived from the master seed."""
    return [int(master_seed), 0]


def iteration_seed(master_seed: int, n: int) -> int:
    """Per-iteration training seed; keeps resumed runs bit-identical."""
    return int(np.random.SeedSequence([int(master_seed), 1000 + int(n)]).generate_state(1)[0])


def _data_digest(ds) -> str:
    """SHA-256 of a split's images and labels, each hashed as its dtype, its
    shape and its buffer (ImageDataset keeps both C-contiguous: no copy)."""
    h = hashlib.sha256()
    for a in (ds.images, ds.labels):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a)
    return h.hexdigest()


def _bound_settings(settings: dict) -> dict:
    """What a run directory is bound to, as JSON stores it: its settings
    record apart from imp_config.max_iterations (a run may be extended) and
    the data digests, which a resume checks on their own."""
    imp_config = dict(settings["imp_config"], max_iterations=None)
    return json.loads(json.dumps(dict(settings, imp_config=imp_config, data_sha256=None)))


def _write_run_manifest(run: ImpRun, settings: dict, created_at) -> None:
    """Write imp_curve.csv, then manifest.json, so the manifest names no
    iteration that the curve lacks."""
    reports.export_imp_curve_csv(
        [(it.n, it.u_global, it.best_val) for it in run.iterations], run.run_dir / "imp_curve.csv"
    )
    data = {
        "manifest_version": reports.MANIFEST_VERSION,
        "kind": "imp",
        "pixel_layout": reports.PIXEL_LAYOUT,
        "created_at": created_at,
        **settings,
        "rewind_file": "rewind.tkts",
        "val_file": "val.tkds",
        "stopped_reason": run.stopped_reason,
        "iterations": [{k: v for k, v in vars(it).items() if k != "masks"} for it in run.iterations],
    }
    reports.write_manifest(run.run_dir, data)


def run_imp(dims, train_ds, val_ds, cfg: ImpConfig, run_dir, run_config=None) -> ImpRun:
    """Dense training followed by prune/rewind/retrain iterations.

    Every iteration's masks, final parameters, and training curve are written
    under run_dir, and manifest.json is updated after each one, so an
    interrupted run resumes from its last completed iteration (and a finished
    run can be extended by raising max_iterations). The manifest holds one
    settings record: dims, cfg as imp_config, run_config's dataset section
    (null without one), the SHA-256 of each split's data and train_ds's
    geometry, which val_ds must share with its class count. A resume must
    match it apart from max_iterations, of which it keeps the larger; a
    caller without run_config is held to the recorded dataset. A mismatch, a
    manifest that reports.load_manifest refuses, or settings that do not fit
    train_ds raise ValueError before any byte is written. A given run_config
    must give dims and cfg under imp_settings. The manifest also records its
    first write's created_at. Iteration 0, once the dense run has trained,
    stores val_ds in val.tkds, which the analyses read, so a failed dense run
    leaves no file.
    """
    dims = check_dims(dims)
    if dims[0] != train_ds.geometry.input_size:
        raise ValueError(f"network input width {dims[0]} != image size {train_ds.geometry.input_size}")
    if dims[-1] != train_ds.n_classes:
        raise ValueError(f"network output width {dims[-1]} != {train_ds.n_classes} classes")
    if (val_ds.geometry, val_ds.n_classes) != (train_ds.geometry, train_ds.n_classes):
        raise ValueError(f"the val split holds {val_ds.n_classes} classes of {val_ds.geometry} images, "
                         f"the train split {train_ds.n_classes} of {train_ds.geometry}")
    _prunable(cfg.layers_to_prune, len(dims) - 2)
    digests = {"train": _data_digest(train_ds), "val": _data_digest(val_ds)}
    settings = {"dims": dims, "imp_config": asdict(cfg), "dataset": run_config and run_config["dataset"],
                "data_sha256": digests, "geometry": asdict(train_ds.geometry)}
    if run_config is not None and imp_settings(run_config) != (dims, cfg):
        raise ValueError("run_config does not give these dims and IMP settings")
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    master = cfg.train_cfg.seed
    run = ImpRun(dims, cfg, [], None, "max_iterations", run_dir)

    if (run_dir / "manifest.json").is_file():
        manifest = reports.load_manifest(run_dir)
        recorded = {key: manifest[key] for key in settings}
        if run_config is None:
            settings["dataset"] = recorded["dataset"]
        if _bound_settings(recorded) != _bound_settings(settings):
            raise ValueError(f"existing run in {run_dir} was produced by a different configuration")
        for split, digest in recorded["data_sha256"].items():
            if digest != digests[split]:
                raise ValueError(f"the {split} split differs from the one the run in {run_dir} was made with")
        run.iterations = [ImpIteration(masks=reports.load_masks(run_dir / entry["mask_file"]), **entry)
                          for entry in manifest["iterations"]]
        rewind_params = reports.load_checkpoint(run_dir / manifest["rewind_file"])
        run.rewind_ckpt = Checkpoint(cfg.rewind_step, rewind_params)
        run.stopped_reason = manifest["stopped_reason"]
        # a lower rerun changes no byte
        settings["imp_config"]["max_iterations"] = max(cfg.max_iterations,
                                                       recorded["imp_config"]["max_iterations"])
        created_at = manifest["created_at"]
        _write_run_manifest(run, settings, created_at)
        if run.stopped_reason == "node_fraction" or len(run.iterations) > cfg.max_iterations:
            return run
        params = reports.load_checkpoint(run_dir / run.iterations[-1].params_file)

    for n in range(len(run.iterations), cfg.max_iterations + 1):
        if n == 0:
            masks, start = MaskSet.full(dims), init_params(dims, init_seed(master))
        else:
            masks = prune_step(params, run.iterations[-1].masks, cfg.prune_fraction, cfg.layers_to_prune)
            if stop_condition(masks, cfg.stop_node_fraction):
                run.stopped_reason = "node_fraction"
                _write_run_manifest(run, settings, created_at)
                break
            start = rewind(params, run.rewind_ckpt, masks)
        # train reads rewind_step only under capture_rewind
        cfg_n = replace(cfg.train_cfg, seed=iteration_seed(master, n), rewind_step=cfg.rewind_step)
        result = train(start, masks, train_ds, val_ds, cfg_n, capture_rewind=n == 0)
        params = result.params
        if n == 0:  # the run's first write
            created_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
            run.rewind_ckpt = result.rewind
            reports.save_split(run_dir / "val.tkds", val_ds)
            reports.save_checkpoint(run_dir / "rewind.tkts", run.rewind_ckpt.params)
        stem = f"iters/{n:03d}"
        it = ImpIteration(n, *density(masks), result.best_val, masks,
                          f"{stem}/masks.tkms", f"{stem}/params.tkts", f"{stem}/train_curve.csv")
        (run_dir / stem).mkdir(parents=True, exist_ok=True)
        reports.save_masks(run_dir / it.mask_file, masks)
        reports.save_checkpoint(run_dir / it.params_file, params)
        reports.export_train_curve_csv(result.records, run_dir / it.curve_file)
        run.iterations.append(it)
        _write_run_manifest(run, settings, created_at)

    return run
