"""Command line front end.

Experiment parameters live in a JSON run configuration (schema-validated,
unknown keys rejected); command flags carry only paths and selections. Every
command exits 0 on success and nonzero with a single-line diagnostic on
stderr. Commands are deterministic given the configuration and its seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import reports
from .datasets import (
    ImageGeometry,
    _split_rows,
    cluster_cifar_batch,
    cluster_classes,
    cluster_idx_labels,
    generate_synthetic,
    load_cifar_binary,
    load_class_mapping,
    load_idx,
    rotate_images,
    save_cifar_binary,
    save_idx,
    subsample,
)
from .network import MaskSet, check_dims
from .observables import (
    binomial_reference,
    connectivity,
    effective_masks,
    locality_map_binned,
    ablation_curves,
)
from .pruner import ImpConfig, density, imp_settings, run_imp
from .trainer import TrainConfig


# ---------------------------------------------------------------------------
# run configuration


def _read_section(name: str, section, kinds: dict, required, defaults: dict) -> dict:
    """A config section's given keys checked against a kinds table, in table
    order, with the defaults filled in. A key may be null exactly when its
    default is null; one of kind object is checked where it is used."""
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be an object")
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise ValueError(f"unknown config keys in {name!r}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(section))
    if missing:
        raise ValueError(f"missing config keys in {name!r}: {', '.join(missing)}")
    out = {}
    for key, kind in kinds.items():
        if key not in section:
            if key in defaults:
                out[key] = defaults[key]
        elif kind is object or (section[key] is None and key in defaults and defaults[key] is None):
            out[key] = section[key]
        else:
            out[key] = _want(name, key, section[key], kind)
    return out


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
               list: "a non-empty list of integers"}


def _is_kind(value, kind) -> bool:
    """Whether a config value is what _KIND_NAMES calls its kind; a boolean is no number."""
    if kind is list:
        return isinstance(value, list) and value != [] and all(_is_kind(v, int) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _want(name: str, key: str, value, kind):
    if value is None:
        raise ValueError(f"config {name}.{key} must not be null")
    if not _is_kind(value, kind):
        raise ValueError(f"config {name}.{key} must be {_KIND_NAMES[kind]}")
    return kind(value)


_TOP_KEYS = dict.fromkeys(("dataset", "network", "train", "imp", "output"), object)
_DATASET_KEYS = {"format": str, "paths": object, "fraction": float, "cluster_mode": object,
                 "mapping_path": str, "rotate_degrees": float, "translate_augment": bool,
                 "n_val": int, "seed": int, "synthetic": object}
_SYNTH_KEYS = {"width": int, "height": int, "channels": int, "n_classes": int, "n_per_class": int,
               "patch": object, "noise_sd": float}
_TRAIN_KEYS = {"batch_size": int, "lr": float, "optimizer": str, "adam_beta1": float,
               "adam_beta2": float, "adam_eps": float, "steps": int, "eval_every": int,
               "rewind_step": int, "seed": int}
_IMP_KEYS = {"prune_fraction": float, "rewind_step": int, "stop_node_fraction": float,
             "max_iterations": int, "layers_to_prune": list}


def load_run_config(path) -> dict:
    """Parse and validate a run configuration; returns it with defaults filled."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"config {path} is not valid JSON: {e}") from None
    raw = _read_section("(top level)", raw, _TOP_KEYS, ("dataset", "network", "output"),
                        {"train": {}, "imp": None})

    dataset = _read_section("dataset", raw["dataset"], _DATASET_KEYS, ("format", "n_val"), {
        "paths": [], "fraction": 1.0, "cluster_mode": None, "mapping_path": None,
        "rotate_degrees": None, "translate_augment": False, "seed": 0, "synthetic": None})
    fmt, paths, cluster_mode = dataset["format"], dataset["paths"], dataset["cluster_mode"]
    if fmt not in ("idx", "cifar", "synthetic"):
        raise ValueError(f"config dataset.format must be idx, cifar, or synthetic, got {fmt!r}")
    if not isinstance(paths, list) or any(not isinstance(p, str) for p in paths):
        raise ValueError("config dataset.paths must be a list of strings")
    if fmt == "idx" and len(paths) != 2:
        raise ValueError("idx format needs dataset.paths = [images, labels]")
    if fmt == "cifar" and len(paths) < 1:
        raise ValueError("cifar format needs at least one batch file in dataset.paths")
    if cluster_mode is not None and cluster_mode not in ("random", "semantic"):
        raise ValueError(f"config dataset.cluster_mode must be random or semantic, got {cluster_mode!r}")
    if cluster_mode == "semantic" and not dataset["mapping_path"]:
        raise ValueError("semantic clustering needs dataset.mapping_path")
    if fmt == "synthetic":
        if dataset["synthetic"] is None:
            raise ValueError("synthetic format needs a dataset.synthetic section")
        synthetic = _read_section("dataset.synthetic", dataset["synthetic"], _SYNTH_KEYS, _SYNTH_KEYS, {})
        patch = synthetic["patch"]
        if not isinstance(patch, list) or len(patch) != 4:
            raise ValueError("dataset.synthetic.patch must be [x, y, width, height]")
        synthetic["patch"] = [_want("dataset.synthetic", "patch", p, int) for p in patch]
        dataset["synthetic"] = synthetic
    elif dataset["synthetic"] is not None:
        raise ValueError("dataset.synthetic is only valid with format = synthetic")

    network = _read_section("network", raw["network"], {"dims": list}, ("dims",), {})
    network["dims"] = check_dims(network["dims"])

    train_cfg = TrainConfig(translate_augment=dataset["translate_augment"],
                            **_read_section("train", raw["train"], _TRAIN_KEYS, (), {}))

    imp = raw["imp"]
    if imp is not None:
        imp = _read_section("imp", imp, _IMP_KEYS, ("max_iterations",), {"layers_to_prune": None})
        if not 0 <= imp.get("rewind_step", 0) <= train_cfg.steps:
            raise ValueError(f"config imp.rewind_step = {imp['rewind_step']} must lie in "
                             f"[0, train.steps = {train_cfg.steps}]")
        imp = _section(ImpConfig(train_cfg=train_cfg, **imp), "train_cfg")  # defaults filled

    return {
        "dataset": dataset,
        "network": network,
        "train": _section(train_cfg, "translate_augment"),  # that lives in the dataset section
        "imp": imp,
        "output": _read_section("output", raw["output"], {"run_dir": str}, ("run_dir",), {}),
    }


def _section(settings, omit: str) -> dict:
    """A normalized config section: the fields of a settings dataclass but one."""
    return {key: value for key, value in asdict(settings).items() if key != omit}


def _load_images(d: dict):
    """The images of a dataset section as its format gives them (idx and cifar
    files are read, synthetic ones generated), before any transform."""
    if d["format"] == "idx":
        return load_idx(d["paths"][0], d["paths"][1])
    if d["format"] == "cifar":
        return load_cifar_binary(d["paths"])
    s = d["synthetic"]
    geom = ImageGeometry(s["width"], s["height"], s["channels"])
    return generate_synthetic(
        geom, s["n_per_class"], tuple(s["patch"]), s["n_classes"], s["noise_sd"], d["seed"]
    )


def build_dataset(cfg: dict):
    """Apply the dataset pipeline: load, cluster, rotate, subsample, split into row ranges of one buffer."""
    d = cfg["dataset"]
    ds = _load_images(d)
    if d["cluster_mode"] == "random":
        ds = cluster_classes(ds, "random")
    elif d["cluster_mode"] == "semantic":
        ds = cluster_classes(ds, "semantic", load_class_mapping(d["mapping_path"]))
    if d["rotate_degrees"] is not None:
        ds = rotate_images(ds, d["rotate_degrees"])
    if d["fraction"] != 1.0:
        ds = subsample(ds, d["fraction"], d["seed"])
    return _split_rows(ds, d["n_val"], d["seed"])


def _run(cfg: dict):
    """The IMP run a normalized run configuration describes."""
    train_ds, val_ds = build_dataset(cfg)
    dims, imp_cfg = imp_settings(cfg)
    return run_imp(dims, train_ds, val_ds, imp_cfg, cfg["output"]["run_dir"], run_config=cfg)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    run_dir = Path(cfg["output"]["run_dir"])
    if (run_dir / "manifest.json").is_file():
        reports.load_manifest(run_dir)  # a manifest of another shape is refused as such
        raise ValueError(f"{run_dir} already holds a run; train writes only to a new directory")
    # the dense run is iteration 0 of the configured IMP run, with no pruning rounds
    cfg["imp"] = {**_section(imp_settings(cfg)[1], "train_cfg"), "max_iterations": 0}
    run = _run(cfg)
    print(f"trained {cfg['train']['steps']} steps; best validation accuracy: {run.iterations[0].best_val}")
    return 0


def cmd_imp(args) -> int:
    cfg = load_run_config(args.config)
    if cfg["imp"] is None:
        raise ValueError("config has no imp section")
    run = _run(cfg)
    last = run.iterations[-1]
    print(f"completed {len(run.iterations)} iterations ({run.stopped_reason}); "
          f"final density {last.u_global:.6f}, best validation accuracy {last.best_val}")
    return 0


def _open_iteration(args):
    """(run_dir, manifest, iteration entry, masks) of the iteration a command names."""
    run_dir = Path(args.run_dir)
    manifest = reports.load_manifest(run_dir)
    for entry in manifest["iterations"]:
        if entry["n"] == args.iteration:
            return run_dir, manifest, entry, reports.load_masks(run_dir / entry["mask_file"])
    have = [e["n"] for e in manifest["iterations"]]
    raise ValueError(f"run has no iteration {args.iteration} (available: {have})")


def _layer_chain(masks: MaskSet, layer: int, lowest: int = 1) -> list:
    """The masks from the input plane up to hidden layer ``layer``, which must
    lie in [lowest, k]; effective_masks of them is that layer's input mask."""
    if not lowest <= layer <= len(masks.masks):
        raise ValueError(f"need layer in [{lowest}, {len(masks.masks)}], got {layer}")
    return masks.masks[:layer]


def _netpbm_ext(geom: ImageGeometry) -> str:  # reports writes RGB as P6, else P5
    return "ppm" if geom.channels == 3 else "pgm"


def _analysis_dir(run_dir: Path) -> Path:
    out = run_dir / "analysis"
    out.mkdir(exist_ok=True)
    return out


def _int_list(flag: str, text: str) -> list:
    """The integers of a comma-separated command-line value."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def cmd_analyze(args) -> int:
    run_dir, manifest, entry, masks = _open_iteration(args)
    obs = args.observable
    geom = ImageGeometry(**manifest["geometry"])
    stem = f"iter{args.iteration:03d}"

    if obs == "conn":
        hist = connectivity(masks, args.layer, args.direction, args.bin_width)
        base = _analysis_dir(run_dir) / f"{stem}_conn_l{args.layer}_{args.direction}"
        reports._write_csv(f"{base}.csv", "node,count", enumerate(hist.values.tolist()))
        reports._write_csv(f"{base}_hist.csv", "lower,upper,count", ((lo, hi, c) for c, lo, hi in hist.bins))
        print(f"wrote {base}.csv")
        return 0

    if obs in ("locality", "locality-binned"):
        # locality is the one-bin case, its files named without the bin suffix
        edges = [0] if obs == "locality" else _int_list("--bin-edges", args.bin_edges)
        matrix = effective_masks(_layer_chain(masks, args.layer))
        maps = locality_map_binned(matrix, geom, args.channel, edges)
        tag = "same" if args.channel == "same" else "diff"
        base = _analysis_dir(run_dir) / f"{stem}_locality_l{args.layer}_{tag}"
        for i, (lmap, hi) in enumerate(zip(maps, [*edges[1:], "inf"])):
            name = base if obs == "locality" else f"{base}_bin{i}_{edges[i]}-{hi}"
            reports.export_locality_csv(lmap.grid, f"{name}.csv")
            reports.export_locality_image(lmap.grid, f"{name}.pgm")
        print(f"wrote {base}.csv" if obs == "locality" else f"wrote {len(maps)} binned maps to {base.parent}")
        return 0

    if obs == "effmask":
        mu = effective_masks(_layer_chain(masks, args.layer, lowest=2))
        path = _analysis_dir(run_dir) / f"{stem}_effmask_l{args.layer}.tkms"
        reports.save_masks(path, MaskSet([mu]))
        print(f"wrote {path}")
        return 0

    if obs == "pixmap":
        values = connectivity(masks, 0, "out").values
        base = _analysis_dir(run_dir) / f"{stem}_pixmap"
        reports.export_pixmap_csv(values, geom, f"{base}.csv")
        reports.export_count_image(values, geom, f"{base}.{_netpbm_ext(geom)}")
        print(f"wrote {base}.csv")
        return 0

    if obs == "binomial":
        n_prev = _layer_chain(masks, args.layer)[-1].shape[0]
        k_max = args.k_max if args.k_max is not None else n_prev
        pmf = binomial_reference(n_prev, density(masks)[0][args.layer - 1], k_max)
        base = _analysis_dir(run_dir) / f"{stem}_binomial_l{args.layer}"
        reports._write_csv(f"{base}.csv", "k,pmf", enumerate(pmf.tolist()))
        print(f"wrote {base}.csv")
        return 0

    raise AssertionError(obs)


def _validation_split(run_dir: Path, manifest: dict):
    """The validation split the run evaluated on, as its stored file."""
    val_file = manifest["val_file"]
    val_ds = reports.load_split(run_dir / val_file)
    geom = ImageGeometry(**manifest["geometry"])
    if val_ds.geometry != geom:
        raise ValueError(f"{val_file} holds {val_ds.geometry} images, the run {geom}")
    if val_ds.n_classes != manifest["dims"][-1]:
        raise ValueError(f"{val_file} holds {val_ds.n_classes} classes, "
                         f"the network {manifest['dims'][-1]} outputs")
    return val_ds


def cmd_ablate(args) -> int:
    run_dir, manifest, entry, masks = _open_iteration(args)
    val_ds = _validation_split(run_dir, manifest)
    params = reports.load_checkpoint(run_dir / entry["params_file"])
    if len(val_ds) == 0:
        raise ValueError("run has no validation split to evaluate on")
    n_nodes = masks.masks[0].shape[1]
    if args.counts:
        counts = _int_list("--counts", args.counts)
    else:
        counts = sorted(set(int(c) for c in np.linspace(0, n_nodes, 11)))
    orders = ("ascending", "descending") if args.order == "both" else (args.order,)
    curves = ablation_curves(params, masks, val_ds, orders, counts)
    rows = [(order, removed, acc) for order in orders for removed, acc in curves[order]]
    out = _analysis_dir(run_dir) / f"iter{args.iteration:03d}_ablation.csv"
    reports._write_csv(out, "order,removed,accuracy", rows)
    print(f"wrote {out}")
    return 0


def cmd_export_masks(args) -> int:
    run_dir, manifest, entry, masks = _open_iteration(args)
    geom = ImageGeometry(**manifest["geometry"])
    matrix = effective_masks(_layer_chain(masks, args.layer))
    if args.weighted and args.layer != 1:
        raise ValueError("weighted export is only defined for layer 1")
    n_nodes = matrix.shape[1]
    if not 0 <= args.top <= n_nodes:
        raise ValueError(f"--top must lie in [0, {n_nodes}]")
    ranked = np.argsort(-matrix.sum(axis=0, dtype=np.int64), kind="stable")[: args.top]
    out_dir = _analysis_dir(run_dir)
    ext = _netpbm_ext(geom)
    weights = None
    if args.weighted:
        weights = reports.load_checkpoint(run_dir / entry["params_file"]).weights[0]
    for rank, node in enumerate(ranked):
        base = out_dir / f"iter{args.iteration:03d}_mask_l{args.layer}_rank{rank:02d}_node{node:04d}"
        reports.export_mask_image(matrix[:, node], geom, f"{base}.{ext}")
        if weights is not None:
            reports.export_weighted_mask_image(weights[:, node], geom, f"{base}_weighted.{ext}",
                                               matrix[:, node])
    print(f"wrote {len(ranked)} mask images to {out_dir}")
    return 0


def cmd_synth(args) -> int:
    cfg = load_run_config(args.config)
    d = cfg["dataset"]
    if d["format"] != "synthetic":
        raise ValueError("synth needs a config with dataset.format = synthetic")
    ds = _load_images(d)
    if args.out_cifar:
        save_cifar_binary(ds, args.out_cifar)
        print(f"wrote {len(ds)} images to {args.out_cifar}")
    else:
        if not (args.out_images and args.out_labels):
            raise ValueError("need --out-images and --out-labels (or --out-cifar)")
        save_idx(ds, args.out_images, args.out_labels)
        print(f"wrote {len(ds)} images to {args.out_images}")
    return 0


def cmd_cluster(args) -> int:
    if args.mode == "semantic" and not args.mapping:
        raise ValueError("semantic clustering needs --mapping")
    mapping = load_class_mapping(args.mapping) if args.mode == "semantic" else None
    if args.format == "idx":
        if not args.labels:
            raise ValueError("idx clustering needs --labels")
        cluster_idx_labels(args.labels, args.out, args.mode, mapping)
    else:
        if not args.data:
            raise ValueError("cifar clustering needs --data")
        cluster_cifar_batch(args.data, args.out, args.mode, mapping)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ticketsift",
        description="Train, iteratively prune, and structurally analyze fully "
                    "connected image classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="dense run (imp iteration 0) into a new directory")
    p.add_argument("--config", required=True)

    p = sub.add_parser("imp", help="iterative magnitude pruning run (resumable)")
    p.add_argument("--config", required=True)

    p = sub.add_parser("analyze", help="export observables of a stored iteration")
    p.add_argument("run_dir")
    p.add_argument("observable",
                   choices=["conn", "locality", "locality-binned", "effmask", "pixmap", "binomial"])
    p.add_argument("--iteration", type=int, required=True)
    p.add_argument("--layer", type=int, default=1)
    p.add_argument("--direction", choices=["in", "out"], default="in")
    p.add_argument("--channel", choices=["same", "different"], default="same")
    p.add_argument("--bin-width", type=int, default=1)
    p.add_argument("--bin-edges", default="0", help="comma-separated ascending lower bounds")
    p.add_argument("--k-max", type=int, default=None)

    p = sub.add_parser("ablate", help="accuracy under connectivity-ordered node removal")
    p.add_argument("run_dir")
    p.add_argument("--iteration", type=int, required=True)
    p.add_argument("--order", choices=["ascending", "descending", "both"], default="both")
    p.add_argument("--counts", default="", help="comma-separated removal counts")

    p = sub.add_parser("export-masks", help="netpbm images of the most connected nodes")
    p.add_argument("run_dir")
    p.add_argument("--iteration", type=int, required=True)
    p.add_argument("--layer", type=int, default=1)
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--weighted", action="store_true")

    p = sub.add_parser("synth", help="write the configured synthetic dataset to disk")
    p.add_argument("--config", required=True)
    p.add_argument("--out-images")
    p.add_argument("--out-labels")
    p.add_argument("--out-cifar")

    p = sub.add_parser("cluster", help="rewrite dataset labels into macro classes")
    p.add_argument("--format", choices=["idx", "cifar"], required=True)
    p.add_argument("--mode", choices=["random", "semantic"], required=True)
    p.add_argument("--labels", help="input IDX label file")
    p.add_argument("--data", help="input CIFAR binary batch")
    p.add_argument("--mapping", help="class mapping JSON for semantic mode")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up when the command runs, so a cmd_* global patched after the
    # parser was built is the handler that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
