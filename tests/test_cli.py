import json
import os
import re
import shutil
import struct
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from ticketsift import cli
from ticketsift.cli import build_dataset, build_parser, load_run_config, main
from ticketsift.datasets import (
    ImageGeometry,
    cluster_classes,
    generate_synthetic,
    load_cifar_binary,
    load_idx,
    rotate_images,
    save_cifar_binary,
    save_idx,
    split_train_val,
    subsample,
)
from ticketsift.observables import locality_map
from ticketsift.pruner import ImpConfig, imp_settings, run_imp
from ticketsift.reports import load_checkpoint, load_locality_csv, load_masks, load_split, save_split
from ticketsift.trainer import TrainConfig

from conftest import file_digests, random_dataset, traced_peak

DIMS = [16, 8, 4, 2]


def base_config(run_dir):
    return {
        "dataset": {
            "format": "synthetic",
            "n_val": 16,
            "seed": 0,
            "synthetic": {
                "width": 4, "height": 4, "channels": 1, "n_classes": 2,
                "n_per_class": 24, "patch": [1, 1, 2, 2], "noise_sd": 0.25,
            },
        },
        "network": {"dims": DIMS},
        "train": {"batch_size": 8, "lr": 0.1, "steps": 6, "eval_every": 3,
                  "rewind_step": 2, "seed": 5},
        "imp": {"max_iterations": 2, "prune_fraction": 0.3, "rewind_step": 2},
        "output": {"run_dir": str(run_dir)},
    }


def write_config(path, cfg):
    Path(path).write_text(json.dumps(cfg))
    return str(path)


def config_section(raw, key):
    """The section of a run configuration that holds a dotted key, and the key's last part."""
    *path, last = key.split(".")
    for name in path:
        raw = raw[name]
    return raw, last


class FailingReplace:
    """A stand-in for os.replace that records every destination and raises
    OSError on its k-th call (k = 0: never)."""

    def __init__(self, k=0):
        self.k, self.targets, self.real = k, [], os.replace

    def __call__(self, src, dst, **kw):
        self.targets.append(Path(dst))
        if len(self.targets) == self.k:
            raise OSError(f"rename {self.k} failed")
        self.real(src, dst, **kw)


@pytest.fixture(scope="module")
def imp_run(tmp_path_factory):
    """One pruning run shared by the read-only analysis tests."""
    root = tmp_path_factory.mktemp("imp")
    run_dir = root / "run"
    config = write_config(root / "config.json", base_config(run_dir))
    assert main(["imp", "--config", config]) == 0
    return run_dir, config


class TestRunConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path / "c.json", base_config(tmp_path / "r")))
        assert cfg["dataset"]["fraction"] == 1.0
        assert cfg["dataset"]["cluster_mode"] is None
        assert cfg["train"]["optimizer"] == "sgd"
        assert cfg["imp"]["max_iterations"] == 2
        # the manifest stores the sections in this key order
        assert list(cfg["dataset"]) == ["format", "paths", "fraction", "cluster_mode", "mapping_path",
                                        "rotate_degrees", "translate_augment", "n_val", "seed", "synthetic"]
        assert list(cfg["dataset"]["synthetic"]) == ["width", "height", "channels", "n_classes",
                                                     "n_per_class", "patch", "noise_sd"]

    def test_unknown_key_rejected(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["dataset"]["momentum"] = 0.9
        with pytest.raises(ValueError, match="unknown config keys"):
            load_run_config(write_config(tmp_path / "c.json", raw))

    def test_missing_required_key_rejected(self, tmp_path):
        raw = base_config(tmp_path / "r")
        del raw["dataset"]["n_val"]
        with pytest.raises(ValueError, match="missing config keys"):
            load_run_config(write_config(tmp_path / "c.json", raw))

    def test_bool_is_not_an_integer(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["train"]["steps"] = True
        with pytest.raises(ValueError, match="steps"):
            load_run_config(write_config(tmp_path / "c.json", raw))

    def test_idx_needs_two_paths(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["dataset"]["format"] = "idx"
        raw["dataset"]["paths"] = ["images.idx"]
        del raw["dataset"]["synthetic"]
        with pytest.raises(ValueError, match="images, labels"):
            load_run_config(write_config(tmp_path / "c.json", raw))

    def test_synthetic_section_only_for_synthetic_format(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["dataset"]["format"] = "cifar"
        raw["dataset"]["paths"] = ["batch.bin"]
        with pytest.raises(ValueError, match="only valid"):
            load_run_config(write_config(tmp_path / "c.json", raw))

    def test_semantic_cluster_needs_mapping(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["dataset"]["cluster_mode"] = "semantic"
        with pytest.raises(ValueError, match="mapping_path"):
            load_run_config(write_config(tmp_path / "c.json", raw))

    def test_imp_section_validated_up_front(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["imp"]["prune_fraction"] = 1.5
        with pytest.raises(ValueError, match="prune_fraction"):
            load_run_config(write_config(tmp_path / "c.json", raw))

    @pytest.mark.parametrize("command", ["train", "imp"])
    @pytest.mark.parametrize("section,key,value", [
        ("train", "batch_size", 8.5),
        ("train", "eval_every", 2.5),
        ("train", "seed", True),
        ("train", "steps", 6.0),
        ("train", "lr", "0.1"),
        ("train", "optimizer", 1),
        ("train", "adam_eps", None),
        ("imp", "max_iterations", 1.5),
        ("imp", "rewind_step", False),
        ("imp", "prune_fraction", "0.3"),
        ("imp", "layers_to_prune", [1.0]),
        ("train", "lr", float("nan")),
        ("train", "adam_eps", float("inf")),
        ("imp", "prune_fraction", float("nan")),
        ("dataset", "rotate_degrees", float("inf")),
        ("dataset", "fraction", float("nan")),
    ])
    def test_section_types_checked(self, tmp_path, capsys, command, section, key, value):
        raw = base_config(tmp_path / "run")
        raw[section][key] = value
        assert main([command, "--config", write_config(tmp_path / "c.json", raw)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value,message", [
        # a wrong type names the key; paths, cluster_mode and patch keep the messages of their own checks
        ("dataset.format", 5, "config dataset.format must be a string"),
        ("dataset.paths", "a", "config dataset.paths must be a list of strings"),
        ("dataset.paths", None, "config dataset.paths must be a list of strings"),
        ("dataset.fraction", "1", "config dataset.fraction must be a finite number"),
        ("dataset.cluster_mode", 5, "config dataset.cluster_mode must be random or semantic, got 5"),
        ("dataset.mapping_path", 5, "config dataset.mapping_path must be a string"),
        ("dataset.rotate_degrees", "90", "config dataset.rotate_degrees must be a finite number"),
        ("dataset.translate_augment", 1, "config dataset.translate_augment must be a boolean"),
        ("dataset.n_val", 16.5, "config dataset.n_val must be an integer"),
        ("dataset.seed", "0", "config dataset.seed must be an integer"),
        ("dataset.synthetic.width", 4.5, "config dataset.synthetic.width must be an integer"),
        ("dataset.synthetic.height", "4", "config dataset.synthetic.height must be an integer"),
        ("dataset.synthetic.channels", True, "config dataset.synthetic.channels must be an integer"),
        ("dataset.synthetic.n_classes", [2], "config dataset.synthetic.n_classes must be an integer"),
        ("dataset.synthetic.n_per_class", 24.0, "config dataset.synthetic.n_per_class must be an integer"),
        ("dataset.synthetic.patch", [1, 1, 2, 2.5], "config dataset.synthetic.patch must be an integer"),
        ("dataset.synthetic.patch", [1, 1, 2], "dataset.synthetic.patch must be [x, y, width, height]"),
        ("dataset.synthetic.patch", None, "dataset.synthetic.patch must be [x, y, width, height]"),
        ("dataset.synthetic.noise_sd", "0.25", "config dataset.synthetic.noise_sd must be a finite number"),
        ("network.dims", [16, 8.0, 2], "config network.dims must be a non-empty list of integers"),
        ("network.dims", [], "config network.dims must be a non-empty list of integers"),
        ("output.run_dir", 5, "config output.run_dir must be a string"),
        # a section that is not an object
        ("dataset", None, "config section 'dataset' must be an object"),
        ("network", None, "config section 'network' must be an object"),
        ("train", None, "config section 'train' must be an object"),
        ("output", None, "config section 'output' must be an object"),
        ("imp", [], "config section 'imp' must be an object"),
        ("dataset.synthetic", "x", "config section 'dataset.synthetic' must be an object"),
        ("dataset.synthetic", None, "synthetic format needs a dataset.synthetic section"),
        # a value outside the allowed ones
        ("dataset.format", "png", "config dataset.format must be idx, cifar, or synthetic, got 'png'"),
    ] + [
        # null is refused wherever the default is not null
        (key, None, f"config {key} must not be null")
        for key in ["dataset.format", "dataset.fraction", "dataset.translate_augment", "dataset.n_val",
                    "dataset.seed", "network.dims", "output.run_dir"]
        + [f"dataset.synthetic.{k}" for k in ("width", "height", "channels", "n_classes", "n_per_class",
                                              "noise_sd")]
        + [f"train.{k}" for k in ("batch_size", "lr", "optimizer", "adam_beta1", "adam_beta2", "adam_eps",
                                  "steps", "eval_every", "rewind_step", "seed")]
        + [f"imp.{k}" for k in ("prune_fraction", "rewind_step", "stop_node_fraction", "max_iterations")]
    ])
    def test_refusal_messages(self, tmp_path, key, value, message):
        raw = base_config(tmp_path / "r")
        section, last = config_section(raw, key)
        section[last] = value
        with pytest.raises(ValueError) as refused:
            load_run_config(write_config(tmp_path / "c.json", raw))
        assert str(refused.value) == message

    def test_top_level_must_be_an_object(self, tmp_path):
        with pytest.raises(ValueError) as refused:
            load_run_config(write_config(tmp_path / "c.json", [base_config(tmp_path / "r")]))
        assert str(refused.value) == "config section '(top level)' must be an object"

    @pytest.mark.parametrize("key", ["dataset.cluster_mode", "dataset.mapping_path", "dataset.rotate_degrees",
                                     "dataset.synthetic", "imp", "imp.layers_to_prune"])
    def test_null_where_the_default_is_null(self, tmp_path, key):
        raw = base_config(tmp_path / "r")
        if key == "dataset.synthetic":
            raw["dataset"] = {"format": "idx", "paths": ["images.idx", "labels.idx"], "n_val": 16}
        section, last = config_section(raw, key)
        section.pop(last, None)
        omitted = load_run_config(write_config(tmp_path / "omitted.json", raw))
        section[last] = None
        cfg = load_run_config(write_config(tmp_path / "null.json", raw))
        assert cfg == omitted
        section, last = config_section(cfg, key)
        assert section[last] is None

    def test_imp_rewind_step_beyond_training_rejected(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["imp"]["rewind_step"] = 50
        assert main(["imp", "--config", write_config(tmp_path / "c.json", raw)]) == 1
        assert "rewind_step" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_omitted_imp_rewind_step_named(self, tmp_path, capsys):
        # an omitted imp.rewind_step is train.rewind_step
        raw = base_config(tmp_path / "given")
        raw["train"].update(steps=20, rewind_step=3)
        raw["imp"].update(rewind_step=3, max_iterations=0)
        assert main(["imp", "--config", write_config(tmp_path / "given.json", raw)]) == 0
        del raw["imp"]["rewind_step"]
        raw["output"]["run_dir"] = str(tmp_path / "omitted")
        assert main(["imp", "--config", write_config(tmp_path / "omitted.json", raw)]) == 0
        assert ((tmp_path / "omitted/rewind.tkts").read_bytes()
                == (tmp_path / "given/rewind.tkts").read_bytes())
        # a given one outside the training run is named with its value
        raw["imp"]["rewind_step"] = 21
        raw["output"]["run_dir"] = str(tmp_path / "run")
        assert main(["imp", "--config", write_config(tmp_path / "c.json", raw)]) == 1
        err = capsys.readouterr().err
        assert "imp.rewind_step = 21" in err
        assert "train.steps = 20" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "imp"])
    @pytest.mark.parametrize("key,value", [
        ("noise_sd", float("nan")), ("adam_beta1", 5.0), ("adam_beta2", 1.0), ("adam_eps", 0.0),
    ])
    def test_out_of_range_numbers_rejected(self, tmp_path, capsys, command, key, value):
        raw = base_config(tmp_path / "run")
        (raw["dataset"]["synthetic"] if key == "noise_sd" else raw["train"])[key] = value
        assert main([command, "--config", write_config(tmp_path / "c.json", raw)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_imp_section_normalized(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["imp"] = {"max_iterations": 3}
        cfg = load_run_config(write_config(tmp_path / "c.json", raw))
        assert cfg["imp"] == {"prune_fraction": 0.3, "rewind_step": 2, "stop_node_fraction": 0.8,
                              "max_iterations": 3, "layers_to_prune": None}
        dims, imp_cfg = imp_settings(cfg)
        assert dims == DIMS
        assert imp_cfg == ImpConfig(TrainConfig(**cfg["train"]), **cfg["imp"])

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_run_config(path)

    def test_cli_reports_config_errors_on_stderr(self, tmp_path, capsys):
        raw = base_config(tmp_path / "r")
        raw["extra"] = {}
        code = main(["train", "--config", write_config(tmp_path / "c.json", raw)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def desk_config(run_dir, seed=1):
    """The desk recipe's dataset: 5000 images of 32x32, about 20 MiB, 1000 for validation."""
    raw = base_config(run_dir)
    raw["dataset"].update(n_val=1000, seed=seed)
    raw["dataset"]["synthetic"] = {"width": 32, "height": 32, "channels": 1, "n_classes": 4,
                                   "n_per_class": 1250, "patch": [12, 12, 8, 8], "noise_sd": 1.0}
    raw["network"]["dims"] = [1024, 128, 128, 128, 4]
    return raw


class TestBuildDataset:
    @pytest.mark.parametrize("fraction", [1.0, 0.7])
    def test_bytes_match_split_of_generated_images(self, tmp_path, fraction):
        raw = desk_config(tmp_path / "r", seed=3)
        raw["dataset"]["synthetic"]["n_per_class"] = 300
        raw["dataset"].update(n_val=150, fraction=fraction)
        train_ds, val_ds = build_dataset(load_run_config(write_config(tmp_path / "c.json", raw)))
        full = generate_synthetic(ImageGeometry(32, 32, 1), 300, (12, 12, 8, 8), 4, 1.0, 3)
        if fraction != 1.0:
            full = subsample(full, fraction, 3)
        for part, want in zip((train_ds, val_ds), split_train_val(full, 150, 3)):
            assert part.images.tobytes() == want.images.tobytes()
            assert part.labels.tobytes() == want.labels.tobytes()

    def test_random_clusters_then_rotates_then_subsamples(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["dataset"].update(cluster_mode="random", rotate_degrees=90, fraction=0.5, n_val=8)
        parts = build_dataset(load_run_config(write_config(tmp_path / "c.json", raw)))
        full = generate_synthetic(ImageGeometry(4, 4, 1), 24, (1, 1, 2, 2), 2, 0.25, 0)
        wants = split_train_val(subsample(rotate_images(cluster_classes(full, "random"), 90), 0.5, 0), 8, 0)
        for part, want in zip(parts, wants):
            assert part.n_classes == want.n_classes == 10
            assert part.images.tobytes() == want.images.tobytes()
            assert part.labels.tobytes() == want.labels.tobytes()

    def test_cifar_format_reads_every_batch(self, tmp_path, rng):
        batches = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path, n in zip(batches, (5, 7)):
            save_cifar_binary(random_dataset(rng, ImageGeometry(32, 32, 3), n, 10), path)
        raw = base_config(tmp_path / "r")
        raw["dataset"] = {"format": "cifar", "paths": [str(p) for p in batches], "n_val": 4, "seed": 2}
        raw["network"]["dims"] = [3072, 8, 10]
        parts = build_dataset(load_run_config(write_config(tmp_path / "c.json", raw)))
        for part, want in zip(parts, split_train_val(load_cifar_binary(batches), 4, 2)):
            assert part.n_classes == want.n_classes == 10
            assert part.images.tobytes() == want.images.tobytes()
            assert part.labels.tobytes() == want.labels.tobytes()

    def test_peak_memory_is_one_image_array(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path / "c.json", desk_config(tmp_path / "r")))
        (train_ds, val_ds), peak = traced_peak(lambda: build_dataset(cfg))
        assert len(val_ds) == 1000
        # train and val are row ranges of the generated images; the shuffled
        # copy and the split's gathers beside it held 2.04x
        assert peak <= 1.2 * sum(ds.images.nbytes + ds.labels.nbytes for ds in (train_ds, val_ds))


class TestSynthCommand:
    def test_writes_idx_pair(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", base_config(tmp_path / "r"))
        images, labels = tmp_path / "im.idx", tmp_path / "lb.idx"
        code = main(["synth", "--config", config,
                     "--out-images", str(images), "--out-labels", str(labels)])
        assert code == 0
        ds = load_idx(images, labels)
        assert len(ds) == 48
        assert ds.n_classes == 2
        assert sorted(np.unique(ds.labels).tolist()) == [0, 1]

    def test_writes_cifar_batch(self, tmp_path):
        raw = base_config(tmp_path / "r")
        raw["dataset"]["synthetic"].update(width=32, height=32, channels=3, n_per_class=3)
        raw["network"]["dims"] = [3072, 8, 2]
        config = write_config(tmp_path / "c.json", raw)
        out = tmp_path / "batch.bin"
        assert main(["synth", "--config", config, "--out-cifar", str(out)]) == 0
        assert out.stat().st_size == 6 * 3073
        assert len(load_cifar_binary([out])) == 6

    def test_missing_outputs_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", base_config(tmp_path / "r"))
        assert main(["synth", "--config", config]) == 1
        assert "out-images" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_run_directory(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path / "c.json", base_config(run_dir))
        assert main(["train", "--config", config]) == 0
        assert "best validation accuracy" in capsys.readouterr().out
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "imp"
        assert len(manifest["iterations"]) == 1
        assert isinstance(manifest["iterations"][0]["best_val"], float)
        ckpt = load_checkpoint(run_dir / "rewind.tkts")
        assert ckpt.dims == DIMS

    def test_zero_steps(self, tmp_path):
        raw = base_config(tmp_path / "run")
        raw["train"].update(steps=0, rewind_step=0)
        raw["imp"]["rewind_step"] = 0
        config = write_config(tmp_path / "c.json", raw)
        assert main(["train", "--config", config]) == 0
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert manifest["iterations"][0]["best_val"] is None

    def test_deterministic_modulo_timestamp(self, tmp_path):
        for name in ("a", "b"):
            raw = base_config(tmp_path / name)
            assert main(["train", "--config", write_config(tmp_path / f"{name}.json", raw)]) == 0
        for rel in ("iters/000/params.tkts", "iters/000/masks.tkms", "rewind.tkts",
                    "iters/000/train_curve.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        manifests = []
        for name in ("a", "b"):
            m = json.loads((tmp_path / name / "manifest.json").read_text())
            m.pop("created_at")  # the run directory is not recorded
            manifests.append(m)
        assert manifests[0] == manifests[1]

    def test_dims_mismatch_leaves_no_run_dir(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["network"]["dims"] = [15, 8, 2]
        assert main(["train", "--config", write_config(tmp_path / "c.json", raw)]) == 1
        assert "image size" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_dataset_file_leaves_no_run_dir(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["dataset"]["format"] = "idx"
        raw["dataset"]["paths"] = [str(tmp_path / "no.idx"), str(tmp_path / "no2.idx")]
        del raw["dataset"]["synthetic"]
        assert main(["train", "--config", write_config(tmp_path / "c.json", raw)]) == 1
        assert not (tmp_path / "run").exists()

    def test_equals_imp_iteration_zero(self, imp_run, tmp_path):
        config = write_config(tmp_path / "c.json", base_config(tmp_path / "run"))
        assert main(["train", "--config", config]) == 0
        for rel in ("rewind.tkts", "iters/000/masks.tkms", "iters/000/params.tkts",
                    "iters/000/train_curve.csv"):
            assert (tmp_path / "run" / rel).read_bytes() == (imp_run[0] / rel).read_bytes()

    def test_imp_extends_matching_train_run(self, imp_run, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        config = write_config(tmp_path / "c.json", raw)
        assert main(["train", "--config", config]) == 0
        other = dict(raw, imp={**raw["imp"], "prune_fraction": 0.5})
        assert main(["imp", "--config", write_config(tmp_path / "other.json", other)]) == 1
        assert "different configuration" in capsys.readouterr().err
        assert main(["imp", "--config", config]) == 0
        assert "completed 3 iterations" in capsys.readouterr().out
        for n in (1, 2):
            for name in ("masks.tkms", "params.tkts", "train_curve.csv"):
                rel = f"iters/{n:03d}/{name}"
                assert (tmp_path / "run" / rel).read_bytes() == (imp_run[0] / rel).read_bytes()
        assert (tmp_path / "run/imp_curve.csv").read_bytes() == (imp_run[0] / "imp_curve.csv").read_bytes()

    def test_rewinds_at_the_imp_rewind_step(self, imp_run, tmp_path, capsys):
        raw = base_config(tmp_path / "trained")
        raw["imp"]["rewind_step"] = 4  # train.rewind_step is 2
        config = write_config(tmp_path / "c.json", raw)
        assert main(["train", "--config", config]) == 0
        manifest = json.loads((tmp_path / "trained/manifest.json").read_text())
        assert manifest["imp_config"]["max_iterations"] == 0
        oneshot = dict(raw, output={"run_dir": str(tmp_path / "oneshot")})
        assert main(["imp", "--config", write_config(tmp_path / "oneshot.json", oneshot)]) == 0
        zero = ("rewind.tkts", "iters/000/masks.tkms", "iters/000/params.tkts",
                "iters/000/train_curve.csv")
        for rel in zero:
            assert (tmp_path / "trained" / rel).read_bytes() == (tmp_path / "oneshot" / rel).read_bytes()
        rewound_at_2 = (imp_run[0] / "rewind.tkts").read_bytes()
        assert (tmp_path / "trained/rewind.tkts").read_bytes() != rewound_at_2
        assert main(["imp", "--config", config]) == 0
        assert "completed 3 iterations" in capsys.readouterr().out
        for rel in ("iters/001/params.tkts", "iters/002/params.tkts", "imp_curve.csv"):
            assert (tmp_path / "trained" / rel).read_bytes() == (tmp_path / "oneshot" / rel).read_bytes()

    def test_refuses_existing_imp_run(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["imp"]["max_iterations"] = 1
        config = write_config(tmp_path / "c.json", raw)
        assert main(["imp", "--config", config]) == 0
        kept = [tmp_path / "run/manifest.json", *sorted((tmp_path / "run/iters/001").iterdir())]
        before = [path.read_bytes() for path in kept]
        capsys.readouterr()
        assert main(["train", "--config", config]) == 1
        assert "already holds a run" in capsys.readouterr().err
        assert [path.read_bytes() for path in kept] == before


class TestImpCommand:
    def test_runs_and_reports(self, imp_run, capsys):
        run_dir, config = imp_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "imp"
        assert [it["n"] for it in manifest["iterations"]] == [0, 1, 2]
        # rerunning a finished run is a cheap no-op
        assert main(["imp", "--config", config]) == 0
        assert "completed 3 iterations" in capsys.readouterr().out

    def test_rerun_of_a_finished_run_changes_no_byte(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["imp"]["max_iterations"] = 1
        config = write_config(tmp_path / "c.json", raw)
        assert main(["imp", "--config", config]) == 0
        before = {p: p.read_bytes() for p in (tmp_path / "run").rglob("*") if p.is_file()}
        assert main(["imp", "--config", config]) == 0
        assert "completed 2 iterations (max_iterations)" in capsys.readouterr().out
        assert {p: p.read_bytes() for p in (tmp_path / "run").rglob("*") if p.is_file()} == before
        # nor does one with a lower max_iterations: the manifest keeps the run's
        raw["imp"]["max_iterations"] = 0
        assert main(["imp", "--config", write_config(tmp_path / "lower.json", raw)]) == 0
        assert "completed 2 iterations (max_iterations)" in capsys.readouterr().out
        assert {p: p.read_bytes() for p in (tmp_path / "run").rglob("*") if p.is_file()} == before

    def test_resume_with_other_dataset_rejected(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["dataset"]["seed"] = 4
        raw["imp"]["max_iterations"] = 1
        assert main(["imp", "--config", write_config(tmp_path / "a.json", raw)]) == 0
        manifest = (tmp_path / "run/manifest.json").read_bytes()
        raw["dataset"]["seed"] = 99
        assert main(["imp", "--config", write_config(tmp_path / "b.json", raw)]) == 1
        assert "different configuration" in capsys.readouterr().err
        assert (tmp_path / "run/manifest.json").read_bytes() == manifest
        # a moved run directory and a higher max_iterations still resume
        (tmp_path / "run").rename(tmp_path / "moved")
        raw["dataset"]["seed"] = 4
        raw["imp"]["max_iterations"] = 2
        raw["output"]["run_dir"] = str(tmp_path / "moved")
        assert main(["imp", "--config", write_config(tmp_path / "c.json", raw)]) == 0
        assert "completed 3 iterations" in capsys.readouterr().out

    def test_settings_stored_once(self, imp_run):
        run_dir, config = imp_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        cfg = load_run_config(config)
        assert not {"run_config", "network", "train", "imp", "output"} & set(manifest)
        assert manifest["dims"] == cfg["network"]["dims"]
        assert manifest["imp_config"] == asdict(imp_settings(cfg)[1])
        assert manifest["imp_config"]["train_cfg"]["translate_augment"] is False
        assert manifest["dataset"] == cfg["dataset"]

    def test_run_config_must_give_the_run_settings(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path / "c.json", base_config(tmp_path / "run")))
        train_ds, val_ds = build_dataset(cfg)
        dims, imp_cfg = imp_settings(cfg)
        train_cfg = replace(imp_cfg.train_cfg, translate_augment=True)
        for other_dims, other_cfg in [([16, 4, 2], imp_cfg), (dims, replace(imp_cfg, max_iterations=1)),
                                      (dims, replace(imp_cfg, prune_fraction=0.5)),
                                      (dims, replace(imp_cfg, train_cfg=train_cfg))]:
            with pytest.raises(ValueError, match="run_config"):
                run_imp(other_dims, train_ds, val_ds, other_cfg, tmp_path / "run", run_config=cfg)
        assert not (tmp_path / "run").exists()

    def test_library_resume_keeps_run_config(self, tmp_path):
        raw = base_config(tmp_path / "run")
        raw["imp"]["max_iterations"] = 1
        config = write_config(tmp_path / "c.json", raw)
        assert main(["imp", "--config", config]) == 0
        recorded = json.loads((tmp_path / "run/manifest.json").read_text())
        cfg = load_run_config(config)
        train_ds, val_ds = build_dataset(cfg)
        imp_cfg = ImpConfig(train_cfg=TrainConfig(**cfg["train"]), **{**cfg["imp"], "max_iterations": 2})
        run_imp(cfg["network"]["dims"], train_ds, val_ds, imp_cfg, tmp_path / "run")
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert [it["n"] for it in manifest["iterations"]] == [0, 1, 2]
        # the recorded dataset is kept, and max_iterations raised to the run's
        for key in ("dims", "dataset", "data_sha256"):
            assert manifest[key] == recorded[key]
        assert manifest["imp_config"] == dict(recorded["imp_config"], max_iterations=2)
        assert main(["ablate", str(tmp_path / "run"), "--iteration", "2"]) == 0
        assert main(["imp", "--config", config]) == 0  # the CLI resumes what the library extended
        assert json.loads((tmp_path / "run/manifest.json").read_text()) == manifest

    def test_cli_resume_of_a_library_run_rejected(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["imp"]["max_iterations"] = 1
        config = write_config(tmp_path / "c.json", raw)
        cfg = load_run_config(config)
        dims, imp_cfg = imp_settings(cfg)
        run_imp(dims, *build_dataset(cfg), imp_cfg, tmp_path / "run")  # the same run, no dataset section
        before = file_digests(tmp_path / "run")
        assert main(["imp", "--config", config]) == 1
        assert "different configuration" in capsys.readouterr().err
        assert file_digests(tmp_path / "run") == before

    def test_resume_on_overwritten_data_files_rejected(self, tmp_path, capsys):
        images, labels = str(tmp_path / "a.idx"), str(tmp_path / "b.idx")
        synth = base_config(tmp_path / "unused")
        raw = base_config(tmp_path / "run")
        raw["dataset"] = {"format": "idx", "paths": [images, labels], "n_val": 16}

        def synth_with_seed(seed):
            synth["dataset"]["seed"] = seed
            config = write_config(tmp_path / f"synth{seed}.json", synth)
            assert main(["synth", "--config", config, "--out-images", images, "--out-labels", labels]) == 0

        def imp(max_iterations):
            raw["imp"]["max_iterations"] = max_iterations
            return main(["imp", "--config", write_config(tmp_path / f"imp{max_iterations}.json", raw)])

        synth_with_seed(0)
        assert imp(1) == 0
        synth_with_seed(5)  # over the same paths
        before = file_digests(tmp_path / "run")
        capsys.readouterr()
        assert imp(2) == 1
        assert "the train split differs" in capsys.readouterr().err
        assert file_digests(tmp_path / "run") == before

    def test_resume_on_a_changed_mapping_file_rejected(self, tmp_path, capsys):
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({"n_macro": 2, "table": [0, 1]}))
        raw = base_config(tmp_path / "run")
        raw["dataset"].update(cluster_mode="semantic", mapping_path=str(mapping))
        raw["imp"]["max_iterations"] = 1
        assert main(["imp", "--config", write_config(tmp_path / "a.json", raw)]) == 0
        mapping.write_text(json.dumps({"n_macro": 2, "table": [1, 0]}))  # the same path
        before = file_digests(tmp_path / "run")
        raw["imp"]["max_iterations"] = 2
        assert main(["imp", "--config", write_config(tmp_path / "b.json", raw)]) == 1
        assert "the train split differs" in capsys.readouterr().err
        assert file_digests(tmp_path / "run") == before

    def test_non_square_idx_geometry_recorded(self, tmp_path, rng):
        # 8 x 2 pixels is 16 inputs, which the square rule reads as 4 x 4
        geom = ImageGeometry(8, 2, 1)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        save_idx(random_dataset(rng, geom, 48, 2), images, labels)
        raw = base_config(tmp_path / "run")
        raw["dataset"] = {"format": "idx", "paths": [str(images), str(labels)], "n_val": 16}
        raw["imp"]["max_iterations"] = 1
        assert main(["imp", "--config", write_config(tmp_path / "c.json", raw)]) == 0
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert manifest["geometry"] == {"width": 8, "height": 2, "channels": 1}
        masks = load_masks(tmp_path / "run/iters/001/masks.tkms")
        argv = ["analyze", str(tmp_path / "run"), "locality", "--iteration", "1", "--layer", "1"]
        csv = tmp_path / "run/analysis/iter001_locality_l1_same.csv"
        assert main(argv) == 0
        assert np.array_equal(load_locality_csv(csv), locality_map(masks.masks[0], geom, "same").grid)

    def test_config_without_imp_section_rejected(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        del raw["imp"]
        assert main(["imp", "--config", write_config(tmp_path / "c.json", raw)]) == 1
        assert "no imp section" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_connectivity_outputs(self, imp_run):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "conn", "--iteration", "0",
                     "--layer", "1", "--direction", "in"]) == 0
        per_node = (run_dir / "analysis/iter000_conn_l1_in.csv").read_text().strip().splitlines()
        assert per_node[0] == "node,count"
        assert [int(r.split(",")[1]) for r in per_node[1:]] == [16] * 8
        hist = (run_dir / "analysis/iter000_conn_l1_in_hist.csv").read_text().strip().splitlines()
        assert hist[0] == "lower,upper,count"
        assert hist[-1] == "16,17,8"

    def test_connectivity_matches_masks(self, imp_run):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "conn", "--iteration", "2",
                     "--layer", "1", "--direction", "in"]) == 0
        rows = (run_dir / "analysis/iter002_conn_l1_in.csv").read_text().strip().splitlines()[1:]
        masks = load_masks(run_dir / "iters/002/masks.tkms")
        assert [int(r.split(",")[1]) for r in rows] == masks.masks[0].sum(axis=0).tolist()

    def test_locality_dense_iteration(self, imp_run):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "locality", "--iteration", "0",
                     "--layer", "1", "--channel", "same"]) == 0
        grid = load_locality_csv(run_dir / "analysis/iter000_locality_l1_same.csv")
        assert grid.shape == (7, 7)
        assert grid[3, 3] == 0
        assert grid[0, 0] == 8  # all 8 nodes see the one (+3, +3) pixel pair
        assert (run_dir / "analysis/iter000_locality_l1_same.pgm").is_file()

    def test_binned_locality_partitions(self, imp_run):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "locality-binned", "--iteration", "2",
                     "--layer", "1", "--channel", "same", "--bin-edges", "0,5"]) == 0
        parts = [
            load_locality_csv(run_dir / f"analysis/iter002_locality_l1_same_bin{i}_{rng}.csv")
            for i, rng in enumerate(("0-5", "5-inf"))
        ]
        assert main(["analyze", str(run_dir), "locality", "--iteration", "2",
                     "--layer", "1", "--channel", "same"]) == 0
        total = load_locality_csv(run_dir / "analysis/iter002_locality_l1_same.csv")
        assert np.array_equal(parts[0] + parts[1], total)

    def test_effective_mask_export(self, imp_run):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "effmask", "--iteration", "0", "--layer", "2"]) == 0
        mu = load_masks(run_dir / "analysis/iter000_effmask_l2.tkms").masks[0]
        assert mu.shape == (16, 4)
        assert np.all(mu == 1)

    def test_effmask_layer_one_rejected(self, imp_run, capsys):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "effmask", "--iteration", "0", "--layer", "1"]) == 1
        assert "layer in [2" in capsys.readouterr().err

    def test_pixmap_outputs(self, imp_run):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "pixmap", "--iteration", "0"]) == 0
        rows = (run_dir / "analysis/iter000_pixmap.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,c,count"
        assert len(rows) == 17
        assert all(int(r.split(",")[3]) == 8 for r in rows[1:])
        assert (run_dir / "analysis/iter000_pixmap.pgm").is_file()

    def test_binomial_reference_output(self, imp_run):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "binomial", "--iteration", "0", "--layer", "1"]) == 0
        rows = (run_dir / "analysis/iter000_binomial_l1.csv").read_text().strip().splitlines()
        assert rows[0] == "k,pmf"
        assert len(rows) == 18
        assert rows[-1] == "16,1.0"  # the dense mask has density exactly 1

    def test_unknown_observable_is_a_usage_error(self, imp_run):
        run_dir, _ = imp_run
        with pytest.raises(SystemExit):
            main(["analyze", str(run_dir), "entropy", "--iteration", "0"])

    def test_refused_analysis_makes_no_directory(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["imp"]["max_iterations"] = 0
        assert main(["imp", "--config", write_config(tmp_path / "c.json", raw)]) == 0
        run = str(tmp_path / "run")
        refused = [["analyze", run, *argv, "--iteration", "0"] for argv in (
            ["locality", "--layer", "9"], ["locality", "--layer", "0"], ["locality-binned", "--layer", "9"],
            ["locality-binned", "--bin-edges", "5,2"], ["conn", "--layer", "9"], ["effmask", "--layer", "1"],
            ["binomial", "--layer", "0"], ["binomial", "--layer", "9"])]
        refused += [["export-masks", run, "--iteration", "0", *argv] for argv in (
            ["--top", "1", "--layer", "9"], ["--top", "99"], ["--top", "1", "--weighted", "--layer", "2"])]
        for argv in refused:
            assert main(argv) == 1, argv
            assert capsys.readouterr().err.startswith("error:")
            assert not (tmp_path / "run/analysis").exists()

    def test_locality_is_the_one_bin_locality_binned(self, imp_run):
        run_dir, _ = imp_run
        for layer in ("1", "2"):
            for channel in ("same", "different"):
                flags = ["--iteration", "2", "--layer", layer, "--channel", channel]
                assert main(["analyze", str(run_dir), "locality", *flags]) == 0
                assert main(["analyze", str(run_dir), "locality-binned", *flags, "--bin-edges", "0"]) == 0
                base = run_dir / f"analysis/iter002_locality_l{layer}_{channel[:4]}"
                for ext in ("csv", "pgm"):
                    binned = Path(f"{base}_bin0_0-inf.{ext}")
                    assert Path(f"{base}.{ext}").read_bytes() == binned.read_bytes()

    @pytest.mark.parametrize("text", ['{"kind": "imp",\n', "[]\n"], ids=["truncated", "not-an-object"])
    @pytest.mark.parametrize("command", ["analyze", "ablate", "imp"])
    def test_corrupt_manifest_named(self, imp_run, tmp_path, capsys, command, text):
        run_dir, _ = imp_run
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        (copy / "manifest.json").write_text(text)
        argv = {"analyze": ["analyze", str(copy), "conn", "--iteration", "0"],
                "ablate": ["ablate", str(copy), "--iteration", "0"],
                "imp": ["imp", "--config", write_config(tmp_path / "c.json", base_config(copy))]}[command]
        assert main(argv) == 1
        assert str(copy / "manifest.json") in capsys.readouterr().err

    def test_missing_iteration_rejected(self, imp_run, capsys):
        run_dir, _ = imp_run
        assert main(["analyze", str(run_dir), "conn", "--iteration", "9"]) == 1
        assert "no iteration 9" in capsys.readouterr().err


# a reader of a run directory as a command line (RUN and CONFIG filled in per
# case), or None for a library run_imp
RUN_DIR_READERS = {
    "imp": ["imp", "--config", "CONFIG"],
    "train": ["train", "--config", "CONFIG"],
    **{obs: ["analyze", "RUN", obs, "--iteration", "1", "--layer", "2"]
       for obs in ("conn", "locality", "locality-binned", "effmask", "pixmap", "binomial")},
    "ablate": ["ablate", "RUN", "--iteration", "1"],
    "export-masks": ["export-masks", "RUN", "--iteration", "1", "--top", "2"],
    "run_imp": None,
}


class TestManifestShape:
    @pytest.mark.parametrize("reshape, fault", [
        # what the version before manifest_version wrote
        (lambda m: {"format_version": 1, **{k: v for k, v in m.items() if k != "manifest_version"}},
         "none, missing keys manifest_version, extra keys format_version"),
        (lambda m: dict(m, manifest_version=2), "2"),
        (lambda m: {k: v for k, v in m.items() if k != "geometry"}, "1, missing keys geometry"),
        (lambda m: dict(m, run_config=None), "1, extra keys run_config"),
    ], ids=["no-version", "version-2", "key-removed", "run_config-added"])
    @pytest.mark.parametrize("reader", RUN_DIR_READERS)
    def test_other_shape_refused_before_any_write(self, imp_run, tmp_path, capsys, reader, reshape,
                                                  fault):
        run = tmp_path / "run"
        shutil.copytree(imp_run[0], run, ignore=shutil.ignore_patterns("analysis"))
        path = run / "manifest.json"
        path.write_text(json.dumps(reshape(json.loads(path.read_text())), indent=2) + "\n")
        raw = base_config(run)
        raw["imp"]["max_iterations"] = 3  # one more round than the run holds
        config = write_config(tmp_path / "c.json", raw)
        before = file_digests(run)
        message = (rf"{re.escape(str(path))} has manifest_version {fault}; this version reads only "
                   "manifest_version 1, so start the run in a new directory")
        if RUN_DIR_READERS[reader] is None:
            cfg = load_run_config(config)
            dims, imp_cfg = imp_settings(cfg)
            with pytest.raises(ValueError, match=message):
                run_imp(dims, *build_dataset(cfg), imp_cfg, run)
        else:
            argv = [{"RUN": str(run), "CONFIG": config}.get(a, a) for a in RUN_DIR_READERS[reader]]
            assert main(argv) == 1
            assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert file_digests(run) == before
        assert not (run / "analysis").exists()


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_refused_command_line_then_a_valid_one(self, imp_run):
        run_dir, _ = imp_run
        with pytest.raises(SystemExit) as refused:
            main(["analyze", str(run_dir), "entropy", "--iteration", "0"])
        assert refused.value.code == 2
        assert main(["analyze", str(run_dir), "conn", "--iteration", "1", "--direction", "out"]) == 0
        rows = (run_dir / "analysis/iter001_conn_l1_out.csv").read_text().strip().splitlines()
        masks = load_masks(run_dir / "iters/001/masks.tkms")
        assert [int(r.split(",")[1]) for r in rows[1:]] == masks.masks[1].sum(axis=1).tolist()
        assert (run_dir / "analysis/iter001_conn_l1_out_hist.csv").is_file()

    def test_no_argument_carries_over_to_the_next_call(self, imp_run):
        run_dir, _ = imp_run
        out = run_dir / "analysis/iter000_ablation.csv"
        assert main(["ablate", str(run_dir), "--iteration", "0", "--counts", "3"]) == 0
        assert len(out.read_text().strip().splitlines()) == 3
        assert main(["ablate", str(run_dir), "--iteration", "0"]) == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        defaults = range(9)  # int(np.linspace(0, 8, 11)) without repeats, for 8 hidden nodes
        assert [(o, int(n)) for o, n, _ in rows] == [(o, n) for o in ("ascending", "descending")
                                                     for n in defaults]

    def test_handler_is_looked_up_when_the_command_runs(self, imp_run, monkeypatch):
        run_dir, _ = imp_run
        argv = ["analyze", str(run_dir), "binomial", "--iteration", "0"]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.observable) or 7)
        assert main(argv) == 7
        assert seen == ["binomial"]


class TestAblateCommand:
    def test_both_orders(self, imp_run):
        run_dir, _ = imp_run
        assert main(["ablate", str(run_dir), "--iteration", "2",
                     "--order", "both", "--counts", "0,4"]) == 0
        rows = (run_dir / "analysis/iter002_ablation.csv").read_text().strip().splitlines()
        assert rows[0] == "order,removed,accuracy"
        assert len(rows) == 5
        asc0 = [r for r in rows if r.startswith("ascending,0,")]
        desc0 = [r for r in rows if r.startswith("descending,0,")]
        assert asc0[0].split(",")[2] == desc0[0].split(",")[2]

    def test_single_order(self, imp_run):
        run_dir, _ = imp_run
        assert main(["ablate", str(run_dir), "--iteration", "1",
                     "--order", "ascending", "--counts", "0,2,8"]) == 0
        rows = (run_dir / "analysis/iter001_ablation.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        assert all(r.startswith("ascending,") for r in rows[1:])

    def test_count_out_of_range_rejected(self, imp_run, capsys):
        run_dir, _ = imp_run
        assert main(["ablate", str(run_dir), "--iteration", "0", "--counts", "99"]) == 1
        assert "99" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, value", [
        (["ablate", "RUN"], "--counts", "0,,5"),
        (["ablate", "RUN"], "--counts", "2.5"),
        (["analyze", "RUN", "locality-binned"], "--bin-edges", "0,x"),
    ])
    def test_malformed_integer_list_names_the_flag(self, imp_run, capsys, argv, flag, value):
        run_dir, _ = imp_run
        argv = [str(run_dir) if a == "RUN" else a for a in argv]
        assert main([*argv, "--iteration", "0", flag, value]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be comma-separated integers, got {value!r}\n"


    def test_stored_split_is_the_configured_one(self, imp_run, tmp_path):
        run_dir, config = imp_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["val_file"] == "val.tkds"
        stored = load_split(run_dir / "val.tkds")
        _, val_ds = build_dataset(load_run_config(config))
        assert stored.geometry == val_ds.geometry
        assert stored.n_classes == val_ds.n_classes
        assert stored.images.tobytes() == val_ds.images.tobytes()
        assert np.array_equal(stored.labels, val_ds.labels)
        config_b = write_config(tmp_path / "c.json", base_config(tmp_path / "run"))
        assert main(["imp", "--config", config_b]) == 0
        assert (tmp_path / "run/val.tkds").read_bytes() == (run_dir / "val.tkds").read_bytes()

    def test_idx_run_ablates_from_elsewhere_without_its_files(self, tmp_path, rng, monkeypatch):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        save_idx(random_dataset(rng, ImageGeometry(4, 4, 1), 48, 2),
                 tmp_path / "a/img.idx", tmp_path / "a/lbl.idx")
        raw = base_config("run")
        raw["dataset"] = {"format": "idx", "paths": ["img.idx", "lbl.idx"], "n_val": 16}
        raw["imp"]["max_iterations"] = 1
        monkeypatch.chdir(tmp_path / "a")
        assert main(["imp", "--config", write_config("c.json", raw)]) == 0
        monkeypatch.chdir(tmp_path / "b")
        csv = tmp_path / "a/run/analysis/iter001_ablation.csv"
        assert main(["ablate", "../a/run", "--iteration", "1"]) == 0
        first = csv.read_bytes()
        (tmp_path / "a/img.idx").unlink()
        (tmp_path / "a/lbl.idx").unlink()
        assert main(["ablate", "../a/run", "--iteration", "1"]) == 0
        assert csv.read_bytes() == first

    def test_library_run_without_run_config(self, tmp_path, rng):
        ds = random_dataset(rng, ImageGeometry(4, 4, 1), 24, 2)
        train_cfg = TrainConfig(batch_size=8, lr=0.1, steps=6, eval_every=3, rewind_step=2, seed=5)
        run_imp(DIMS, ds, ds, ImpConfig(train_cfg=train_cfg, rewind_step=2, max_iterations=1),
                tmp_path / "run")
        assert main(["ablate", str(tmp_path / "run"), "--iteration", "1"]) == 0

    def test_split_not_matching_the_run_rejected(self, tmp_path, rng, capsys):
        raw = base_config(tmp_path / "run")
        raw["imp"]["max_iterations"] = 0
        assert main(["imp", "--config", write_config(tmp_path / "c.json", raw)]) == 0
        for geom, n_classes, match in [(ImageGeometry(4, 4, 1), 3, "3 classes"),
                                       (ImageGeometry(2, 8, 1), 2, "width=2")]:
            save_split(tmp_path / "run/val.tkds", random_dataset(rng, geom, 16, n_classes))
            assert main(["ablate", str(tmp_path / "run"), "--iteration", "0"]) == 1
            assert match in capsys.readouterr().err

    def test_empty_validation_split_rejected(self, tmp_path, capsys):
        raw = base_config(tmp_path / "run")
        raw["dataset"]["n_val"] = 0
        raw["imp"]["max_iterations"] = 0
        assert main(["imp", "--config", write_config(tmp_path / "c.json", raw)]) == 0
        assert len(load_split(tmp_path / "run/val.tkds")) == 0
        assert main(["ablate", str(tmp_path / "run"), "--iteration", "0"]) == 1
        assert "run has no validation split to evaluate on" in capsys.readouterr().err


class TestExportMasksCommand:
    def test_layer_one_images(self, imp_run, capsys):
        run_dir, _ = imp_run
        assert main(["export-masks", str(run_dir), "--iteration", "2",
                     "--layer", "1", "--top", "3"]) == 0
        assert "wrote 3 mask images" in capsys.readouterr().out
        found = sorted(p.name for p in (run_dir / "analysis").glob("iter002_mask_l1_rank*.pgm"))
        assert len(found) == 3
        assert found[0].startswith("iter002_mask_l1_rank00_node")

    def test_weighted_layer_one(self, imp_run):
        run_dir, _ = imp_run
        assert main(["export-masks", str(run_dir), "--iteration", "1",
                     "--layer", "1", "--top", "1", "--weighted"]) == 0
        assert list((run_dir / "analysis").glob("iter001_mask_l1_rank00_*_weighted.pgm"))

    def test_deep_layer_uses_effective_masks(self, imp_run):
        run_dir, _ = imp_run
        assert main(["export-masks", str(run_dir), "--iteration", "2",
                     "--layer", "2", "--top", "2"]) == 0
        assert len(list((run_dir / "analysis").glob("iter002_mask_l2_rank*.pgm"))) == 2

    def test_weighted_deep_layer_rejected(self, imp_run, capsys):
        run_dir, _ = imp_run
        assert main(["export-masks", str(run_dir), "--iteration", "2",
                     "--layer", "2", "--top", "1", "--weighted"]) == 1
        assert "layer 1" in capsys.readouterr().err

    def test_top_zero_and_too_many(self, imp_run, capsys):
        run_dir, _ = imp_run
        assert main(["export-masks", str(run_dir), "--iteration", "0",
                     "--layer", "1", "--top", "0"]) == 0
        assert main(["export-masks", str(run_dir), "--iteration", "0",
                     "--layer", "1", "--top", "9"]) == 1
        assert "--top" in capsys.readouterr().err


def write_idx_labels(path, labels):
    Path(path).write_bytes(struct.pack(">II", 0x00000801, len(labels)) + bytes(labels))


class TestClusterCommand:
    def test_idx_random_mode(self, tmp_path):
        src, out = tmp_path / "in.idx", tmp_path / "out.idx"
        write_idx_labels(src, list(range(26)))
        assert main(["cluster", "--format", "idx", "--mode", "random",
                     "--labels", str(src), "--out", str(out)]) == 0
        data = out.read_bytes()
        assert struct.unpack(">II", data[:8]) == (0x00000801, 26)
        assert list(data[8:]) == [v % 10 for v in range(26)]

    def test_idx_semantic_mode(self, tmp_path):
        src, out = tmp_path / "in.idx", tmp_path / "out.idx"
        write_idx_labels(src, [0, 1, 2, 3, 3])
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"n_macro": 2, "table": [0, 1, 1, 0]}))
        assert main(["cluster", "--format", "idx", "--mode", "semantic",
                     "--labels", str(src), "--mapping", str(mapping), "--out", str(out)]) == 0
        assert list(out.read_bytes()[8:]) == [0, 1, 1, 0, 0]

    def test_cifar_random_mode(self, tmp_path):
        src, out = tmp_path / "in.bin", tmp_path / "out.bin"
        rec1 = bytes([11]) + bytes(range(256)) * 12
        rec2 = bytes([25]) + bytes([7]) * 3072
        src.write_bytes(rec1 + rec2)
        assert main(["cluster", "--format", "cifar", "--mode", "random",
                     "--data", str(src), "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data[0] == 1 and data[3073] == 5
        assert data[1:3073] == rec1[1:]
        assert data[3074:] == rec2[1:]

    def test_semantic_without_mapping_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.idx"
        write_idx_labels(src, [0, 1])
        assert main(["cluster", "--format", "idx", "--mode", "semantic",
                     "--labels", str(src), "--out", str(tmp_path / "o.idx")]) == 1
        assert "mapping" in capsys.readouterr().err

    def test_truncated_mapping_named(self, tmp_path, capsys):
        src = tmp_path / "in.idx"
        write_idx_labels(src, [0, 1])
        mapping = tmp_path / "map.json"
        mapping.write_text('{"n_macro": 2, "table": [0,')
        assert main(["cluster", "--format", "idx", "--mode", "semantic", "--labels", str(src),
                     "--mapping", str(mapping), "--out", str(tmp_path / "o.idx")]) == 1
        assert str(mapping) in capsys.readouterr().err
        assert not (tmp_path / "o.idx").exists()

    def test_semantic_label_beyond_mapping_rejected(self, tmp_path, capsys):
        src, out = tmp_path / "in.idx", tmp_path / "out.idx"
        write_idx_labels(src, [0, 1, 7])
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"n_macro": 2, "table": [0, 1, 1, 0]}))
        assert main(["cluster", "--format", "idx", "--mode", "semantic",
                     "--labels", str(src), "--mapping", str(mapping), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "labels < 4" in err and "7" in err
        assert not out.exists()

    def test_idx_labels_beyond_a_byte_rejected(self, tmp_path, capsys):
        src, out = tmp_path / "in.idx", tmp_path / "out.idx"
        write_idx_labels(src, [0, 1])
        mapping = tmp_path / "map.json"  # label 0 goes to macro class 299
        mapping.write_text(json.dumps({"n_macro": 300, "table": list(range(299, -1, -1))}))
        assert main(["cluster", "--format", "idx", "--mode", "semantic",
                     "--labels", str(src), "--mapping", str(mapping), "--out", str(out)]) == 1
        assert "IDX labels are single bytes; need n_classes <= 256, got 300" in capsys.readouterr().err
        assert not out.exists()

    def test_cifar_labels_beyond_ten_rejected(self, tmp_path, capsys):
        src, out = tmp_path / "in.bin", tmp_path / "out.bin"
        src.write_bytes(bytes([10]) + bytes(3072) + bytes([11]) + bytes(3072))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"n_macro": 12, "table": list(range(12))}))
        assert main(["cluster", "--format", "cifar", "--mode", "semantic",
                     "--data", str(src), "--mapping", str(mapping), "--out", str(out)]) == 1
        assert "CIFAR labels must be < 10; the mapping has 12 macro classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [0, 3074])
    def test_cifar_size_not_a_record_multiple_rejected(self, tmp_path, capsys, size):
        src, out = tmp_path / "in.bin", tmp_path / "out.bin"
        src.write_bytes(bytes(size))
        assert main(["cluster", "--format", "cifar", "--mode", "random",
                     "--data", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"CIFAR file {src} has {size} bytes, not a positive multiple of 3073" in err
        assert not out.exists()

    def test_idx_without_labels_rejected(self, tmp_path, capsys):
        assert main(["cluster", "--format", "idx", "--mode", "random",
                     "--out", str(tmp_path / "o.idx")]) == 1
        assert "labels" in capsys.readouterr().err


def run_files(run_dir) -> dict:
    """The bytes of every binary and CSV file of a run, and its manifest apart from created_at."""
    run_dir = Path(run_dir)
    files = {p.relative_to(run_dir): p.read_bytes() for p in sorted(run_dir.rglob("*"))
             if p.suffix in (".tkms", ".tkts", ".tkds", ".csv")}
    files["manifest.json"] = json.loads((run_dir / "manifest.json").read_text())
    del files["manifest.json"]["created_at"]
    return files


def uncurved_iterations(run_dir) -> set:
    """The iterations manifest.json lists (none if it is missing) that imp_curve.csv has no row for."""
    run_dir = Path(run_dir)
    if not (run_dir / "manifest.json").is_file():
        return set()
    listed = {it["n"] for it in json.loads((run_dir / "manifest.json").read_text())["iterations"]}
    curve = run_dir / "imp_curve.csv"
    rows = curve.read_text().splitlines()[1:] if curve.is_file() else []
    return listed - {int(row.split(",")[0]) for row in rows}


# Every command that writes files: its command line, and where its outputs go.
WRITING_COMMANDS = {
    "conn": ("analyze {run} conn --iteration 1", "{run}/analysis"),
    "locality": ("analyze {run} locality --iteration 1", "{run}/analysis"),
    "locality-binned": ("analyze {run} locality-binned --iteration 1 --bin-edges 0,2", "{run}/analysis"),
    "effmask": ("analyze {run} effmask --iteration 1 --layer 2", "{run}/analysis"),
    "pixmap": ("analyze {run} pixmap --iteration 1", "{run}/analysis"),
    "binomial": ("analyze {run} binomial --iteration 1", "{run}/analysis"),
    "ablate": ("ablate {run} --iteration 1", "{run}/analysis"),
    "export-masks": ("export-masks {run} --iteration 1 --top 2 --weighted", "{run}/analysis"),
    "synth-idx": ("synth --config {gray} --out-images {out}/images.idx --out-labels {out}/labels.idx",
                  "{out}"),
    "synth-cifar": ("synth --config {rgb} --out-cifar {out}/batch.bin", "{out}"),
    "cluster-idx": ("cluster --format idx --mode random --labels {data}/labels.idx --out {out}/labels.idx",
                    "{out}"),
    "cluster-cifar": ("cluster --format cifar --mode random --data {data}/batch.bin --out {out}/batch.bin",
                      "{out}"),
}


class TestInterruptedWrites:
    def test_imp_resumed_after_any_failed_rename_equals_a_one_shot_run(self, tmp_path, monkeypatch):
        raw = base_config(tmp_path / "oneshot")
        raw["imp"]["max_iterations"] = 3
        renames = FailingReplace()
        with monkeypatch.context() as m:
            m.setattr(os, "replace", renames)
            assert main(["imp", "--config", write_config(tmp_path / "oneshot.json", raw)]) == 0
        each_iteration = ["iters/{:03d}/masks.tkms", "iters/{:03d}/params.tkts",
                          "iters/{:03d}/train_curve.csv", "imp_curve.csv", "manifest.json"]
        expected = ["val.tkds", "rewind.tkts"] + [name.format(n) for n in range(4) for name in each_iteration]
        assert [str(t.relative_to(tmp_path / "oneshot")) for t in renames.targets] == expected
        assert len(expected) == 22
        oneshot = run_files(tmp_path / "oneshot")
        for k in range(1, len(expected) + 1):
            raw["output"]["run_dir"] = str(tmp_path / f"k{k:02d}")
            config = write_config(tmp_path / f"k{k:02d}.json", raw)
            with monkeypatch.context() as m:
                m.setattr(os, "replace", FailingReplace(k))
                assert main(["imp", "--config", config]) == 1, k
            assert uncurved_iterations(tmp_path / f"k{k:02d}") == set(), k
            assert main(["imp", "--config", config]) == 0, k
            assert run_files(tmp_path / f"k{k:02d}") == oneshot, k
            assert not list((tmp_path / f"k{k:02d}").rglob("*.tmp")), k

    @pytest.mark.parametrize("line,out", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS)
    def test_failed_rename_leaves_every_output_as_it_was(self, imp_run, tmp_path, monkeypatch, line, out):
        run, data = tmp_path / "run", tmp_path / "data"
        shutil.copytree(imp_run[0], run)
        shutil.rmtree(run / "analysis", ignore_errors=True)
        rgb = base_config(tmp_path / "unused")
        rgb["dataset"]["synthetic"].update(width=32, height=32, channels=3, n_per_class=3)
        data.mkdir()
        (tmp_path / "out").mkdir()
        save_idx(random_dataset(np.random.default_rng(0), ImageGeometry(4, 4, 1), 6, 2),
                 data / "images.idx", data / "labels.idx")
        (data / "batch.bin").write_bytes(bytes([3]) + bytes(range(256)) * 12 + bytes([14]) + bytes(3072))
        names = {"run": run, "data": data, "out": tmp_path / "out",
                 "gray": write_config(tmp_path / "gray.json", base_config(tmp_path / "unused")),
                 "rgb": write_config(tmp_path / "rgb.json", rgb)}
        argv, out = line.format(**names).split(), Path(out.format(**names))
        renames = FailingReplace()
        with monkeypatch.context() as m:
            m.setattr(os, "replace", renames)
            assert main(argv) == 0
        first = file_digests(out)
        assert sorted(renames.targets) == sorted(out / rel for rel in first)  # each output renamed once
        for k in range(1, len(renames.targets) + 1):
            with monkeypatch.context() as m:
                m.setattr(os, "replace", FailingReplace(k))
                assert main(argv) == 1, k
            assert file_digests(out) == first, k  # the same bytes, and no temporary left
