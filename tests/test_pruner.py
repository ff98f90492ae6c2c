import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ticketsift
from ticketsift.datasets import ImageGeometry
from ticketsift.network import MaskSet, init_params
from ticketsift.pruner import (
    ImpConfig,
    density,
    init_seed,
    iteration_seed,
    prune_step,
    random_prune,
    rewind,
    run_imp,
    stop_condition,
)
from ticketsift.reports import load_checkpoint, load_masks, load_split
from ticketsift.trainer import Checkpoint, TrainConfig, TrainingDiverged

import oracles
from conftest import file_digests, random_dataset

DIMS = [16, 8, 4, 2]
GEOM = ImageGeometry(4, 4, 1)


def surviving_counts(masks):
    return [int(m.sum()) for m in masks.masks]


class TestPruneStep:
    def test_removes_floor_count(self, rng):
        params = init_params(DIMS, seed=0)
        masks = MaskSet.full(DIMS)
        out = prune_step(params, masks, 0.3)
        assert surviving_counts(out) == [128 - 38, 32 - 9]

    def test_hand_example(self):
        params = init_params([2, 2, 2], seed=0)
        params.weights[0][...] = [[5.0, -1.0], [2.0, -4.0]]
        masks = MaskSet.full([2, 2, 2])
        out = prune_step(params, masks, 0.5, layers=[1])
        assert out.masks[0].tolist() == [[1, 0], [0, 1]]

    def test_ties_drop_lowest_flat_index(self):
        params = init_params([2, 2, 2], seed=0)
        params.weights[0][...] = 1.0
        masks = MaskSet.full([2, 2, 2])
        out = prune_step(params, masks, 0.5, layers=[1])
        assert out.masks[0].ravel().tolist() == [0, 0, 1, 1]

    def test_sign_ignored(self):
        params = init_params([2, 2, 2], seed=0)
        params.weights[0][...] = [[-5.0, 1.0], [-2.0, 4.0]]
        masks = MaskSet.full([2, 2, 2])
        out = prune_step(params, masks, 0.5, layers=[1])
        assert out.masks[0].tolist() == [[1, 0], [0, 1]]

    def test_rescaling_invariance(self, rng):
        params = init_params(DIMS, seed=1)
        masks = MaskSet.full(DIMS)
        a = prune_step(params, masks, 0.4)
        scaled = params.copy()
        for w in scaled.weights:
            w *= 7.5
        b = prune_step(scaled, masks, 0.4)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)

    def test_subset_of_previous_mask(self, rng):
        params = init_params(DIMS, seed=2)
        masks = MaskSet.full(DIMS)
        for _ in range(4):
            new = prune_step(params, masks, 0.3)
            for m_new, m_old in zip(new.masks, masks.masks):
                assert np.all(m_new <= m_old)
            masks = new

    def test_input_mask_not_mutated(self, rng):
        params = init_params(DIMS, seed=3)
        masks = MaskSet.full(DIMS)
        prune_step(params, masks, 0.5)
        assert surviving_counts(masks) == [128, 32]

    def test_masked_entries_do_not_compete(self):
        params = init_params([4, 1, 2], seed=0)
        params.weights[0][...] = [[0.001], [5.0], [4.0], [3.0]]
        masks = MaskSet.full([4, 1, 2])
        masks.masks[0][0, 0] = 0
        out = prune_step(params, masks, 0.34, layers=[1])
        # 3 surviving -> remove 1: the |3.0| entry, not the gated-off 0.001
        assert out.masks[0].ravel().tolist() == [0, 1, 1, 0]

    def test_tiny_layer_skipped_when_floor_is_zero(self):
        params = init_params([4, 1, 2], seed=0)
        masks = MaskSet.full([4, 1, 2])
        masks.masks[0][[0, 1, 2], 0] = 0
        out = prune_step(params, masks, 0.3, layers=[1])
        assert np.array_equal(out.masks[0], masks.masks[0])

    def test_fully_pruned_layer_stays_empty(self):
        params = init_params([4, 2, 2], seed=0)
        masks = MaskSet.full([4, 2, 2])
        masks.masks[0][...] = 0
        out = prune_step(params, masks, 0.5)
        assert int(out.masks[0].sum()) == 0

    def test_layer_selection(self, rng):
        params = init_params(DIMS, seed=4)
        masks = MaskSet.full(DIMS)
        out = prune_step(params, masks, 0.5, layers=[2])
        assert surviving_counts(out) == [128, 32 - 16]

    def test_invalid_layer_rejected(self):
        params = init_params(DIMS, seed=0)
        with pytest.raises(ValueError):
            prune_step(params, MaskSet.full(DIMS), 0.3, layers=[3])

    def test_repeated_layer_rejected(self):
        params = init_params(DIMS, seed=0)
        with pytest.raises(ValueError, match="more than once"):
            prune_step(params, MaskSet.full(DIMS), 0.3, layers=[1, 1])

    def test_fraction_bounds_rejected(self):
        params = init_params(DIMS, seed=0)
        for fraction in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                prune_step(params, MaskSet.full(DIMS), fraction)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            n_in = int(rng.integers(2, 12))
            n_out = int(rng.integers(1, 12))
            dims = [n_in, n_out, 2]
            params = init_params(dims, seed=int(rng.integers(1 << 30)))
            # quantized weights force plenty of magnitude ties
            params.weights[0][...] = np.round(rng.normal(size=(n_in, n_out)), 1)
            masks = MaskSet.full(dims)
            masks.masks[0][...] = rng.random((n_in, n_out)) < 0.8
            fraction = float(rng.uniform(0.05, 0.95))
            out = prune_step(params, masks, fraction, layers=[1])
            expect = oracles.brute_force_prune(params.weights[0], masks.masks[0], fraction)
            assert np.array_equal(out.masks[0], expect)

    def test_selection_matches_brute_force_with_ties_at_the_cut(self, rng):
        # three magnitudes, the middle one holding the 20%..80% quantiles, so
        # in every layer the k-th smallest surviving |w| is shared by weights
        # on both sides of the cut
        dims = [20, 16, 12, 3]
        for _ in range(10):
            params = init_params(dims, seed=int(rng.integers(1 << 30)))
            masks = MaskSet.full(dims)
            for w, m in zip(params.weights, masks.masks):
                magnitude = rng.choice([0.5, 1.0, 1.5], size=w.shape, p=[0.2, 0.6, 0.2])
                w[...] = magnitude * rng.choice([-1.0, 1.0], size=w.shape)
                m[...] = rng.random(m.shape) < 0.8
            fraction = float(rng.uniform(0.3, 0.7))
            out = prune_step(params, masks, fraction)
            for w, m, got in zip(params.weights, masks.masks, out.masks):
                ranked = np.sort(np.abs(w[m == 1]))
                k = int(np.floor(fraction * ranked.size))
                assert ranked[k - 1] == ranked[k]
                assert np.array_equal(got, oracles.brute_force_prune(w, m, fraction))


class TestDensity:
    def test_full_masks(self):
        per_layer, total = density(MaskSet.full(DIMS))
        assert per_layer == [1.0, 1.0]
        assert total == 1.0

    def test_hand_values(self):
        masks = MaskSet.full([4, 3, 3, 2])
        masks.masks[0][:2, :] = 0
        per_layer, total = density(masks)
        assert per_layer == [0.5, 1.0]
        assert total == pytest.approx(15 / 21)


class TestRewind:
    def test_restores_checkpoint_exactly(self):
        ckpt = Checkpoint(5, init_params(DIMS, seed=10))
        trained = init_params(DIMS, seed=11)
        out = rewind(trained, ckpt, MaskSet.full(DIMS))
        for a, b in zip(out.weights, ckpt.params.weights):
            assert np.array_equal(a, b)
        for a, b in zip(out.running_var, ckpt.params.running_var):
            assert np.array_equal(a, b)

    def test_returns_independent_copy(self):
        ckpt = Checkpoint(5, init_params(DIMS, seed=10))
        out = rewind(init_params(DIMS, seed=11), ckpt, MaskSet.full(DIMS))
        out.weights[0][0, 0] = 99.0
        assert ckpt.params.weights[0][0, 0] != 99.0

    def test_dims_mismatch_rejected(self):
        ckpt = Checkpoint(5, init_params([16, 4, 2], seed=0))
        with pytest.raises(ValueError):
            rewind(init_params(DIMS, seed=0), ckpt, MaskSet.full(DIMS))

    def test_mask_count_mismatch_rejected(self):
        ckpt = Checkpoint(5, init_params(DIMS, seed=0))
        with pytest.raises(ValueError):
            rewind(init_params(DIMS, seed=0), ckpt, MaskSet.full([16, 8, 2]))


class TestStopCondition:
    def test_strictly_above_threshold(self):
        masks = MaskSet.full([2, 100, 2])
        masks.masks[0][:, :80] = 0
        assert not stop_condition(masks, 0.8)
        masks.masks[0][:, 80] = 0
        assert stop_condition(masks, 0.8)

    def test_full_masks_never_stop(self):
        assert not stop_condition(MaskSet.full(DIMS), 0.8)

    def test_counts_dead_inputs_not_outputs(self):
        masks = MaskSet.full([10, 2, 2])
        masks.masks[0][1:, :] = 0  # 9 of 10 rows dead, both columns alive
        assert not stop_condition(masks, 0.5)
        masks = MaskSet.full([2, 10, 2])
        masks.masks[0][:, 1:] = 0  # 9 of 10 columns dead
        assert stop_condition(masks, 0.5)


class TestRandomPrune:
    def test_removes_floor_count(self):
        masks = MaskSet.full(DIMS)
        out = random_prune(masks, 0.3, seed=0)
        assert surviving_counts(out) == [128 - 38, 32 - 9]

    def test_deterministic_given_seed(self):
        masks = MaskSet.full(DIMS)
        a = random_prune(masks, 0.5, seed=3)
        b = random_prune(masks, 0.5, seed=3)
        c = random_prune(masks, 0.5, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.masks, b.masks))
        assert any(not np.array_equal(x, y) for x, y in zip(a.masks, c.masks))

    def test_subset_of_previous_mask(self, rng):
        masks = MaskSet.full(DIMS)
        masks.masks[0][...] = rng.random((16, 8)) < 0.6
        out = random_prune(masks, 0.4, seed=1)
        assert np.all(out.masks[0] <= masks.masks[0])
        assert int(out.masks[0].sum()) == int(masks.masks[0].sum()) - int(
            0.4 * int(masks.masks[0].sum())
        )

    def test_invalid_and_repeated_layers_rejected(self):
        for layers in ([0], [3], [2, 2]):
            with pytest.raises(ValueError, match="layer"):
                random_prune(MaskSet.full(DIMS), 0.3, seed=0, layers=layers)


class TestSeeds:
    def test_init_seed_material(self):
        assert init_seed(7) == [7, 0]

    def test_iteration_seeds_distinct_and_stable(self):
        seen = {iteration_seed(0, n) for n in range(10)}
        assert len(seen) == 10
        assert iteration_seed(0, 3) == iteration_seed(0, 3)
        assert iteration_seed(0, 3) != iteration_seed(1, 3)


def tiny_imp_config(**kw):
    train_cfg = TrainConfig(batch_size=8, lr=0.1, steps=6, eval_every=3, rewind_step=2, seed=5)
    base = dict(train_cfg=train_cfg, prune_fraction=0.3, rewind_step=2, max_iterations=2)
    base.update(kw)
    return ImpConfig(**base)


# A short run at the desk dims, in a fresh process so that its BLAS thread
# count comes from the environment it starts with.
DESK_THREAD_RUN = """
import sys
from ticketsift.datasets import ImageGeometry, generate_synthetic, split_train_val
from ticketsift.pruner import ImpConfig, run_imp
from ticketsift.trainer import TrainConfig

full = generate_synthetic(ImageGeometry(32, 32, 1), 100, (12, 12, 8, 8), 4, 1.0, seed=0)
train_ds, val_ds = split_train_val(full, 100, seed=0)
train_cfg = TrainConfig(batch_size=100, lr=0.3, steps=20, eval_every=10, rewind_step=5, seed=0)
cfg = ImpConfig(train_cfg=train_cfg, prune_fraction=0.3, rewind_step=5, max_iterations=1)
run_imp([1024, 128, 128, 128, 4], train_ds, val_ds, cfg, sys.argv[1])
"""


class TestRunImp:
    def make_data(self, rng, n=24):
        return random_dataset(rng, GEOM, n, 2)

    def test_produces_expected_files(self, rng, tmp_path):
        ds = self.make_data(rng)
        run = run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "run")
        assert run.stopped_reason == "max_iterations"
        assert [it.n for it in run.iterations] == [0, 1, 2]
        root = tmp_path / "run"
        assert (root / "rewind.tkts").is_file()
        assert (root / "manifest.json").is_file()
        assert (root / "imp_curve.csv").is_file()
        for n in range(3):
            stem = root / f"iters/{n:03d}"
            assert (stem / "masks.tkms").is_file()
            assert (stem / "params.tkts").is_file()
            assert (stem / "train_curve.csv").is_file()

    def test_density_follows_prune_fraction(self, rng, tmp_path):
        ds = self.make_data(rng)
        run = run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "run")
        assert run.iterations[0].u_global == 1.0
        for prev, cur in zip(run.iterations, run.iterations[1:]):
            assert cur.u_global < prev.u_global
            assert cur.u_global >= 0.7 * prev.u_global - 0.05

    def test_rewind_file_round_trips(self, rng, tmp_path):
        ds = self.make_data(rng)
        run = run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "run")
        on_disk = load_checkpoint(tmp_path / "run/rewind.tkts")
        for a, b in zip(on_disk.weights, run.rewind_ckpt.params.weights):
            assert np.array_equal(a, b)

    def test_deterministic_across_directories(self, rng, tmp_path):
        ds = self.make_data(rng)
        run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "a")
        run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "b")
        for rel in [
            "imp_curve.csv",
            "iters/000/masks.tkms",
            "iters/001/masks.tkms",
            "iters/002/masks.tkms",
            "iters/002/train_curve.csv",
            "iters/002/params.tkts",
        ]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_desk_run_bytes_equal_at_one_and_two_blas_threads(self, tmp_path):
        produced = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([str(Path(ticketsift.__file__).parents[1]), env.get("PYTHONPATH", "")])
            root = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-c", DESK_THREAD_RUN, str(root)], env=env, check=True, timeout=300)
            files = sorted(p for p in root.rglob("*") if p.suffix in (".tkms", ".tkts", ".csv"))
            produced[threads] = {p.relative_to(root): p.read_bytes() for p in files}
        assert len(produced["1"]) == 8  # 2 iterations x 3 files + rewind + summary curve
        assert produced["1"] == produced["2"]

    def test_resume_extends_identically(self, rng, tmp_path):
        ds = self.make_data(rng)
        run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "oneshot")
        run_imp(DIMS, ds, ds, tiny_imp_config(max_iterations=1), tmp_path / "resumed")
        resumed = run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "resumed")
        assert [it.n for it in resumed.iterations] == [0, 1, 2]
        for n in range(3):
            rel = f"iters/{n:03d}/masks.tkms"
            assert (tmp_path / "oneshot" / rel).read_bytes() == (tmp_path / "resumed" / rel).read_bytes()

    def test_tuple_layers_resume(self, rng, tmp_path):
        ds = self.make_data(rng)
        run_imp(DIMS, ds, ds, tiny_imp_config(layers_to_prune=(1,), max_iterations=1), tmp_path / "run")
        run = run_imp(DIMS, ds, ds, tiny_imp_config(layers_to_prune=(1,)), tmp_path / "run")
        assert [it.n for it in run.iterations] == [0, 1, 2]

    @pytest.mark.parametrize("train_kw,error", [
        (dict(lr=1e30), TrainingDiverged),
        (dict(batch_size=32), ValueError),
    ])
    def test_failed_dense_run_leaves_no_file(self, rng, tmp_path, train_kw, error):
        ds = self.make_data(rng)
        train_cfg = replace(tiny_imp_config().train_cfg, **train_kw)
        with pytest.raises(error):
            run_imp(DIMS, ds, ds, tiny_imp_config(train_cfg=train_cfg), tmp_path / "run")
        assert [p for p in (tmp_path / "run").rglob("*") if p.is_file()] == []

    def test_stores_validation_split_once(self, rng, tmp_path):
        ds = self.make_data(rng)
        val = self.make_data(rng, n=10)
        run_imp(DIMS, ds, val, tiny_imp_config(max_iterations=1), tmp_path / "run")
        stored = load_split(tmp_path / "run/val.tkds")
        assert stored.images.tobytes() == val.images.tobytes()
        assert np.array_equal(stored.labels, val.labels)
        before = (tmp_path / "run/val.tkds").read_bytes()
        with pytest.raises(ValueError, match="val split differs"):  # a resume is bound to its split
            run_imp(DIMS, ds, self.make_data(rng, n=12), tiny_imp_config(), tmp_path / "run")
        run_imp(DIMS, ds, val, tiny_imp_config(), tmp_path / "run")
        assert (tmp_path / "run/val.tkds").read_bytes() == before
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert manifest["val_file"] == "val.tkds"

    def test_extending_keeps_created_at(self, rng, tmp_path):
        ds = self.make_data(rng)
        run_imp(DIMS, ds, ds, tiny_imp_config(max_iterations=1), tmp_path / "run")
        created_at = json.loads((tmp_path / "run/manifest.json").read_text())["created_at"]
        run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "run")
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert len(manifest["iterations"]) == 3
        assert manifest["created_at"] == created_at

    def test_resume_with_changed_config_rejected(self, rng, tmp_path):
        ds = self.make_data(rng)
        run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "run")
        with pytest.raises(ValueError, match="configuration"):
            run_imp(DIMS, ds, ds, tiny_imp_config(prune_fraction=0.5), tmp_path / "run")

    def test_resume_past_max_iterations_returns_existing(self, rng, tmp_path):
        ds = self.make_data(rng)
        run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "run")
        before = {p: p.read_bytes() for p in (tmp_path / "run").rglob("*") if p.is_file()}
        run = run_imp(DIMS, ds, ds, tiny_imp_config(max_iterations=1), tmp_path / "run")
        assert [it.n for it in run.iterations] == [0, 1, 2]
        # the manifest keeps the recorded max_iterations: no byte changes
        assert {p: p.read_bytes() for p in (tmp_path / "run").rglob("*") if p.is_file()} == before

    def test_zero_iterations_trains_dense_only(self, rng, tmp_path):
        ds = self.make_data(rng)
        run = run_imp(DIMS, ds, ds, tiny_imp_config(max_iterations=0), tmp_path / "run")
        assert [it.n for it in run.iterations] == [0]
        assert run.iterations[0].u_global == 1.0

    def test_stop_on_dead_nodes(self, rng, tmp_path):
        ds = self.make_data(rng)
        cfg = tiny_imp_config(prune_fraction=0.98, stop_node_fraction=0.5, max_iterations=5)
        run = run_imp(DIMS, ds, ds, cfg, tmp_path / "run")
        assert run.stopped_reason == "node_fraction"
        assert [it.n for it in run.iterations] == [0]
        manifest = (tmp_path / "run/manifest.json").read_bytes()
        again = run_imp(DIMS, ds, ds, cfg, tmp_path / "run")
        assert again.stopped_reason == "node_fraction"
        assert [it.n for it in again.iterations] == [0]
        assert (tmp_path / "run/manifest.json").read_bytes() == manifest

    def test_rewind_step_defaults_to_the_training_one(self):
        cfg = tiny_imp_config(rewind_step=None)
        assert cfg.rewind_step == cfg.train_cfg.rewind_step == 2
        assert ImpConfig(TrainConfig()).rewind_step == TrainConfig().rewind_step

    @pytest.mark.parametrize("dims,layers,match", [
        ([15, 8, 4, 2], None, "image size"),
        ([16, 8, 4, 3], None, "classes"),
        (DIMS, [3], "not a prunable hidden layer"),
        (DIMS, [0], "not a prunable hidden layer"),
        (DIMS, [1, 1], "more than once"),
    ])
    def test_unfit_settings_rejected_before_the_run_directory(self, rng, tmp_path, dims, layers,
                                                              match):
        ds = self.make_data(rng)
        with pytest.raises(ValueError, match=match):
            run_imp(dims, ds, ds, tiny_imp_config(layers_to_prune=layers), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("geom,n_classes,match", [
        (ImageGeometry(8, 2, 1), 2, r"holds 2 classes of ImageGeometry\(width=8"),
        (GEOM, 3, "holds 3 classes"),
    ], ids=["geometry", "classes"])
    def test_validation_split_unlike_the_training_one_rejected(self, rng, tmp_path, geom,
                                                               n_classes, match):
        ds = self.make_data(rng)
        val = random_dataset(rng, geom, 10, n_classes)  # the same input size
        before = file_digests(tmp_path)
        with pytest.raises(ValueError, match=match):
            run_imp(DIMS, ds, val, tiny_imp_config(), tmp_path / "run")
        assert not (tmp_path / "run").exists()
        assert file_digests(tmp_path) == before

    def test_resume_under_another_geometry_rejected(self, rng, tmp_path):
        ds = self.make_data(rng)
        run_imp(DIMS, ds, ds, tiny_imp_config(max_iterations=1), tmp_path / "run")
        before = file_digests(tmp_path / "run")
        wide = replace(ds, geometry=ImageGeometry(8, 2, 1))  # the same arrays, so the same digests
        with pytest.raises(ValueError, match="different configuration"):
            run_imp(DIMS, wide, wide, tiny_imp_config(), tmp_path / "run")
        assert file_digests(tmp_path / "run") == before

    def test_manifest_keys_in_order(self, rng, tmp_path):
        ds = self.make_data(rng)
        run_imp(DIMS, ds, ds, tiny_imp_config(max_iterations=0), tmp_path / "run")
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert list(manifest) == ["manifest_version", "kind", "pixel_layout", "created_at", "dims",
                                  "imp_config", "dataset", "data_sha256", "geometry", "rewind_file",
                                  "val_file", "stopped_reason", "iterations"]
        assert manifest["manifest_version"] == 1

    def test_manifest_records_imp_config(self, rng, tmp_path):
        ds = self.make_data(rng)
        cfg = tiny_imp_config(max_iterations=0)
        run_imp(DIMS, ds, ds, cfg, tmp_path / "run")
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert "run_config" not in manifest
        assert manifest["dataset"] is None
        assert manifest["imp_config"]["rewind_step"] == 2
        assert manifest["imp_config"]["train_cfg"]["seed"] == 5
        assert manifest["imp_config"]["train_cfg"]["translate_augment"] is False
        # each split's digest: every array's dtype and shape, then its bytes
        digest = hashlib.sha256()
        for a in (ds.images, ds.labels):
            digest.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
        assert manifest["data_sha256"] == {"train": digest.hexdigest(), "val": digest.hexdigest()}

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_resume_on_other_data_rejected(self, rng, tmp_path, split):
        data = {"train": self.make_data(rng), "val": self.make_data(rng, n=10)}
        run_imp(DIMS, data["train"], data["val"], tiny_imp_config(max_iterations=1), tmp_path / "run")
        before = file_digests(tmp_path / "run")
        other = dict(data)
        other[split] = random_dataset(rng, GEOM, len(data[split]), 2)  # same shape, other bytes
        with pytest.raises(ValueError, match=f"the {split} split differs"):
            run_imp(DIMS, other["train"], other["val"], tiny_imp_config(), tmp_path / "run")
        assert file_digests(tmp_path / "run") == before

    def test_manifest_masks_match_memory(self, rng, tmp_path):
        ds = self.make_data(rng)
        run = run_imp(DIMS, ds, ds, tiny_imp_config(), tmp_path / "run")
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert manifest["kind"] == "imp"
        assert len(manifest["iterations"]) == 3
        for entry, it in zip(manifest["iterations"], run.iterations):
            loaded = load_masks(tmp_path / "run" / entry["mask_file"])
            for a, b in zip(loaded.masks, it.masks.masks):
                assert np.array_equal(a, b)
