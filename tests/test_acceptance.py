"""End-to-end acceptance checks, one test per shipping requirement.

Each test is self-contained and prints one pass/fail line under pytest -v.
The two desk-scale experiments (test_09, test_12) train four real networks,
in parallel worker processes, and take about two minutes on two cores;
everything else runs in seconds.
"""

import json
import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ticketsift.cli import main
from ticketsift.datasets import (
    ImageDataset,
    ImageGeometry,
    generate_synthetic,
    patch_input_indices,
    split_train_val,
)
from ticketsift.network import MaskSet, forward, init_params, loss_and_grads
from ticketsift.observables import ablation_curve, effective_masks, locality_map
from ticketsift.pruner import ImpConfig, density, prune_step, random_prune, rewind, run_imp
from ticketsift.reports import (
    export_locality_csv,
    load_checkpoint,
    load_locality_csv,
    load_masks,
    save_checkpoint,
    save_masks,
)
from ticketsift.trainer import TrainConfig, train

import oracles
from conftest import random_dataset

# ---------------------------------------------------------------------------
# shared desk-scale experiment: a synthetic patch task hard enough that no
# single pixel is informative, trained and pruned at full fidelity

DESK_GEOM = ImageGeometry(32, 32, 1)
DESK_PATCH = (12, 12, 8, 8)
DESK_DIMS = [1024, 128, 128, 128, 4]
DESK_NOISE_SD = 1.0
DESK_SEEDS = (0, 1, 2)
DESK_PATCH_IDX = patch_input_indices(DESK_GEOM, DESK_PATCH)
DESK_AREA_FRACTION = DESK_PATCH_IDX.size / DESK_GEOM.input_size  # 0.0625


def desk_imp_run(run_dir, seed, destroy_labels=False):
    """Train + prune on the desk task; returns the summary statistics.

    With destroy_labels the images keep their patch patterns but get balanced
    random binary labels, so no input feature predicts the class.
    """
    full = generate_synthetic(DESK_GEOM, 1250, DESK_PATCH, 4, DESK_NOISE_SD, seed=seed)
    dims = DESK_DIMS
    if destroy_labels:
        label_rng = np.random.default_rng([seed, 77])
        full = ImageDataset(
            full.geometry, full.images, label_rng.permutation(len(full)) % 2, 2
        )
        dims = DESK_DIMS[:-1] + [2]
    train_ds, val_ds = split_train_val(full, 1000, seed=seed)
    train_cfg = TrainConfig(
        batch_size=100, lr=0.3, steps=3000, eval_every=500, rewind_step=250, seed=seed
    )
    cfg = ImpConfig(train_cfg=train_cfg, prune_fraction=0.3, rewind_step=250, max_iterations=10)
    run = run_imp(dims, train_ds, val_ds, cfg, run_dir)
    assert [it.n for it in run.iterations] == list(range(11))

    last = run.iterations[-1]
    m1 = last.masks.masks[0]
    enrichment = (m1[DESK_PATCH_IDX, :].sum() / m1.sum()) / DESK_AREA_FRACTION
    params = load_checkpoint(run.run_dir / last.params_file)
    half = dims[1] // 2
    asc = ablation_curve(params, last.masks, val_ds, "ascending", [half])[0][1]
    desc = ablation_curve(params, last.masks, val_ds, "descending", [half])[0][1]
    return {
        "dense_val": run.iterations[0].best_val,
        "best_pruned_val": max(it.best_val for it in run.iterations[1:]),
        "enrichment": float(enrichment),
        "ablate_half_ascending": asc,
        "ablate_half_descending": desc,
    }


@pytest.fixture(scope="module")
def desk_results(tmp_path_factory):
    """The three desk runs and the destroyed-label run, computed in parallel.

    Each run is deterministic, so its numbers do not depend on the worker
    process that computes it. Workers start from a fresh import (spawn) and
    inherit the BLAS thread setting of conftest.py.
    """
    root = tmp_path_factory.mktemp("desk")
    jobs = [(root / f"seed{s}", s) for s in DESK_SEEDS]
    jobs.append((root / "destroyed", DESK_SEEDS[0], True))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(4, os.cpu_count() or 1)) as pool:
        return pool.starmap(desk_imp_run, jobs)


@pytest.fixture(scope="module")
def desk_runs(desk_results):
    return desk_results[: len(DESK_SEEDS)]


@pytest.fixture(scope="module")
def destroyed_run(desk_results):
    return desk_results[len(DESK_SEEDS)]


# ---------------------------------------------------------------------------


def test_01_gradients_match_finite_differences(rng):
    start = time.perf_counter()
    dims = [4, 3, 3, 2]
    params = oracles.to_float64(init_params(dims, seed=11))
    masks = MaskSet.full(dims)
    for m in masks.masks:
        m[...] = rng.random(m.shape) < 0.7
    batch = rng.random((8, 4))
    labels = rng.integers(0, 2, size=8)
    _, grads = loss_and_grads(params, masks, batch, labels)
    numeric = oracles.finite_diff_grads(params, masks, batch, labels, step=1e-5)
    worst = 0.0
    for group in ("weights", "biases", "gamma", "beta"):
        for l, analytic in enumerate(getattr(grads, group)):
            worst = max(worst, oracles.max_relative_error(analytic, numeric[(group, l)]))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 1.0


def test_02_prune_step_matches_sort_and_select_oracle(rng):
    start = time.perf_counter()
    for case in range(200):
        n_in = int(rng.integers(1, 21))
        n_out = int(rng.integers(1, 21))
        params = init_params([n_in, n_out, 2], seed=case)
        weights = rng.normal(size=(n_in, n_out))
        if case % 2 == 0:
            weights = np.round(weights, 1)  # heavy magnitude ties
        if case % 5 == 0:
            weights[rng.random(weights.shape) < 0.3] = -0.25  # exact |w| duplicates
        params.weights[0][...] = weights
        masks = MaskSet.full([n_in, n_out, 2])
        masks.masks[0][...] = rng.random((n_in, n_out)) < rng.uniform(0.2, 1.0)
        fraction = float(rng.uniform(0.05, 0.95))
        got = prune_step(params, masks, fraction, layers=[1]).masks[0]
        want = oracles.brute_force_prune(params.weights[0], masks.masks[0], fraction)
        assert np.array_equal(got, want)
    assert time.perf_counter() - start < 1.0


def test_03_density_follows_the_power_law():
    dims = [1024, 128, 128, 128, 4]
    params = init_params(dims, seed=0)
    masks = MaskSet.full(dims)
    sizes = [m.size for m in masks.masks]
    surviving = list(sizes)
    total = sum(sizes)
    # floor-per-step pruning accumulates its <1-weight rounding geometrically,
    # so the drift from (1-p)^n stays below 1/p weights per layer
    layer_tol = 1.0 / 0.3
    milestones = {9: 0.0404, 13: 0.0097, 16: 0.0033}
    for n in range(1, 21):
        masks = prune_step(params, masks, 0.3)
        counts = [int(m.sum(dtype=np.int64)) for m in masks.masks]
        for prev, cur in zip(surviving, counts):
            assert cur == prev - math.floor(0.3 * prev)
        for s0, cur in zip(sizes, counts):
            assert abs(cur - (0.7 ** n) * s0) < layer_tol
        surviving = counts
        _, u = density(masks)
        assert abs(u - 0.7 ** n) < layer_tol * len(sizes) / total
        if n in milestones:
            assert round(0.7 ** n, 4) == milestones[n]
            assert abs(u - milestones[n]) < 1e-4


def test_04_locality_matches_pair_enumeration(rng):
    for _ in range(100):
        channels = int(rng.choice([1, 3]))
        geom = ImageGeometry(int(rng.integers(2, 7)), int(rng.integers(2, 7)), channels)
        n_nodes = int(rng.integers(1, 7))
        mat = (rng.random((geom.input_size, n_nodes)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        surviving = np.flatnonzero(mat)
        if surviving.size > 200:
            drop = rng.choice(surviving.size, size=surviving.size - 200, replace=False)
            mat.ravel()[surviving[drop]] = 0
        for mode in ("same", "different"):
            got = locality_map(mat, geom, mode)
            assert np.array_equal(got.grid, oracles.brute_force_locality(mat, geom, mode))
            assert np.array_equal(got.grid, got.grid[::-1, ::-1])
        assert locality_map(mat, geom, "same").grid[geom.height - 1, geom.width - 1] == 0


def test_05_dense_mask_locality_closed_form():
    for width, height, channels, n_nodes in [(4, 4, 1, 1), (3, 5, 3, 4), (2, 2, 3, 7)]:
        geom = ImageGeometry(width, height, channels)
        mat = np.ones((geom.input_size, n_nodes), dtype=np.uint8)
        grid = locality_map(mat, geom, "same").grid
        expected = np.zeros_like(grid)
        for dy in range(-(height - 1), height):
            for dx in range(-(width - 1), width):
                if (dx, dy) != (0, 0):
                    expected[dy + height - 1, dx + width - 1] = (
                        n_nodes * channels * (width - abs(dx)) * (height - abs(dy))
                    )
        assert np.array_equal(grid, expected)


def test_06_effective_masks_match_path_search(rng):
    for _ in range(100):
        depth = int(rng.integers(2, 4))
        sizes = [int(rng.integers(1, 17)) for _ in range(depth + 1)]
        chain = [(rng.random((a, b)) < 0.5).astype(np.uint8) for a, b in zip(sizes, sizes[1:])]
        assert np.array_equal(effective_masks(chain), oracles.brute_force_effective(chain))


def test_07_random_prune_connectivity_is_binomial():
    start = time.perf_counter()
    dims = [3072, 64, 2]
    n_prev = 3072
    for u in (0.04, 0.01):
        counts = np.concatenate(
            [
                random_prune(MaskSet.full(dims), 1.0 - u, seed=seed, layers=[1])
                .masks[0]
                .sum(axis=0)
                for seed in range(40)
            ]
        )
        expected = stats.binom.pmf(np.arange(n_prev + 1), n_prev, u) * counts.size
        observed = np.bincount(counts, minlength=n_prev + 1).astype(float)
        bins_obs, bins_exp = [], []
        acc_o = acc_e = 0.0
        for k in range(n_prev + 1):  # pool ks until each bin expects >= 5
            acc_o += observed[k]
            acc_e += expected[k]
            if acc_e >= 5.0:
                bins_obs.append(acc_o)
                bins_exp.append(acc_e)
                acc_o = acc_e = 0.0
        bins_obs[-1] += acc_o
        bins_exp[-1] += acc_e
        bins_obs, bins_exp = np.array(bins_obs), np.array(bins_exp)
        chi2 = float(((bins_obs - bins_exp) ** 2 / bins_exp).sum())
        p_value = stats.chi2.sf(chi2, len(bins_obs) - 1)
        assert p_value > 0.01
    assert time.perf_counter() - start < 5.0


def test_08_rewind_restores_checkpoint_bitwise(rng):
    dims = [16, 8, 4, 2]
    geom = ImageGeometry(4, 4, 1)
    ds = random_dataset(rng, geom, 24, 2)
    params0 = init_params(dims, seed=3)
    full = MaskSet.full(dims)
    long_cfg = TrainConfig(batch_size=8, lr=0.1, steps=10, eval_every=5, rewind_step=5, seed=9)
    short_cfg = TrainConfig(batch_size=8, lr=0.1, steps=5, eval_every=5, rewind_step=5, seed=9)
    long = train(params0, full, ds, ds, long_cfg, capture_rewind=True)
    short = train(params0, full, ds, ds, short_cfg)
    ckpt = long.rewind
    assert ckpt.step == 5

    def arrays(p):
        return (
            list(p.weights) + list(p.biases) + list(p.gamma)
            + list(p.beta) + list(p.running_mean) + list(p.running_var)
        )

    # the checkpoint is exactly the state a run stopped at that step reaches
    for a, b in zip(arrays(ckpt.params), arrays(short.params)):
        assert np.array_equal(a, b)

    pruned = prune_step(long.params, full, 0.3)
    restored = rewind(long.params, ckpt, pruned)
    for a, b in zip(arrays(restored), arrays(ckpt.params)):
        assert np.array_equal(a, b)

    probe = rng.random((8, 16), dtype=np.float32)
    logits_ckpt, _ = forward(short.params, full, probe, mode="eval")
    logits_restored, _ = forward(restored, full, probe, mode="eval")
    assert np.array_equal(logits_ckpt, logits_restored)


@pytest.mark.slow
def test_09_sparse_tickets_match_dense_and_localize(desk_runs):
    dense = np.mean([r["dense_val"] for r in desk_runs])
    pruned = np.mean([r["best_pruned_val"] for r in desk_runs])
    assert pruned >= dense - 0.02

    enrichment = np.mean([r["enrichment"] for r in desk_runs])
    assert enrichment >= 3.0

    asc = np.mean([r["ablate_half_ascending"] for r in desk_runs])
    desc = np.mean([r["ablate_half_descending"] for r in desk_runs])
    assert desc <= asc - 0.05


def test_10_imp_runs_are_bit_identical(tmp_path):
    def config(run_dir):
        return {
            "dataset": {
                "format": "synthetic",
                "n_val": 40,
                "seed": 4,
                "synthetic": {
                    "width": 8, "height": 8, "channels": 1, "n_classes": 2,
                    "n_per_class": 60, "patch": [2, 2, 4, 4], "noise_sd": 0.3,
                },
            },
            "network": {"dims": [64, 16, 8, 2]},
            "train": {"batch_size": 16, "lr": 0.1, "steps": 40, "eval_every": 10,
                      "rewind_step": 5, "seed": 21},
            "imp": {"max_iterations": 3, "prune_fraction": 0.3, "rewind_step": 5},
            "output": {"run_dir": str(run_dir)},
        }

    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config(tmp_path / name)))
        assert main(["imp", "--config", str(path)]) == 0
    produced = {}
    for name in ("a", "b"):
        root = tmp_path / name
        files = [p for p in root.rglob("*") if p.suffix in (".tkms", ".csv", ".tkts")]
        produced[name] = sorted(p.relative_to(root) for p in files)
    assert produced["a"] == produced["b"]
    assert len(produced["a"]) >= 14  # 4 iterations x 3 files + rewind + summary curve
    for rel in produced["a"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_11_file_formats_round_trip(rng, tmp_path):
    ckpt_path = tmp_path / "case.tkts"
    for _ in range(500):
        dims = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(3, 6)))]
        params = init_params(dims, seed=int(rng.integers(1 << 30)))
        for group in (params.weights, params.running_mean, params.running_var):
            for arr in group:
                arr[...] = rng.normal(size=arr.shape).astype(np.float32)
        save_checkpoint(ckpt_path, params)
        loaded = load_checkpoint(ckpt_path)
        for a, b in zip(params.weights, loaded.weights):
            assert np.array_equal(a, b)
        for a, b in zip(params.running_var, loaded.running_var):
            assert np.array_equal(a, b)

    mask_path = tmp_path / "case.tkms"
    for case in range(500):
        dims = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(3, 6)))]
        masks = MaskSet.full(dims)
        for m in masks.masks:
            if case % 10 == 0:
                m[...] = case % 20 == 0
            else:
                m[...] = rng.random(m.shape) < rng.uniform(0.0, 1.0)
        save_masks(mask_path, masks)
        loaded = load_masks(mask_path)
        assert all(np.array_equal(a, b) for a, b in zip(masks.masks, loaded.masks))

    csv_path = tmp_path / "case.csv"
    for _ in range(500):
        h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        grid = rng.integers(0, 1_000_000, size=(2 * h - 1, 2 * w - 1))
        export_locality_csv(grid, csv_path)
        assert np.array_equal(load_locality_csv(csv_path), grid)


@pytest.mark.slow
def test_12_random_labels_remove_patch_enrichment(destroyed_run):
    assert destroyed_run["enrichment"] < 1.5
