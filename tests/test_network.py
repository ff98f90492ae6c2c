import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
import ticketsift
from conftest import random_dataset
from ticketsift.datasets import ImageGeometry
from ticketsift.network import (
    BN_EPS,
    BN_MOMENTUM,
    MaskSet,
    ParamSet,
    accuracy,
    check_dims,
    forward,
    init_params,
    loss_and_grads,
)


def random_mask(rng, dims, keep=0.6):
    masks = MaskSet.full(dims)
    for m in masks.masks:
        m[:] = (rng.random(m.shape) < keep).astype(np.uint8)
    return masks


class TestInit:
    def test_weight_variance_matches_fan_rule(self):
        dims = [3072, 1024, 1024, 1024, 10]
        params = init_params(dims, seed=0)
        for w, (a, b) in zip(params.weights, zip(dims[:-1], dims[1:])):
            expected = 2.0 / (a + b)
            if w.size > 100_000:  # enough samples for a tight estimate
                assert w.var() == pytest.approx(expected, rel=0.05)
            assert abs(w.mean()) < 5 * np.sqrt(expected / w.size) + 1e-3

    def test_bias_and_norm_state(self):
        params = init_params([8, 4, 4, 3], seed=1)
        for b in params.biases:
            assert_array_equal(b, 0)
        for g, be, rm, rv in zip(params.gamma, params.beta, params.running_mean, params.running_var):
            assert_array_equal(g, 1)
            assert_array_equal(be, 0)
            assert_array_equal(rm, 0)
            assert_array_equal(rv, 1)

    def test_deterministic(self):
        a = init_params([8, 4, 3], seed=7)
        b = init_params([8, 4, 3], seed=7)
        c = init_params([8, 4, 3], seed=8)
        assert_array_equal(a.weights[0], b.weights[0])
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            check_dims([8, 10])
        with pytest.raises(ValueError):
            check_dims([8, 0, 2])


class TestForward:
    def test_matches_scalar_oracle(self, rng):
        dims = [5, 4, 3, 3]
        params = oracles.to_float64(init_params(dims, seed=2))
        masks = random_mask(rng, dims)
        batch = rng.random((6, 5))
        logits, _ = forward(params, masks, batch, mode="train")
        expected = oracles.scalar_forward_logits(params, masks, batch, eps=BN_EPS)
        assert_allclose(logits, expected, rtol=1e-10, atol=1e-12)

    def test_all_zero_mask_yields_output_bias(self, rng):
        dims = [6, 4, 4, 3]
        params = init_params(dims, seed=0)
        params.biases[-1][:] = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        masks = MaskSet([np.zeros((6, 4), np.uint8), np.zeros((4, 4), np.uint8)])
        logits, _ = forward(params, masks, rng.random((4, 6), dtype=np.float32), "train")
        assert_array_equal(logits, np.broadcast_to(params.biases[-1], (4, 3)))

    def test_masked_weight_value_is_irrelevant(self, rng):
        dims = [6, 5, 4, 3]
        params = init_params(dims, seed=3)
        masks = random_mask(rng, dims, keep=0.5)
        batch = rng.random((4, 6), dtype=np.float32)
        ref, _ = forward(params, masks, batch, "eval")
        tampered = params.copy()
        for w, m in zip(tampered.weights, masks.masks):
            w[m == 0] = 1e6
        out, _ = forward(tampered, masks, batch, "eval")
        assert_array_equal(out, ref)

    def test_mask_idempotence(self, rng):
        dims = [6, 5, 3]
        params = init_params(dims, seed=4)
        masks = random_mask(rng, dims, keep=0.4)
        batch = rng.random((4, 6), dtype=np.float32)
        premasked = params.copy()
        premasked.weights[0] *= masks.masks[0]
        a, _ = forward(params, masks, batch, "train")
        b, _ = forward(premasked, masks, batch, "train")
        assert_array_equal(a, b)

    def test_train_batchnorm_normalizes(self, rng):
        dims = [10, 8, 4]
        params = oracles.to_float64(init_params(dims, seed=5))
        masks = MaskSet.full(dims)
        # scale inputs so pre-activation variance is O(1); otherwise the
        # epsilon inside the normalizer dominates the 1e-4 tolerance
        batch = rng.random((64, 10)) * 10.0
        _, cache = forward(params, masks, batch, "train")
        assert np.abs(cache.x_hat[0].mean(axis=0)).max() < 1e-5
        assert_allclose(cache.x_hat[0].var(axis=0), 1.0, atol=1e-4)

    def test_running_stats_update_rule(self, rng):
        dims = [6, 4, 3]
        params = oracles.to_float64(init_params(dims, seed=6))
        masks = MaskSet.full(dims)
        batch = rng.random((16, 6))
        w = params.weights[0] * masks.masks[0]
        z = batch @ w + params.biases[0]
        expected_mean = (1 - BN_MOMENTUM) * z.mean(axis=0)
        expected_var = BN_MOMENTUM * 1.0 + (1 - BN_MOMENTUM) * z.var(axis=0)
        forward(params, masks, batch, "train")
        assert_allclose(params.running_mean[0], expected_mean, rtol=1e-12)
        assert_allclose(params.running_var[0], expected_var, rtol=1e-12)

    def test_eval_mode_is_pure_and_deterministic(self, rng):
        dims = [6, 4, 3]
        params = init_params(dims, seed=7)
        masks = MaskSet.full(dims)
        batch = rng.random((5, 6), dtype=np.float32)
        before_mean = params.running_mean[0].copy()
        a, _ = forward(params, masks, batch, "eval")
        b, _ = forward(params, masks, batch, "eval")
        assert_array_equal(a, b)
        assert_array_equal(params.running_mean[0], before_mean)

    def test_train_mode_needs_two_images(self, rng):
        dims = [6, 4, 3]
        params = init_params(dims, seed=8)
        masks = MaskSet.full(dims)
        with pytest.raises(ValueError):
            forward(params, masks, rng.random((1, 6), dtype=np.float32), "train")
        forward(params, masks, rng.random((1, 6), dtype=np.float32), "eval")

    def test_invalid_mode_and_shape(self, rng):
        dims = [6, 4, 3]
        params = init_params(dims, seed=9)
        masks = MaskSet.full(dims)
        with pytest.raises(ValueError):
            forward(params, masks, rng.random((2, 6), dtype=np.float32), "predict")
        with pytest.raises(ValueError):
            forward(params, masks, rng.random((2, 5), dtype=np.float32), "train")


class TestLossAndGrads:
    def test_uniform_logits_give_log_n_classes(self, rng):
        dims = [6, 4, 10]
        params = init_params(dims, seed=0)
        params.weights[-1][:] = 0.0  # logits collapse to the zero output bias
        masks = MaskSet.full(dims)
        batch = rng.random((8, 6), dtype=np.float32)
        labels = rng.integers(0, 10, size=8)
        loss, _ = loss_and_grads(params, masks, batch, labels)
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_probabilities_sum_to_one(self, rng):
        dims = [6, 5, 4]
        params = init_params(dims, seed=1)
        masks = MaskSet.full(dims)
        logits, _ = forward(params, masks, rng.random((9, 6), dtype=np.float32), "train")
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_masked_weights_get_zero_gradient(self, rng):
        dims = [6, 5, 4, 3]
        params = init_params(dims, seed=2)
        masks = random_mask(rng, dims, keep=0.5)
        batch = rng.random((8, 6), dtype=np.float32)
        labels = rng.integers(0, 3, size=8)
        _, grads = loss_and_grads(params, masks, batch, labels)
        for g, m in zip(grads.weights, masks.masks):
            assert_array_equal(g[m == 0], 0.0)

    def test_finite_difference_check(self, rng):
        dims = [4, 3, 3, 2]
        params = oracles.to_float64(init_params(dims, seed=11))
        masks = random_mask(rng, dims, keep=0.7)
        batch = rng.random((8, 4))
        labels = rng.integers(0, 2, size=8)
        _, grads = loss_and_grads(params.copy(), masks, batch, labels)
        numeric = oracles.finite_diff_grads(params, masks, batch, labels)
        worst = 0.0
        for group in ("weights", "biases", "gamma", "beta"):
            for l, g in enumerate(getattr(grads, group)):
                worst = max(worst, oracles.max_relative_error(g, numeric[(group, l)]))
        assert worst < 1e-4

    @pytest.mark.parametrize("dims,keep", [([12, 9, 8, 7, 3], 0.5), ([20, 6, 6, 6, 6, 4], 0.3)])
    def test_matches_textbook_batchnorm_backward(self, rng, dims, keep):
        params = oracles.to_float64(init_params(dims, seed=13))
        for g, b in zip(params.gamma, params.beta):  # away from the init values 1 and 0
            g[...] = rng.uniform(0.5, 1.5, g.shape)
            b[...] = rng.uniform(-0.5, 0.5, b.shape)
        masks = random_mask(rng, dims, keep=keep)
        batch = rng.standard_normal((16, dims[0]))
        labels = rng.integers(0, dims[-1], size=16)
        loss, grads = loss_and_grads(params.copy(), masks, batch, labels)
        ref_loss, ref = oracles.textbook_loss_and_grads(params, masks, batch, labels, eps=BN_EPS)
        assert_allclose(loss, ref_loss, rtol=1e-9)
        for group in ("weights", "biases", "gamma", "beta"):
            for l, g in enumerate(getattr(grads, group)):
                if group == "biases" and l < len(dims) - 2:
                    # batch norm cancels a hidden bias: both sides are rounding residue
                    assert_allclose(g, ref[(group, l)], rtol=0, atol=1e-12)
                else:
                    assert_allclose(g, ref[(group, l)], rtol=1e-9, atol=0, err_msg=f"{group}[{l}]")


class TestAccuracy:
    def test_constant_logit_network_predicts_class_zero(self, rng):
        dims = [6, 4, 3]
        params = init_params(dims, seed=0)
        params.weights[-1][:] = 0.0
        masks = MaskSet.full(dims)
        ds = random_dataset(rng, ImageGeometry(6, 1, 1), 40, 3)
        # all logits equal: argmax tie resolves to index 0
        expected = float((ds.labels == 0).mean())
        assert accuracy(params, masks, ds) == pytest.approx(expected)

    def test_biased_head_is_always_right_on_single_class(self, rng):
        dims = [6, 4, 3]
        params = init_params(dims, seed=1)
        params.weights[-1][:] = 0.0
        params.biases[-1][:] = np.array([0.0, 5.0, 0.0], dtype=np.float32)
        masks = MaskSet.full(dims)
        ds = random_dataset(rng, ImageGeometry(6, 1, 1), 10, 3)
        ds.labels[:] = 1
        assert accuracy(params, masks, ds) == 1.0

    def test_untrained_many_class_accuracy_is_near_chance(self, rng):
        dims = [16, 12, 1000]
        params = init_params(dims, seed=2)
        masks = MaskSet.full(dims)
        ds = random_dataset(rng, ImageGeometry(4, 4, 1), 2000, 1000)
        assert accuracy(params, masks, ds) <= 0.01

    def test_chunking_matches_single_batch(self, rng, monkeypatch):
        dims = [6, 4, 3]
        params = init_params(dims, seed=3)
        masks = MaskSet.full(dims)
        ds = random_dataset(rng, ImageGeometry(6, 1, 1), 37, 3)
        whole = accuracy(params, masks, ds)
        monkeypatch.setattr(ticketsift.network, "_EVAL_ROWS", 5)
        assert accuracy(params, masks, ds) == whole

    def test_empty_dataset_rejected(self, rng):
        dims = [6, 4, 3]
        params = init_params(dims, seed=4)
        ds = random_dataset(rng, ImageGeometry(6, 1, 1), 4, 3).take(np.array([], dtype=int))
        with pytest.raises(ValueError):
            accuracy(params, MaskSet.full(dims), ds)


class TestAblate:
    def test_empty_ablation_is_identity(self, rng):
        masks = MaskSet.full([6, 4, 3])
        out = oracles.ablate_nodes(masks, 1, [])
        assert_array_equal(out.masks[0], masks.masks[0])

    def test_ablated_nodes_lose_all_incoming(self, rng):
        dims = [6, 4, 4, 3]
        masks = random_mask(rng, dims, keep=0.8)
        out = oracles.ablate_nodes(masks, 2, [0, 2])
        assert_array_equal(out.masks[1][:, [0, 2]], 0)
        assert_array_equal(out.masks[1][:, [1, 3]], masks.masks[1][:, [1, 3]])
        assert_array_equal(out.masks[0], masks.masks[0])

    def test_ablating_dead_node_changes_nothing(self, rng):
        dims = [6, 4, 3]
        params = init_params(dims, seed=5)
        masks = MaskSet.full(dims)
        masks.masks[0][:, 1] = 0
        batch = rng.random((3, 6), dtype=np.float32)
        ref, _ = forward(params, masks, batch, "eval")
        out, _ = forward(params, oracles.ablate_nodes(masks, 1, [1]), batch, "eval")
        assert_array_equal(out, ref)


class TestParamSet:
    def test_copy_is_deep(self):
        params = init_params([6, 4, 3], seed=0)
        clone = params.copy()
        clone.weights[0][0, 0] += 1.0
        assert params.weights[0][0, 0] != clone.weights[0][0, 0]

    def test_dims_property(self):
        assert init_params([6, 4, 4, 3], seed=0).dims == [6, 4, 4, 3]

    def test_constructor_binds_views_over_one_buffer(self):
        dims = [6, 4, 3]
        flat = np.arange(6 * 4 + 4 + 4 * 4 + 4 * 3 + 3, dtype=np.float64)
        params = ParamSet(dims, flat)
        assert params.dims == dims and params._flat is flat
        assert_array_equal(params.weights[0].ravel(), flat[:24])
        assert_array_equal(params.running_var[0], flat[40:44])
        params.biases[1][...] = -1.0
        assert_array_equal(flat[-3:], -1.0)
        for bad in (flat[:-1], flat[None, :], np.append(flat, 0.0)):
            with pytest.raises(ValueError, match="buffer of shape"):
                ParamSet(dims, bad)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            MaskSet([np.full((3, 3), 2, dtype=np.uint8)])


def test_import_leaves_out_the_lane_executor():
    # only ablate on two or more cores starts a lane thread
    code = ("import sys, ticketsift, ticketsift.cli; "
            "print(sorted({'concurrent.futures', 'logging', 'queue'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(ticketsift.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n"
