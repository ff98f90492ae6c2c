import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ticketsift.datasets import ImageGeometry, generate_synthetic, split_train_val
from ticketsift.network import MaskSet, ParamSet, accuracy, init_params, loss_and_grads
from ticketsift.trainer import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    sgd_step,
    train,
)

from conftest import random_dataset

GEOM = ImageGeometry(4, 4, 1)


def ones_grads(params):
    g = ParamSet(params.dims, np.zeros_like(params._flat))
    for group in (g.weights, g.biases, g.gamma, g.beta):
        for arr in group:
            arr[...] = 1
    return g


def scaled_grads(params, value):
    g = ones_grads(params)
    for group in (g.weights, g.biases, g.gamma, g.beta):
        for arr in group:
            arr *= value
    return g


def all_param_arrays(params):
    out = list(params.weights) + list(params.biases)
    out += list(params.gamma) + list(params.beta)
    return out


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(all_param_arrays(a), all_param_arrays(b)))


def small_config(**kw):
    base = dict(batch_size=4, lr=0.1, steps=4, eval_every=2, rewind_step=0, seed=3)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_batch_size_one_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)

    def test_rewind_beyond_steps_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=10, rewind_step=11)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    @pytest.mark.parametrize("key,value", [
        ("lr", float("nan")), ("lr", 0.0), ("adam_beta1", 5.0), ("adam_beta1", -0.1),
        ("adam_beta2", 1.0), ("adam_beta2", float("nan")), ("adam_eps", 0.0),
        ("adam_eps", float("nan")),
    ])
    def test_out_of_range_numbers_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})


class TestSgdStep:
    def test_subtracts_lr_times_grad(self):
        params = init_params([3, 4, 2], seed=0)
        before = params.copy()
        out = sgd_step(params, ones_grads(params), lr=0.1)
        assert out is params
        for p0, p1 in zip(all_param_arrays(before), all_param_arrays(params)):
            assert_allclose(p1, p0 - 0.1, rtol=1e-6)

    def test_hand_value(self):
        params = init_params([2, 2, 2], seed=0)
        params.weights[0][0, 0] = 1.0
        sgd_step(params, scaled_grads(params, 2.0), lr=0.1)
        assert_allclose(params.weights[0][0, 0], 0.8, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_subtracting_the_product(self, dtype):
        params = init_params([5, 4, 3], seed=0)
        g = np.random.default_rng(1).standard_normal(params._flat.size).astype(dtype)
        expected = params._flat.copy()
        expected -= 0.1 * g
        sgd_step(params, ParamSet(params.dims, g.copy()), lr=0.1)
        assert params._flat.dtype == np.float32
        assert params._flat.tobytes() == expected.tobytes()


class TestAdamStep:
    def test_first_step_magnitude(self):
        # with constant gradient g the bias-corrected first update is
        # exactly lr * g / (|g| + eps), i.e. lr in magnitude
        params = init_params([3, 4, 2], seed=1)
        before = params.copy()
        adam_step(params, scaled_grads(params, 2.0), 0.1, AdamState())
        expected = 0.1 * 2.0 / (2.0 + 1e-8)
        for p0, p1 in zip(all_param_arrays(before), all_param_arrays(params)):
            assert_allclose(p1, p0 - expected, rtol=1e-6)

    def test_zero_grads_leave_params_unchanged(self):
        params = init_params([3, 4, 2], seed=2)
        before = params.copy()
        state = AdamState()
        for _ in range(3):
            adam_step(params, scaled_grads(params, 0.0), 0.1, state)
        assert params_equal(params, before)
        assert state.t == 3

    def test_state_accumulates_moments(self):
        params = init_params([2, 2, 2], seed=3)
        state = AdamState()
        adam_step(params, ones_grads(params), 0.1, state, beta1=0.9, beta2=0.999)
        assert_allclose(state.m.weights[0], 0.1, rtol=1e-6)
        assert_allclose(state.v.weights[0], 0.001, rtol=1e-6)


class TestTrain:
    def make_data(self, rng, n=16):
        return random_dataset(rng, GEOM, n, 2)

    def test_zero_steps_returns_copy(self, rng):
        ds = self.make_data(rng)
        params = init_params([16, 4, 2], seed=0)
        cfg = small_config(steps=0)
        result = train(params, MaskSet.full([16, 4, 2]), ds, ds, cfg)
        assert result.params is not params
        assert params_equal(result.params, params)
        assert result.records == []
        assert result.best_val is None
        assert result.rewind is None

    def test_input_params_not_mutated(self, rng):
        ds = self.make_data(rng)
        params = init_params([16, 4, 2], seed=0)
        frozen = params.copy()
        train(params, MaskSet.full([16, 4, 2]), ds, ds, small_config())
        assert params_equal(params, frozen)

    def test_dataset_smaller_than_batch_rejected(self, rng):
        ds = self.make_data(rng, n=3)
        params = init_params([16, 4, 2], seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            train(params, MaskSet.full([16, 4, 2]), ds, ds, small_config())

    def test_deterministic_given_seed(self, rng):
        ds = self.make_data(rng)
        dims = [16, 4, 2]
        masks = MaskSet.full(dims)
        runs = []
        for _ in range(2):
            params = init_params(dims, seed=7)
            runs.append(train(params, masks, ds, ds, small_config(steps=6)))
        assert params_equal(runs[0].params, runs[1].params)
        assert runs[0].best_val == runs[1].best_val

    def test_seed_changes_trajectory(self, rng):
        ds = self.make_data(rng, n=32)
        dims = [16, 4, 2]
        masks = MaskSet.full(dims)
        params = init_params(dims, seed=7)
        a = train(params, masks, ds, ds, small_config(steps=6, seed=1))
        b = train(params, masks, ds, ds, small_config(steps=6, seed=2))
        assert not params_equal(a.params, b.params)

    def test_eval_schedule_and_best_val(self, rng):
        ds = self.make_data(rng, n=20)
        params = init_params([16, 4, 2], seed=0)
        cfg = small_config(steps=10, eval_every=3)
        result = train(params, MaskSet.full([16, 4, 2]), ds, ds, cfg)
        assert [r.step for r in result.records] == [3, 6, 9, 10]
        assert result.best_val == max(r.val_accuracy for r in result.records)

    def test_empty_val_set_gives_no_records(self, rng):
        ds = self.make_data(rng)
        empty = ds.take(np.array([], dtype=np.int64))
        params = init_params([16, 4, 2], seed=0)
        result = train(params, MaskSet.full([16, 4, 2]), ds, empty, small_config())
        assert result.records == []
        assert result.best_val is None

    def test_rewind_checkpoint_matches_shorter_run(self, rng):
        # training 6 steps and rewinding to 4 must equal training 4 steps
        ds = self.make_data(rng, n=8)
        dims = [16, 4, 2]
        masks = MaskSet.full(dims)
        params = init_params(dims, seed=5)
        long = train(params, masks, ds, ds, small_config(steps=6, rewind_step=4), capture_rewind=True)
        short = train(params, masks, ds, ds, small_config(steps=4), capture_rewind=False)
        assert long.rewind.step == 4
        assert params_equal(long.rewind.params, short.params)

    def test_rewind_step_zero_captures_initial_state(self, rng):
        ds = self.make_data(rng)
        params = init_params([16, 4, 2], seed=5)
        result = train(
            params, MaskSet.full([16, 4, 2]), ds, ds, small_config(rewind_step=0), capture_rewind=True
        )
        assert result.rewind.step == 0
        assert params_equal(result.rewind.params, params)

    def test_non_finite_loss_raises(self, rng):
        ds = self.make_data(rng)
        params = init_params([16, 4, 2], seed=0)
        params.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(params, MaskSet.full([16, 4, 2]), ds, ds, small_config(steps=2))
        assert err.value.step == 1

    def test_divergence_raises_without_numpy_warnings(self, rng):
        ds = self.make_data(rng)
        dims = [16, 8, 4, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged):
                train(init_params(dims, seed=0), MaskSet.full(dims), ds, ds, small_config(lr=1e30))

    def test_masked_weights_stay_zero(self, rng):
        ds = self.make_data(rng)
        dims = [16, 4, 2]
        masks = MaskSet.full(dims)
        masks.masks[0][:, 0] = 0
        for optimizer in ("sgd", "adam"):
            params = init_params(dims, seed=4)
            params.weights[0] *= masks.masks[0]
            result = train(params, masks, ds, ds, small_config(steps=6, optimizer=optimizer))
            assert np.all(result.params.weights[0][:, 0] == 0.0)

    def test_augmentation_deterministic_and_distinct(self, rng):
        ds = self.make_data(rng)
        dims = [16, 4, 2]
        masks = MaskSet.full(dims)
        params = init_params(dims, seed=9)
        aug1 = train(params, masks, ds, ds, small_config(translate_augment=True))
        aug2 = train(params, masks, ds, ds, small_config(translate_augment=True))
        plain = train(params, masks, ds, ds, small_config())
        assert params_equal(aug1.params, aug2.params)
        assert not params_equal(aug1.params, plain.params)

    def test_learns_synthetic_patches(self):
        geom = ImageGeometry(8, 8, 1)
        full = generate_synthetic(
            geom, n_per_class=150, patch=(2, 2, 4, 4), n_classes=2, noise_sd=0.1, seed=0
        )
        train_ds, val_ds = split_train_val(full, n_val=60, seed=1)
        dims = [64, 16, 2]
        params = init_params(dims, seed=0)
        cfg = TrainConfig(batch_size=30, lr=0.1, steps=120, eval_every=30, rewind_step=0, seed=0)
        result = train(params, MaskSet.full(dims), train_ds, val_ds, cfg)
        assert result.best_val > 0.9


def reference_train(params, masks, ds, cfg):
    """train() without augmentation, written per array: the public
    loss_and_grads (which multiplies the masks in), then p -= lr * g or one
    Adam update on every trainable array. Masked weights keep their values."""
    p = params.copy()
    trainable = lambda obj: list(obj.weights) + list(obj.biases) + list(obj.gamma) + list(obj.beta)
    m = [np.zeros_like(a) for a in trainable(p)]
    v = [np.zeros_like(a) for a in trainable(p)]
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    records, step = [], 0
    while step < cfg.steps:
        perm = shuffle_rng.permutation(len(ds))
        for b in range(len(ds) // cfg.batch_size):
            if step >= cfg.steps:
                break
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            loss, grads = loss_and_grads(p, masks, ds.images[idx], ds.labels[idx])
            step += 1
            c1, c2 = 1.0 - cfg.adam_beta1 ** step, 1.0 - cfg.adam_beta2 ** step
            for i, (a, g) in enumerate(zip(trainable(p), trainable(grads))):
                if cfg.optimizer == "sgd":
                    a -= cfg.lr * g
                    continue
                m[i][...] = cfg.adam_beta1 * m[i] + (1.0 - cfg.adam_beta1) * g
                v[i][...] = cfg.adam_beta2 * v[i] + (1.0 - cfg.adam_beta2) * g * g
                a -= cfg.lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + cfg.adam_eps)
            if step % cfg.eval_every == 0 or step == cfg.steps:
                records.append((step, loss, accuracy(p, masks, ds)))
    return p, records


class TestStoredZeroTraining:
    """train() stores masked weights as +0.0 and skips the W * M products;
    everything it computes must equal the per-array reference bit for bit."""

    @pytest.mark.parametrize("optimizer,lr", [("sgd", 0.1), ("adam", 0.01)])
    def test_matches_per_array_reference(self, rng, optimizer, lr):
        dims = [16, 6, 5, 2]
        ds = random_dataset(rng, GEOM, 40, 2)
        params = init_params(dims, seed=11)
        masks = MaskSet.full(dims)
        for m in masks.masks:
            m[...] = rng.random(m.shape) < 0.6
        for w in params.weights:
            assert np.all(w != 0.0)  # masked weights start nonzero
        cfg = small_config(batch_size=8, steps=12, eval_every=5, optimizer=optimizer, lr=lr)
        got = train(params, masks, ds, ds, cfg)
        want, want_records = reference_train(params, masks, ds, cfg)
        assert [(r.step, r.train_loss, r.val_accuracy) for r in got.records] == want_records
        for w_got, w_want, m in zip(got.params.weights, want.weights, masks.masks + [None]):
            keep = np.ones(w_got.shape, bool) if m is None else m == 1
            assert w_got[keep].tobytes() == w_want[keep].tobytes()
            assert w_got[~keep].tobytes() == np.zeros((~keep).sum(), np.float32).tobytes()
        for group in ("biases", "gamma", "beta", "running_mean", "running_var"):
            for a, b in zip(getattr(got.params, group), getattr(want, group)):
                assert a.tobytes() == b.tobytes(), group
        assert not params_equal(got.params, params)  # it trained
