import os
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ticketsift import observables
from ticketsift.datasets import ImageDataset, ImageGeometry
from ticketsift.network import MaskSet, accuracy, forward, init_params
from ticketsift.observables import (
    ablation_curve,
    ablation_curves,
    binomial_reference,
    connectivity,
    effective_masks,
    locality_map,
    locality_map_binned,
)

import oracles


def random_mask_matrix(rng, geom, n_nodes, keep):
    return (rng.random((geom.input_size, n_nodes)) < keep).astype(np.uint8)


class TestConnectivity:
    def test_full_masks(self):
        masks = MaskSet.full([6, 4, 3, 2])
        assert connectivity(masks, 1, "in").values.tolist() == [6, 6, 6, 6]
        assert connectivity(masks, 2, "in").values.tolist() == [4, 4, 4]
        assert connectivity(masks, 0, "out").values.tolist() == [4] * 6
        assert connectivity(masks, 1, "out").values.tolist() == [3, 3, 3, 3]

    def test_hand_matrix(self):
        masks = MaskSet.full([3, 3, 2])
        masks.masks[0][...] = [[1, 0, 1], [0, 0, 1], [1, 1, 1]]
        cin = connectivity(masks, 1, "in").values
        cout = connectivity(masks, 0, "out").values
        assert cin.tolist() == [2, 1, 3]
        assert cout.tolist() == [2, 1, 3]
        assert cin.sum() == cout.sum() == 6

    def test_in_sum_equals_out_sum(self, rng):
        masks = MaskSet.full([10, 7, 5, 2])
        for m in masks.masks:
            m[...] = rng.random(m.shape) < 0.5
        for layer in (1, 2):
            cin = connectivity(masks, layer, "in").values.sum()
            cout = connectivity(masks, layer - 1, "out").values.sum()
            assert cin == cout

    def test_bins_tile_counts(self):
        masks = MaskSet.full([4, 4, 2])
        masks.masks[0][...] = np.array(
            [[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 1, 1, 0]]
        )
        hist = connectivity(masks, 1, "in")
        assert hist.values.tolist() == [0, 2, 3, 3]
        assert [b[0] for b in hist.bins] == [1, 0, 1, 2]
        assert sum(b[0] for b in hist.bins) == 4
        wide = connectivity(masks, 1, "in", bin_width=2)
        assert [(b[1], b[2]) for b in wide.bins] == [(0, 2), (2, 4)]
        assert [b[0] for b in wide.bins] == [1, 3]

    def test_invalid_arguments(self):
        masks = MaskSet.full([4, 3, 2])
        with pytest.raises(ValueError):
            connectivity(masks, 0, "in")
        with pytest.raises(ValueError):
            connectivity(masks, 2, "in")
        with pytest.raises(ValueError):
            connectivity(masks, 1, "out")
        with pytest.raises(ValueError):
            connectivity(masks, 1, "sideways")
        with pytest.raises(ValueError):
            connectivity(masks, 1, "in", bin_width=0)


class TestLocalityMap:
    def test_single_pair(self):
        geom = ImageGeometry(4, 4, 1)
        mat = np.zeros((16, 1), dtype=np.uint8)
        mat[1 * 4 + 0, 0] = 1  # (x=0, y=1)
        mat[2 * 4 + 2, 0] = 1  # (x=2, y=2)
        out = locality_map(mat, geom, "same")
        assert out.grid.sum() == 2
        assert out.grid[1 + 3, 2 + 3] == 1
        assert out.grid[-1 + 3, -2 + 3] == 1

    def test_same_channel_center_is_zero(self, rng):
        geom = ImageGeometry(5, 3, 1)
        mat = random_mask_matrix(rng, geom, 6, 0.5)
        out = locality_map(mat, geom, "same")
        assert out.grid[geom.height - 1, geom.width - 1] == 0

    def test_symmetry_under_negation(self, rng):
        geom = ImageGeometry(4, 5, 3)
        mat = random_mask_matrix(rng, geom, 5, 0.4)
        for mode in ("same", "different"):
            grid = locality_map(mat, geom, mode).grid
            assert np.array_equal(grid, grid[::-1, ::-1])

    def test_different_channel_center_counts(self):
        geom = ImageGeometry(2, 2, 3)
        mat = np.zeros((geom.input_size, 1), dtype=np.uint8)
        # the same pixel in all three channels
        for c in range(3):
            mat[c * 4 + 0, 0] = 1
        out = locality_map(mat, geom, "different")
        assert out.grid[1, 1] == 6  # 3 * 2 ordered cross-channel pairs at d = 0
        assert out.grid.sum() == 6
        assert locality_map(mat, geom, "same").grid.sum() == 0

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            channels = int(rng.choice([1, 3]))
            geom = ImageGeometry(int(rng.integers(2, 6)), int(rng.integers(2, 6)), channels)
            mat = random_mask_matrix(rng, geom, int(rng.integers(1, 5)), 0.5)
            for mode in ("same", "different"):
                got = locality_map(mat, geom, mode).grid
                assert np.array_equal(got, oracles.brute_force_locality(mat, geom, mode))

    def test_empty_mask(self):
        geom = ImageGeometry(3, 3, 1)
        out = locality_map(np.zeros((9, 4), dtype=np.uint8), geom, "same")
        assert out.grid.shape == (5, 5)
        assert out.grid.sum() == 0

    def test_dense_single_node_closed_form(self):
        geom = ImageGeometry(3, 4, 3)
        w, h, c = geom.width, geom.height, geom.channels
        mat = np.ones((geom.input_size, 1), dtype=np.uint8)
        same = locality_map(mat, geom, "same").grid
        diff = locality_map(mat, geom, "different").grid
        for dy in range(-(h - 1), h):
            for dx in range(-(w - 1), w):
                cell = (w - abs(dx)) * (h - abs(dy))
                want_same = c * cell if (dx, dy) != (0, 0) else 0
                assert same[dy + h - 1, dx + w - 1] == want_same
                assert diff[dy + h - 1, dx + w - 1] == c * (c - 1) * cell

    def test_dense_many_nodes_closed_form(self):
        # every node takes the transform path; counts reach 256 * 3 * 32 * 32
        geom = ImageGeometry(32, 32, 3)
        w, h, c, n = geom.width, geom.height, geom.channels, 256
        mat = np.ones((geom.input_size, n), dtype=np.uint8)
        cell = np.outer(h - np.abs(np.arange(1 - h, h)), w - np.abs(np.arange(1 - w, w)))
        want_same = n * c * cell
        want_same[h - 1, w - 1] = 0
        assert np.array_equal(locality_map(mat, geom, "same").grid, want_same)
        assert np.array_equal(locality_map(mat, geom, "different").grid, n * c * (c - 1) * cell)

    def test_nodes_on_both_sides_of_the_path_split(self, rng):
        for geom in (ImageGeometry(8, 8, 1), ImageGeometry(6, 5, 3)):
            n_nodes = 24
            counts = np.linspace(0, geom.input_size, n_nodes).astype(int)
            mat = np.zeros((geom.input_size, n_nodes), dtype=np.uint8)
            for j, k in enumerate(counts):
                mat[rng.choice(geom.input_size, k, replace=False), j] = 1
            split = geom.channels * (2 * geom.height) * (2 * geom.width)
            assert (counts ** 2 > split).any() and ((counts >= 2) & (counts ** 2 <= split)).any()
            edges = [1, 8, int(split ** 0.5) + 1, geom.input_size - 4]
            for mode in ("same", "different"):
                whole = locality_map(mat, geom, mode).grid
                assert np.array_equal(whole, oracles.brute_force_locality(mat, geom, mode))
                maps = locality_map_binned(mat, geom, mode, edges)
                for lmap, lo, hi in zip(maps, edges, edges[1:] + [geom.input_size + 1]):
                    pick = (counts >= lo) & (counts < hi)
                    assert np.array_equal(lmap.grid, oracles.brute_force_locality(mat[:, pick], geom, mode))
                assert np.array_equal(sum(m.grid for m in maps), whole)

    def test_invalid_arguments(self):
        geom = ImageGeometry(3, 3, 1)
        with pytest.raises(ValueError):
            locality_map(np.zeros((8, 2), dtype=np.uint8), geom, "same")
        with pytest.raises(ValueError):
            locality_map(np.zeros((9, 2), dtype=np.uint8), geom, "both")


class TestLocalityBinned:
    def test_single_bin_equals_unbinned(self, rng):
        geom = ImageGeometry(4, 4, 1)
        mat = random_mask_matrix(rng, geom, 6, 0.5)
        binned = locality_map_binned(mat, geom, "same", [0])
        assert len(binned) == 1
        assert np.array_equal(binned[0].grid, locality_map(mat, geom, "same").grid)

    def test_bins_partition_total(self, rng):
        geom = ImageGeometry(4, 4, 3)
        mat = random_mask_matrix(rng, geom, 8, 0.4)
        maps = locality_map_binned(mat, geom, "different", [0, 10, 20])
        total = sum(m.grid for m in maps)
        assert np.array_equal(total, locality_map(mat, geom, "different").grid)

    def test_nodes_below_first_edge_excluded(self, rng):
        geom = ImageGeometry(4, 4, 1)
        mat = random_mask_matrix(rng, geom, 6, 0.3)
        maps = locality_map_binned(mat, geom, "same", [17])
        assert maps[0].grid.sum() == 0

    def test_invalid_edges(self, rng):
        geom = ImageGeometry(4, 4, 1)
        mat = random_mask_matrix(rng, geom, 2, 0.5)
        for edges in ([], [3, 3], [5, 2]):
            with pytest.raises(ValueError):
                locality_map_binned(mat, geom, "same", edges)

    def test_non_integral_edges_refused_numpy_integers_accepted(self, rng):
        geom = ImageGeometry(4, 4, 1)
        mat = random_mask_matrix(rng, geom, 6, 0.5)
        for edges in ([0, 2.5], [0.0, 2], np.array([0.5, 9.0]), ["0", "2"]):
            with pytest.raises(ValueError, match="must be integers"):
                locality_map_binned(mat, geom, "same", edges)
        want = [m.grid for m in locality_map_binned(mat, geom, "same", [0, 7])]
        for edges in (np.array([0, 7]), [np.int32(0), np.uint8(7)]):
            got = [m.grid for m in locality_map_binned(mat, geom, "same", edges)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestLocalityTransformPath:
    """Nodes with k^2 > C*(2H)*(2W) take the DFT-and-Gram path; these cases
    shrink its chunk and group sizes so that every bookkeeping branch runs."""

    @staticmethod
    def masks_with_counts(rng, geom, counts):
        mat = np.zeros((geom.input_size, len(counts)), dtype=np.uint8)
        for j, k in enumerate(counts):
            mat[rng.choice(geom.input_size, k, replace=False), j] = 1
        return mat

    @pytest.mark.parametrize("mode", ["same", "different"])
    @pytest.mark.parametrize("geom", [ImageGeometry(7, 5, 3), ImageGeometry(5, 9, 1)],
                             ids=lambda g: f"{g.width}x{g.height}x{g.channels}")
    def test_chunks_spanning_bins_match_brute_force(self, rng, monkeypatch, geom, mode):
        n_in = geom.input_size
        split = geom.channels * (2 * geom.height) * (2 * geom.width)
        low = int(split ** 0.5) + 1  # the smallest count on the transform path
        assert low * low > split >= (low - 1) ** 2
        # bins: [2, low) pair path only, [low, mid) empty, [mid, top) full,
        # [top, n_in) empty, [n_in, inf) full; plus nodes below every edge
        mid, top = (low + n_in) // 2, n_in - 2
        edges = [2, low, mid, top, n_in]
        counts = [0, 1, 3, low - 1] + [mid, mid + 1, top - 1] * 3 + [n_in] * 5 + [low - 2, 2]
        mat = self.masks_with_counts(rng, geom, rng.permutation(counts))
        k = mat.sum(axis=0)
        bins = np.searchsorted(edges, k, side="right") - 1
        dense = k * k > split
        assert (dense & (bins == 2)).sum() == 9 and (dense & (bins == 4)).sum() == 5
        assert not ((bins == 1) | (bins == 3)).any()

        chunk = 4
        monkeypatch.setattr(observables, "_DFT_CHUNK_CELLS", chunk * n_in)
        # three x-frequencies per group of a full chunk; at W = 7 the last group holds 2
        monkeypatch.setattr(observables, "_DFT_GROUP_CELLS", 3 * 2 * geom.height * chunk * geom.channels)
        sorted_bins = np.sort(bins[dense])
        per_chunk = [set(sorted_bins[i : i + chunk]) for i in range(0, sorted_bins.size, chunk)]
        assert any(len(s) >= 2 for s in per_chunk)
        assert all(sum(b in s for s in per_chunk) >= 2 for b in (2, 4))

        assert np.array_equal(locality_map(mat, geom, mode).grid,
                              oracles.brute_force_locality(mat, geom, mode))
        maps = locality_map_binned(mat, geom, mode, edges)
        for i, lmap in enumerate(maps):
            assert np.array_equal(lmap.grid, oracles.brute_force_locality(mat[:, bins == i], geom, mode))
        assert maps[1].grid.sum() == 0 and maps[3].grid.sum() == 0
        if mode == "same":  # with one channel there are no cross-channel pairs
            assert maps[2].grid.sum() > 0 and maps[4].grid.sum() > 0

    @pytest.mark.parametrize("geom", [ImageGeometry(7, 5, 3), ImageGeometry(5, 9, 1), ImageGeometry(1, 6, 3)],
                             ids=lambda g: f"{g.width}x{g.height}x{g.channels}")
    def test_one_node_per_chunk_and_one_frequency_per_group(self, rng, monkeypatch, geom):
        monkeypatch.setattr(observables, "_DFT_CHUNK_CELLS", 1)
        monkeypatch.setattr(observables, "_DFT_GROUP_CELLS", 1)
        mat = (rng.random((geom.input_size, 6)) < 0.8).astype(np.uint8)
        k = mat.sum(axis=0)
        assert (k * k > geom.channels * (2 * geom.height) * (2 * geom.width)).all()
        for mode in ("same", "different"):
            assert np.array_equal(locality_map(mat, geom, mode).grid,
                                  oracles.brute_force_locality(mat, geom, mode))


class TestEffectiveMasks:
    def test_single_mask_passthrough(self, rng):
        m = (rng.random((6, 4)) < 0.5).astype(np.uint8)
        assert np.array_equal(effective_masks([m]), m)

    def test_hand_chain(self):
        m1 = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.uint8)
        m2 = np.array([[1], [1]], dtype=np.uint8)
        assert effective_masks([m1, m2]).ravel().tolist() == [1, 1, 0]

    def test_multiple_paths_stay_binary(self):
        m1 = np.ones((3, 4), dtype=np.uint8)
        m2 = np.ones((4, 2), dtype=np.uint8)
        out = effective_masks([m1, m2])
        assert out.dtype == np.uint8
        assert np.all(out == 1)

    def test_dead_middle_layer_kills_everything(self):
        m1 = np.ones((5, 3), dtype=np.uint8)
        m2 = np.zeros((3, 4), dtype=np.uint8)
        m3 = np.ones((4, 2), dtype=np.uint8)
        assert effective_masks([m1, m2, m3]).sum() == 0

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            depth = int(rng.integers(2, 4))
            sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
            chain = [
                (rng.random((a, b)) < 0.5).astype(np.uint8) for a, b in zip(sizes, sizes[1:])
            ]
            assert np.array_equal(effective_masks(chain), oracles.brute_force_effective(chain))

    def test_desk_dims_match_float64_product(self, rng):
        for sizes, keep in (([1024, 128, 128, 128], 0.05), ([1024, 384, 128], 0.9)):
            chain = [(rng.random((a, b)) < keep).astype(np.uint8) for a, b in zip(sizes, sizes[1:])]
            reach = chain[0] != 0
            for m in chain[1:]:
                paths = reach.astype(np.float64) @ m.astype(np.float64)
                reach = paths > 0
            assert np.array_equal(effective_masks(chain), reach.astype(np.uint8))
        assert paths.max() > 255  # the wide 1024x384x128 chain
        # exactly 256 paths per entry: zero in any 8-bit count
        assert effective_masks([np.ones((2, 256), np.uint8), np.ones((256, 3), np.uint8)]).all()

    def test_invalid_chains(self):
        with pytest.raises(ValueError):
            effective_masks([])
        with pytest.raises(ValueError):
            effective_masks([np.ones((3, 2), np.uint8), np.ones((3, 2), np.uint8)])


def probe_setup():
    """A 2-pixel net where node 0 alone decides the prediction.

    Eval-mode batch norm at init is nearly the identity, so logits reduce to
    relu(x @ w1) @ w2 up to a factor 1/sqrt(1 + eps).
    """
    geom = ImageGeometry(2, 1, 1)
    dims = [2, 3, 2]
    params = init_params(dims, seed=0)
    params.weights[0][...] = [[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
    params.weights[1][...] = [[-1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
    for b in params.biases:
        b[...] = 0.0
    masks = MaskSet.full(dims)
    masks.masks[0][...] = [[1, 1, 0], [1, 0, 1]]  # incoming counts [2, 1, 1]
    images = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    ds = ImageDataset(geom, images, np.array([1, 0]), 2)
    return params, masks, ds


class TestAblationCurve:
    def test_zero_removed_is_baseline(self):
        params, masks, ds = probe_setup()
        curve = ablation_curve(params, masks, ds, "ascending", [0])
        assert curve == [(0, 1.0)]

    def test_ascending_removes_least_connected_first(self):
        params, masks, ds = probe_setup()
        curve = ablation_curve(params, masks, ds, "ascending", [0, 1, 2])
        # nodes 1 and 2 carry no outgoing weight, so accuracy holds
        assert curve == [(0, 1.0), (1, 1.0), (2, 1.0)]

    def test_descending_removes_most_connected_first(self):
        params, masks, ds = probe_setup()
        curve = ablation_curve(params, masks, ds, "descending", [0, 1])
        # node 0 is the most connected and the only useful one
        assert curve[0] == (0, 1.0)
        assert curve[1] == (1, 0.5)

    def test_removing_dead_nodes_changes_nothing(self, rng):
        dims = [8, 5, 2]
        params = init_params(dims, seed=3)
        masks = MaskSet.full(dims)
        masks.masks[0][:, [1, 3]] = 0
        geom = ImageGeometry(8, 1, 1)
        ds = ImageDataset(geom, rng.random((20, 8), dtype=np.float32), rng.integers(0, 2, 20), 2)
        curve = ablation_curve(params, masks, ds, "ascending", [0, 1, 2])
        assert curve[0][1] == curve[1][1] == curve[2][1]

    def test_invalid_arguments(self):
        params, masks, ds = probe_setup()
        with pytest.raises(ValueError):
            ablation_curve(params, masks, ds, "sideways", [0])
        with pytest.raises(ValueError):
            ablation_curve(params, masks, ds, "ascending", [4])


def trained_looking_net(rng, dims=(48, 24, 12, 3)):
    """A net of the given dims (default [48, 24, 12, 3]) with nonzero biases
    and batch-norm state, three dead layer-1 nodes, and 2,500 images (eval
    chunks of 1000 + 1000 + 500) whose labels mostly follow the full network,
    so ablation moves the accuracy."""
    geom = ImageGeometry(8, 6, 1)
    dims = list(dims)
    params = init_params(dims, seed=7)
    for group in (params.biases, params.beta, params.running_mean):
        for v in group:
            v[...] = rng.normal(0.0, 0.5, v.shape)
    for group in (params.gamma, params.running_var):
        for v in group:
            v[...] = rng.uniform(0.5, 2.0, v.shape)
    masks = MaskSet([(rng.random((a, b)) < 0.6).astype(np.uint8) for a, b in zip(dims[:-2], dims[1:-1])])
    masks.masks[0][:, [2, 9, 17]] = 0
    images = rng.random((2500, 48), dtype=np.float32)
    logits, _ = forward(params, masks, images, "eval")
    labels = np.where(rng.random(2500) < 0.8, np.argmax(logits, axis=1), rng.integers(0, 3, 2500))
    return params, masks, ImageDataset(geom, images, labels, 3)


class TestAblationCurveExact:
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_equals_ablated_accuracy_bit_for_bit(self, rng, order):
        params, masks, ds = trained_looking_net(rng)
        n_nodes = masks.masks[0].shape[1]
        incoming = masks.masks[0].sum(axis=0, dtype=np.int64)
        ranked = np.argsort(incoming if order == "ascending" else -incoming, kind="stable")
        counts = [0, 1, n_nodes, 13, 4, 20, 3]
        curve = ablation_curve(params, masks, ds, order, counts)
        expected = [(c, accuracy(params, oracles.ablate_nodes(masks, 1, ranked[:c]), ds)) for c in counts]
        assert curve == expected
        assert len({acc for _, acc in curve}) > 2  # the curve is not flat

    def test_counts_checked_before_any_evaluation(self, rng):
        params, masks, ds = trained_looking_net(rng)
        empty = ImageDataset(ds.geometry, ds.images[:0], ds.labels[:0], 3)
        with pytest.raises(ValueError, match="cannot remove 25 of 24 nodes"):
            ablation_curve(params, masks, empty, "ascending", [0, 1, 25])
        with pytest.raises(ValueError, match="empty dataset"):
            ablation_curve(params, masks, empty, "ascending", [0, 1])
        assert ablation_curve(params, masks, empty, "ascending", []) == []


class TestAblationCurves:
    # unsorted, with duplicates, 0 and all 24 nodes
    COUNTS = [13, 0, 3, 24, 3, 1, 0, 20, 4]
    BOTH = ("ascending", "descending")

    def test_each_order_equals_ablated_accuracy_bit_for_bit(self, rng):
        params, masks, ds = trained_looking_net(rng)
        incoming = masks.masks[0].sum(axis=0, dtype=np.int64)
        curves = ablation_curves(params, masks, ds, self.BOTH, self.COUNTS)
        assert list(curves) == list(self.BOTH)
        for order, key in zip(self.BOTH, (incoming, -incoming)):
            ranked = np.argsort(key, kind="stable")
            expected = [(c, accuracy(params, oracles.ablate_nodes(masks, 1, ranked[:c]), ds))
                        for c in self.COUNTS]
            assert curves[order] == expected
            assert curves[order] == ablation_curve(params, masks, ds, order, self.COUNTS)
        assert curves["ascending"] != curves["descending"]

    def test_full_mask_orders_agree(self, rng):
        params, _, ds = trained_looking_net(rng)
        masks = MaskSet.full(params.dims)
        curves = ablation_curves(params, masks, ds, self.BOTH, self.COUNTS)
        assert curves["ascending"] == curves["descending"]
        assert len({acc for _, acc in curves["ascending"]}) > 2

    def test_one_layer_one_pass_per_chunk_and_one_suffix_per_live_node_set(self, rng, monkeypatch):
        params, masks, ds = trained_looking_net(rng)
        calls = []
        hidden_layer = observables._hidden_layer

        def spy(params, l, z, mode, out=None):
            calls.append((l, len(z)))
            return hidden_layer(params, l, z, mode, out=out)

        monkeypatch.setattr(observables, "_hidden_layer", spy)
        ablation_curves(params, masks, ds, self.BOTH, self.COUNTS)
        # Ascending removes the three dead nodes first, so counts 0, 1 and 3
        # share the empty live set; 4, 13, 20 and 24 add four more. Descending
        # adds 1, 3, 4, 13 and 20; its 0 and 24 are ascending's. 18 points, 10 sets.
        chunks = [1000, 1000, 500]
        expected = [(0, 1)] + [(0, n) for n in chunks] + [(1, n) for n in chunks for _ in range(10)]
        assert sorted(calls) == sorted(expected)

    @staticmethod
    def cores(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @pytest.mark.parametrize("dims", [(48, 24, 12, 3), (48, 24, 28, 12, 3)])
    def test_one_lane_and_two_lanes_give_the_same_curves(self, rng, monkeypatch, dims):
        # chunks of 1000, 1000 and 500 rows: the last one uses sliced buffers;
        # the deeper net's layers have different widths
        params, masks, ds = trained_looking_net(rng, dims)
        threads = []
        hidden_layer = observables._hidden_layer

        def spy(params, l, z, mode, out=None):
            threads.append(threading.current_thread())
            return hidden_layer(params, l, z, mode, out=out)

        monkeypatch.setattr(observables, "_hidden_layer", spy)
        curves = {}
        for n_cores in (1, 2):
            self.cores(monkeypatch, n_cores)
            threads.clear()
            curves[n_cores] = ablation_curves(params, masks, ds, self.BOTH, self.COUNTS)
            # two cores: one worker thread for each of the three chunks
            assert len(set(threads) - {threading.current_thread()}) == (0 if n_cores == 1 else 3)
        assert curves[1] == curves[2]
        assert len({acc for _, acc in curves[1]["ascending"]}) > 2
        incoming = masks.masks[0].sum(axis=0, dtype=np.int64)
        for order, key in zip(self.BOTH, (incoming, -incoming)):
            ranked = np.argsort(key, kind="stable")
            assert curves[2][order] == [(c, accuracy(params, oracles.ablate_nodes(masks, 1, ranked[:c]), ds))
                                        for c in self.COUNTS]
        # one distinct set runs in one lane on two cores
        threads.clear()
        assert ablation_curves(params, masks, ds, self.BOTH, [0]) == {
            order: [(0, accuracy(params, masks, ds))] for order in self.BOTH}
        assert set(threads) == {threading.current_thread()}

    @pytest.mark.parametrize("failing", ["calling", "worker"])
    def test_a_lane_exception_reaches_the_caller_after_both_lanes_stop(self, rng, monkeypatch, failing):
        params, masks, ds = trained_looking_net(rng)
        self.cores(monkeypatch, 2)
        error = RuntimeError(f"{failing} lane failed")
        caller = threading.current_thread()
        hidden_layer = observables._hidden_layer

        def failing_layer(params, l, z, mode, out=None):
            on_caller = threading.current_thread() is caller
            if l > 0 and on_caller == (failing == "calling"):
                raise error
            if l > 0:
                time.sleep(0.01)  # the other lane is still running when the error is raised
            return hidden_layer(params, l, z, mode, out=out)

        monkeypatch.setattr(observables, "_hidden_layer", failing_layer)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            ablation_curves(params, masks, ds, self.BOTH, self.COUNTS)
        assert info.value is error
        assert threading.active_count() == before

    def test_orders_and_counts_checked_before_any_evaluation(self, rng, monkeypatch):
        params, masks, ds = trained_looking_net(rng)

        def evaluated(*args):
            raise AssertionError("evaluated before the arguments were checked")

        monkeypatch.setattr(observables, "_hidden_layer", evaluated)
        with pytest.raises(ValueError, match="order must be 'ascending' or 'descending', got 'sideways'"):
            ablation_curves(params, masks, ds, ("ascending", "sideways"), [0])
        with pytest.raises(ValueError, match="cannot remove 25 of 24 nodes"):
            ablation_curves(params, masks, ds, self.BOTH, [0, 25])
        assert ablation_curves(params, masks, ds, self.BOTH, []) == {"ascending": [], "descending": []}


class TestBinomialReference:
    def test_hand_value(self):
        pmf = binomial_reference(4, 0.5, 4)
        assert_allclose(pmf, np.array([1, 4, 6, 4, 1]) / 16.0, rtol=1e-12)

    def test_sums_to_one(self):
        for n, u in [(1, 0.5), (10, 0.1), (300, 0.73), (2000, 0.01)]:
            assert abs(binomial_reference(n, u, n).sum() - 1.0) < 1e-9

    def test_mode_location(self):
        pmf = binomial_reference(100, 0.3, 100)
        assert int(np.argmax(pmf)) == 30

    def test_degenerate_densities(self):
        assert binomial_reference(5, 0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert binomial_reference(3, 1.0, 5).tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        assert binomial_reference(6, 1.0, 3).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_k_max_truncates(self):
        full = binomial_reference(30, 0.2, 30)
        short = binomial_reference(30, 0.2, 7)
        assert_allclose(short, full[:8], rtol=1e-12)

    def test_matches_scipy(self, rng):
        stats = pytest.importorskip("scipy.stats")
        for _ in range(10):
            n = int(rng.integers(1, 500))
            u = float(rng.uniform(0.01, 0.99))
            pmf = binomial_reference(n, u, n)
            assert_allclose(pmf, stats.binom.pmf(np.arange(n + 1), n, u), rtol=1e-9, atol=1e-300)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binomial_reference(0, 0.5, 3)
        with pytest.raises(ValueError):
            binomial_reference(4, 1.5, 3)
        with pytest.raises(ValueError):
            binomial_reference(4, 0.5, -1)
