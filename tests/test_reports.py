import os
import struct
from pathlib import Path

import numpy as np
import pytest

from ticketsift.datasets import ImageGeometry
from ticketsift.network import MaskSet, init_params
from ticketsift.reports import (
    export_imp_curve_csv,
    export_locality_csv,
    export_locality_image,
    export_mask_image,
    export_pixmap_csv,
    export_train_curve_csv,
    export_weighted_mask_image,
    load_checkpoint,
    load_locality_csv,
    load_manifest,
    load_masks,
    load_split,
    save_checkpoint,
    save_masks,
    save_split,
    write_manifest,
    _Reader,
)
from ticketsift.trainer import TrainRecord

import oracles
from conftest import random_dataset, traced_peak


def parse_netpbm(path):
    magic, comment, dims, maxval, payload = Path(path).read_bytes().split(b"\n", 4)
    assert comment.startswith(b"# pixel layout:")
    assert maxval == b"255"
    w, h = (int(v) for v in dims.split())
    return magic, w, h, payload


def random_params(rng, dims):
    params = init_params(dims, seed=int(rng.integers(1 << 30)))
    for group in (params.running_mean, params.running_var):
        for arr in group:
            arr[...] = rng.normal(size=arr.shape).astype(np.float32) ** 2
    return params


def random_masks(rng, dims):
    masks = MaskSet.full(dims)
    for m in masks.masks:
        m[...] = rng.random(m.shape) < 0.6
    return masks


def params_arrays(params):
    out = list(params.weights) + list(params.biases) + list(params.gamma)
    out += list(params.beta) + list(params.running_mean) + list(params.running_var)
    return out


class TestCheckpointFile:
    def test_round_trip(self, rng, tmp_path):
        for dims in ([4, 3, 2], [6, 5, 4, 3], [2, 8, 2]):
            params = random_params(rng, dims)
            path = tmp_path / "ckpt.tkts"
            save_checkpoint(path, params)
            loaded = load_checkpoint(path)
            assert loaded.dims == dims
            for a, b in zip(params_arrays(params), params_arrays(loaded)):
                assert a.dtype == b.dtype == np.float32
                assert np.array_equal(a, b)

    def test_exact_byte_count(self, rng, tmp_path):
        # header 12 + dims 12 + hidden layer (48+12+4*12) + output (24+8)
        path = tmp_path / "ckpt.tkts"
        save_checkpoint(path, random_params(rng, [4, 3, 2]))
        assert path.stat().st_size == 164

    def test_bad_magic_rejected(self, rng, tmp_path):
        path = tmp_path / "ckpt.tkts"
        save_checkpoint(path, random_params(rng, [4, 3, 2]))
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, rng, tmp_path):
        path = tmp_path / "ckpt.tkts"
        save_checkpoint(path, random_params(rng, [4, 3, 2]))
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncation_rejected(self, rng, tmp_path):
        path = tmp_path / "ckpt.tkts"
        save_checkpoint(path, random_params(rng, [4, 3, 2]))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "ckpt.tkts"
        save_checkpoint(path, random_params(rng, [4, 3, 2]))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_save_and_load_copy_the_payload_at_most_once(self, tmp_path):
        params = init_params([1024, 256, 128, 4], seed=0)
        payload = sum(a.nbytes for a in params_arrays(params))
        path = tmp_path / "ckpt.tkts"
        _, peak = traced_peak(lambda: save_checkpoint(path, params))
        assert peak <= 0.1 * payload  # written from the buffer itself
        _, peak = traced_peak(lambda: load_checkpoint(path))
        assert peak <= 1.1 * payload  # read from the file straight into the buffer

    def test_matches_field_by_field_writer(self, rng, tmp_path):
        for dims in ([4, 3, 2], [6, 5, 4, 3], [16, 6, 5, 2]):
            params = random_params(rng, dims)
            for arr in params_arrays(params):  # no two arrays alike
                arr[...] = rng.normal(size=arr.shape)
            path = tmp_path / "ckpt.tkts"
            save_checkpoint(path, params)
            assert path.read_bytes() == reference_tkts(params)
            save_checkpoint(path, oracles.to_float64(params))  # stored as float32
            assert path.read_bytes() == reference_tkts(params)
            save_checkpoint(tmp_path / "again.tkts", load_checkpoint(path))
            assert (tmp_path / "again.tkts").read_bytes() == path.read_bytes()


def reference_tkts(params) -> bytes:
    """The .tkts bytes written field by field: magic, format version, weight
    layer count, dims, then per layer the weights and biases and, for hidden
    layers, gamma, beta, running mean and running variance, each as
    little-endian float32 in row-major order."""
    n = len(params.weights)
    dims = [params.weights[0].shape[0]] + [w.shape[1] for w in params.weights]
    parts = [b"TKTS", struct.pack("<II", 1, n), struct.pack(f"<{n + 1}I", *dims)]
    for l in range(n):
        arrays = [params.weights[l], params.biases[l]]
        if l < n - 1:
            arrays += [params.gamma[l], params.beta[l], params.running_mean[l], params.running_var[l]]
        parts += [np.asarray(a, dtype="<f4").tobytes() for a in arrays]
    return b"".join(parts)


class TestMaskFile:
    def test_round_trip(self, rng, tmp_path):
        for dims in ([4, 3, 2], [9, 7, 5, 2], [2, 2, 2]):
            masks = random_masks(rng, dims)
            path = tmp_path / "masks.tkms"
            save_masks(path, masks)
            loaded = load_masks(path)
            assert len(loaded.masks) == len(masks.masks)
            for a, b in zip(masks.masks, loaded.masks):
                assert np.array_equal(a, b)

    def test_all_ones_payload_bytes(self, tmp_path):
        path = tmp_path / "masks.tkms"
        save_masks(path, MaskSet.full([8, 8, 2]))
        data = path.read_bytes()
        # magic 4 + version 4 + count 4 + dims 8 + popcount 8 + packed 8
        assert len(data) == 36
        assert data[20:28] == (64).to_bytes(8, "little")
        assert data[28:] == b"\xff" * 8

    def test_popcount_mismatch_rejected(self, rng, tmp_path):
        path = tmp_path / "masks.tkms"
        save_masks(path, MaskSet.full([8, 8, 2]))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01  # clear one mask bit without touching the count
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="popcount"):
            load_masks(path)

    def test_truncation_rejected(self, rng, tmp_path):
        path = tmp_path / "masks.tkms"
        save_masks(path, random_masks(rng, [5, 4, 2]))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            load_masks(path)

    def test_bad_magic_rejected(self, rng, tmp_path):
        path = tmp_path / "masks.tkms"
        save_masks(path, random_masks(rng, [5, 4, 2]))
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            load_masks(path)


class TestSplitFile:
    @pytest.mark.parametrize("geom,n", [
        (ImageGeometry(4, 3, 1), 7), (ImageGeometry(3, 2, 3), 5), (ImageGeometry(4, 4, 1), 0),
    ])
    def test_round_trip(self, rng, tmp_path, geom, n):
        ds = random_dataset(rng, geom, n, 3)
        save_split(tmp_path / "v.tkds", ds)
        back = load_split(tmp_path / "v.tkds")
        assert back.geometry == geom
        assert back.n_classes == 3
        assert back.images.tobytes() == ds.images.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert back.labels.dtype == np.int64
        size = 4 + 4 * 6 + n * (4 * geom.input_size + 8)
        assert (tmp_path / "v.tkds").stat().st_size == size

    def test_save_and_load_copy_each_payload_at_most_once(self, rng, tmp_path):
        ds = random_dataset(rng, ImageGeometry(32, 32, 1), 1000, 4)
        payload = ds.images.nbytes + ds.labels.nbytes
        path = tmp_path / "v.tkds"
        _, peak = traced_peak(lambda: save_split(path, ds))
        assert peak <= 0.1 * payload  # written from the arrays themselves
        _, peak = traced_peak(lambda: load_split(path))
        assert peak <= 1.1 * payload  # read from the file straight into each array

    def test_damaged_files_rejected(self, rng, tmp_path):
        path = tmp_path / "v.tkds"
        save_split(path, random_dataset(rng, ImageGeometry(4, 3, 1), 5, 2))
        good = path.read_bytes()
        for data, match in [(good[:-1], "truncated"), (good + b"\0", "trailing"),
                            (b"TKTS" + good[4:], "bad magic")]:
            path.write_bytes(data)
            with pytest.raises(ValueError, match=match):
                load_split(path)

    def test_header_beyond_the_file_refused_before_allocating(self, rng, tmp_path):
        path = tmp_path / "v.tkds"
        save_split(path, random_dataset(rng, ImageGeometry(4, 3, 1), 5, 2))
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack("<I", 2**32 - 1)  # n: about 206 GB of images
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated"):
            load_split(path)

    def test_file_shrinking_while_read_is_truncated(self, rng, tmp_path):
        path = tmp_path / "v.tkds"
        for read in (lambda r: r.take(4), lambda r: r.array(5, "<i4")):
            save_split(path, random_dataset(rng, ImageGeometry(4, 3, 1), 5, 2))
            with _Reader(path) as r:
                os.truncate(path, 0)  # after the size was taken: the read comes up short
                with pytest.raises(ValueError, match="truncated"):
                    read(r)

    def test_out_of_range_content_rejected(self, rng, tmp_path):
        path = tmp_path / "v.tkds"
        for bad in (1.5, np.nan):
            ds = random_dataset(rng, ImageGeometry(4, 3, 1), 5, 2)
            ds.images[2, 3] = bad
            save_split(path, ds)
            with pytest.raises(ValueError, match="pixel values"):
                load_split(path)


class TestMaskImage:
    def test_gray_payload(self, tmp_path):
        geom = ImageGeometry(2, 2, 1)
        path = tmp_path / "mask.pgm"
        export_mask_image(np.array([1, 0, 0, 1]), geom, path)
        magic, w, h, payload = parse_netpbm(path)
        assert (magic, w, h) == (b"P5", 2, 2)
        assert payload == bytes([255, 0, 0, 255])
        export_mask_image(np.zeros(4, dtype=np.uint8), geom, path)
        assert parse_netpbm(path) == (b"P5", 2, 2, bytes(4))

    def test_rgb_interleaves_channels(self, tmp_path):
        geom = ImageGeometry(2, 2, 3)
        row = np.zeros(12, dtype=np.uint8)
        row[0 * 4 + 0] = 1  # channel 0, pixel (0, 0)
        row[2 * 4 + 3] = 1  # channel 2, pixel (1, 1)
        path = tmp_path / "mask.ppm"
        export_mask_image(row, geom, path)
        magic, w, h, payload = parse_netpbm(path)
        assert (magic, w, h) == (b"P6", 2, 2)
        assert len(payload) == 12
        assert payload[0] == 255  # first pixel, red plane
        assert payload[11] == 255  # last pixel, blue plane
        assert sum(payload) == 510

    def test_non_binary_row_rejected(self, tmp_path):
        geom = ImageGeometry(2, 2, 1)
        with pytest.raises(ValueError, match="0 or 1"):
            export_mask_image(np.array([1, 2, 0, 1]), geom, tmp_path / "bad.pgm")


class TestWeightedMaskImage:
    def test_affine_endpoints(self, tmp_path):
        geom = ImageGeometry(2, 1, 1)
        path = tmp_path / "w.pgm"
        export_weighted_mask_image(np.array([-1.0, 1.0]), geom, path, mask_row=np.array([1, 1]))
        _, _, _, payload = parse_netpbm(path)
        assert payload == bytes([0, 255])

    def test_pruned_entries_get_zero_byte(self, tmp_path):
        geom = ImageGeometry(3, 1, 1)
        path = tmp_path / "w.pgm"
        export_weighted_mask_image(
            np.array([-1.0, 1.0, 0.0]), geom, path, mask_row=np.array([1, 1, 0])
        )
        _, _, _, payload = parse_netpbm(path)
        assert payload == bytes([0, 255, 128])  # 0 sits halfway between -1 and 1

    def test_mask_row_distinguishes_zero_weight_survivor(self, tmp_path):
        geom = ImageGeometry(2, 1, 1)
        path = tmp_path / "w.pgm"
        export_weighted_mask_image(
            np.array([0.0, 5.0]), geom, path, mask_row=np.array([1, 1])
        )
        _, _, _, payload = parse_netpbm(path)
        assert payload == bytes([0, 255])

    def test_constant_value_maps_to_midgray(self, tmp_path):
        geom = ImageGeometry(2, 1, 1)
        path = tmp_path / "w.pgm"
        export_weighted_mask_image(np.array([2.0, 2.0]), geom, path, mask_row=np.array([1, 1]))
        _, _, _, payload = parse_netpbm(path)
        assert payload == bytes([128, 128])

    def test_all_pruned_maps_to_midgray(self, tmp_path):
        geom = ImageGeometry(2, 1, 1)
        path = tmp_path / "w.pgm"
        export_weighted_mask_image(np.array([0.0, 0.0]), geom, path, mask_row=np.array([0, 0]))
        _, _, _, payload = parse_netpbm(path)
        assert payload == bytes([128, 128])


class TestLocalityFiles:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 7), (63, 63), (55, 55)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_csv_round_trip(self, rng, tmp_path, shape, dtype):
        grid = rng.integers(0, 60000, size=shape).astype(dtype)
        if dtype is np.int64:
            grid.flat[-1] = 2**40
        path = tmp_path / "loc.csv"
        export_locality_csv(grid, path)
        assert path.read_bytes() == oracles.locality_csv_text(grid).encode()
        assert np.array_equal(load_locality_csv(path), grid)

    @pytest.mark.parametrize("shape", [(4, 6), (3, 4), (7,), (3, 3, 3)], ids=["4x6", "3x4", "1-D", "3-D"])
    def test_csv_refuses_grid_without_two_odd_sides(self, tmp_path, shape):
        path = tmp_path / "loc.csv"
        with pytest.raises(ValueError, match="2-D with odd sides"):
            export_locality_csv(np.zeros(shape, dtype=np.int64), path)
        assert not path.exists()

    def test_csv_lists_every_cell(self, tmp_path):
        grid = np.zeros((3, 3), dtype=np.int64)
        grid[0, 0] = 4
        path = tmp_path / "loc.csv"
        export_locality_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dx,dy,count"
        assert len(lines) == 10
        assert "-1,-1,4" in lines
        assert lines.count("0,0,0") == 1

    def test_csv_with_a_repeated_cell_refused(self, tmp_path):
        path = tmp_path / "loc.csv"
        path.write_text("dx,dy,count\n1,0,5\n1,0,7\n")
        with pytest.raises(ValueError, match=r"loc\.csv repeats the cell dx=1, dy=0"):
            load_locality_csv(path)
        lines = oracles.locality_csv_text(np.arange(9).reshape(3, 3)).splitlines()
        path.write_text("\n".join(lines[:5] + [lines[2].replace(",1", ",9")] + lines[5:]) + "\n")
        with pytest.raises(ValueError, match=r"repeats the cell dx=0, dy=-1"):
            load_locality_csv(path)

    def test_csv_with_a_missing_cell_refused(self, tmp_path):
        path = tmp_path / "loc.csv"
        lines = oracles.locality_csv_text(np.arange(15).reshape(3, 5)).splitlines()
        assert lines[7] == "-1,0,6" and lines[9] == "1,0,8"
        path.write_text("\n".join(lines[:7] + lines[8:9] + lines[10:]) + "\n")
        with pytest.raises(ValueError, match=r"loc\.csv has no row for the cell dx=-1, dy=0"):
            load_locality_csv(path)

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "loc.csv"
        path.write_text("a,b,c\n1,1,1\n")
        with pytest.raises(ValueError):
            load_locality_csv(path)

    @pytest.mark.parametrize("row, problem", [("0,0,1,9", "is not three integers"),
                                              ("0,0,x", "is not three integers"),
                                              ("0,0", "is not three integers"),
                                              ("0,0,-1", "has a negative count")])
    def test_csv_bad_row_named_by_line(self, tmp_path, row, problem):
        path = tmp_path / "loc.csv"
        lines = oracles.locality_csv_text(np.arange(9).reshape(3, 3)).splitlines()
        path.write_text("\n".join(lines[:5] + [row] + lines[6:]) + "\n")
        with pytest.raises(ValueError, match=rf"loc\.csv line 6 {problem}: '{row}'"):
            load_locality_csv(path)

    def test_image_scaling(self, tmp_path):
        grid = np.array([[0, 2], [4, 4]], dtype=np.int64)
        path = tmp_path / "loc.pgm"
        export_locality_image(grid, path)
        magic, w, h, payload = parse_netpbm(path)
        assert (magic, w, h) == (b"P5", 2, 2)
        assert payload == bytes([0, 128, 255, 255])

    def test_image_all_zero_grid(self, tmp_path):
        path = tmp_path / "loc.pgm"
        export_locality_image(np.zeros((3, 3), dtype=np.int64), path)
        _, _, _, payload = parse_netpbm(path)
        assert payload == bytes(9)


class TestPixmapFile:
    @pytest.mark.parametrize("geom", [ImageGeometry(4, 4, 1), ImageGeometry(4, 4, 3),
                                      ImageGeometry(5, 3, 3)],
                             ids=lambda g: f"{g.width}x{g.height}x{g.channels}")
    def test_csv_bytes_match_oracle(self, rng, tmp_path, geom):
        values = rng.integers(0, 200, size=geom.input_size)
        values[-1] = 2**40
        path = tmp_path / "pixmap.csv"
        export_pixmap_csv(values, geom, path)
        assert path.read_bytes() == oracles.pixmap_csv_text(values, geom).encode()

    def test_csv_refuses_values_of_another_size(self, tmp_path):
        with pytest.raises(ValueError, match="flat row of 16"):
            export_pixmap_csv(np.zeros(15, dtype=np.int64), ImageGeometry(4, 4, 1), tmp_path / "p.csv")


class TestCurveFiles:
    def test_train_curve_round_trip(self, tmp_path):
        records = [
            TrainRecord(500, 1.0 / 3.0, 0.1234567890123),
            TrainRecord(1000, 2.5e-8, 1.0),
        ]
        path = tmp_path / "curve.csv"
        export_train_curve_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,train_loss,val_accuracy"
        for line, rec in zip(lines[1:], records):
            step, loss, acc = line.split(",")
            assert int(step) == rec.step
            assert float(loss) == rec.train_loss
            assert float(acc) == rec.val_accuracy

    def test_train_curve_empty(self, tmp_path):
        path = tmp_path / "curve.csv"
        export_train_curve_csv([], path)
        assert path.read_text() == "step,train_loss,val_accuracy\n"

    def test_imp_curve_handles_missing_best_val(self, tmp_path):
        path = tmp_path / "imp.csv"
        export_imp_curve_csv([(0, 1.0, 0.5), (1, 0.7, None)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,u,best_val"
        assert lines[1] == "0,1.0,0.5"
        assert lines[2] == "1,0.7,"


def complete_manifest(run_dir, **changes):
    """A manifest with every key load_manifest requires, after writing the
    files it names (one iteration's) under run_dir; changes replace
    top-level values."""
    files = {"rewind_file": "rewind.tkts", "val_file": "val.tkds"}
    iteration = {"n": 0, "mask_file": "iters/m.tkms", "params_file": "iters/p.tkts",
                 "curve_file": "iters/c.csv"}
    (Path(run_dir) / "iters").mkdir()
    for rel in [*files.values(), *list(iteration.values())[1:]]:
        (Path(run_dir) / rel).write_bytes(b"x")
    return {"manifest_version": 1, "kind": "imp", "pixel_layout": "index = c*H*W + y*W + x",
            "created_at": "2021-01-01T00:00:00+00:00", "dims": [4, 2], "imp_config": {},
            "dataset": None, "data_sha256": {}, "geometry": {"width": 2, "height": 2, "channels": 1},
            **files, "stopped_reason": "max_iterations", "iterations": [iteration], **changes}


class TestManifest:
    def test_round_trip_and_reference_check(self, tmp_path):
        data = complete_manifest(tmp_path)
        write_manifest(tmp_path, data)
        assert not (tmp_path / "manifest.json.tmp").exists()
        assert load_manifest(tmp_path) == data

    def test_missing_referenced_file_rejected(self, tmp_path):
        write_manifest(tmp_path, complete_manifest(tmp_path, rewind_file="gone.tkts"))
        with pytest.raises(ValueError, match="missing file gone.tkts"):
            load_manifest(tmp_path)

    def test_missing_split_file_rejected(self, tmp_path):
        write_manifest(tmp_path, complete_manifest(tmp_path))
        (tmp_path / "val.tkds").unlink()
        with pytest.raises(ValueError, match="missing file val.tkds"):
            load_manifest(tmp_path)

    def test_absent_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("text, problem", [('{"kind": "imp",\n', "is not valid JSON"),
                                               ("[1, 2]\n", "must hold a JSON object")],
                             ids=["truncated", "not-an-object"])
    def test_corrupt_manifest_named(self, tmp_path, text, problem):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ValueError, match=rf"manifest\.json {problem}"):
            load_manifest(tmp_path)
