import json
import struct
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from conftest import random_dataset, traced_peak
from ticketsift import datasets
from ticketsift.datasets import (
    BLOCK_BYTES,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    ClassMapping,
    ImageDataset,
    ImageGeometry,
    _permute_rows,
    cluster_classes,
    generate_synthetic,
    load_cifar_binary,
    load_class_mapping,
    load_idx,
    patch_input_indices,
    pixel_coords,
    pixel_index,
    rotate_images,
    save_cifar_binary,
    save_idx,
    split_train_val,
    subsample,
    translate_wrap_each,
)


class TestGeometryAndIndexing:
    def test_pixel_index_examples(self):
        geom = ImageGeometry(32, 32, 3)
        assert pixel_index(0, 0, 0, geom) == 0
        assert pixel_index(1, 0, 0, geom) == 1
        assert pixel_index(0, 1, 0, geom) == 32
        assert pixel_index(0, 0, 1, geom) == 1024
        assert pixel_index(31, 31, 2, geom) == 3071

    def test_pixel_index_rejects_out_of_range(self):
        geom = ImageGeometry(4, 4, 1)
        for bad in [(-1, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 1)]:
            with pytest.raises(ValueError):
                pixel_index(*bad, geom)

    def test_index_coords_bijection(self):
        geom = ImageGeometry(5, 3, 3)
        seen = set()
        for c in range(3):
            for y in range(3):
                for x in range(5):
                    i = pixel_index(x, y, c, geom)
                    assert pixel_coords(i, geom) == (x, y, c)
                    seen.add(i)
        assert seen == set(range(geom.input_size))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ImageGeometry(0, 4, 1)
        with pytest.raises(ValueError):
            ImageGeometry(4, 4, 2)

    def test_dataset_validation(self):
        geom = ImageGeometry(2, 2, 1)
        with pytest.raises(ValueError):
            ImageDataset(geom, np.full((1, 4), 1.5, np.float32), np.zeros(1, np.int64), 2)
        with pytest.raises(ValueError):
            ImageDataset(geom, np.zeros((1, 4), np.float32), np.array([5]), 2)
        with pytest.raises(ValueError):
            ImageDataset(geom, np.zeros((1, 3), np.float32), np.array([0]), 2)


def make_idx_pair(tmp_path, pixels, labels):
    """Hand-encode an IDX image/label file pair; pixels is (N, H, W) uint8."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, h, w = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w) + pixels.tobytes())
    labels_path.write_bytes(
        struct.pack(">II", IDX_LABEL_MAGIC, len(labels)) + bytes(labels)
    )
    return images_path, labels_path


class TestIdx:
    def test_hand_built_pair(self, tmp_path):
        pixels = np.array([[[0, 51], [102, 255]], [[10, 20], [30, 40]]], dtype=np.uint8)
        images_path, labels_path = make_idx_pair(tmp_path, pixels, [1, 0])
        ds = load_idx(images_path, labels_path)
        assert len(ds) == 2
        assert ds.geometry == ImageGeometry(2, 2, 1)
        assert ds.n_classes == 2
        assert_array_equal(ds.labels, [1, 0])
        # byte b scales to b / 255, laid out y * W + x
        assert_allclose(ds.images[0], np.array([0, 51, 102, 255]) / 255.0, rtol=0, atol=1e-7)
        assert ds.images[0][pixel_index(1, 1, 0, ds.geometry)] == pytest.approx(1.0)

    def test_wrong_magic(self, tmp_path):
        images_path, labels_path = make_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        data = bytearray(images_path.read_bytes())
        data[3] = 0x99
        images_path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            load_idx(images_path, labels_path)

    def test_truncated(self, tmp_path):
        images_path, labels_path = make_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        images_path.write_bytes(images_path.read_bytes()[:-3])
        with pytest.raises(ValueError):
            load_idx(images_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        images_path, labels_path = make_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1, 1])
        with pytest.raises(ValueError, match="mismatch"):
            load_idx(images_path, labels_path)

    def test_bytes_match_whole_array_conversion(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(37, 9, 7), dtype=np.uint8)
        pixels.flat[:256] = np.arange(256)  # every byte value
        ds = load_idx(*make_idx_pair(tmp_path, pixels, list(range(37))))
        want = oracles.bytes_to_unit_float(pixels.reshape(37, -1))
        assert ds.images.dtype == want.dtype
        assert ds.images.tobytes() == want.tobytes()

    def test_save_round_trip(self, tmp_path, rng):
        ds = random_dataset(rng, ImageGeometry(3, 4, 1), 5, 7)
        save_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        back = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert_array_equal(back.labels, ds.labels)
        # quantized to bytes on write, so equal within half a byte step
        assert np.abs(back.images - ds.images).max() <= 0.5 / 255.0


def writer_dataset(rng, geom):
    """About 10 MiB of images in [0, 1] (ten writer blocks and a partial one),
    with every value that rounds at a byte boundary."""
    n = 10 * BLOCK_BYTES // (4 * geom.input_size) + 3
    ds = random_dataset(rng, geom, n, 10)
    edges = np.arange(256, dtype=np.float32)
    ds.images.flat[:768] = np.concatenate([edges, edges + 0.5, edges - 0.5]).clip(0, 255) / 255.0
    return ds


class TestWriters:
    def test_idx_bytes_match_whole_array_conversion(self, tmp_path, rng):
        ds = writer_dataset(rng, ImageGeometry(32, 32, 1))
        save_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        header = struct.pack(">IIII", IDX_IMAGE_MAGIC, len(ds), 32, 32)
        assert (tmp_path / "i.idx").read_bytes() == header + oracles.quantize_whole(ds.images).tobytes()

    def test_cifar_bytes_match_whole_array_conversion(self, tmp_path, rng):
        ds = writer_dataset(rng, ImageGeometry(32, 32, 3))
        save_cifar_binary(ds, tmp_path / "b.bin")
        recs = np.concatenate([ds.labels.astype(np.uint8)[:, None], oracles.quantize_whole(ds.images)], axis=1)
        assert (tmp_path / "b.bin").read_bytes() == recs.tobytes()

    def test_idx_pair_kept_when_the_image_write_fails(self, tmp_path, monkeypatch):
        paths = tmp_path / "i.idx", tmp_path / "l.idx"
        geom = ImageGeometry(4, 4, 1)
        old, new = (generate_synthetic(geom, 6, (1, 1, 2, 2), 3, 0.25, seed) for seed in (0, 5))
        assert (old.labels != new.labels).any()
        save_idx(old, *paths)
        earlier = [p.read_bytes() for p in paths]

        def refuse(images):
            raise OSError("pixel write refused")
            yield

        monkeypatch.setattr(datasets, "_pixel_blocks", refuse)
        with pytest.raises(OSError, match="pixel write refused"):
            save_idx(new, *paths)
        assert [p.read_bytes() for p in paths] == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["i.idx", "l.idx"]

    def test_idx_labels_beyond_a_byte_refused_before_any_write(self, tmp_path, rng):
        ds = random_dataset(rng, ImageGeometry(2, 2, 1), 3, 300)
        with pytest.raises(ValueError, match="n_classes <= 256, got 300"):
            save_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        assert list(tmp_path.iterdir()) == []

    def test_empty_cifar_batch(self, tmp_path):
        empty = ImageDataset(ImageGeometry(32, 32, 3), np.zeros((0, 3072)), np.zeros(0), 10)
        save_cifar_binary(empty, tmp_path / "b.bin")
        assert (tmp_path / "b.bin").read_bytes() == b""

    @pytest.mark.parametrize("channels", [1, 3])
    def test_peak_memory_is_one_block(self, tmp_path, rng, channels):
        ds = writer_dataset(rng, ImageGeometry(32, 32, channels))
        if channels == 1:
            _, peak = traced_peak(lambda: save_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx"))
        else:
            _, peak = traced_peak(lambda: save_cifar_binary(ds, tmp_path / "b.bin"))
        # one block's float32 temporary and its bytes (and records); quantizing
        # the whole array at once held two float32 temporaries, 2.0x
        assert peak <= 0.3 * ds.images.nbytes


class TestWriteWhole:
    def test_replaces_a_stale_temporary(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"earlier")
        Path(f"{path}.tmp").write_bytes(bytes(range(256)) * 16)  # as a killed write leaves it
        datasets._write_whole(path, [b"head", np.arange(3, dtype="<i4")])
        assert path.read_bytes() == b"head" + np.arange(3, dtype="<i4").tobytes()
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_an_interrupted_write_keeps_the_earlier_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"earlier")
        interrupt = KeyboardInterrupt()

        def chunks():
            yield b"part of the new bytes"
            raise interrupt

        with pytest.raises(KeyboardInterrupt) as caught:
            datasets._write_whole(path, chunks())
        assert caught.value is interrupt
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_a_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            datasets._write_whole(tmp_path / "absent/out.bin", [b"x"])
        assert list(tmp_path.iterdir()) == []


class TestCifar:
    def test_record_layout(self, tmp_path):
        rec = bytearray(3073)
        rec[0] = 7  # label
        rec[1] = 200  # red plane, pixel (0, 0)
        rec[1 + 1024] = 100  # green plane, pixel (0, 0)
        rec[1 + 2 * 1024 + 5 * 32 + 3] = 50  # blue plane, pixel (3, 5)
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(rec))
        ds = load_cifar_binary([path])
        assert len(ds) == 1 and ds.n_classes == 10
        assert ds.labels[0] == 7
        geom = ds.geometry
        assert ds.images[0][pixel_index(0, 0, 0, geom)] == pytest.approx(200 / 255)
        assert ds.images[0][pixel_index(0, 0, 1, geom)] == pytest.approx(100 / 255)
        assert ds.images[0][pixel_index(3, 5, 2, geom)] == pytest.approx(50 / 255)

    def test_bad_length(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(ValueError, match="3073"):
            load_cifar_binary([path])

    def test_multiple_files_concatenate(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        rec = bytes([3]) + bytes(3072)
        a.write_bytes(rec * 2)
        b.write_bytes(rec)
        assert len(load_cifar_binary([a, b])) == 3

    def test_multi_file_bytes_match_whole_array_conversion(self, tmp_path, rng):
        recs = rng.integers(0, 256, size=(9, 3073), dtype=np.uint8)
        recs[:, 0] %= 10
        recs[0, 1:257] = np.arange(256)  # every byte value
        paths = [tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin"]
        for path, part in zip(paths, np.split(recs, [4, 5])):  # 4, 1 and 4 records
            path.write_bytes(part.tobytes())
        ds = load_cifar_binary(paths)
        want = oracles.bytes_to_unit_float(recs[:, 1:])
        assert ds.images.tobytes() == want.tobytes()
        assert_array_equal(ds.labels, recs[:, 0])

    def test_peak_memory_is_one_image_array_and_one_file(self, tmp_path, rng):
        n = 800
        save_cifar_binary(random_dataset(rng, ImageGeometry(32, 32, 3), n, 10), tmp_path / "b.bin")
        ds, peak = traced_peak(lambda: load_cifar_binary([tmp_path / "b.bin"]))
        assert len(ds) == n
        # the result (4 bytes a pixel) and the file (1 byte a pixel) are 1.25x;
        # converting all records at once held 2.25x
        assert peak <= 1.35 * (ds.images.nbytes + ds.labels.nbytes)

    def test_save_round_trip(self, tmp_path, rng):
        ds = random_dataset(rng, ImageGeometry(32, 32, 3), 4, 10)
        save_cifar_binary(ds, tmp_path / "b.bin")
        back = load_cifar_binary([tmp_path / "b.bin"])
        assert_array_equal(back.labels, ds.labels)
        assert np.abs(back.images - ds.images).max() <= 0.5 / 255.0


class TestSynthetic:
    GEOM = ImageGeometry(16, 16, 1)
    PATCH = (4, 6, 5, 3)

    def test_noise_free_images_identical_within_class(self):
        ds = generate_synthetic(self.GEOM, 8, self.PATCH, 3, noise_sd=0.0, seed=1)
        assert len(ds) == 24
        for cls in range(3):
            rows = ds.images[ds.labels == cls]
            assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))

    def test_outside_patch_carries_no_label_information(self):
        ds = generate_synthetic(self.GEOM, 8, self.PATCH, 3, noise_sd=0.0, seed=1)
        outside = np.setdiff1d(
            np.arange(self.GEOM.input_size), patch_input_indices(self.GEOM, self.PATCH)
        )
        assert_array_equal(ds.images[:, outside], np.full((24, outside.size), 0.5))

    def test_linear_probe_on_patch_is_perfect_when_noise_free(self):
        ds = generate_synthetic(self.GEOM, 10, self.PATCH, 4, noise_sd=0.0, seed=3)
        patch = patch_input_indices(self.GEOM, self.PATCH)
        x = np.hstack([ds.images[:, patch], np.ones((len(ds), 1))])
        targets = np.eye(4)[ds.labels]
        coeff, *_ = np.linalg.lstsq(x, targets, rcond=None)
        pred = np.argmax(x @ coeff, axis=1)
        assert (pred == ds.labels).all()

    def test_deterministic_and_seed_sensitive(self):
        a = generate_synthetic(self.GEOM, 4, self.PATCH, 3, 0.2, seed=9)
        b = generate_synthetic(self.GEOM, 4, self.PATCH, 3, 0.2, seed=9)
        c = generate_synthetic(self.GEOM, 4, self.PATCH, 3, 0.2, seed=10)
        assert_array_equal(a.images, b.images)
        assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_pixel_range_and_patch_validation(self):
        ds = generate_synthetic(self.GEOM, 4, self.PATCH, 3, noise_sd=2.0, seed=0)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        with pytest.raises(ValueError):
            generate_synthetic(self.GEOM, 4, (14, 0, 5, 3), 3, 0.0, seed=0)

    @pytest.mark.parametrize("noise_sd", [0.0, 0.3])
    def test_bytes_match_one_shot_generation(self, noise_sd):
        geom = ImageGeometry(32, 32, 1)
        rows = BLOCK_BYTES // (4 * geom.input_size)
        n_per_class = 310  # 3 * 310 rows are 3 full blocks and part of a fourth
        assert 3 * n_per_class > 3 * rows and (3 * n_per_class) % rows != 0
        ds = generate_synthetic(geom, n_per_class, (5, 9, 7, 4), 3, noise_sd, seed=4)
        images, labels = oracles.one_shot_synthetic(geom, n_per_class, (5, 9, 7, 4), 3, noise_sd, 4)
        assert ds.images.tobytes() == images.tobytes()
        assert_array_equal(ds.labels, labels)

    def test_peak_memory_is_one_image_array(self):
        # desk-recipe size: 5000 images of 32x32, about 20 MiB
        ds, peak = traced_peak(
            lambda: generate_synthetic(ImageGeometry(32, 32, 1), 1250, (12, 12, 8, 8), 4, 1.0, 1)
        )
        # the images and one noise block; a shuffled copy of the images held 2x
        # and a full-size noise draw and its scaled copy beside them 3x
        assert peak <= 1.2 * (ds.images.nbytes + ds.labels.nbytes)

    def test_nan_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_sd"):
            generate_synthetic(self.GEOM, 4, self.PATCH, 3, noise_sd=float("nan"), seed=0)


class TestSubsample:
    def test_floor_count(self, rng):
        ds = random_dataset(rng, ImageGeometry(4, 4, 1), 100, 5)
        assert len(subsample(ds, 0.3, seed=0)) == 30
        assert len(subsample(ds, 0.299, seed=0)) == 29

    def test_full_fraction_is_identity(self, rng):
        ds = random_dataset(rng, ImageGeometry(4, 4, 1), 20, 5)
        out = subsample(ds, 1.0, seed=0)
        assert_array_equal(out.images, ds.images)
        assert_array_equal(out.labels, ds.labels)

    def test_deterministic(self, rng):
        ds = random_dataset(rng, ImageGeometry(4, 4, 1), 50, 5)
        assert_array_equal(subsample(ds, 0.4, 7).labels, subsample(ds, 0.4, 7).labels)

    def test_composition_count(self, rng):
        ds = random_dataset(rng, ImageGeometry(4, 4, 1), 100, 5)
        out = subsample(subsample(ds, 0.7, 1), 0.7, 2)
        assert len(out) == int(0.7 * int(0.7 * 100))

    def test_empty_result_rejected(self, rng):
        ds = random_dataset(rng, ImageGeometry(4, 4, 1), 3, 2)
        with pytest.raises(ValueError):
            subsample(ds, 0.1, seed=0)


class TestClusterClasses:
    def test_random_mode_is_label_mod_10(self, rng):
        geom = ImageGeometry(2, 2, 1)
        images = rng.random((20, 4), dtype=np.float32)
        ds = ImageDataset(geom, images, np.arange(20), 20)
        out = cluster_classes(ds, "random")
        assert out.n_classes == 10
        assert_array_equal(out.labels, np.arange(20) % 10)
        assert out.images is ds.images  # image data untouched

    def test_semantic_mapping(self, rng):
        ds = random_dataset(rng, ImageGeometry(2, 2, 1), 30, 3)
        mapping = ClassMapping(2, (0, 0, 1))
        out = cluster_classes(ds, "semantic", mapping)
        assert out.n_classes == 2
        assert_array_equal(out.labels, np.where(ds.labels == 2, 1, 0))

    def test_semantic_missing_label_rejected(self, rng):
        ds = random_dataset(rng, ImageGeometry(2, 2, 1), 10, 5)
        ds.labels[0] = 4
        with pytest.raises(ValueError, match="mapping"):
            cluster_classes(ds, "semantic", ClassMapping(2, (0, 1, 0)))

    def test_unknown_mode(self, rng):
        ds = random_dataset(rng, ImageGeometry(2, 2, 1), 4, 2)
        with pytest.raises(ValueError):
            cluster_classes(ds, "kmeans")

    def test_mapping_validation(self):
        with pytest.raises(ValueError):
            ClassMapping(2, (0, 2))  # entry out of range
        with pytest.raises(ValueError):
            ClassMapping(3, (0, 1, 1))  # macro class 2 empty

    def test_mapping_json_round_trip(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"n_macro": 2, "table": [1, 0, 1]}))
        mapping = load_class_mapping(path)
        assert mapping == ClassMapping(2, (1, 0, 1))
        for bad in [{"n_macro": 2, "table": [1, 0], "extra": 1},
                    {"n_macro": 2.9, "table": "0101"},
                    {"n_macro": True, "table": [0, 0.9, False]}]:
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError):
                load_class_mapping(path)

    def test_invalid_mapping_json_names_the_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"n_macro": 2, "table": [0,')
        with pytest.raises(ValueError, match=r"mapping file .*map\.json is not valid JSON"):
            load_class_mapping(path)


class TestRotate:
    def test_zero_degrees_is_identity(self, rng):
        ds = random_dataset(rng, ImageGeometry(8, 8, 1), 3, 2)
        out = rotate_images(ds, 0.0)
        assert_array_equal(out.images, ds.images)

    def test_quarter_turn_mapping(self, rng):
        w = 6
        ds = random_dataset(rng, ImageGeometry(w, w, 1), 2, 2)
        out = rotate_images(ds, 90.0)
        src = ds.images.reshape(2, w, w)
        dst = out.images.reshape(2, w, w)
        for y in range(w):
            for x in range(w):
                assert dst[0, y, x] == src[0, w - 1 - x, y]  # dest (x,y) <- src (y, W-1-x)

    def test_four_quarter_turns_identity(self, rng):
        ds = random_dataset(rng, ImageGeometry(7, 7, 3), 2, 2)
        out = ds
        for _ in range(4):
            out = rotate_images(out, 90.0)
        assert_array_equal(out.images, ds.images)

    def test_small_angle_marks_corners_invalid(self, rng):
        # the sources of a 20 degree turn's corners lie outside the image:
        # they are zero-filled, while the centre pixel maps onto itself
        ds = random_dataset(rng, ImageGeometry(16, 16, 1), 1, 2)
        src = ds.images.reshape(16, 16)
        dst = rotate_images(ds, 20.0).images.reshape(16, 16)
        assert src.min() > 0.0
        for y, x in ((0, 0), (0, 15), (15, 0), (15, 15)):
            assert dst[y, x] == 0.0
        assert dst[8, 8] == src[8, 8]

    def test_rejects_non_square(self, rng):
        ds = random_dataset(rng, ImageGeometry(4, 6, 1), 1, 2)
        with pytest.raises(ValueError, match="square"):
            rotate_images(ds, 10.0)


class TestTranslate:
    def test_zero_and_full_shift_identity(self, rng):
        geom = ImageGeometry(5, 4, 3)
        batch = rng.random((3, geom.input_size), dtype=np.float32)
        assert_array_equal(translate_wrap_each(batch, geom, np.array([[0, 0]] * 3)), batch)
        assert_array_equal(translate_wrap_each(batch, geom, np.array([[5, 4], [-5, 8], [0, -4]])), batch)

    def test_column_wraps(self, rng):
        geom = ImageGeometry(4, 3, 1)
        batch = rng.random((2, 12), dtype=np.float32)
        out = translate_wrap_each(batch, geom, np.array([[1, 0]] * 2))
        src = batch.reshape(2, 3, 4)
        dst = out.reshape(2, 3, 4)
        assert_array_equal(dst[:, :, 0], src[:, :, 3])  # column W-1 wraps to column 0
        assert_array_equal(dst[:, :, 1:], src[:, :, :3])

    def test_invertible(self, rng):
        geom = ImageGeometry(6, 6, 3)
        batch = rng.random((2, geom.input_size), dtype=np.float32)
        shifts = np.array([[2, 5], [-3, 1]])
        out = translate_wrap_each(translate_wrap_each(batch, geom, shifts), geom, -shifts)
        assert_array_equal(out, batch)

    def test_channels_move_together(self, rng):
        geom = ImageGeometry(4, 4, 3)
        batch = rng.random((1, geom.input_size), dtype=np.float32)
        out = translate_wrap_each(batch, geom, np.array([[1, 2]])).reshape(3, 4, 4)
        src = batch.reshape(3, 4, 4)
        for c in range(3):
            assert_array_equal(out[c], np.roll(src[c], (2, 1), axis=(0, 1)))

    def test_per_image_shifts_match_uniform(self, rng):
        geom = ImageGeometry(5, 3, 1)
        batch = rng.random((4, 15), dtype=np.float32)
        shifts = np.array([[1, 2]] * 4)
        assert_array_equal(
            translate_wrap_each(batch, geom, shifts), oracles.translate_wrap(batch, geom, (1, 2))
        )

    @pytest.mark.parametrize("channels", [1, 3])
    def test_distinct_shifts_match_translate_wrap_image_by_image(self, rng, channels):
        geom = ImageGeometry(5, 4, channels)
        # negative shifts, zero, and shifts of a full side or more
        shifts = np.array([[0, 0], [1, 2], [-1, -3], [5, 4], [7, -9], [-11, 13], [4, 0], [0, 3]])
        batch = rng.random((len(shifts), geom.input_size), dtype=np.float32)
        out = translate_wrap_each(batch, geom, shifts)
        assert out.shape == batch.shape
        for i, (dx, dy) in enumerate(shifts):
            assert_array_equal(out[i], oracles.translate_wrap(batch[i : i + 1], geom, (dx, dy))[0])

    def test_per_image_shift_shape_checked(self, rng):
        geom = ImageGeometry(4, 4, 1)
        batch = rng.random((3, 16), dtype=np.float32)
        with pytest.raises(ValueError, match="per image"):
            translate_wrap_each(batch, geom, np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError, match="batch"):
            translate_wrap_each(batch[:, :15], geom, np.zeros((3, 2), dtype=int))


def cycles(lengths):
    """A permutation of sum(lengths) made of consecutive cycles of these lengths."""
    order, start = [], 0
    for length in lengths:
        order += [start + (k + 1) % length for k in range(length)]
        start += length
    return np.array(order)


class TestPermuteRows:
    @pytest.mark.parametrize("order", [
        np.arange(7),  # identity
        np.roll(np.arange(9), 1),  # one cycle through every row
        np.array([0]),  # one row
        cycles([2] * 6 + [3] * 5 + [1, 1]),  # many short cycles and fixed points
    ] + [np.random.default_rng(seed).permutation(n) for seed, n in [(0, 2), (1, 50), (2, 333)]])
    def test_matches_gather(self, rng, order):
        images = rng.random((len(order), 5), dtype=np.float32)
        want = images[order]
        _permute_rows(images, order)
        assert images.tobytes() == want.tobytes()


class TestSplit:
    @pytest.mark.parametrize("n, n_val", [(25, 10), (1, 0), (40, 39), (300, 77)])
    def test_bytes_match_take_oracle(self, rng, n, n_val):
        ds = random_dataset(rng, ImageGeometry(3, 3, 1), n, 4)
        before = ds.images.copy(), ds.labels.copy()
        got = split_train_val(ds, n_val, seed=5)
        want = oracles.split_by_take(ds, n_val, seed=5)
        for part, oracle in zip(got, want):
            assert part.images.tobytes() == oracle.images.tobytes()
            assert_array_equal(part.labels, oracle.labels)
        assert ds.images.tobytes() == before[0].tobytes()
        assert_array_equal(ds.labels, before[1])

    def test_sizes_disjoint_exhaustive(self, rng):
        ds = random_dataset(rng, ImageGeometry(3, 3, 1), 25, 4)
        ds.labels[:] = np.arange(25) % 4
        ds.images[:, 0] = np.arange(25) / 25.0  # tag rows to track identity
        train, val = split_train_val(ds, 10, seed=3)
        assert len(train) == 15 and len(val) == 10
        tags = np.concatenate([train.images[:, 0], val.images[:, 0]])
        assert len(np.unique(np.round(tags * 25))) == 25

    def test_deterministic(self, rng):
        ds = random_dataset(rng, ImageGeometry(3, 3, 1), 20, 4)
        t1, v1 = split_train_val(ds, 5, seed=1)
        t2, v2 = split_train_val(ds, 5, seed=1)
        assert_array_equal(t1.images, t2.images)
        assert_array_equal(v1.labels, v2.labels)

    def test_zero_validation(self, rng):
        ds = random_dataset(rng, ImageGeometry(3, 3, 1), 10, 2)
        train, val = split_train_val(ds, 0, seed=0)
        assert len(train) == 10 and len(val) == 0

    def test_oversized_validation_rejected(self, rng):
        ds = random_dataset(rng, ImageGeometry(3, 3, 1), 10, 2)
        with pytest.raises(ValueError):
            split_train_val(ds, 10, seed=0)
