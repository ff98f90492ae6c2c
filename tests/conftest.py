import hashlib
import os
import tracemalloc
from pathlib import Path

# One BLAS thread unless the environment says otherwise, set before numpy is
# imported: the desk runs are fastest as parallel one-thread processes, and a
# run's bytes were measured equal at one and two threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ticketsift.datasets import ImageDataset, ImageGeometry  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_dataset(rng, geom: ImageGeometry, n: int, n_classes: int) -> ImageDataset:
    images = rng.random((n, geom.input_size), dtype=np.float32)
    labels = rng.integers(0, n_classes, size=n)
    return ImageDataset(geom, images, labels, n_classes)


def traced_peak(fn):
    """(fn(), peak bytes allocated while fn ran), by tracemalloc, which sees
    numpy's array buffers as well as Python objects."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def file_digests(root) -> dict:
    """SHA-256 of every file under root, keyed by its relative path."""
    root = Path(root)
    return {p.relative_to(root): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
