import struct
import tracemalloc

import numpy as np
import pytest

from arlab import datasets
from arlab.datasets import (
    LabeledImages,
    batches,
    gen_minidigits,
    load_idx,
    one_hot,
    save_idx,
)
from arlab.errors import FormatError, ShapeError
from oracles import per_glyph_minidigits


def write_idx_pair(tmp_path, images_u8, labels_u8):
    """Byte-level fixture writer, independent of the library's save path."""
    n, h, w = images_u8.shape
    ipath = tmp_path / "img.idx"
    lpath = tmp_path / "lab.idx"
    ipath.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images_u8.tobytes())
    lpath.write_bytes(struct.pack(">II", 0x801, n) + labels_u8.tobytes())
    return ipath, lpath


def test_load_idx_scales_bytes_to_unit_interval(tmp_path):
    imgs = np.zeros((2, 3, 3), dtype=np.uint8)
    imgs[0, 0, 0] = 255
    imgs[1, 1, 1] = 51
    labs = np.array([1, 0], dtype=np.uint8)
    ipath, lpath = write_idx_pair(tmp_path, imgs, labs)
    data = load_idx(ipath, lpath)
    assert data.images.shape == (2, 3, 3)
    assert data.images[0, 0, 0] == 1.0
    assert data.images[1, 1, 1] == pytest.approx(51 / 255)
    assert np.array_equal(data.labels, [1, 0])


def test_load_idx_rejects_bad_magic(tmp_path):
    imgs = np.zeros((1, 2, 2), dtype=np.uint8)
    labs = np.zeros(1, dtype=np.uint8)
    ipath, lpath = write_idx_pair(tmp_path, imgs, labs)
    ipath.write_bytes(struct.pack(">IIII", 0x123, 1, 2, 2) + imgs.tobytes())
    with pytest.raises(FormatError):
        load_idx(ipath, lpath)


def test_load_idx_rejects_truncation_and_count_mismatch(tmp_path):
    imgs = np.zeros((2, 2, 2), dtype=np.uint8)
    labs = np.zeros(2, dtype=np.uint8)
    ipath, lpath = write_idx_pair(tmp_path, imgs, labs)
    raw = ipath.read_bytes()
    ipath.write_bytes(raw[:-1])
    with pytest.raises(FormatError):
        load_idx(ipath, lpath)
    ipath.write_bytes(raw)
    lpath.write_bytes(struct.pack(">II", 0x801, 3) + bytes(3))
    with pytest.raises(FormatError):
        load_idx(ipath, lpath)


@pytest.mark.parametrize("h,w", [(0, 0), (0, 3), (3, 0)])
def test_load_idx_rejects_zero_pixel_images(tmp_path, h, w):
    ipath, lpath = write_idx_pair(tmp_path, np.zeros((20, h, w), dtype=np.uint8),
                                  np.arange(20, dtype=np.uint8) % 10)
    with pytest.raises(FormatError, match=f"images of {h}x{w} pixels"):
        load_idx(ipath, lpath)


def test_idx_round_trip(tmp_path):
    data = gen_minidigits(12, seed=5)
    save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")
    back = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert np.array_equal(back.labels, data.labels)
    # quantization to bytes is the only permitted loss
    assert np.max(np.abs(back.images - data.images)) <= 0.5 / 255 + 1e-12


def test_minidigits_deterministic():
    a = gen_minidigits(30, seed=9)
    b = gen_minidigits(30, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = gen_minidigits(30, seed=10)
    assert not np.array_equal(a.images, c.images)


def test_minidigits_balanced_and_bounded():
    data = gen_minidigits(50, seed=1)
    assert data.images.shape == (50, 16, 16)
    assert data.num_classes == 10
    counts = np.bincount(data.labels, minlength=10)
    assert np.all(counts == 5)
    assert data.images.min() >= 0.0 and data.images.max() <= 1.0


def test_minidigits_classes_are_separable_in_pixel_space():
    # a nearest-class-mean classifier on raw pixels should beat chance (0.1)
    # by a wide margin on a fresh draw, or the digits carry no class signal
    train = gen_minidigits(200, seed=3)
    test = gen_minidigits(200, seed=503)
    means = np.stack([train.images[train.labels == d].mean(axis=0)
                      for d in range(10)])
    dists = np.abs(test.images[:, None] - means[None]).sum(axis=(2, 3))
    accuracy = (dists.argmin(axis=1) == test.labels).mean()
    assert accuracy > 0.5


def test_minidigits_custom_size():
    data = gen_minidigits(10, seed=2, image_size=28)
    assert data.images.shape == (10, 28, 28)


# every (n, seed) that the benchmark workloads draw for seeds 0-2, at size 16
BENCHMARK_DRAWS = [(n, s + offset, 16) for s in range(3)
                   for n, offset in ((2000, 0), (2000, 10_000), (1000, 0), (1000, 10_000),
                                     (1000, 20_000), (500, 20_000), (1, 0))]
# one row, and row counts around the render pass's 64-row blocks
BLOCK_EDGES = [(n, n, 16) for n in (1, 63, 64, 65, 129)]
SIZES = [(129, 7, size) for size in (8, 11, 13, 16, 28)]


@pytest.mark.parametrize("n,seed,size", BENCHMARK_DRAWS + BLOCK_EDGES + SIZES + [(12, 5, 16)])
def test_minidigits_match_the_per_glyph_renderer(n, seed, size):
    fast = gen_minidigits(n, seed, size)
    slow = per_glyph_minidigits(n, seed, size)
    assert fast.images.tobytes() == slow.images.tobytes()
    assert (fast.labels == slow.labels).all()


class _ZeroJitter:
    """A generator whose segment jitters are all zero; other draws pass through."""

    def __init__(self, rng):
        self._rng = rng

    def uniform(self, low, high, size=None):
        draw = self._rng.uniform(low, high, size)
        return np.zeros_like(draw) if (low, high) == (-0.4, 0.4) else draw

    def normal(self, loc, scale, size):
        return self._rng.normal(loc, scale, size)


def test_point_segment_matches_the_per_glyph_renderer(monkeypatch):
    # natural jitter never collapses a segment, so make "G" a point and zero
    # the jitter: both renderers then take the point-distance branch
    monkeypatch.setitem(datasets._SEGMENTS, "G", (4.0, 8.0, 4.0, 8.0))
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ZeroJitter(default_rng(seed)))
    fast = gen_minidigits(20, 3, 16)
    slow = per_glyph_minidigits(20, 3, 16)
    assert set(fast.labels.tolist()) == set(range(10))  # digits with and without G
    assert (fast.images == slow.images).all()
    assert (fast.labels == slow.labels).all()


def test_minidigits_memory_peak_stays_near_the_output():
    n, size = 6000, 28
    gen_minidigits(1, 0, size)
    tracemalloc.start()
    try:
        gen_minidigits(n, 0, size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the render pass measures 1.10x the 37.6 MB output (the output, the
    # (n, 7, 4) segment ends and one block's temporaries); rendering glyph
    # by glyph into a list and stacking it measures 2.05x
    assert peak < 1.5 * n * size * size * 8


@pytest.mark.parametrize("n,size", [(2.5, 16), (True, 16), (0, 16), (-1, 16),
                                    (3, 0), (3, 2.5), (3, True), (3, np.float64(16))])
def test_minidigits_reject_counts_that_are_not_positive_integers(n, size):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        gen_minidigits(n, 0, size)


def test_minidigits_accept_numpy_integers():
    data = gen_minidigits(np.int64(3), 0, np.int32(8))
    assert data.images.tobytes() == gen_minidigits(3, 0, 8).images.tobytes()


def test_one_hot_basic():
    out = one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(out, np.eye(3)[[0, 2, 1]])
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)


def test_batches_cover_every_sample_once():
    chunks = list(batches(25, 8, seed=4))
    assert [len(rows) for rows in chunks] == [8, 8, 8, 1]
    assert sorted(np.concatenate(chunks).tolist()) == list(range(25))


def test_batches_seeded_shuffle_is_reproducible():
    first = list(batches(20, 6, seed=7))
    second = list(batches(20, 6, seed=7))
    other = list(batches(20, 6, seed=8))
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert any(not np.array_equal(a, b) for a, b in zip(first, other))


def test_labeled_images_validation():
    with pytest.raises(ShapeError):
        LabeledImages(np.zeros((2, 4)), np.zeros(2, dtype=int), 10)
    with pytest.raises(ValueError):
        LabeledImages(np.full((1, 2, 2), 1.5), np.zeros(1, dtype=int), 10)
    with pytest.raises(ValueError):
        LabeledImages(np.zeros((1, 2, 2)), np.array([10]), 10)


def test_subset_preserves_classes():
    data = gen_minidigits(40, seed=6)
    sub = data.subset([0, 5, 7])
    assert len(sub) == 3
    assert np.array_equal(sub.labels, data.labels[[0, 5, 7]])
    assert sub.num_classes == 10
