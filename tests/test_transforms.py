import tracemalloc

import numpy as np
import pytest

from arlab.errors import ConfigError
from arlab.transforms import (
    FreqCutoff,
    Identity,
    PixelMap,
    Rotate,
    TransformFamily,
    _BLOCK_ROWS,
    _dft_matrix,
    _lowpass_mask,
    _scaled_radii,
    apply_batch,
    family_by_name,
    family_contrast,
    family_rotation,
    family_texture,
)

from oracles import centred_lowpass, corner_rotation


@pytest.fixture
def rand_image():
    return np.random.default_rng(0).random((16, 16))


def apply(t, image):
    """One transform on one (h, w) image, as a one-row batch."""
    return apply_batch(t, image[None])[0]


def low_contrast_image(seed=1, size=16):
    # keeps the low-pass output strictly inside (0, 1), so no pixel clamps
    raw = np.random.default_rng(seed).random((size, size))
    return 0.5 + 0.15 * (raw - 0.5)


def test_identity_bit_exact(rand_image):
    out = apply(Identity(), rand_image)
    assert np.array_equal(out, rand_image)


def test_contrast_negation_is_involution(rand_image):
    neg = PixelMap(1.0, True)
    back = apply(neg, apply(neg, rand_image))
    assert np.max(np.abs(back - rand_image)) < 1e-12


def test_contrast_arithmetic():
    img = np.array([[1.0]])
    assert apply(PixelMap(0.25, False), img)[0, 0] == pytest.approx(0.25)
    img = np.array([[0.0]])
    assert apply(PixelMap(0.5, True), img)[0, 0] == pytest.approx(0.5)


def test_freq_cutoff_idempotent():
    img = low_contrast_image()
    once = apply(FreqCutoff(5.0), img)
    # strict interior values prove the clamp never fired, so the masked
    # spectrum is reproduced exactly by a second pass
    assert once.min() > 0.0 and once.max() < 1.0
    twice = apply(FreqCutoff(5.0), once)
    assert np.max(np.abs(twice - once)) < 1e-6


def test_freq_cutoff_preserves_constant_image():
    img = np.full((16, 16), 0.4)
    out = apply(FreqCutoff(3.0), img)
    assert np.max(np.abs(out - img)) < 1e-9


def test_freq_cutoff_changes_random_image(rand_image):
    tightest = family_texture(16).members[-1]
    out = apply(tightest, rand_image)
    assert np.max(np.abs(out - rand_image)) > 1e-3


def test_rotate_zero_is_identity(rand_image):
    out = apply(Rotate(0.0), rand_image)
    assert np.max(np.abs(out - rand_image)) < 1e-12


def test_rotate_center_is_fixed_point(rand_image):
    img = np.zeros((17, 17))
    img[8, 8] = 0.9
    for deg in (15, 30, 45, 60):
        out = apply(Rotate(float(deg)), img)
        assert out[8, 8] == pytest.approx(0.9, abs=1e-12)


def test_rotate_moves_point_to_analytic_position():
    img = np.zeros((17, 17))
    img[8, 13] = 1.0  # offset (dx, dy) = (5, 0) from center
    theta = np.deg2rad(60.0)
    out = apply(Rotate(60.0), img)
    qx = 5 * np.cos(theta)
    qy = 5 * np.sin(theta)
    row, col = np.unravel_index(np.argmax(out), out.shape)
    assert abs(row - (8 + qy)) <= 1.0
    assert abs(col - (8 + qx)) <= 1.0


def test_rotate_fills_out_of_bounds_with_zero():
    img = np.ones((16, 16))
    out = apply(Rotate(45.0), img)
    # corners of the rotated square leave the frame, so zeros appear
    assert out[0, 0] == 0.0
    assert out.max() <= 1.0


def test_all_family_outputs_stay_in_unit_interval():
    rng = np.random.default_rng(3)
    images = rng.random((4, 16, 16))
    for fname in ("texture", "rotation", "contrast"):
        fam = family_by_name(fname, image_size=16)
        for t in fam:
            out = apply_batch(t, images)
            assert out.min() >= 0.0 and out.max() <= 1.0


def test_apply_batch_matches_per_image_apply():
    # two whole blocks and a ragged one, so rotations and low-pass filters
    # cross block boundaries
    images = np.random.default_rng(4).random((2 * _BLOCK_ROWS + 7, 16, 16))
    for fname in ("texture", "rotation", "contrast"):
        for t in family_by_name(fname, image_size=16):
            per_row = np.concatenate([apply_batch(t, images[i:i + 1])
                                      for i in range(len(images))])
            assert np.array_equal(apply_batch(t, images), per_row), t


@pytest.mark.parametrize("t", [Rotate(60.0), FreqCutoff(5.0), PixelMap(0.5, True)],
                         ids=["rotate", "freq", "negated-pixel"])
def test_apply_batch_peaks_at_output_plus_one_block(t):
    images = np.random.default_rng(5).random((2000, 16, 16))
    apply_batch(t, images[:1])  # fills the gather and DFT caches
    block_bytes = _BLOCK_ROWS * 16 * 16 * 8
    tracemalloc.start()
    try:
        out = apply_batch(t, images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole-batch filter would hold several (2000, 16, 16) temporaries,
    # complex ones among them; a negated contrast map needs none
    assert peak <= out.nbytes + 12 * block_bytes


ROTATION_ANGLES = [0.0, 15.0, 30.0, 45.0, 60.0, 90.0, 137.5, 270.0, 359.5]
ROTATION_SHAPES = [(1, 1), (7, 7), (16, 16), (28, 28), (8, 32), (32, 8)]


def awkward_stack(n, h, w, seed):
    """Values outside [0, 1] plus NaN, +-inf and -0.0, spread over the stack."""
    x = np.random.default_rng(seed).normal(0.5, 1.0, size=(n, h, w))
    x.flat[::5] = -0.0
    x.flat[1::9] = np.nan
    x.flat[2::11] = np.inf
    x.flat[3::13] = -np.inf
    return x


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("h,w", ROTATION_SHAPES)
@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 130])
def test_rotation_matches_the_corner_oracle_bytes(n, h, w):
    # NaN, +-inf and -0.0 pass through the same four products and adds,
    # so even their bytes agree; batch sizes cross block edges
    images = awkward_stack(n, h, w, seed=n * 1000 + h * 40 + w)
    for degrees in ROTATION_ANGLES:
        got = apply_batch(Rotate(degrees), images)
        assert got.tobytes() == corner_rotation(images, degrees).tobytes(), degrees


def strided_views(images):
    """Views of one stack whose strides differ from a C-ordered copy's."""
    return {
        "transposed": images.transpose(0, 2, 1),
        "pixel-major": np.ascontiguousarray(images.transpose(1, 2, 0)).transpose(2, 0, 1),
        "negative-stride": images[::-1, :, ::-1],
        "row-slice": images[1::3],
    }


@pytest.mark.parametrize("t", [Identity(), FreqCutoff(5.0), Rotate(30.0),
                               PixelMap(0.5, False), PixelMap(0.25, True)],
                         ids=["identity", "freq", "rotate", "pixel", "negated-pixel"])
def test_apply_batch_of_a_strided_view_matches_its_contiguous_copy(t):
    # a block of an output laid out like a strided input cannot flatten to
    # a view, so writes through a flattened block would be lost
    images = np.random.default_rng(7).random((2 * _BLOCK_ROWS + 5, 16, 16))
    for name, view in strided_views(images).items():
        assert not view.flags.c_contiguous, name
        expect = apply_batch(t, np.ascontiguousarray(view))
        assert apply_batch(t, view).tobytes() == expect.tobytes(), name


# square and non-square sizes; on odd sides fftshift and ifftshift differ
LOWPASS_SHAPES = [(11, 11), (13, 13), (16, 16), (28, 28), (12, 10), (11, 16), (9, 7)]
LOWPASS_RADII = [1.0, 2.5, 3.0, 5.0, 12.0]


@pytest.mark.parametrize("h,w", LOWPASS_SHAPES)
def test_lowpass_matches_the_centred_mask_oracle(h, w):
    radii = LOWPASS_RADII + (_scaled_radii(h) if h == w else [])
    images = np.random.default_rng(h * 100 + w).random((_BLOCK_ROWS + 1, h, w))
    for radius in radii:
        assert np.array_equal(apply_batch(FreqCutoff(radius), images),
                              centred_lowpass(images, radius)), radius
        assert _lowpass_mask(h, w, radius)[0, 0] == 1.0


@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 130, 300])
def test_lowpass_matches_the_centred_mask_oracle_across_blocks(n):
    # whole blocks, ragged ones and a single row against one unblocked stack
    images = np.random.default_rng(n).random((n, 16, 16))
    for radius in LOWPASS_RADII + _scaled_radii(16):
        assert np.array_equal(apply_batch(FreqCutoff(radius), images),
                              centred_lowpass(images, radius)), radius


def dft2(image):
    h, w = image.shape
    return _dft_matrix(h) @ image @ _dft_matrix(w)


def test_dft_matrix_constant_image_concentrates_at_dc():
    spectrum = dft2(np.full((8, 8), 0.25))
    assert spectrum[0, 0].real == pytest.approx(0.25 * 64)
    off = spectrum.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-9
    assert abs(spectrum[0, 0].imag) < 1e-9


def test_dft_matrix_conjugate_inverts_transform():
    img = np.random.default_rng(5).random((12, 10))
    back = _dft_matrix(12).conj() @ dft2(img) @ _dft_matrix(10).conj() / (12 * 10)
    assert np.max(np.abs(back.real - img)) < 1e-6
    assert np.max(np.abs(back.imag)) < 1e-6


def test_dft_matrix_matches_naive_quadruple_loop():
    img = np.random.default_rng(6).random((4, 5))
    h, w = img.shape
    expect = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            for r in range(h):
                for c in range(w):
                    expect[u, v] += img[r, c] * np.exp(-2j * np.pi * (u * r / h + v * c / w))
    assert np.max(np.abs(dft2(img) - expect)) < 1e-8


def test_family_texture_shape():
    fam = family_texture()
    assert len(fam) == 5
    assert isinstance(fam.members[0], Identity)
    assert fam.vertex == 4
    assert fam.members[4] == FreqCutoff(6.0)
    assert [t.radius for t in fam.members[1:]] == [12.0, 10.0, 8.0, 6.0]


def test_family_texture_radii_scale_with_image_size():
    fam = family_texture(16)
    assert [t.radius for t in fam.members[1:]] == [7.0, 6.0, 5.0, 3.0]


@pytest.mark.parametrize("size", [*range(3, 11), 12])
def test_family_texture_rejects_sizes_that_repeat_a_radius(size):
    # at 8 pixels the radii round to 3, 3, 2, 2: two members would repeat
    with pytest.raises(ConfigError, match=f"^family: texture on {size}-pixel images"):
        family_texture(size)


@pytest.mark.parametrize("size", [11, 13, 16, 28])
def test_family_texture_radii_are_distinct(size):
    radii = [t.radius for t in family_texture(size).members[1:]]
    assert len(set(radii)) == 4 and min(radii) >= 1


def test_family_rotation_shape():
    fam = family_rotation()
    assert len(fam) == 5
    assert isinstance(fam.members[0], Identity)
    assert [t.degrees for t in fam.members[1:]] == [15.0, 30.0, 45.0, 60.0]
    assert fam.training_vertex() == Rotate(60.0)


def test_family_contrast_shape():
    fam = family_contrast()
    assert len(fam) == 6
    assert fam.vertex == 3
    assert fam.training_vertex() == PixelMap(1.0, True)
    assert fam.members[1] == PixelMap(0.5, False)
    assert fam.members[5] == PixelMap(0.25, True)


def test_family_validation():
    with pytest.raises(ValueError):
        TransformFamily("bad", (Rotate(10.0),), 0)
    with pytest.raises(ValueError):
        TransformFamily("bad", (Identity(), Rotate(10.0)), 0)
    with pytest.raises(ValueError):
        family_by_name("shear")


@pytest.mark.parametrize("members,vertex", [
    ((Identity(), Rotate(10.0), Rotate(20.0)), 0),
    ((Identity(), Rotate(10.0), Rotate(20.0)), 3),
    ((Identity(), Rotate(10.0), Rotate(20.0)), -1),
    ((Rotate(10.0), Identity()), 1),
], ids=["identity-vertex", "past-the-end", "negative", "identity-not-first"])
def test_family_rejects_a_vertex_training_could_not_pair(members, vertex):
    with pytest.raises(ValueError):
        TransformFamily("bad", members, vertex)


@pytest.mark.parametrize("members,vertex", [
    ((Identity(),), 0),
    ((Identity(), Rotate(10.0), Rotate(20.0)), 1),
    ((Identity(), Rotate(10.0), Rotate(20.0)), 2),
])
def test_family_accepts_a_vertex_beside_the_identity(members, vertex):
    fam = TransformFamily("ok", members, vertex)
    assert fam.training_vertex() == members[vertex]


def test_transform_parameter_validation():
    with pytest.raises(ValueError):
        FreqCutoff(0.0)
    with pytest.raises(ValueError):
        Rotate(360.0)
    with pytest.raises(ValueError):
        PixelMap(0.0, False)
    with pytest.raises(ValueError):
        PixelMap(1.5, False)
