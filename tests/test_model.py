import numpy as np
import pytest

from arlab import tensor as T
from arlab.datasets import one_hot
from arlab.errors import FormatError, ShapeError
from arlab.evaluation import accuracy, robust_accuracy
from arlab.model import (
    Classifier,
    family_logits,
    init,
    load_weights,
    logits,
    logits_array,
    save_weights,
)
from arlab.transforms import apply_batch, family_by_name

from gradcheck import numeric_grads
from oracles import numpy_cross_entropy, softmax_cross_entropy


def small_model(seed=0):
    return init([16, 8, 5, 3], seed=seed)


def rand_images(n, side=4, seed=1):
    return np.random.default_rng(seed).random((n, side, side))


def test_init_deterministic_per_seed():
    a, b = small_model(3), small_model(3)
    for (_, ta), (_, tb) in zip(a.params.items(), b.params.items()):
        assert np.array_equal(ta.data, tb.data)
    c = small_model(4)
    assert not np.array_equal(a.params["w0"].data, c.params["w0"].data)


def test_init_biases_zero_and_weights_bounded():
    m = small_model()
    for i in range(m.num_layers):
        w, b = m.layer(i)
        assert np.all(b.data == 0.0)
        bound = np.sqrt(6.0 / w.data.shape[0])
        assert np.all(np.abs(w.data) <= bound)


def test_init_rejects_missing_hidden_layer():
    with pytest.raises(ValueError):
        init([16, 3], seed=0)
    with pytest.raises(ValueError):
        init([], seed=0)


def test_zero_input_gives_zero_logits():
    m = small_model()
    out = logits(m, np.zeros((2, 4, 4)))
    assert np.array_equal(out.data, np.zeros((2, 3)))


def test_logits_shape_mismatch_raises():
    m = small_model()
    with pytest.raises(ShapeError):
        logits(m, np.zeros((2, 5, 5)))
    with pytest.raises(ShapeError):
        logits(m, np.zeros((4, 4)))


def test_batch_independence():
    m = small_model()
    imgs = rand_images(8)
    full = logits(m, imgs).data
    single = logits(m, imgs[3:4]).data
    assert np.allclose(full[3], single[0], atol=1e-12)


def test_permuting_rows_permutes_logits():
    m = small_model()
    imgs = rand_images(6)
    perm = np.array([4, 0, 5, 2, 1, 3])
    assert np.allclose(logits(m, imgs[perm]).data, logits(m, imgs).data[perm])


def test_logits_array_matches_graph_forward():
    m = small_model()
    imgs = rand_images(5)
    assert np.allclose(logits_array(m, imgs), logits(m, imgs).data, atol=1e-12)


def test_parameter_gradients_match_finite_differences():
    m = init([9, 6, 4], seed=2)
    imgs = np.random.default_rng(5).random((3, 3, 3))
    y = one_hot(np.array([0, 3, 1]), 4)
    names = [name for name, _ in m.params.items()]

    def build(*param_tensors):
        # the numeric side never touches the graph: a graph-free forward
        # pass and a numpy cross-entropy
        params = T.ParamSet()
        for name, t in zip(names, param_tensors):
            params.add(name, t)
        z = logits_array(Classifier(m.widths, params), imgs)
        return T.Tensor(numpy_cross_entropy(z, y))

    arrays = [t.data for t in m.params.tensors()]
    numeric = numeric_grads(build, arrays, h=1e-5)

    loss = softmax_cross_entropy(logits(m, imgs), y)
    T.backward(loss)
    checked = 0
    for (_, t), num in zip(m.params.items(), numeric):
        scale = np.maximum(np.abs(num), np.abs(t.grad))
        scale = np.where(scale < 1e-6, 1.0, scale)
        assert np.max(np.abs(t.grad - num) / scale) < 1e-4
        checked += t.data.size
    assert checked >= 20


def test_logits_node_has_the_parameters_as_parents():
    m = small_model()
    node = logits(m, rand_images(4))
    assert len(node._parents) == len(m.params.tensors())
    assert all(p is t for p, t in zip(node._parents, m.params.tensors()))


def test_non_finite_pre_activation_hidden_by_relu_still_raises():
    m = small_model()
    imgs = rand_images(2)
    # every pixel is positive, so this unit's pre-activation overflows to
    # -inf, which ReLU would turn into a finite 0
    m.params["w0"].data[:, 0] = -1e308
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(logits_array(m, imgs)))
        with pytest.raises(T.NonFiniteError):
            logits(m, imgs)


def test_predict_tie_breaks_to_lowest_index():
    m = init([256, 8, 3], seed=0)
    # force identical logits by zeroing everything: a fully tied cube
    for t in m.params.tensors():
        t.data = np.zeros_like(t.data)
    cube = family_logits(m, rand_images(4, side=16), family_by_name("rotation"))
    assert accuracy(cube[0], np.zeros(4, dtype=int)) == 1.0
    assert robust_accuracy(cube, np.zeros(4, dtype=int)) == 1.0
    assert robust_accuracy(cube, np.array([0, 0, 1, 2])) == 0.5


def test_predict_matches_argmax_of_softmax():
    m = small_model(7)
    imgs = rand_images(10, seed=8)
    z = logits_array(m, imgs)
    p = T.softmax_array(z)
    assert accuracy(z, p.argmax(axis=1)) == 1.0


def test_predict_shift_invariant():
    m = small_model(9)
    imgs = rand_images(6, seed=9)
    before = logits_array(m, imgs).argmax(axis=1)
    bias = m.params[f"b{m.num_layers - 1}"]
    bias.data = bias.data + 3.7
    assert accuracy(logits_array(m, imgs), before) == 1.0


@pytest.mark.parametrize("fname", ["texture", "rotation", "contrast"])
def test_family_logits_slices_are_per_member_forwards(fname):
    m = init([256, 12, 10], seed=4)
    imgs = rand_images(7, side=16, seed=4)
    family = family_by_name(fname, image_size=16)
    cube = family_logits(m, imgs, family)
    assert cube.shape == (len(family), 7, 10)
    for j, member in enumerate(family):
        assert np.array_equal(cube[j], logits_array(m, apply_batch(member, imgs)))
    # member 0 is the identity, so slice 0 is the plain forward pass
    assert np.array_equal(cube[0], logits_array(m, imgs))


def test_weight_round_trip(tmp_path):
    m = init([16, 10, 6, 4], seed=11)
    path = tmp_path / "model.bin"
    save_weights(m, path)
    back = load_weights(path)
    assert back.widths == m.widths
    imgs = rand_images(3)
    assert np.array_equal(logits_array(back, imgs), logits_array(m, imgs))


def test_weight_file_layout(tmp_path):
    m = init([4, 3, 2], seed=0)
    path = tmp_path / "model.bin"
    save_weights(m, path)
    blob = path.read_bytes()
    assert blob[:8] == b"ARLABW01"
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 4
    assert int.from_bytes(blob[16:20], "little") == 3
    expect = 8 + 4 + (8 + 4 * 3 * 8 + 3 * 8) + (8 + 3 * 2 * 8 + 2 * 8)
    assert len(blob) == expect


def test_load_rejects_bad_magic_and_truncation(tmp_path):
    m = init([4, 3, 2], seed=0)
    path = tmp_path / "model.bin"
    save_weights(m, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WRONGMAG" + blob[8:])
    with pytest.raises(FormatError):
        load_weights(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(blob[:-4])
    with pytest.raises(FormatError):
        load_weights(short)
