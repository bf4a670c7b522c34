import numpy as np
import pytest

from arlab.errors import ShapeError
from arlab.tensor import (
    NonFiniteError,
    ParamSet,
    Tensor,
    absolute,
    add,
    add_bias,
    backward,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    scale,
    softmax_array,
    softmax_cross_entropy,
    softplus,
    sub,
    take_rows,
)

from gradcheck import max_rel_error


def test_matmul_identity():
    a = Tensor(np.arange(9.0).reshape(3, 3))
    out = matmul(a, Tensor(np.eye(3)))
    assert np.array_equal(out.data, a.data)


def test_matmul_small_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    out = matmul(a, b)
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_rejects_mismatched_inner_dims():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_binary_ops_reject_nonscalar_broadcast():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))


def test_nonfinite_construction_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])


def test_relu_values():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_reduce_mean_value():
    assert reduce_mean(Tensor([2.0, 4.0])).item() == 3.0


def test_reduce_sum_value():
    assert reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 10.0


def test_scalar_broadcast_values():
    x = Tensor([[1.0, 2.0]])
    assert np.array_equal(add(x, Tensor(1.0)).data, [[2.0, 3.0]])
    assert np.array_equal(mul(x, Tensor(3.0)).data, [[3.0, 6.0]])
    assert np.array_equal(sub(x, Tensor(1.0)).data, [[0.0, 1.0]])


@pytest.mark.parametrize("build,shapes", [
    (lambda a, b: reduce_sum(matmul(a, b)), [(3, 4), (4, 2)]),
    (lambda a, b: reduce_mean(mul(a, b)), [(5,), (5,)]),
    (lambda a, b: reduce_sum(add(a, b)), [(2, 3), (2, 3)]),
    (lambda a, b: reduce_sum(sub(mul(a, a), b)), [(4,), (4,)]),
    (lambda a: reduce_sum(relu(a)), [(6,)]),
    (lambda a: reduce_mean(softplus(a)), [(7,)]),
    (lambda a, b: reduce_mean(add_bias(a, b)), [(4, 3), (3,)]),
    (lambda a: scale(reduce_sum(a), 2.5), [(3, 3)]),
    (lambda a, s: reduce_sum(mul(a, s)), [(3, 2), ()]),
])
def test_gradients_match_finite_differences(build, shapes):
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=s) for s in shapes]
    assert max_rel_error(build, arrays) < 1e-5


def test_absolute_gradient_away_from_kink():
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(8,))
    arr[np.abs(arr) < 0.2] = 0.5
    assert max_rel_error(lambda a: reduce_sum(absolute(a)), [arr]) < 1e-5


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(4)
    arr = rng.normal(size=(8,))
    arr[np.abs(arr) < 0.2] = -0.5
    assert max_rel_error(lambda a: reduce_sum(relu(a)), [arr]) < 1e-5


def test_take_rows_values_and_gradient():
    a = Tensor(np.arange(12.0).reshape(4, 3))
    idx = np.array([2, 0, 2])
    out = take_rows(a, idx)
    assert np.array_equal(out.data, a.data[idx])
    loss = reduce_sum(mul(out, out))
    backward(loss)
    expect = np.zeros((4, 3))
    for i in idx:
        expect[i] += 2 * a.data[i]
    assert np.allclose(a.grad, expect)


def test_cross_entropy_uniform_logits():
    k = 10
    logits = Tensor(np.zeros((1, k)))
    y = np.zeros((1, k))
    y[0, 3] = 1.0
    loss = softmax_cross_entropy(logits, y)
    assert loss.item() == pytest.approx(np.log(k), rel=1e-12)


def test_cross_entropy_saturated_is_near_zero():
    logits = np.full((1, 5), -50.0)
    logits[0, 2] = 50.0
    y = np.zeros((1, 5))
    y[0, 2] = 1.0
    loss = softmax_cross_entropy(Tensor(logits), y)
    assert loss.item() < 1e-8


def test_cross_entropy_stable_under_huge_shift():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(4, 6))
    y = np.zeros((4, 6))
    y[np.arange(4), [0, 1, 2, 3]] = 1.0
    base = softmax_cross_entropy(Tensor(z), y).item()
    shifted = softmax_cross_entropy(Tensor(z + 1000.0), y).item()
    assert shifted == pytest.approx(base, abs=1e-9)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(3, 5))
    y = np.zeros((3, 5))
    y[np.arange(3), [1, 4, 0]] = 1.0
    err = max_rel_error(lambda a: softmax_cross_entropy(a, y), [z], h=1e-5)
    assert err < 1e-4


def test_cross_entropy_rejects_bad_labels():
    z = Tensor(np.zeros((2, 3)))
    bad = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        softmax_cross_entropy(z, bad)
    with pytest.raises(ShapeError):
        softmax_cross_entropy(Tensor(np.zeros((2, 1))), np.ones((2, 1)))


def test_softmax_values():
    out = softmax_array(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]])
    out = softmax_array(np.array([[np.log(1.0), np.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = rng.normal(scale=10.0, size=(5, 7))
        out = softmax_array(z)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0.0)


def test_backward_requires_scalar_root():
    with pytest.raises(ShapeError):
        backward(Tensor(np.ones(3)))


def test_backward_accumulates_until_zeroed():
    theta = Tensor(np.array([1.0, 2.0, 3.0]))
    backward(reduce_sum(theta))
    backward(reduce_sum(theta))
    assert np.array_equal(theta.grad, [2.0, 2.0, 2.0])
    theta.zero_grad()
    backward(reduce_sum(theta))
    assert np.array_equal(theta.grad, [1.0, 1.0, 1.0])


def test_backward_deterministic_with_zeroing():
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(4, 4)))
    x = Tensor(rng.normal(size=(2, 4)))

    def run():
        w.zero_grad()
        x.zero_grad()
        h = relu(matmul(x, w))
        loss = reduce_mean(mul(h, h))
        backward(loss)
        return w.grad.copy(), x.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])


def test_shared_subgraph_two_losses_sum_gradients():
    theta = Tensor(np.array([1.0, -2.0, 0.5]))
    sq = mul(theta, theta)
    backward(reduce_sum(sq))
    backward(reduce_sum(sq))
    assert np.allclose(theta.grad, 4.0 * theta.data)


def test_gradient_of_sum_is_ones_and_of_sq_norm_is_2theta():
    theta = Tensor(np.array([0.3, -1.2, 2.0]))
    backward(reduce_sum(theta))
    assert np.array_equal(theta.grad, np.ones(3))
    theta.zero_grad()
    backward(reduce_sum(mul(theta, theta)))
    assert np.allclose(theta.grad, 2.0 * theta.data)


def test_diamond_graph_gradient():
    # x feeds two branches that are added; d/dx (x*x + 3x) = 2x + 3
    x = Tensor(np.array([2.0]))
    loss = reduce_sum(add(mul(x, x), scale(x, 3.0)))
    backward(loss)
    assert np.allclose(x.grad, [7.0])


def test_param_set_ordering_and_uniqueness():
    ps = ParamSet()
    ps.add("w1", Tensor(np.ones(2)))
    ps.add("b1", Tensor(np.zeros(2)))
    assert [name for name, _ in ps.items()] == ["w1", "b1"]
    with pytest.raises(ValueError):
        ps.add("w1", Tensor(np.ones(1)))
    for t in ps.tensors():
        t.grad = np.ones_like(t.data)
    ps.zero_grad()
    assert all(np.all(t.grad == 0) for t in ps.tensors())

