"""Parameters, their closed-form backward pass and the oracle tape.

The library builds no graph, so the graphs here are built on the oracle
tape (``Tensor``, ``backward``, ``add``, ``scale`` and
``softmax_cross_entropy`` from the test oracles) that the closed-form
training step is checked against; these checks keep the tape honest.
"""

import numpy as np
import pytest

from arlab import tensor as T
from arlab.errors import ShapeError
from arlab.model import init, logits
from arlab.tensor import NonFiniteError, softmax_array

from gradcheck import max_rel_error
from oracles import (Tensor, add, backward, parameters, scale, softmax_cross_entropy,
                     zero_grads)


def test_binary_ops_reject_nonscalar_broadcast():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))


def test_nonfinite_construction_rejected():
    with pytest.raises(NonFiniteError):
        T.Tensor([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])


def test_scalar_broadcast_values():
    x = Tensor([[1.0, 2.0]])
    assert np.array_equal(add(x, Tensor(1.0)).data, [[2.0, 3.0]])
    assert np.array_equal(add(Tensor(-1.0), x).data, [[0.0, 1.0]])
    assert np.array_equal(scale(x, 3.0).data, [[3.0, 6.0]])


def one_hot_rows(*classes, k=4):
    y = np.zeros((len(classes), k))
    y[np.arange(len(classes)), classes] = 1.0
    return y


Y = one_hot_rows(0, 3, 1)


@pytest.mark.parametrize("build,shapes", [
    (lambda a, b: softmax_cross_entropy(add(a, b), Y), [(3, 4), (3, 4)]),
    (lambda a: softmax_cross_entropy(scale(a, 2.5), Y), [(3, 4)]),
    (lambda a, s: softmax_cross_entropy(add(a, s), Y), [(3, 4), ()]),
    (lambda a, b: add(softmax_cross_entropy(a, Y), softmax_cross_entropy(b, Y)),
     [(3, 4), (3, 4)]),
    (lambda a: add(softmax_cross_entropy(a, Y), scale(softmax_cross_entropy(a, Y), 0.5)),
     [(3, 4)]),
    (lambda a, b: softmax_cross_entropy(add(scale(a, -1.5), b), Y), [(3, 4), (3, 4)]),
    (lambda a, s: add(scale(softmax_cross_entropy(a, Y), 2.0), s), [(3, 4), ()]),
    (lambda a: scale(add(softmax_cross_entropy(a, Y),
                         softmax_cross_entropy(scale(a, 3.0), Y)), 0.5), [(3, 4)]),
    (lambda a, b, s: softmax_cross_entropy(add(add(a, b), s), Y), [(3, 4), (3, 4), ()]),
])
def test_gradients_match_finite_differences(build, shapes):
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=s) for s in shapes]
    assert max_rel_error(build, arrays) < 1e-5


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


def ce_gradient(z, y):
    # closed form of d/dz mean cross-entropy: (softmax - y) / batch
    return (softmax_array(z) - y) / len(y)


def test_backward_accumulates_until_zeroed():
    theta = Tensor(np.array([[1.0, 2.0, 3.0, -1.0], [0.5, 0.0, -2.0, 1.0]]))
    y = one_hot_rows(2, 0)
    backward(softmax_cross_entropy(theta, y))
    once = theta.grad.copy()
    assert np.allclose(once, ce_gradient(theta.data, y))
    backward(softmax_cross_entropy(theta, y))
    assert np.array_equal(theta.grad, once + once)
    zero_grads([theta])
    backward(softmax_cross_entropy(theta, y))
    assert np.array_equal(theta.grad, once)


def test_backward_deterministic_with_zeroing():
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(3, 4)))
    x = Tensor(rng.normal(size=(3, 4)))

    def run():
        zero_grads([w, x])
        h = add(scale(x, 2.0), w)
        loss = add(softmax_cross_entropy(h, Y), scale(softmax_cross_entropy(w, Y), 0.5))
        backward(loss)
        return w.grad.copy(), x.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])


def test_shared_subgraph_two_losses_sum_gradients():
    theta = Tensor(np.array([[1.0, -2.0, 0.5, 0.0], [0.3, 0.1, -0.4, 2.0],
                             [0.0, 1.0, 1.0, -1.0]]))
    doubled = scale(theta, 2.0)
    backward(softmax_cross_entropy(doubled, Y))
    backward(softmax_cross_entropy(doubled, Y))
    assert np.allclose(theta.grad, 4.0 * ce_gradient(doubled.data, Y))


def test_diamond_graph_gradient():
    # x feeds d, and d feeds two branches that are added:
    # d/dx (d + 3d) with d = 2x is 2 + 6 = 8
    x = Tensor(np.array(2.0))
    d = scale(x, 2.0)
    backward(add(d, scale(d, 3.0)))
    assert x.grad == 8.0


def test_library_backward_sets_gradients_rather_than_adding():
    # a call leaves the sum over its own passes and nothing from an
    # earlier call, so a training step needs no zeroing first
    m = init([16, 8, 5, 3], seed=0)
    rng = np.random.default_rng(3)
    first = logits(m, rng.random((4, 4, 4)))
    second = logits(m, rng.random((6, 4, 4)))
    g1, g2 = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))

    def grads(passes):
        T.backward(passes)
        return [t.grad.copy() for t in parameters(m)]

    once = grads([(first, g1)])
    assert [g.shape for g in once] == [t.shape for t in parameters(m)]
    for g, again in zip(once, grads([(first, g1)])):
        assert np.array_equal(g, again)
    alone = grads([(second, g2)])
    for a, b, both in zip(once, alone, grads([(first, g1), (second, g2)])):
        assert np.array_equal(both, a + b)
