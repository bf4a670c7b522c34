import itertools

import numpy as np
import pytest

from arlab.errors import ShapeError
from arlab.wasserstein import min_cost_matching, pairwise_l1, w1_exact, w1_matching, w1_matrix


def brute_force_w1(u, v):
    """Oracle: enumerate every permutation and take the cheapest pairing."""
    b = len(u)
    best = np.inf
    for perm in itertools.permutations(range(b)):
        total = sum(np.abs(u[i] - v[perm[i]]).sum() for i in range(b))
        best = min(best, total)
    return best


def test_pairwise_l1_small_example():
    u = np.array([[0.0, 0.0], [1.0, 1.0]])
    v = np.array([[1.0, 0.0], [2.0, 2.0]])
    c = pairwise_l1(u, v)
    assert np.array_equal(c, [[1.0, 4.0], [1.0, 2.0]])


def test_identical_sets_have_zero_distance():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(6, 4))
    assert w1_exact(u, u.copy()) == 0.0


def test_swapped_rows_still_zero():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(5, 3))
    v = u[::-1].copy()
    assert w1_exact(u, v) == pytest.approx(0.0, abs=1e-12)


def test_single_pair_is_plain_l1():
    u = np.array([[1.0, -2.0, 0.5]])
    v = np.array([[0.0, 1.0, 0.5]])
    assert w1_exact(u, v) == pytest.approx(4.0)


def test_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(2)
    for b in (2, 3, 4, 5, 6):
        for _ in range(5):
            u = rng.normal(size=(b, 3))
            v = rng.normal(size=(b, 3))
            assert w1_exact(u, v) == pytest.approx(brute_force_w1(u, v), rel=1e-12)


def test_matching_permutation_achieves_reported_total():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(7, 4))
    v = rng.normal(size=(7, 4))
    sigma, total = w1_matching(u, v)
    assert sorted(sigma) == list(range(7))
    achieved = sum(np.abs(u[i] - v[sigma[i]]).sum() for i in range(7))
    assert achieved == pytest.approx(total, rel=1e-12)


def test_symmetry():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(5, 2))
    v = rng.normal(size=(5, 2))
    assert w1_exact(u, v) == pytest.approx(w1_exact(v, u), rel=1e-12)


def test_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))
        assert w1_exact(u, w) <= w1_exact(u, v) + w1_exact(v, w) + 1e-9


def test_translation_shifts_distance_linearly():
    # moving one set by a constant vector costs b * ||delta||_1 at most
    rng = np.random.default_rng(6)
    u = rng.normal(size=(5, 3))
    delta = np.array([1.0, -0.5, 2.0])
    assert w1_exact(u, u + delta) == pytest.approx(5 * np.abs(delta).sum(), rel=1e-9)


def test_w1_matrix_holds_every_pairwise_distance():
    sets = np.random.default_rng(7).normal(size=(4, 6, 3))
    matrix = w1_matrix(sets)
    assert matrix.shape == (4, 4)
    for i, j in itertools.product(range(4), repeat=2):
        # bit-equal to the solve in the pair's upper-triangle order, and the
        # zero diagonal is what a set matched with itself costs
        assert matrix[i, j] == w1_exact(sets[min(i, j)], sets[max(i, j)])


def test_min_cost_matching_prefers_cheap_diagonal():
    cost = np.array([[0.0, 9.0], [9.0, 0.0]])
    sigma, total = min_cost_matching(cost)
    assert np.array_equal(sigma, [0, 1])
    assert total == 0.0


def test_rejects_mismatched_sets():
    with pytest.raises(ShapeError):
        w1_exact(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(ShapeError):
        w1_exact(np.ones((0, 2)), np.ones((0, 2)))
    with pytest.raises(ShapeError):
        min_cost_matching(np.ones((2, 3)))
