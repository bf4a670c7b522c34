"""Empirical Wasserstein-1 distance between equal-size point sets.

Under an L1 ground cost and uniform weights the distance reduces to a
minimum-cost perfect matching, solved exactly with the Hungarian method.
"""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import ShapeError


def pairwise_l1(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix of L1 distances: entry (i, j) is ||u_i - v_j||_1."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
        raise ShapeError(f"pairwise_l1: incompatible shapes {u.shape} and {v.shape}")
    return cdist(u, v, metric="cityblock")


def min_cost_matching(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimum-cost perfect matching of a square cost matrix.

    Returns (sigma, total) where row i is matched to column sigma[i] and
    total is the matched cost sum.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"min_cost_matching needs a square matrix, got {c.shape}")
    rows, cols = linear_sum_assignment(c)
    sigma = np.empty(c.shape[0], dtype=np.intp)
    sigma[rows] = cols
    return sigma, float(c[rows, cols].sum())


def w1_exact(u: np.ndarray, v: np.ndarray) -> float:
    """Empirical Wasserstein-1 between two equally sized sets of vectors.

    Computed as the total L1 cost of the optimal pairing; no normalization
    by the set size.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ShapeError(f"w1_exact: sets must match in shape, got {u.shape} and {v.shape}")
    if u.shape[0] == 0:
        raise ShapeError("w1_exact: empty point sets")
    _, total = min_cost_matching(pairwise_l1(u, v))
    return total


def w1_matrix(sets) -> np.ndarray:
    """Symmetric (t, t) matrix of ``w1_exact(sets[i], sets[j])``.

    Each unordered pair is solved once, as ``w1_exact(sets[i], sets[j])``
    with i < j.  The diagonal stays zero, which is exactly what a set
    matched against itself costs.
    """
    t = len(sets)
    matrix = np.zeros((t, t))
    for i, j in itertools.combinations(range(t), 2):
        matrix[i, j] = matrix[j, i] = w1_exact(sets[i], sets[j])
    return matrix


def w1_matching(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal pairing and its total cost, for callers that need both."""
    return min_cost_matching(pairwise_l1(u, v))
