import numpy as np
import pytest

from arlab.errors import DegenerateInputError, ShapeError
from arlab import regularizers
from arlab.regularizers import (
    ALIGN_KINDS,
    aux_update,
    discriminator_scores,
    init_aux,
    penalty,
)
from arlab.tensor import softmax_array

from gradcheck import max_rel_error
from oracles import brute_force_w1, penalty_node


def pair(seed=0, b=4, k=3, spread=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(b, k)) * spread, rng.normal(size=(b, k)) * spread


def value(kind, u, v, aux=None):
    return penalty(kind, np.asarray(u, dtype=np.float64),
                   np.asarray(v, dtype=np.float64), aux, 1.0)[0]


def test_identical_inputs_give_zero_penalty():
    u, _ = pair()
    for kind in ("l1", "sql2", "cos", "w1-exact", "kl"):
        val = value(kind, u, u.copy())
        assert val == pytest.approx(0.0, abs=1e-12), kind


def test_hand_arithmetic_l1_sql2():
    u = [[1.0, 2.0]]
    v = [[1.0, 0.0]]
    assert value("l1", u, v) == pytest.approx(2.0)
    assert value("sql2", u, v) == pytest.approx(4.0)


def test_penalties_are_batch_means():
    u, v = pair(1, b=6)
    single = [value("l1", u[i:i + 1], v[i:i + 1]) for i in range(6)]
    assert value("l1", u, v) == pytest.approx(np.mean(single))


def test_w1_exact_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 3))
        val = value("w1-exact", u, v)
        assert val * 5 == pytest.approx(brute_force_w1(u, v), abs=1e-9)


def test_w1_exact_row_permutation_invariant_and_symmetric():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    base = value("w1-exact", u, v)
    shuffled = value("w1-exact", u[::-1].copy(), v)
    swapped = value("w1-exact", v, u)
    assert shuffled == pytest.approx(base, rel=1e-12)
    assert swapped == pytest.approx(base, rel=1e-12)
    assert value("w1-exact", u, u[::-1].copy()) == pytest.approx(0.0, abs=1e-12)


def test_kl_positive_and_shift_invariant():
    u, v = pair(4)
    val = value("kl", u, v)
    assert val > 0.0
    shifted = value("kl", u, u + 2.5)
    assert shifted == pytest.approx(0.0, abs=1e-12)


def test_kl_matches_direct_formula():
    u, v = pair(5, b=3, k=4)
    p, q = softmax_array(u), softmax_array(v)
    expect = np.mean((p * (np.log(p) - np.log(q))).sum(axis=1))
    assert value("kl", u, v) == pytest.approx(expect, rel=1e-12)


def test_cosine_bounds_and_alignment():
    u, _ = pair(6)
    assert value("cos", u, 2.0 * u) == pytest.approx(0.0, abs=1e-12)
    assert value("cos", u, -u) == pytest.approx(2.0, rel=1e-12)


def test_cosine_rejects_zero_rows():
    u = np.zeros((2, 3))
    u[1] = 1.0
    with pytest.raises(DegenerateInputError):
        value("cos", u, np.ones((2, 3)))


def test_penalty_validation():
    u, v = pair(7)
    with pytest.raises(ValueError):
        value("manhattan", u, v)
    with pytest.raises(ShapeError):
        value("l1", u, v[:2])
    with pytest.raises(ValueError):
        value("disc", u, v)


@pytest.mark.parametrize("kind", ["l1", "sql2", "cos", "kl"])
def test_gradients_match_finite_differences(kind):
    # rows kept well apart so l1 stays away from its kinks
    u = np.array([[1.0, -2.0, 0.5], [3.0, 0.8, -1.2]])
    v = np.array([[-0.5, 1.5, 2.0], [0.3, -1.1, 0.9]])
    err = max_rel_error(lambda a, b: penalty_node(kind, a, b), [u, v], h=1e-5)
    assert err < 1e-4, kind


def test_w1_exact_gradient_with_frozen_matching():
    # well-separated clusters keep the optimal pairing stable under the
    # finite-difference probes
    u = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 5.0]])
    v = np.array([[11.0, 9.0], [0.5, -0.5], [-9.0, 6.0]])
    err = max_rel_error(lambda a, b: penalty_node("w1-exact", a, b), [u, v], h=1e-5)
    assert err < 1e-4


def test_identity_pairing_used_when_rows_are_each_others_nearest():
    # per-row closeness condition forces the natural-order matching, so the
    # batch mean times b equals the plain per-pair l1 sum
    rng = np.random.default_rng(8)
    centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [50.0, 50.0]])
    u = centers + rng.normal(scale=0.1, size=centers.shape)
    v = centers + rng.normal(scale=0.1, size=centers.shape)
    val = value("w1-exact", u, v)
    assert val * 4 == pytest.approx(np.abs(u - v).sum(), abs=1e-9)


def test_disc_penalty_formula_and_gradient():
    u, v = pair(10, b=4, k=3)
    aux = init_aux(3, seed=1)
    d_u = discriminator_scores(u, aux)
    d_v = discriminator_scores(v, aux)
    expect = np.mean(np.logaddexp(0.0, -d_v)) + np.mean(np.logaddexp(0.0, d_u))
    assert value("disc", u, v, aux) == pytest.approx(expect, rel=1e-12)

    err = max_rel_error(lambda a, b: penalty_node("disc", a, b, aux), [u, v], h=1e-5)
    assert err < 1e-4


def test_penalty_gradients_reach_model_side():
    u, v = pair(11)
    for kind in ("l1", "sql2", "cos", "kl", "w1-exact"):
        _, gu, gv = penalty(kind, u, v, None, 1.0)
        assert np.any(gu != 0.0), kind
        assert np.any(gv != 0.0), kind


@pytest.mark.parametrize("kind", ALIGN_KINDS)
def test_each_penalty_is_one_node_over_the_logit_pair(kind):
    # one closed-form call over the plain logit pair: the value, then the
    # gradients of g times the penalty, which scale with g
    u, v = pair(12)
    before = u.copy(), v.copy()
    aux = init_aux(3, seed=2) if kind == "disc" else None
    val, gu, gv = penalty(kind, u, v, aux, 1.0)
    assert isinstance(val, float)
    assert gu.shape == u.shape and gv.shape == v.shape
    val2, gu2, gv2 = penalty(kind, u, v, aux, 2.0)
    assert val2 == val
    assert np.array_equal(gu2, 2.0 * gu) and np.array_equal(gv2, 2.0 * gv)
    assert np.array_equal(u, before[0]) and np.array_equal(v, before[1])


def test_discriminator_stays_at_chance_on_identical_distributions():
    rng = np.random.default_rng(14)
    aux = init_aux(3, seed=4)
    accs = []
    for _ in range(100):
        z = rng.normal(size=(16, 3))
        u, v = z[:8], z[8:]
        aux_update(u, v, aux)
        d_u = discriminator_scores(u, aux)
        d_v = discriminator_scores(v, aux)
        correct = (d_u > 0).sum() + (d_v <= 0).sum()
        accs.append(correct / 16)
    assert abs(np.mean(accs) - 0.5) <= 0.1


def test_discriminator_learns_separated_distributions(monkeypatch):
    monkeypatch.setattr(regularizers, "AUX_LR", 0.5)
    rng = np.random.default_rng(15)
    aux = init_aux(2, seed=5)
    for _ in range(200):
        u = rng.normal(loc=3.0, size=(16, 2))
        v = rng.normal(loc=-3.0, size=(16, 2))
        aux_update(u, v, aux)
    d_u = discriminator_scores(rng.normal(loc=3.0, size=(64, 2)), aux)
    d_v = discriminator_scores(rng.normal(loc=-3.0, size=(64, 2)), aux)
    acc = ((d_u > 0).sum() + (d_v <= 0).sum()) / 128
    assert acc > 0.9


def test_all_kinds_enumerated():
    assert set(ALIGN_KINDS) == {"l1", "sql2", "cos", "kl", "w1-exact", "disc"}
