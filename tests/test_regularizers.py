import numpy as np
import pytest

from arlab.errors import DegenerateInputError, ShapeError
from arlab.regularizers import (
    ALIGN_KINDS,
    AUX_KINDS,
    AuxParams,
    aux_update,
    discriminator_scores,
    init_aux,
    penalty,
)
from arlab.tensor import Tensor, backward, softmax_array

from gradcheck import max_rel_error
from oracles import brute_force_w1


def pair(seed=0, b=4, k=3, spread=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(b, k)) * spread, rng.normal(size=(b, k)) * spread


def test_identical_inputs_give_zero_penalty():
    u, _ = pair()
    for kind in ("l1", "sql2", "cos", "w1-exact", "kl"):
        val = penalty(kind, Tensor(u), Tensor(u.copy())).item()
        assert val == pytest.approx(0.0, abs=1e-12), kind


def test_hand_arithmetic_l1_sql2():
    u = Tensor([[1.0, 2.0]])
    v = Tensor([[1.0, 0.0]])
    assert penalty("l1", u, v).item() == pytest.approx(2.0)
    assert penalty("sql2", u, v).item() == pytest.approx(4.0)


def test_penalties_are_batch_means():
    u, v = pair(1, b=6)
    single = [penalty("l1", Tensor(u[i:i + 1]), Tensor(v[i:i + 1])).item()
              for i in range(6)]
    assert penalty("l1", Tensor(u), Tensor(v)).item() == pytest.approx(np.mean(single))


def test_w1_exact_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 3))
        val = penalty("w1-exact", Tensor(u), Tensor(v)).item()
        assert val * 5 == pytest.approx(brute_force_w1(u, v), abs=1e-9)


def test_w1_exact_row_permutation_invariant_and_symmetric():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    base = penalty("w1-exact", Tensor(u), Tensor(v)).item()
    shuffled = penalty("w1-exact", Tensor(u[::-1].copy()), Tensor(v)).item()
    swapped = penalty("w1-exact", Tensor(v), Tensor(u)).item()
    assert shuffled == pytest.approx(base, rel=1e-12)
    assert swapped == pytest.approx(base, rel=1e-12)
    assert penalty("w1-exact", Tensor(u), Tensor(u[::-1].copy())).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_positive_and_shift_invariant():
    u, v = pair(4)
    val = penalty("kl", Tensor(u), Tensor(v)).item()
    assert val > 0.0
    shifted = penalty("kl", Tensor(u), Tensor(u + 2.5)).item()
    assert shifted == pytest.approx(0.0, abs=1e-12)


def test_kl_matches_direct_formula():
    u, v = pair(5, b=3, k=4)
    p, q = softmax_array(u), softmax_array(v)
    expect = np.mean((p * (np.log(p) - np.log(q))).sum(axis=1))
    assert penalty("kl", Tensor(u), Tensor(v)).item() == pytest.approx(expect, rel=1e-12)


def test_cosine_bounds_and_alignment():
    u, _ = pair(6)
    assert penalty("cos", Tensor(u), Tensor(2.0 * u)).item() == pytest.approx(0.0, abs=1e-12)
    assert penalty("cos", Tensor(u), Tensor(-u)).item() == pytest.approx(2.0, rel=1e-12)


def test_cosine_rejects_zero_rows():
    u = np.zeros((2, 3))
    u[1] = 1.0
    with pytest.raises(DegenerateInputError):
        penalty("cos", Tensor(u), Tensor(np.ones((2, 3))))


def test_penalty_validation():
    u, v = pair(7)
    with pytest.raises(ValueError):
        penalty("manhattan", Tensor(u), Tensor(v))
    with pytest.raises(ShapeError):
        penalty("l1", Tensor(u), Tensor(v[:2]))
    with pytest.raises(ValueError):
        penalty("disc", Tensor(u), Tensor(v))


@pytest.mark.parametrize("kind", ["l1", "sql2", "cos", "kl"])
def test_gradients_match_finite_differences(kind):
    # rows kept well apart so l1 stays away from its kinks
    u = np.array([[1.0, -2.0, 0.5], [3.0, 0.8, -1.2]])
    v = np.array([[-0.5, 1.5, 2.0], [0.3, -1.1, 0.9]])
    err = max_rel_error(lambda a, b: penalty(kind, a, b), [u, v], h=1e-5)
    assert err < 1e-4, kind


def test_w1_exact_gradient_with_frozen_matching():
    # well-separated clusters keep the optimal pairing stable under the
    # finite-difference probes
    u = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 5.0]])
    v = np.array([[11.0, 9.0], [0.5, -0.5], [-9.0, 6.0]])
    err = max_rel_error(lambda a, b: penalty("w1-exact", a, b), [u, v], h=1e-5)
    assert err < 1e-4


def test_identity_pairing_used_when_rows_are_each_others_nearest():
    # per-row closeness condition forces the natural-order matching, so the
    # batch mean times b equals the plain per-pair l1 sum
    rng = np.random.default_rng(8)
    centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [50.0, 50.0]])
    u = centers + rng.normal(scale=0.1, size=centers.shape)
    v = centers + rng.normal(scale=0.1, size=centers.shape)
    val = penalty("w1-exact", Tensor(u), Tensor(v)).item()
    assert val * 4 == pytest.approx(np.abs(u - v).sum(), abs=1e-9)


def test_disc_penalty_formula_and_gradient():
    u, v = pair(10, b=4, k=3)
    aux = init_aux("disc", 3, seed=1)
    d_u = discriminator_scores(u, aux)
    d_v = discriminator_scores(v, aux)
    expect = np.mean(np.logaddexp(0.0, -d_v)) + np.mean(np.logaddexp(0.0, d_u))
    node = penalty("disc", Tensor(u), Tensor(v), aux)
    assert node.item() == pytest.approx(expect, rel=1e-12)

    err = max_rel_error(lambda a, b: penalty("disc", a, b, aux), [u, v], h=1e-5)
    assert err < 1e-4


def test_penalty_gradients_reach_model_side():
    u, v = pair(11)
    ut, vt = Tensor(u), Tensor(v)
    for kind in ("l1", "sql2", "cos", "kl", "w1-exact"):
        ut.zero_grad()
        vt.zero_grad()
        backward(penalty(kind, ut, vt))
        assert np.any(ut.grad != 0.0), kind
        assert np.any(vt.grad != 0.0), kind


@pytest.mark.parametrize("kind", ALIGN_KINDS)
def test_each_penalty_is_one_node_over_the_logit_pair(kind):
    u, v = pair(12)
    ut, vt = Tensor(u), Tensor(v)
    aux = init_aux(kind, 3, seed=2) if kind in AUX_KINDS else None
    node = penalty(kind, ut, vt, aux)
    assert len(node._parents) == 2
    assert node._parents[0] is ut and node._parents[1] is vt


def test_discriminator_stays_at_chance_on_identical_distributions():
    rng = np.random.default_rng(14)
    aux = init_aux("disc", 3, seed=4)
    accs = []
    for _ in range(100):
        z = rng.normal(size=(16, 3))
        u, v = z[:8], z[8:]
        aux_update("disc", u, v, aux)
        d_u = discriminator_scores(u, aux)
        d_v = discriminator_scores(v, aux)
        correct = (d_u > 0).sum() + (d_v <= 0).sum()
        accs.append(correct / 16)
    assert abs(np.mean(accs) - 0.5) <= 0.1


def test_discriminator_learns_separated_distributions():
    rng = np.random.default_rng(15)
    aux = init_aux("disc", 2, seed=5, lr=0.5)
    for _ in range(200):
        u = rng.normal(loc=3.0, size=(16, 2))
        v = rng.normal(loc=-3.0, size=(16, 2))
        aux_update("disc", u, v, aux)
    d_u = discriminator_scores(rng.normal(loc=3.0, size=(64, 2)), aux)
    d_v = discriminator_scores(rng.normal(loc=-3.0, size=(64, 2)), aux)
    acc = ((d_u > 0).sum() + (d_v <= 0).sum()) / 128
    assert acc > 0.9


def test_aux_update_rejects_wrong_kind():
    u, v = pair(16)
    aux = init_aux("disc", 3, seed=6)
    with pytest.raises(ValueError):
        aux_update("l1", u, v, aux)
    with pytest.raises(ValueError):
        aux_update("disc", u, v, AuxParams("l1", aux.w, aux.bias, aux.lr))
    with pytest.raises(ValueError):
        init_aux("l1", 3, seed=0)


def test_all_kinds_enumerated():
    assert set(ALIGN_KINDS) == {"l1", "sql2", "cos", "kl", "w1-exact", "disc"}
