"""Checks of the assumption checkers, against hand-built geometry and loops."""

import itertools
import json

import numpy as np
import pytest
from scipy.special import logsumexp

from arlab.datasets import LabeledImages, gen_minidigits
from arlab.evaluation import accuracy, robust_accuracy
from arlab.errors import DegenerateInputError
from arlab.model import Classifier, family_logits, init, logits_array
from arlab.tensor import softmax_array
from arlab.theory import (
    WITNESS_CAP,
    AssumptionReport,
    BoundReport,
    bound_terms,
    check_a6,
    check_efficiency,
    check_prop_a2,
    check_vertices,
    run_all_checks,
)
from arlab.training import select_worst
from arlab.transforms import (
    Identity,
    PixelMap,
    TransformFamily,
    apply_batch,
    family_rotation,
)
from arlab.wasserstein import pairwise_l1, w1_exact


def passthrough_model(k: int) -> Classifier:
    """Logits equal five times the flattened input (nonnegative inputs)."""
    model = init([k, k, k], seed=0)
    w0, b0 = model.layer(0)
    w1, b1 = model.layer(1)
    w0.data[:] = 5.0 * np.eye(k)
    w1.data[:] = np.eye(k)
    b0.data[:] = 0.0
    b1.data[:] = 0.0
    return model


def row_data(rows, labels, k: int) -> LabeledImages:
    images = np.asarray(rows, dtype=np.float64)[:, None, :]
    return LabeledImages(images, np.asarray(labels, dtype=np.int64), k)


def cube_of(model, data, family):
    return family_logits(model, data.images, family)


def self_bounds(model, data, family, mode):
    """Bound terms with the training set doubling as the evaluation set."""
    cube = cube_of(model, data, family)
    return bound_terms(cube, data.labels, cube, data.labels, family, mode)


IDENTITY_PAIR = TransformFamily("idpair", (Identity(), PixelMap(1.0, False)), 0, 1)
NEGATE_PAIR = TransformFamily("negpair", (Identity(), PixelMap(1.0, True)), 0, 1)


class TestAssumptionReport:
    def test_fraction_one_requires_no_witnesses(self):
        with pytest.raises(ValueError):
            AssumptionReport("A2", 1.0, [{"sample": 3}])

    def test_partial_fraction_requires_witnesses(self):
        with pytest.raises(ValueError):
            AssumptionReport("A2", 0.97, [])

    def test_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError):
            AssumptionReport("A2", 1.2, [])

    def test_json_shape(self):
        rep = AssumptionReport("A6", 0.5, [{"sample": 0}], detail={"x": 1.0})
        out = rep.to_json()
        assert out["assumption"] == "A6"
        assert out["fraction"] == 0.5
        assert out["detail"] == {"x": 1.0}
        assert "pairwise_matrix" not in out


class TestEfficiency:
    def test_identity_acting_family_is_fully_efficient(self):
        # distinct one-hot rows stay distinct, and every transformed copy
        # coincides with its own representation
        data = row_data(np.eye(4), [0, 1, 2, 3], 4)
        rep = check_efficiency(cube_of(passthrough_model(4), data, IDENTITY_PAIR),
                               IDENTITY_PAIR)
        assert rep.fraction == 1.0
        assert rep.witnesses == []
        assert set(rep.detail["per_transform"]) == {"identity", "pix:1:0"}

    def test_halving_collision_is_flagged(self):
        # scaling (1, 0) by one half lands exactly on the representation of
        # (0.5, 0): distance zero to a foreign sample, 2.5 to its own
        data = row_data([[1.0, 0.0], [0.5, 0.0]], [0, 0], 2)
        family = TransformFamily("halve", (Identity(), PixelMap(0.5, False)), 0, 1)
        rep = check_efficiency(cube_of(passthrough_model(2), data, family), family)
        assert rep.fraction == pytest.approx(0.75)
        assert rep.witnesses == [{"transform": "pix:0.5:0", "sample": 0}]
        assert rep.detail["per_transform"]["identity"] == 1.0
        assert rep.detail["per_transform"]["pix:0.5:0"] == 0.5

    def test_fraction_matches_loop_recomputation(self):
        data = gen_minidigits(12, seed=5)
        model = init([256, 16, 10], seed=7)
        family = family_rotation()
        rep = check_efficiency(cube_of(model, data, family), family)

        z = logits_array(model, data.images)
        hits = total = 0
        seen = []
        for t in family.members:
            za = logits_array(model, apply_batch(t, data.images))
            for i in range(len(data)):
                own = np.abs(za[i] - z[i]).sum()
                others = min(np.abs(za[i] - z[j]).sum()
                             for j in range(len(data)) if j != i)
                ok = own <= others
                hits += ok
                total += 1
                if not ok:
                    seen.append({"transform": t.name(), "sample": i})
        assert rep.fraction == pytest.approx(hits / total)
        assert rep.witnesses == seen[:WITNESS_CAP]

    def test_witness_list_is_capped(self):
        # a constant-representation model makes every non-identity pair
        # ambiguous at best; build a model collapsing everything to zero
        model = init([4, 4, 4], seed=0)
        for name, t in model.params.items():
            t.data[:] = 0.0
        rng = np.random.default_rng(0)
        data = LabeledImages(rng.uniform(size=(30, 2, 2)), np.zeros(30, dtype=np.int64), 2)
        rep = check_efficiency(cube_of(model, data, IDENTITY_PAIR), IDENTITY_PAIR)
        # all distances are zero, so ties satisfy the condition everywhere
        assert rep.fraction == 1.0


class TestMatchingIdentity:
    def test_agreement_under_full_efficiency(self):
        data = row_data(np.eye(4), [0, 1, 2, 3], 4)
        family = TransformFamily("shrink", (Identity(), PixelMap(0.9, False)), 0, 1)
        entries = check_prop_a2(cube_of(passthrough_model(4), data, family), family)
        by_name = {e.transform: e for e in entries}
        shrunk = by_name["pix:0.9:0"]
        assert shrunk.efficiency_fraction == 1.0
        assert shrunk.l1_sum > 1.0  # the identity pairing has real cost here
        assert shrunk.gap == pytest.approx(0.0, abs=1e-9)
        assert shrunk.holds
        assert by_name["identity"].w1 == pytest.approx(0.0, abs=1e-12)

    def test_swap_fixture_gives_strict_gap(self):
        # negation maps each sample onto the other's representation, so the
        # optimal matching crosses and costs nothing while the identity
        # pairing pays the full separation twice
        data = row_data([[0.8, 0.2], [0.2, 0.8]], [0, 1], 2)
        entries = check_prop_a2(cube_of(passthrough_model(2), data, NEGATE_PAIR), NEGATE_PAIR)
        neg = {e.transform: e for e in entries}["pix:1:1"]
        assert neg.w1 == pytest.approx(0.0, abs=1e-12)
        assert neg.l1_sum == pytest.approx(2 * 2 * 5.0 * 0.6)
        assert neg.gap > 1.0
        assert not neg.holds
        assert neg.efficiency_fraction < 1.0

    def test_gap_is_never_negative(self):
        data = gen_minidigits(10, seed=3)
        model = init([256, 12, 10], seed=11)
        for e in check_prop_a2(cube_of(model, data, family_rotation()), family_rotation()):
            assert e.gap >= -1e-9
            assert e.w1 <= e.l1_sum + 1e-9


class TestVertices:
    def test_two_member_family_trivially_attains(self):
        data = gen_minidigits(8, seed=0)
        model = init([256, 8, 10], seed=1)
        rep = check_vertices(cube_of(model, data, IDENTITY_PAIR), IDENTITY_PAIR)
        assert rep.fraction == 1.0
        assert rep.witnesses == []
        matrix = np.asarray(rep.pairwise_matrix)
        assert matrix.shape == (2, 2)

    def test_matrix_is_symmetric_with_zero_diagonal(self):
        data = gen_minidigits(8, seed=2)
        model = init([256, 8, 10], seed=3)
        rep = check_vertices(cube_of(model, data, family_rotation()), family_rotation())
        matrix = np.asarray(rep.pairwise_matrix)
        assert matrix.shape == (5, 5)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_argmax_matches_exhaustive_scan(self):
        data = gen_minidigits(8, seed=4)
        model = init([256, 8, 10], seed=5)
        family = family_rotation()
        rep = check_vertices(cube_of(model, data, family), family)
        sets = [logits_array(model, apply_batch(t, data.images))
                for t in family.members]
        best_pair, best = None, -1.0
        for i, j in itertools.combinations(range(len(sets)), 2):
            val = w1_exact(sets[i], sets[j])
            if val > best:
                best, best_pair = val, [i, j]
        assert rep.detail["argmax_pair"] == best_pair
        assert rep.detail["max_w1"] == pytest.approx(best)
        expected_attained = (best_pair == sorted(
            (family.vertex_plus, family.vertex_minus)))
        assert (rep.fraction == 1.0) == expected_attained

    def test_singleton_family_rejected(self):
        data = gen_minidigits(4, seed=0)
        model = init([256, 8, 10], seed=0)
        singleton = TransformFamily("only-id", (Identity(),), 0, 0)
        with pytest.raises(ValueError, match="two"):
            check_vertices(cube_of(model, data, singleton), singleton)


class TestConfidenceLink:
    def test_hand_built_two_class_cases(self):
        # under negation the prediction always flips; the confidence ratio
        # for this passthrough model is exp of the original logit gap
        data = row_data([[0.28, 0.12], [0.9, 0.1], [0.3, 0.1]], [0, 0, 0], 2)
        rep = check_a6(cube_of(passthrough_model(2), data, NEGATE_PAIR), data.labels)
        # gaps: e^0.8 < e (fails), e^4 >= e, e^1 >= e
        assert rep.detail["conf_drop_fraction"] == pytest.approx(2 / 3)
        # worst true logits: 1.4, 0.5, 1.5 -> magnitude >= 1 except middle
        assert rep.detail["magnitude_logit_fraction"] == pytest.approx(2 / 3)
        assert rep.detail["magnitude_softmax_fraction"] == 0.0
        assert rep.fraction == pytest.approx(1 / 3)
        assert {w["sample"] for w in rep.witnesses} == {0, 1}

    def test_prediction_preserving_family_never_flips(self):
        # positive rescaling preserves the argmax, so the flip indicator is
        # zero and the ratio bound degrades to >= 1, which always holds
        data = row_data([[0.9, 0.1], [0.2, 0.7]], [0, 1], 2)
        family = TransformFamily("shrink", (Identity(), PixelMap(0.9, False)), 0, 1)
        rep = check_a6(cube_of(passthrough_model(2), data, family), data.labels)
        assert rep.detail["conf_drop_fraction"] == 1.0

    def test_fractions_match_loop_recomputation(self):
        data = gen_minidigits(10, seed=9)
        model = init([256, 12, 10], seed=13)
        family = family_rotation()
        rep = check_a6(cube_of(model, data, family), data.labels)

        drop_hits = mag_hits = both = 0
        pred_orig = logits_array(model, data.images).argmax(axis=1)
        conf_orig = softmax_array(logits_array(model, data.images))
        for i in range(len(data)):
            y = data.labels[i]
            confs, tlogits, preds = [], [], []
            for t in family.members:
                za = logits_array(model, apply_batch(t, data.images[i][None]))[0]
                confs.append(softmax_array(za[None])[0, y])
                tlogits.append(za[y])
                preds.append(int(za.argmax()))
            worst = next((j for j, p in enumerate(preds) if p != y), 0)
            flip = preds[worst] != pred_orig[i]
            drop_ok = conf_orig[i, y] / min(confs) >= np.exp(float(flip)) - 1e-12
            mag_ok = abs(min(tlogits)) >= 1.0
            drop_hits += drop_ok
            mag_hits += mag_ok
            both += drop_ok and mag_ok
        assert rep.detail["conf_drop_fraction"] == pytest.approx(drop_hits / len(data))
        assert rep.detail["magnitude_logit_fraction"] == pytest.approx(mag_hits / len(data))
        assert rep.fraction == pytest.approx(both / len(data))

    @pytest.mark.filterwarnings("error")
    def test_underflowing_confidence_stays_finite(self):
        # weights scaled up 40-fold drive some true-class confidences below
        # the smallest double, where a ratio of confidences is inf or 0/0
        model = init([256, 16, 10], seed=0)
        for t in model.params.tensors():
            t.data = t.data * 40.0
        data = gen_minidigits(50, seed=0)
        family = family_rotation()
        rep = check_a6(cube_of(model, data, family), data.labels)

        z = np.stack([logits_array(model, apply_batch(t, data.images)) for t in family])
        idx = np.arange(len(data))
        logc = z[:, idx, data.labels] - logsumexp(z, axis=2)
        assert np.any(np.exp(logc) == 0.0)
        correct = z.argmax(axis=2) == data.labels
        worst = np.argmin(correct, axis=0)
        flips = z.argmax(axis=2)[worst, idx] != z[0].argmax(axis=1)
        hits = logc[0] - logc.min(axis=0) >= flips
        assert rep.detail["conf_drop_fraction"] == pytest.approx(hits.mean())
        assert rep.detail["conf_drop_fraction"] == 1.0


class TestBoundTerms:
    def test_perfect_model_identity_family_zeroes_everything(self):
        data = row_data(np.eye(4), [0, 1, 2, 3], 4)
        model = passthrough_model(4)
        for mode in ("worst-case", "vertex"):
            rep = self_bounds(model, data, IDENTITY_PAIR, mode)
            assert rep.robust_error == 0.0
            assert rep.empirical_risk == 0.0
            assert rep.vertex_risk_average == 0.0
            assert rep.alignment_sum == 0.0
            assert rep.mode == mode
            assert "omitted" in rep.phi_note

    def test_worst_case_alignment_matches_loops(self):
        data = gen_minidigits(10, seed=1)
        model = init([256, 12, 10], seed=2)
        family = family_rotation()
        rep = self_bounds(model, data, family, "worst-case")

        picks = select_worst(cube_of(model, data, family), data.labels)
        total = 0.0
        for i in range(len(data)):
            xi = data.images[i][None]
            u = logits_array(model, xi)[0]
            v = logits_array(model, apply_batch(family.members[picks[i]], xi))[0]
            total += np.abs(u - v).sum()
        assert rep.alignment_sum == pytest.approx(total)
        assert rep.alignment_mean == pytest.approx(total / len(data))

    def test_vertex_alignment_matches_loops(self):
        data = gen_minidigits(10, seed=6)
        model = init([256, 12, 10], seed=8)
        family = family_rotation()
        rep = self_bounds(model, data, family, "vertex")

        plus = family.members[family.vertex_plus]
        minus = family.members[family.vertex_minus]
        u = logits_array(model, apply_batch(plus, data.images))
        v = logits_array(model, apply_batch(minus, data.images))
        assert rep.alignment_sum == pytest.approx(np.abs(u - v).sum())
        assert rep.robust_error == pytest.approx(
            1.0 - robust_accuracy(cube_of(model, data, family), data.labels))
        assert rep.empirical_risk == pytest.approx(
            1.0 - accuracy(logits_array(model, data.images), data.labels))

    def test_vertex_risk_average_matches_loops(self):
        data = gen_minidigits(10, seed=4)
        model = init([256, 12, 10], seed=9)
        family = family_rotation()
        rep = self_bounds(model, data, family, "vertex")
        errs = []
        for idx in (family.vertex_plus, family.vertex_minus):
            moved = apply_batch(family.members[idx], data.images)
            preds = logits_array(model, moved).argmax(axis=1)
            errs.append(float(np.mean(preds != data.labels)))
        assert rep.vertex_risk_average == pytest.approx(0.5 * (errs[0] + errs[1]))

    def test_held_out_cube_feeds_only_the_robust_error(self):
        train_data = gen_minidigits(12, seed=2)
        held_out = gen_minidigits(9, seed=3)
        model = init([256, 12, 10], seed=5)
        family = family_rotation()
        train_cube = cube_of(model, train_data, family)
        eval_cube = cube_of(model, held_out, family)
        for mode in ("worst-case", "vertex"):
            rep = bound_terms(train_cube, train_data.labels, eval_cube, held_out.labels,
                              family, mode)
            same = self_bounds(model, train_data, family, mode)
            assert rep.robust_error == 1.0 - robust_accuracy(eval_cube, held_out.labels)
            assert rep.empirical_risk == same.empirical_risk
            assert rep.vertex_risk_average == same.vertex_risk_average
            assert rep.alignment_sum == same.alignment_sum

    def test_invalid_mode_rejected(self):
        data = gen_minidigits(4, seed=0)
        model = init([256, 8, 10], seed=0)
        with pytest.raises(ValueError, match="mode"):
            self_bounds(model, data, family_rotation(), "both")

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError):
            BoundReport("vertex", -0.1, 0.0, 0.0, 0.0, 0.0)


class TestRunAll:
    def test_full_tree_is_json_serializable(self):
        data = gen_minidigits(8, seed=10)
        model = init([256, 8, 10], seed=10)
        tree = run_all_checks(model, data, family_rotation())
        assert tree["family"] == "rotation"
        assert tree["samples"] == 8
        assert set(tree) >= {"A2", "A3", "A5", "A6", "matching_identity", "bounds"}
        assert "practice" in tree["A5"]["note"]
        assert set(tree["bounds"]) == {"worst-case", "vertex"}
        round_trip = json.loads(json.dumps(tree))
        assert round_trip["A2"]["fraction"] == tree["A2"]["fraction"]

    def test_transforms_each_member_once(self, apply_batch_calls):
        # one logit cube serves every checker and both bound modes
        data = gen_minidigits(8, seed=10)
        family = family_rotation()
        run_all_checks(init([256, 8, 10], seed=10), data, family)
        assert apply_batch_calls == list(family)

    def test_empty_data_is_degenerate(self):
        empty = LabeledImages(np.zeros((0, 16, 16)), np.zeros(0, dtype=np.int64), 10)
        with pytest.raises(DegenerateInputError, match="at least one sample"):
            run_all_checks(init([256, 8, 10], seed=0), empty, family_rotation())
