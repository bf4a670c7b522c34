import tracemalloc

import numpy as np
import pytest

from arlab.datasets import LabeledImages, gen_minidigits
from arlab.errors import DegenerateInputError, MergeError
from arlab.evaluation import (
    _CHUNK_BYTES,
    METHOD_SPECS,
    MetricsRow,
    _own_among_nearest,
    accuracy,
    evaluate,
    format_table,
    invariance_per_class,
    robust_accuracy,
    rows_from_csv,
    rows_to_csv,
    summarize,
    summary_csv,
)
from arlab.model import family_logits, init, logits_array
from arlab.training import LrSchedule, TrainPlan, train
from arlab.transforms import (
    Identity,
    PixelMap,
    Rotate,
    TransformFamily,
    apply_batch,
    family_by_name,
)
from arlab.wasserstein import pairwise_l1

from oracles import (
    argsort_invariance,
    chunked_invariance,
    cumsum_own_among_nearest,
    intersect1d_invariance,
    parameters,
)


def onehot_data(labels, k=10):
    """Images are one-hot rows of their own label; trivially separable."""
    labels = np.asarray(labels)
    images = np.zeros((labels.size, 1, k))
    images[np.arange(labels.size), 0, labels] = 1.0
    return LabeledImages(images, labels, k)


def onehot_model(k=10):
    """Reads the one-hot pixel row straight through to the logits."""
    m = init([k, k, k], seed=0)
    m.layers[0][0].data = 5.0 * np.eye(k)
    m.layers[1][0].data = np.eye(k)
    return m


def constant_model(k=10, d=16 * 16, winner=None):
    m = init([d, 4, k], seed=0)
    for t in parameters(m):
        t.data = np.zeros_like(t.data)
    if winner is not None:
        m.layers[1][1].data[winner] = 1.0
    return m


def identity_pair_family():
    # both members act as the identity map, so any model is perfectly
    # invariant under this family
    return TransformFamily("idpair", (Identity(), PixelMap(1.0, False)), 1)


def singleton_family():
    return TransformFamily("only-id", (Identity(),), 0)


def plain_accuracy(model, data):
    return accuracy(logits_array(model, data.images), data.labels)


def invariance(model, data, family):
    return evaluate(model, data, family, seed=0).invariance


def test_accuracy_oracle_model_is_perfect():
    data = onehot_data(np.arange(10))
    assert plain_accuracy(onehot_model(), data) == 1.0


def test_accuracy_constant_model_hits_class_prior():
    data = gen_minidigits(100, seed=0)
    assert plain_accuracy(constant_model(winner=3), data) == pytest.approx(0.1)


def test_accuracy_hand_count():
    labels = np.array([0, 1, 2, 3, 4])
    data = onehot_data(labels)
    wrong = LabeledImages(data.images, np.array([0, 1, 2, 4, 3]), 10)
    assert plain_accuracy(onehot_model(), wrong) == pytest.approx(3 / 5)


def test_accuracy_rejects_empty_data():
    with pytest.raises(ValueError):
        accuracy(np.zeros((0, 4)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        robust_accuracy(np.zeros((2, 0, 4)), np.zeros(0, dtype=int))


def test_robust_accuracy_singleton_family_equals_accuracy():
    data = gen_minidigits(60, seed=1)
    m = init([256, 32, 10], seed=2)
    cube = family_logits(m, data.images, singleton_family())
    assert robust_accuracy(cube, data.labels) == plain_accuracy(m, data)


def test_robust_accuracy_never_exceeds_accuracy():
    data = gen_minidigits(60, seed=2)
    for seed in range(5):
        m = init([256, 24, 10], seed=seed)
        for fname in ("texture", "rotation", "contrast"):
            cube = family_logits(m, data.images, family_by_name(fname, image_size=16))
            assert robust_accuracy(cube, data.labels) <= plain_accuracy(m, data)


def test_robust_accuracy_matches_exhaustive_truth_table():
    data = gen_minidigits(5, seed=3)
    fam = TransformFamily("pair", (Identity(), Rotate(30.0)), 1)
    m = init([256, 16, 10], seed=4)
    per_member = []
    for t in fam:
        preds = logits_array(m, apply_batch(t, data.images)).argmax(axis=1)
        per_member.append(preds == data.labels)
    expect = np.mean(np.logical_and.reduce(per_member))
    cube = family_logits(m, data.images, fam)
    assert robust_accuracy(cube, data.labels) == pytest.approx(expect)


def test_invariance_constant_model_hand_value():
    # all distances are zero, so each sample retrieves the first t pool
    # entries; with two samples per class and t=2 the overlap is always one
    data = onehot_data(np.array([0, 0, 1, 1]), k=2)
    m = constant_model(k=2, d=2)
    assert invariance(m, data, identity_pair_family()) == pytest.approx(0.5)


def test_invariance_perfectly_invariant_model_scores_one():
    data = gen_minidigits(40, seed=5)
    m = init([256, 16, 10], seed=6)
    assert invariance(m, data, identity_pair_family()) == 1.0


def test_invariance_within_floor_and_ceiling():
    data = gen_minidigits(40, seed=6)
    for seed in range(3):
        m = init([256, 16, 10], seed=seed)
        for fname in ("texture", "rotation", "contrast"):
            fam = family_by_name(fname, image_size=16)
            score = invariance(m, data, fam)
            assert 1 / len(fam) <= score <= 1.0


@pytest.mark.parametrize("values", [2, 1])
def test_invariance_overlap_matches_set_intersection_under_ties(values):
    # logits drawn from {0, 1} tie most distances, and all-zero logits tie
    # every one, so the lowest-index tie rule decides each neighbor set
    rng = np.random.default_rng(values)
    labels = np.arange(60) % 3
    cube = rng.integers(0, values, size=(4, 60, 3)).astype(np.float64)
    expect = intersect1d_invariance(cube, labels, 3)
    assert np.array_equal(invariance_per_class(cube, labels, 3), expect)


@pytest.fixture(scope="module")
def trained_cube():
    plan = TrainPlan("baseline", family_by_name("rotation"), epochs=2,
                     lr=LrSchedule(0.5), batch_size=32, seed=0, hidden=(16,))
    model = train(plan, gen_minidigits(300, seed=0)).model
    data = gen_minidigits(1213, seed=1)
    return family_logits(model, data.images, family_by_name("rotation")), data.labels


@pytest.mark.parametrize("logits", ["trained", "rounded", "constant", "nan"])
def test_chunked_invariance_matches_stable_argsort(trained_cube, logits):
    cube, labels = trained_cube
    if logits == "rounded":
        cube = np.round(cube, 1)  # ties many distances
    elif logits == "constant":
        cube = np.zeros_like(cube)  # ties every distance
    elif logits == "nan":
        # a sort puts NaN distances last; a query with NaN logits has
        # nothing but NaN distances
        cube = cube.copy()
        cube[:, ::7] = np.nan
        cube[2:, 1::7] = np.nan
    t = cube.shape[0]
    counts = np.bincount(labels, minlength=10)
    rows = np.maximum(1, _CHUNK_BYTES // (counts * t * 8))
    # every class spans several chunks, and some class ends on a short one
    assert np.all(counts > 2 * rows) and np.any(counts % rows)
    expect = argsort_invariance(cube, labels, 10)
    assert np.array_equal(invariance_per_class(cube, labels, 10), expect)


FLOAT_MAX = np.finfo(np.float64).max


def differential_cube(kind, t, k, classes, seed):
    rng = np.random.default_rng(seed)
    n = classes * int(rng.integers(2, 40))
    cube = rng.normal(size=(t, n, k))
    if kind == "near-tie":
        # integer distances moved by about an ulp: numpy and scipy order
        # some of them differently
        cube = rng.integers(0, 3, size=cube.shape) + 1e-16 * cube
    elif kind == "integer":
        cube = rng.integers(0, 3, size=cube.shape).astype(np.float64)
    elif kind == "constant":
        cube = np.zeros_like(cube)
    elif kind == "nan":
        cube[rng.random(cube.shape) < 0.1] = np.nan
    elif kind == "inf":
        cube[rng.random(cube.shape) < 0.1] = np.inf
        cube[rng.random(cube.shape) < 0.1] = -np.inf
    elif kind == "huge":
        # sums of these terms reach and pass the largest float, so a t-th
        # distance can be finite while its widened bound overflows
        cube = rng.integers(-1, 2, size=cube.shape) * (FLOAT_MAX / 8)
    return cube, np.arange(n) % classes


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("kind", ["normal", "near-tie", "integer", "constant",
                                  "nan", "inf", "huge"])
@pytest.mark.parametrize("k", [2, 3, 10, 12])
def test_invariance_matches_exact_chunked_oracle(kind, k):
    for t in range(2, 7):
        for seed in range(3):
            classes = 1 + seed
            cube, labels = differential_cube(kind, t, k, classes, seed + 10 * t)
            expect = chunked_invariance(cube, labels, classes)
            assert np.array_equal(invariance_per_class(cube, labels, classes), expect)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("kind", ["normal", "near-tie", "integer", "constant",
                                  "nan", "inf", "huge"])
def test_invariance_matches_the_oracle_in_small_exact_slices(kind, monkeypatch):
    # a budget of seven (entries, k) rows: one query per chunk, and its
    # candidates cross several slice boundaries
    for k in (3, 10):
        monkeypatch.setattr("arlab.evaluation._CHUNK_BYTES", 8 * k * 7)
        for t in (2, 4, 6):
            cube, labels = differential_cube(kind, t, k, 2, t)
            expect = chunked_invariance(cube, labels, 2)
            assert np.array_equal(invariance_per_class(cube, labels, 2), expect)


def own_tie_outcomes(dists, samples, m, t):
    """How many own copies tied at a finite t-th distance got a slot, and
    how many lost it to lower pool indices."""
    d_t = np.partition(dists, t - 1, axis=1)[:, t - 1:t]
    order = np.argsort(dists, axis=1, kind="stable")[:, :t]
    own = samples[:, None] + m * np.arange(t)
    tied = np.take_along_axis(dists, own, axis=1) == d_t
    picked = (own[:, :, None] == order[:, None, :]).any(axis=2)
    return int((tied & picked).sum()), int((tied & ~picked).sum())


@pytest.mark.parametrize("values", [2, 3, 5])
@pytest.mark.parametrize("t", [2, 3, 5])
def test_tie_ranks_match_the_cumsum_ranker(values, t):
    # small integer distances tie many entries at each row's t-th place, own
    # copies among them; NaN entries and all-NaN rows rank as a sort would
    rng = np.random.default_rng(values * 10 + t)
    m = 40
    dists = rng.integers(0, values, size=(m, m * t)).astype(np.float64)
    won, lost = own_tie_outcomes(dists, np.arange(m), m, t)
    assert won and lost
    dists[rng.random(dists.shape) < 0.1] = np.nan
    dists[::9] = np.nan
    for start, stop in ((0, m), (3, 4), (5, 23)):
        rows = np.arange(start, stop)
        expect = cumsum_own_among_nearest(dists[start:stop], rows, m, t)
        assert np.array_equal(_own_among_nearest(dists[start:stop], rows, m, t), expect)


def tie_cube(kind, seed):
    rng = np.random.default_rng(seed)
    cube = rng.integers(0, 3, size=(4, 90, 2)).astype(np.float64)
    if kind == "constant":
        cube = np.full_like(cube, 0.5)
    elif kind == "nan":
        cube[rng.random(cube.shape) < 0.15] = np.nan
        cube[:, ::11] = np.nan
    return cube, np.arange(90) % 3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", ["integer", "constant", "nan"])
def test_invariance_under_ties_matches_the_cumsum_and_argsort_oracles(kind):
    for seed in range(3):
        cube, labels = tie_cube(kind, seed)
        if kind == "integer":
            # precondition: own copies tie at the t-th distance, and the
            # lowest-index rule lets some in and keeps some out
            members = np.flatnonzero(labels == 0)
            pool = cube[:, members].reshape(-1, 2)
            dists = np.abs(cube[0, members, None] - pool[None]).sum(axis=2)
            won, lost = own_tie_outcomes(dists, np.arange(members.size), members.size, 4)
            assert won and lost
        got = invariance_per_class(cube, labels, 3)
        assert np.array_equal(got, chunked_invariance(cube, labels, 3))
        assert np.array_equal(got, argsort_invariance(cube, labels, 3))


def near_tie_cube():
    """One class of two samples under two members, where numpy's sum and
    scipy's L1 kernel rank sample 0's second-nearest pool entry differently.

    Sample 0 is the origin.  Sample 1 holds one large term among nine of
    2**-53, placed where the two sums round its distance differently.
    Sample 0's copy sits halfway between the two sums, so under one sum it
    is nearer than sample 1 and under the other it is farther.
    """
    k = 10
    origin = np.zeros((1, k))
    for pos in range(k):
        foreign = np.full((1, k), 2.0 ** -53)
        foreign[0, pos] = 1.0
        exact = np.abs(origin - foreign).sum(axis=1)[0]
        approx = pairwise_l1(origin, foreign)[0, 0]
        if exact != approx:
            break
    own = np.zeros((1, k))
    own[0, 0] = (exact + approx) / 2
    far = np.full((1, k), 5.0)
    cube = np.stack([np.concatenate([origin, foreign]), np.concatenate([own, far])])
    return cube, np.zeros(2, dtype=np.int64)


def test_invariance_exact_stage_decides_near_ties():
    cube, labels = near_tie_cube()
    t, m = 2, 2
    pool = cube.reshape(t * m, -1)
    exact = np.abs(cube[0, :, None, :] - pool[None, :, :]).sum(axis=2)
    approx = pairwise_l1(cube[0], pool)
    nearest = np.argsort(exact, axis=1, kind="stable")[:, :t]
    # precondition: scipy's distances alone pick a different t-nearest set
    assert not np.array_equal(np.argsort(approx, axis=1, kind="stable")[:, :t], nearest)
    expect = chunked_invariance(cube, labels, 1)
    assert np.array_equal(invariance_per_class(cube, labels, 1), expect)
    assert np.array_equal(expect, argsort_invariance(cube, labels, 1))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_invariance_recomputes_rows_with_a_non_finite_bound():
    # sample 0's own copy overflows to +inf and sample 1's plain logits hold
    # a NaN, so fewer than t distances are finite and the whole row is
    # recomputed: as a +inf placeholder the NaN would tie ahead of the copy
    cube = np.array([[[0.0, 0.0], [np.nan, 0.0]],
                     [[FLOAT_MAX, FLOAT_MAX], [FLOAT_MAX, FLOAT_MAX]]])
    labels = np.zeros(2, dtype=np.int64)
    expect = chunked_invariance(cube, labels, 1)
    assert np.array_equal(invariance_per_class(cube, labels, 1), expect)
    # a finite t-th distance of the largest float overflows its bound
    cube = np.array([[[0.0], [FLOAT_MAX]], [[FLOAT_MAX], [FLOAT_MAX]]])
    assert np.isinf(FLOAT_MAX * (1 + 4 * np.finfo(np.float64).eps))
    expect = chunked_invariance(cube, labels, 1)
    assert np.array_equal(invariance_per_class(cube, labels, 1), expect)


def test_invariance_of_a_large_class_stays_in_bounded_memory():
    # one class of 2000 samples under 6 members: the whole (m, m*t, k)
    # difference array would take 2000 * 12000 * 10 * 8 bytes, ~1.9 GB
    cube = np.random.default_rng(3).normal(size=(6, 2000, 10))
    labels = np.zeros(2000, dtype=np.int64)
    tracemalloc.start()
    try:
        invariance_per_class(cube, labels, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pool copy and one chunk's (2, 12000) distance arrays take ~2.1 MB
    assert peak < 8 * 2 ** 20


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("logits", ["constant", "nan"])
def test_invariance_with_every_entry_a_candidate_stays_in_bounded_memory(logits):
    # constant logits tie every entry at the t-th distance, and a NaN
    # logit makes every row fall back, so the exact stage recomputes all
    # 2000 * 12000 entries of the class; it does so in slices that fit the
    # chunk budget (peak ~2.2 MiB with the 0.9 MiB pool copy; gathering a
    # whole chunk's candidates at once peaked at 5.3 MiB)
    cube = np.zeros((6, 2000, 10))
    if logits == "nan":
        cube[:, :, 0] = np.nan
    labels = np.zeros(2000, dtype=np.int64)
    tracemalloc.start()
    try:
        invariance_per_class(cube, labels, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_invariance_rejects_degenerate_class():
    images = np.random.default_rng(0).random((3, 4, 4))
    data = LabeledImages(images, np.array([0, 0, 1]), 2)
    m = init([16, 8, 2], seed=0)
    cube = family_logits(m, data.images, identity_pair_family())
    with pytest.raises(DegenerateInputError, match="class 1"):
        invariance_per_class(cube, data.labels, data.num_classes)
    with pytest.raises(DegenerateInputError, match="class 1"):
        evaluate(m, data, identity_pair_family(), seed=0)


def test_evaluate_rejects_empty_data_before_the_forward_pass():
    empty = LabeledImages(np.zeros((0, 16, 16)), np.zeros(0, dtype=int), 10)
    with pytest.raises(DegenerateInputError, match="class 0"):
        evaluate(init([256, 8, 10], seed=0), empty, family_by_name("rotation"), seed=0)


def test_invariance_per_class_breakdown_shape():
    data = gen_minidigits(40, seed=7)
    m = init([256, 16, 10], seed=8)
    cube = family_logits(m, data.images, family_by_name("contrast"))
    per_class = invariance_per_class(cube, data.labels, data.num_classes)
    assert per_class.shape == (10,)
    assert np.all((per_class >= 0.0) & (per_class <= 1.0))


def test_evaluate_bundles_all_metrics():
    data = gen_minidigits(40, seed=10)
    fam = family_by_name("rotation")
    m = init([256, 16, 10], seed=11)
    rep = evaluate(m, data, fam, seed=11)
    assert rep.accuracy == plain_accuracy(m, data)
    assert rep.robust_accuracy == robust_accuracy(
        family_logits(m, data.images, fam), data.labels)
    assert rep.invariance == pytest.approx(np.mean(rep.per_class_invariance))
    assert len(rep.per_class_invariance) == 10
    assert rep.family == "rotation"
    assert rep.seed == 11


@pytest.mark.parametrize("fname", ["texture", "rotation", "contrast"])
def test_evaluate_transforms_each_member_once(fname, calls_to):
    # one logit cube serves every metric
    data = gen_minidigits(40, seed=12)
    fam = family_by_name(fname, image_size=16)
    calls = calls_to("transforms.apply_batch")
    evaluate(init([256, 16, 10], seed=13), data, fam, seed=0)
    assert [member for member, _ in calls] == list(fam)


def test_metrics_are_deterministic():
    data = gen_minidigits(30, seed=11)
    fam = family_by_name("texture", image_size=16)
    m = init([256, 16, 10], seed=12)
    assert evaluate(m, data, fam, 0) == evaluate(m, data, fam, 0)


def sample_rows():
    return [
        MetricsRow("B", "rotation", 0, None, 0.99, 0.30, 0.21),
        MetricsRow("B", "rotation", 1, None, 0.98, 0.28, 0.20),
        MetricsRow("S", "rotation", 0, 0.001, 0.97, 0.95, 0.64),
        MetricsRow("S", "rotation", 1, 0.001, 0.96, 0.94, 0.66),
        MetricsRow("V", "rotation", 0, None, 0.98, 0.93, 0.58),
    ]


def test_csv_round_trip():
    rows = sample_rows()
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_csv_rejects_foreign_header():
    with pytest.raises(MergeError):
        rows_from_csv("a,b,c\n1,2,3\n")


def test_summarize_single_cell():
    rows = [MetricsRow("B", "texture", 0, None, 0.9, 0.8, 0.7)]
    summary = summarize(rows)
    assert summary[("texture", "B")]["accuracy"] == (0.9, 0.0)
    assert summary[("texture", "B")]["robustness"] == (0.8, 0.0)


def test_format_table_fixed_method_order():
    rows = sample_rows()
    text = format_table(rows)
    header = text.splitlines()[0]
    assert header.index("B") < header.index("V") < header.index("S")
    assert "Accuracy" in text and "Robustness" in text and "Invariance" in text


def test_table_columns_follow_the_method_list_then_sort_the_rest():
    codes = ["zz", "VWA", "D", "RWA", "Aa", "B", "RVA", "S", "W", "K", "C", "L", "V"]
    rows = [MetricsRow(m, "rotation", 0, None, 0.9, 0.8, 0.7) for m in codes]
    header = format_table(rows).splitlines()[0].split()
    assert header == ["shift", "metric", *METHOD_SPECS, "Aa", "zz"]
    assert list(METHOD_SPECS) == ["B", "V", "L", "S", "C", "K", "W", "D",
                                  "RVA", "RWA", "VWA"]


@pytest.mark.parametrize("method,shift", [("a\nb", "rotation"), ("B", "rot\rated")])
def test_csv_rejects_a_name_holding_a_line_break(method, shift):
    text = rows_to_csv([MetricsRow(method, shift, 0, None, 0.9, 0.8, 0.7)])
    with pytest.raises(MergeError, match="metrics line"):
        rows_from_csv(text)


def test_format_table_lambda_annotation():
    text = format_table(sample_rows(), lambda_by_method={"S": 0.001})
    assert "S (lam=0.001)" in text


def test_format_table_rejects_empty():
    with pytest.raises(MergeError):
        format_table([])


def test_summary_csv_parses():
    text = summary_csv(sample_rows())
    lines = text.strip().splitlines()
    assert lines[0] == "shift,metric,method,mean,std"
    # 3 metrics x 3 methods present
    assert len(lines) == 1 + 9
