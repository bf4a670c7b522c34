"""End-to-end acceptance gate for the workbench.

Each test here is one release criterion, checked at a pinned tolerance
against an independent route: central finite differences for gradients,
permutation enumeration for optimal transport, hand-built fixtures for
the matching identity, exhaustive scans for selection rules, and byte
comparison for artifact determinism.  The suite is slower than the unit
suites because several criteria train real models; every timed criterion
asserts its own wall-clock budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from arlab.cli import cmd_theory, main
from arlab.datasets import LabeledImages, gen_minidigits
from arlab.errors import DivergenceError
from arlab.evaluation import evaluate
from arlab.model import Classifier, init, logits_array, save_weights
from arlab.regularizers import init_aux
from arlab.tensor import backward
from arlab.theory import check_efficiency, check_prop_a2
from arlab.training import (LrSchedule, TrainPlan, default_lambda_grid,
                            select_worst, step_loss, train)
from arlab.transforms import (Identity, PixelMap, Rotate, TransformFamily,
                              apply_batch, family_contrast, family_rotation,
                              family_texture)

IMAGE_SIZE = 16  # minidigits canvas; flattened input width 256


def all_families():
    return (family_texture(IMAGE_SIZE), family_rotation(), family_contrast())


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


# --------------------------------------------------------------------------
# criterion 1: analytic gradients of every loss mode vs finite differences


def _fd_loss_value(plan, model, batch, aux) -> float:
    return step_loss(plan, model, batch, aux).item()


def _sampled_coordinate_check(plan, model, batch, aux, coords_per_mode=24,
                              h=1e-4):
    """Worst relative error over randomly sampled parameter coordinates."""
    loss = step_loss(plan, model, batch, aux)
    backward(loss)
    entries = list(model.params.items())
    sizes = np.array([t.data.size for _, t in entries])
    bounds = np.cumsum(sizes)
    rng = np.random.default_rng(417)
    coords = rng.choice(int(bounds[-1]), size=coords_per_mode, replace=False)
    worst = 0.0
    for c in coords:
        which = int(np.searchsorted(bounds, c, side="right"))
        offset = int(c - (bounds[which - 1] if which else 0))
        _, tensor = entries[which]
        analytic = float(tensor.grad.flat[offset])
        saved = float(tensor.data.flat[offset])
        tensor.data.flat[offset] = saved + h
        up = _fd_loss_value(plan, model, batch, aux)
        tensor.data.flat[offset] = saved - h
        down = _fd_loss_value(plan, model, batch, aux)
        tensor.data.flat[offset] = saved
        numeric = (up - down) / (2.0 * h)
        denom = max(abs(analytic), abs(numeric))
        if denom < 1e-8:
            denom = 1.0
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def test_criterion_1_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    images = rng.uniform(0.05, 0.95, size=(10, 3, 4))
    labels = rng.integers(0, 4, size=10)
    batch = (images, labels)
    family = family_contrast()
    modes = [("baseline", None), ("vanilla-aug", None)]
    modes += [("aligned-vertex", kind)
              for kind in ("l1", "sql2", "cos", "kl", "w1-exact", "disc")]
    results = {}
    for mode, kind in modes:
        model = init([12, 7, 5, 4], seed=11)  # two hidden layers
        aux = init_aux(kind, 4, seed=3) if kind == "disc" else None
        plan = TrainPlan(mode, family=family,
                         lam=0.05 if kind else 0.0, align_kind=kind)
        worst = _sampled_coordinate_check(plan, model, batch, aux)
        results[kind or mode] = worst
        assert worst < 1e-4, f"{mode}/{kind}: worst relative error {worst:g}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in results.items())
    print(f"criterion 1 (gradient correctness): ok in {elapsed:.1f}s -- {detail}")


# --------------------------------------------------------------------------
# criterion 2: exact Wasserstein-1 vs brute-force permutation minimum


def brute_force_w1(u, v):
    best = np.inf
    for perm in itertools.permutations(range(len(u))):
        total = sum(np.abs(u[i] - v[perm[i]]).sum() for i in range(len(u)))
        best = min(best, total)
    return best


def test_criterion_2_wasserstein_matches_brute_force():
    from arlab.wasserstein import w1_exact

    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        b = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        u = rng.normal(size=(b, k))
        v = rng.normal(size=(b, k))
        gap = abs(w1_exact(u, v) - brute_force_w1(u, v))
        worst = max(worst, gap)
        assert gap < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2 (transport oracle): ok in {elapsed:.1f}s -- "
          f"worst |exact - brute| = {worst:.2e} over 200 pairs")


# --------------------------------------------------------------------------
# criterion 3: matching identity on efficient fixtures, inequality otherwise


def test_criterion_3_matching_identity_and_strict_violation():
    from arlab.wasserstein import w1_exact

    model = passthrough_model(4)
    # Well separated: each transformed row stays closest to its own source.
    efficient = row_data(np.eye(4), [0, 1, 2, 3], 4)
    shrink = TransformFamily("shrinkpair",
                             (Identity(), PixelMap(0.9, False)), 0, 1)
    report = check_efficiency(
        np.stack([logits_array(model, apply_batch(a, efficient.images)) for a in shrink]),
        shrink)
    assert report.fraction == 1.0, "fixture must verifiably satisfy efficiency"
    entries = check_prop_a2(
        np.stack([logits_array(model, apply_batch(a, efficient.images)) for a in shrink]),
        shrink)
    for entry in entries:
        assert entry.holds
        assert abs(entry.gap) < 1e-9
        # second route: recompute both sides outside the checker
        z = logits_array(model, efficient.images)
        za = logits_array(model, apply_batch(
            next(t for t in shrink if t.name() == entry.transform),
            efficient.images))
        assert abs(w1_exact(z, za) - np.abs(z - za).sum()) < 1e-9

    # Negation swaps the two rows: as sets the logits coincide (W1 = 0)
    # while the per-pair sum stays far from zero.
    swapped = row_data([[0.8, 0.2], [0.2, 0.8]], [0, 1], 2)
    negate = TransformFamily("negpair", (Identity(), PixelMap(1.0, True)), 0, 1)
    assert check_efficiency(np.stack([logits_array(model2 := passthrough_model(2),
                                                   apply_batch(a, swapped.images))
                                      for a in negate]), negate).fraction < 1.0
    violating = [e for e in check_prop_a2(
                     np.stack([logits_array(model2, apply_batch(a, swapped.images))
                               for a in negate]), negate)
                 if e.transform != "identity"]
    assert len(violating) == 1
    entry = violating[0]
    assert entry.w1 <= entry.l1_sum + 1e-12
    assert entry.w1 + 1e-6 < entry.l1_sum, "inequality must be strict"
    print("criterion 3 (matching identity): ok -- efficient fixture gap "
          f"< 1e-9 on {len(entries)} members; violation gap "
          f"{entry.l1_sum - entry.w1:.3f}")


# --------------------------------------------------------------------------
# criterion 4: metric ranges on random models, every family


def test_criterion_4_metric_bounds_on_random_models():
    data = gen_minidigits(240, seed=77)
    families = all_families()
    checked = 0
    for i in range(50):
        model = init([IMAGE_SIZE * IMAGE_SIZE, 12, 10], seed=100 + i)
        for family in families:
            report = evaluate(model, data, family, seed=i)
            t = len(family)
            assert report.robust_accuracy <= report.accuracy + 1e-12
            assert 1.0 / t - 1e-12 <= report.invariance <= 1.0 + 1e-12
            checked += 1
    print(f"criterion 4 (metric bounds): ok -- robust <= accuracy and "
          f"invariance in [1/t, 1] on {checked} (model, family) cases")


# --------------------------------------------------------------------------
# criterion 5: transform identities


def test_criterion_5_transform_identities():
    start = time.perf_counter()
    images = gen_minidigits(64, seed=5).images

    out = apply_batch(Identity(), images)
    assert np.array_equal(out, images), "identity must be bit-exact"

    contrast = family_contrast()
    negation = contrast.members[3]
    assert negation.name() == "pix:1:1"
    twice = apply_batch(negation, apply_batch(negation, images))
    involution_dev = float(np.max(np.abs(twice - images)))
    assert involution_dev <= 1e-12

    rot0 = apply_batch(Rotate(0.0), images)
    rot0_dev = float(np.max(np.abs(rot0 - images)))
    assert rot0_dev <= 1e-12

    # Idempotence is a property of the spectral projection; the [0, 1]
    # clamp breaks it when the filtered image overshoots, so check it on a
    # low-contrast stack that provably never clamps.
    mild = 0.5 + 0.15 * (images - 0.5)
    idem_dev = 0.0
    for member in family_texture(IMAGE_SIZE):
        if member.name() == "identity":
            continue
        once = apply_batch(member, mild)
        assert once.min() > 0.0 and once.max() < 1.0, "fixture must not clamp"
        again = apply_batch(member, once)
        idem_dev = max(idem_dev, float(np.max(np.abs(again - once))))
    assert idem_dev <= 1e-6

    for family in all_families():
        for member in family:
            out = apply_batch(member, images)
            assert out.min() >= 0.0 and out.max() <= 1.0

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 5 (transform identities): ok in {elapsed:.1f}s -- "
          f"involution {involution_dev:.1e}, rotate(0) {rot0_dev:.1e}, "
          f"idempotence {idem_dev:.1e}")


# --------------------------------------------------------------------------
# criterion 6: headline ordering at desk scale


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_criterion_6_headline_ordering():
    train_data = gen_minidigits(2000, seed=0)
    holdout = gen_minidigits(2000, seed=10000)
    family = family_rotation()
    shared = dict(family=family, epochs=15, lr=LrSchedule(0.5),
                  batch_size=32, hidden=(64,))

    def run(mode, seed, lam=0.0, kind=None):
        plan = TrainPlan(mode, lam=lam, align_kind=kind, seed=seed, **shared)
        history = train(plan, train_data)
        return evaluate(history.model, holdout, family, seed)

    grid = default_lambda_grid()
    rows = {"B": [], "V": [], "S": []}
    winners = []
    per_seed = []
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        rows["B"].append(run("baseline", seed))
        rows["V"].append(run("vanilla-aug", seed))
        # Keep, per seed, the weight with the highest robust accuracy
        # across the swept penalty strengths; ties go to the smaller one.
        candidates = []
        for lam in grid:
            try:
                report = run("aligned-vertex", seed, lam=float(lam),
                             kind="sql2")
            except DivergenceError:
                continue  # the strongest penalties can blow up at this lr
            candidates.append((report.robust_accuracy, -lam, report))
        assert candidates, "every penalty strength diverged"
        best = max(candidates)
        rows["S"].append(best[2])
        winners.append(-best[1])
        per_seed.append(time.perf_counter() - t0)
        assert per_seed[-1] < 900.0

    def mean(metric, method):
        return float(np.mean([getattr(r, metric) for r in rows[method]]))

    acc_b = mean("accuracy", "B")
    rob_b = mean("robust_accuracy", "B")
    assert acc_b - rob_b >= 0.30, f"gap {acc_b - rob_b:.3f}"

    inv_b, inv_v, inv_s = (mean("invariance", m) for m in ("B", "V", "S"))
    assert inv_b < inv_v < inv_s, f"ordering {inv_b:.4f}, {inv_v:.4f}, {inv_s:.4f}"

    rob_v = mean("robust_accuracy", "V")
    rob_s = mean("robust_accuracy", "S")
    assert rob_s >= rob_v - 0.005, f"S {rob_s:.4f} vs V {rob_v:.4f}"

    print(f"criterion 6 (headline ordering): ok -- baseline gap "
          f"{100 * (acc_b - rob_b):.1f} points; invariance "
          f"{inv_b:.4f} < {inv_v:.4f} < {inv_s:.4f}; robust S {rob_s:.4f} "
          f"vs V {rob_v:.4f}; winners {[f'{w:g}' for w in winners]}; "
          f"slowest seed {max(per_seed):.0f}s")


# --------------------------------------------------------------------------
# criterion 7: worst-case pick vs exhaustive cross-entropy scan


def test_criterion_7_worst_case_selection_oracle():
    start = time.perf_counter()
    families = all_families()
    for i in range(100):
        family = families[i % 3]
        model = init([IMAGE_SIZE * IMAGE_SIZE, 10, 10], seed=200 + i)
        batch = gen_minidigits(8, seed=300 + i)
        picks = select_worst(
            np.stack([logits_array(model, apply_batch(member, batch.images))
                      for member in family]), batch.labels)
        ce = np.empty((len(family), len(batch)))
        for j, member in enumerate(family):
            z = logits_array(model, apply_batch(member, batch.images))
            ce[j] = logsumexp(z, axis=1) - z[np.arange(len(batch)),
                                             batch.labels]
        assert np.array_equal(picks, np.argmax(ce, axis=0))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 7 (worst-case selection): ok in {elapsed:.1f}s -- "
          f"matches exhaustive argmax on 100 instances")


# --------------------------------------------------------------------------
# criterion 8: assumption checks run to completion on a trained model


def test_criterion_8_theory_checks_total(tmp_path, capsys):
    plan = TrainPlan("baseline", family=family_rotation(), epochs=3,
                     lr=LrSchedule(0.3), batch_size=32, hidden=(16,), seed=0)
    model = train(plan, gen_minidigits(400, seed=0)).model
    weights = tmp_path / "weights.bin"
    save_weights(model, weights)

    for name in ("texture", "rotation", "contrast"):
        doc = cmd_theory(str(weights), "minidigits:200:4", name)
        for key in ("A2", "A3", "A6"):
            assert 0.0 <= doc[key]["fraction"] <= 1.0
        matrix = np.asarray(doc["A3"]["pairwise_matrix"])
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)
        best = max(itertools.combinations(range(len(matrix)), 2),
                   key=lambda p: matrix[p])
        assert doc["A3"]["detail"]["argmax_pair"] == sorted(best)

    assert main(["theory", "--weights", str(weights),
                 "--data", "minidigits:200:4", "--family", "rotation"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    print("criterion 8 (assumption checks): ok -- all families complete, "
          "fractions bounded, vertex matrix symmetric, argmax verified")


# --------------------------------------------------------------------------
# criterion 9: training artifacts are byte-deterministic


def test_criterion_9_train_is_byte_deterministic(tmp_path):
    out = tmp_path / "run"
    config = {
        "dataset": {"kind": "minidigits", "n": 120, "seed": 0},
        "model": {"hidden": [8]},
        "family": "rotation",
        "methods": ["B", "S"],
        "lambda_grid": [1e-4, 1e-2],
        "seeds": [0, 1],
        "epochs": 2,
        "lr": {"initial": 0.3},
        "batch_size": 32,
        "output_dir": str(out),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 0
    first = (out / "metrics.csv").read_bytes()
    assert main(["train", "--config", str(config_path)]) == 0
    assert (out / "metrics.csv").read_bytes() == first
    print(f"criterion 9 (determinism): ok -- metrics.csv byte-identical "
          f"across reruns ({len(first)} bytes, "
          f"{len(first.splitlines()) - 1} rows)")
