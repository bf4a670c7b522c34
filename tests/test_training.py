import numpy as np
import pytest

from arlab.datasets import gen_minidigits, one_hot
from arlab.errors import ConfigError, DivergenceError
from arlab.evaluation import accuracy
from arlab.model import family_logits, init, logits_array
from arlab.tensor import Tensor, softmax_array, softmax_cross_entropy
from arlab.training import (
    DEFAULT_SEEDS,
    LrSchedule,
    TrainPlan,
    default_lambda_grid,
    select_worst,
    step_loss,
    train,
)
from arlab.transforms import (
    Identity,
    Rotate,
    TransformFamily,
    apply_batch,
    family_contrast,
    family_rotation,
    family_texture,
)


def plan_for(mode, **kw):
    defaults = dict(mode=mode, family=family_rotation(), epochs=2,
                    lr=LrSchedule(0.5), batch_size=32, seed=0, hidden=(16,))
    defaults.update(kw)
    return TrainPlan(**defaults)


def small_data(n=64, seed=0):
    return gen_minidigits(n, seed=seed)


def singleton_family():
    return TransformFamily("only-id", (Identity(),), 0, 0)


def per_sample_ce(model, image, label, k=10):
    z = logits_array(model, image[None])
    return -np.log(softmax_array(z)[0, label])


def test_select_worst_singleton_family():
    data = small_data(8)
    m = init([256, 8, 10], seed=0)
    picks = select_worst(family_logits(m, data.images, singleton_family()), data.labels)
    assert np.array_equal(picks, np.zeros(8, dtype=int))


def test_select_worst_constant_model_breaks_ties_low():
    data = small_data(8)
    m = init([256, 8, 10], seed=0)
    for t in m.params.tensors():
        t.data = np.zeros_like(t.data)
    picks = select_worst(family_logits(m, data.images, family_rotation()), data.labels)
    assert np.array_equal(picks, np.zeros(8, dtype=int))


@pytest.mark.parametrize("family", [family_rotation(), family_texture(16), family_contrast()])
def test_select_worst_matches_exhaustive_ce_argmax(family):
    data = small_data(8, seed=1)
    m = init([256, 12, 10], seed=2)
    picks = select_worst(family_logits(m, data.images, family), data.labels)
    for i in range(8):
        ces = [per_sample_ce(m, apply_batch(t, data.images[i:i + 1])[0], data.labels[i])
               for t in family]
        assert picks[i] == int(np.argmax(ces))
        assert ces[picks[i]] >= ces[0]
    assert picks.min() >= 0 and picks.max() < len(family)


def test_step_loss_baseline_matches_hand_ce():
    data = small_data(2, seed=3)
    m = init([256, 8, 10], seed=3)
    loss = step_loss(plan_for("baseline"), m, (data.images, data.labels))
    expect = np.mean([per_sample_ce(m, data.images[i], data.labels[i])
                      for i in range(2)])
    assert loss.item() == pytest.approx(expect, rel=1e-12)


def test_step_loss_zero_lambda_vertex_equals_vanilla():
    data = small_data(16, seed=4)
    m = init([256, 8, 10], seed=4)
    batch = (data.images, data.labels)
    vanilla = step_loss(plan_for("vanilla-aug"), m, batch)
    aligned = step_loss(plan_for("aligned-vertex", lam=0.0, align_kind="sql2"), m, batch)
    assert aligned.item() == vanilla.item()


def test_step_loss_vanilla_aug_uses_training_vertex():
    data = small_data(8, seed=5)
    m = init([256, 8, 10], seed=5)
    fam = family_rotation()
    loss = step_loss(plan_for("vanilla-aug"), m, (data.images, data.labels))
    y = one_hot(data.labels, 10)
    ce_x = softmax_cross_entropy(Tensor(logits_array(m, data.images)), y).item()
    aug = apply_batch(fam.training_vertex(), data.images)
    ce_v = softmax_cross_entropy(Tensor(logits_array(m, aug)), y).item()
    assert loss.item() == pytest.approx(0.5 * (ce_x + ce_v), rel=1e-12)


def test_step_loss_aligned_worst_independent_recomputation():
    data = small_data(12, seed=6)
    m = init([256, 10, 10], seed=6)
    lam = 0.37
    plan = plan_for("aligned-worst", lam=lam, align_kind="sql2")
    loss = step_loss(plan, m, (data.images, data.labels))

    picks = select_worst(family_logits(m, data.images, plan.family), data.labels)
    worst = np.concatenate([apply_batch(plan.family.members[j], data.images[i:i + 1])
                            for i, j in enumerate(picks)])
    y = one_hot(data.labels, 10)
    u = logits_array(m, data.images)
    v = logits_array(m, worst)
    ce_x = softmax_cross_entropy(Tensor(u), y).item()
    ce_v = softmax_cross_entropy(Tensor(v), y).item()
    pen = np.mean(((u - v) ** 2).sum(axis=1))
    expect = 0.5 * (ce_x + ce_v) + lam * pen
    assert loss.item() == pytest.approx(expect, abs=1e-10)


def test_step_loss_leaves_labels_untouched():
    data = small_data(8, seed=7)
    m = init([256, 8, 10], seed=7)
    labels_before = data.labels.copy()
    step_loss(plan_for("aligned-worst", lam=0.1, align_kind="l1"), m,
              (data.images, data.labels))
    assert np.array_equal(data.labels, labels_before)


def test_plan_validation():
    with pytest.raises(ConfigError):
        plan_for("finetune")
    with pytest.raises(ConfigError):
        plan_for("baseline", lam=-0.1)
    with pytest.raises(ConfigError):
        plan_for("aligned-vertex", lam=0.5)  # missing kind
    with pytest.raises(ConfigError):
        plan_for("baseline", epochs=0)
    with pytest.raises(ConfigError):
        plan_for("aligned-vertex", lam=0.5, align_kind="huber")
    with pytest.raises(ConfigError):
        LrSchedule(0.0)


def test_lr_schedule_step_decay():
    sched = LrSchedule(1.0, decay_factor=0.5, decay_every=2)
    assert [sched.at(e) for e in range(5)] == [1.0, 1.0, 0.5, 0.5, 0.25]


def test_train_deterministic():
    data = small_data(48, seed=8)
    plan = plan_for("aligned-vertex", lam=0.01, align_kind="l1", epochs=2)
    h1, h2 = train(plan, data), train(plan, data)
    assert h1.losses == h2.losses
    for (_, a), (_, b) in zip(h1.model.params.items(), h2.model.params.items()):
        assert np.array_equal(a.data, b.data)


def test_train_history_lengths_match_epochs():
    data = small_data(32, seed=9)
    hist = train(plan_for("vanilla-worst", epochs=3), data)
    assert len(hist.losses) == 3
    assert len(hist.penalties) == 3
    assert hist.penalties == [0.0, 0.0, 0.0]


def test_train_baseline_fits_minidigits():
    data = gen_minidigits(500, seed=0)
    plan = plan_for("baseline", epochs=20, batch_size=64, hidden=(64,))
    hist = train(plan, data)
    assert accuracy(logits_array(hist.model, data.images), data.labels) > 0.9


def test_train_zero_lambda_trajectories_identical():
    data = small_data(48, seed=10)
    vanilla = train(plan_for("vanilla-aug", epochs=2), data)
    aligned = train(plan_for("aligned-vertex", lam=0.0, align_kind="sql2", epochs=2), data)
    assert vanilla.losses == aligned.losses


# the finite checks report the divergence; numpy prints nothing
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_diverges_with_absurd_lr():
    data = small_data(32, seed=11)
    plan = plan_for("baseline", lr=LrSchedule(1e155), epochs=3)
    with pytest.raises(DivergenceError, match=r"epoch \d"):
        train(plan, data)


def test_train_huge_lambda_drives_penalty_down():
    data = small_data(64, seed=12)
    plan = plan_for("aligned-vertex", lam=1000.0, align_kind="sql2",
                    epochs=5, lr=LrSchedule(0.05))
    hist = train(plan, data)
    assert hist.penalties[-1] < hist.penalties[0]


def test_train_aux_kinds_run_and_stay_clipped():
    data = small_data(32, seed=13)
    plan = plan_for("aligned-vertex", lam=0.1, align_kind="disc", epochs=2)
    hist = train(plan, data)
    assert len(hist.losses) == 2
    assert np.all(np.isfinite(hist.model.params["w0"].data))


def test_default_grid_and_seeds():
    grid = default_lambda_grid()
    assert len(grid) == 8
    assert grid[0] == pytest.approx(1e-7)
    assert grid[-1] == pytest.approx(1.0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])
    assert DEFAULT_SEEDS == (0, 1, 2)
