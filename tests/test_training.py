import tracemalloc

import numpy as np
import pytest

from arlab import training
from arlab.datasets import gen_minidigits, one_hot
from arlab.errors import ConfigError, DivergenceError
from arlab.evaluation import accuracy
from arlab.model import family_logits, init, logits_array
from arlab.regularizers import ALIGN_KINDS, aux_update, init_aux
from arlab.tensor import NonFiniteError, Tensor, backward, softmax_array
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
    family_by_name,
    family_contrast,
    family_rotation,
    family_texture,
)

from oracles import composed_step_loss, numpy_cross_entropy


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
    ce_x = numpy_cross_entropy(logits_array(m, data.images), y)
    aug = apply_batch(fam.training_vertex(), data.images)
    ce_v = numpy_cross_entropy(logits_array(m, aug), y)
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
    ce_x = numpy_cross_entropy(u, y)
    ce_v = numpy_cross_entropy(v, y)
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


@pytest.mark.parametrize("factor,epoch", [(1e200, 2), (1e-200, 1)])
def test_plan_rejects_a_rate_that_overflows_or_vanishes(factor, epoch):
    # 1e200 ** 2 overflows a float at epoch 2; 1e-250 * 1e-200 is 0.0
    lr = LrSchedule(1e-250, decay_factor=factor)
    with pytest.raises(ConfigError, match=f"learning rate at epoch {epoch} "):
        plan_for("baseline", lr=lr, epochs=4)
    # the same schedule is fine while every epoch's rate is finite and positive
    plan_for("baseline", lr=lr, epochs=epoch)


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


def per_step_reference(plan, data, assemble=training._assemble):
    """Reference for vertex-mode ``train``: each step draws its rows from
    the same seeded shuffle and transforms its own batch under the vertex.
    ``assemble`` builds each step's loss, as ``training._assemble`` does."""
    widths = (data.images.shape[1] * data.images.shape[2], *plan.hidden,
              data.num_classes)
    model = init(widths, plan.seed)
    aux = (init_aux(plan.align_kind, data.num_classes, plan.seed)
           if plan.needs_aux else None)
    losses, penalties = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(plan.epochs):
            lr = plan.lr.at(epoch)
            perm = np.random.default_rng(plan.seed * 1_000_003 + epoch).permutation(len(data))
            step_losses, step_pens = [], []
            for start in range(0, len(data), plan.batch_size):
                idx = perm[start:start + plan.batch_size]
                images, labels = data.images[idx], data.labels[idx]
                try:
                    augmented = apply_batch(plan.family.training_vertex(), images)
                    if aux is not None:
                        aux_update(plan.align_kind, logits_array(model, images),
                                   logits_array(model, augmented), aux)
                    model.params.zero_grad()
                    loss, pen = assemble(plan, model, images, labels, augmented, aux)
                    backward(loss)
                except NonFiniteError as exc:
                    raise DivergenceError(
                        f"training diverged (non-finite loss) at epoch {epoch}") from exc
                for t in model.params.tensors():
                    t.data = t.data - lr * t.grad
                step_losses.append(loss.item())
                if pen is not None:
                    step_pens.append(pen)
            losses.append(float(np.mean(step_losses)))
            penalties.append(float(np.mean(step_pens)) if step_pens else 0.0)
    return training.RunHistory(losses, penalties, model)


VERTEX_CELLS = [("vanilla-aug", 0.0, None), ("aligned-vertex", 0.1, "sql2"),
                ("aligned-vertex", 0.1, "disc")]


@pytest.mark.parametrize("family", ["rotation", "texture", "contrast"])
@pytest.mark.parametrize("mode,lam,kind", VERTEX_CELLS)
def test_vertex_training_matches_per_step_reference(family, mode, lam, kind):
    # 135 rows: the whole-set copy spans three 64-row transform blocks, and
    # the last batch of each epoch is short
    data = gen_minidigits(135, seed=14)
    plan = plan_for(mode, family=family_by_name(family, 16), lam=lam,
                    align_kind=kind, epochs=3)
    got, want = train(plan, data), per_step_reference(plan, data)
    assert got.losses == want.losses
    assert got.penalties == want.penalties
    for (name, a), (_, b) in zip(got.model.params.items(), want.model.params.items()):
        assert np.array_equal(a.data, b.data), name


def test_diverging_vertex_cell_fails_like_per_step_reference():
    data = gen_minidigits(135, seed=15)
    # a sane first epoch, then a step size that overflows
    plan = plan_for("aligned-vertex", lam=0.1, align_kind="sql2", epochs=3,
                    lr=LrSchedule(0.5, decay_factor=1e100))
    with pytest.raises(DivergenceError) as got:
        train(plan, data)
    with pytest.raises(DivergenceError) as want:
        per_step_reference(plan, data)
    assert str(got.value) == str(want.value)
    assert "epoch 0" not in str(got.value)


def test_diverging_cell_fails_like_the_composed_step():
    data = gen_minidigits(135, seed=15)
    plan = plan_for("aligned-vertex", lam=0.1, align_kind="sql2", epochs=3,
                    lr=LrSchedule(0.5, decay_factor=1e100))
    with pytest.raises(DivergenceError) as got:
        train(plan, data)
    with pytest.raises(DivergenceError) as want:
        per_step_reference(plan, data, composed_step_loss)
    assert str(got.value) == str(want.value)
    assert "epoch 0" not in str(got.value)


STEP_CELLS = [("baseline", 0.0, None), ("vanilla-aug", 0.0, None),
              ("vanilla-worst", 0.0, None), ("aligned-vertex", 0.0, "sql2"),
              *[(mode, 0.1, kind) for mode in training.ALIGNED_MODES for kind in ALIGN_KINDS]]


def sgd_steps(plan, data, assemble, batch_size=16):
    """One epoch of SGD in row order, each loss built by ``assemble``.

    Returns every step's loss value, penalty value and parameter gradients.
    """
    model = init((256, 12, 10), plan.seed)
    aux = init_aux(plan.align_kind, 10, plan.seed) if plan.needs_aux else None
    vertex = training._vertex_copy(plan, data.images)
    steps = []
    for start in range(0, len(data), batch_size):
        rows = np.arange(start, min(start + batch_size, len(data)))
        images, labels = data.images[rows], data.labels[rows]
        augmented = training._augmented_copy(plan, model, images, labels,
                                              None if vertex is None else vertex[rows])
        if aux is not None:
            aux_update(plan.align_kind, logits_array(model, images),
                       logits_array(model, augmented), aux)
        model.params.zero_grad()
        loss, pen = assemble(plan, model, images, labels, augmented, aux)
        backward(loss)
        steps.append((loss.item(), pen, [t.grad.copy() for t in model.params.tensors()]))
        for t in model.params.tensors():
            t.data = t.data - plan.lr.at(0) * t.grad
    return steps


@pytest.mark.parametrize("family", ["rotation", "texture", "contrast"])
@pytest.mark.parametrize("mode,lam,kind", STEP_CELLS)
def test_one_node_step_matches_the_composed_step(family, mode, lam, kind):
    data = gen_minidigits(40, seed=18)
    plan = plan_for(mode, family=family_by_name(family, 16), lam=lam, align_kind=kind)
    got = sgd_steps(plan, data, training._assemble)
    want = sgd_steps(plan, data, composed_step_loss)
    assert len(got) == 3
    for (loss, pen, grads), (loss_ref, pen_ref, grads_ref) in zip(got, want):
        assert loss == loss_ref
        assert pen == pen_ref
        for g, g_ref in zip(grads, grads_ref):
            assert np.array_equal(g, g_ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("assemble", [training._assemble, composed_step_loss])
def test_non_finite_cross_entropy_fails_before_the_penalty(assemble):
    data = small_data(8, seed=19)
    images = data.images.copy()
    images[0] = 0.0  # zero logits: cosine alignment is undefined on this row
    m = init([256, 8, 10], seed=19)
    plan = plan_for("aligned-vertex", lam=0.1, align_kind="cos")
    augmented = training._vertex_copy(plan, images)
    # one hidden unit drives logits 0 and 1 toward +-1e308: finite, but the
    # log-softmax reaches -inf where the two meet, so the cross-entropy is NaN
    w0, b0 = m.params["w0"].data, m.params["b0"].data
    hidden = np.maximum(np.concatenate([images, augmented]).reshape(16, -1) @ w0 + b0, 0.0)
    unit = int(np.argmax(hidden.max(axis=0)))
    c = 1e308 / hidden[:, unit].max()
    m.params["w1"].data[unit, :2] = [c, -c]
    with pytest.raises(NonFiniteError):
        assemble(plan, m, images, data.labels, augmented, None)


@pytest.mark.parametrize("mode,lam,kind,nodes", [
    ("baseline", 0.0, None, 2), ("vanilla-worst", 0.0, None, 3),
    ("aligned-vertex", 0.1, "sql2", 4), ("aligned-worst", 0.1, "disc", 4)])
def test_a_step_is_one_node_per_forward_pass_penalty_and_loss(mode, lam, kind, nodes,
                                                            monkeypatch):
    data = small_data(8, seed=20)
    m = init([256, 8, 10], seed=20)
    plan = plan_for(mode, lam=lam, align_kind=kind)
    aux = init_aux(kind, 10, seed=20) if plan.needs_aux else None
    made = []
    original = Tensor.__init__

    def counting(node, *args, **kwargs):
        made.append(node)
        original(node, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    loss = step_loss(plan, m, (data.images, data.labels), aux)
    assert len(made) == nodes
    assert made[-1] is loss


@pytest.mark.parametrize("mode,lam,kind", VERTEX_CELLS)
def test_vertex_training_transforms_the_set_once(mode, lam, kind, calls_to):
    data = small_data(100, seed=16)
    plan = plan_for(mode, lam=lam, align_kind=kind, epochs=3)
    calls = calls_to("transforms.apply_batch")
    train(plan, data)
    assert len(calls) == 1
    member, images = calls[0]
    assert member == plan.family.training_vertex()
    assert np.array_equal(images, data.images)


@pytest.mark.parametrize("family", ["rotation", "texture", "contrast"])
def test_vertex_training_holds_at_most_one_copy_of_the_set(family):
    data = gen_minidigits(2000, seed=17)
    plan = plan_for("aligned-vertex", family=family_by_name(family, 16), lam=0.1,
                    align_kind="sql2", epochs=1)
    train(plan, data.subset(range(40)))  # fills the gather and DFT caches
    tracemalloc.start()
    try:
        train(plan, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the slack covers the model, one step's graph and apply_batch's block
    # temporaries (1.4 MB for the texture filter); a second copy of the
    # 4.1 MB set, or one per family member, does not fit in it
    assert peak <= data.images.nbytes + 2 * 2**20


def test_default_grid_and_seeds():
    grid = default_lambda_grid()
    assert len(grid) == 8
    assert grid[0] == pytest.approx(1e-7)
    assert grid[-1] == pytest.approx(1.0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])
    assert DEFAULT_SEEDS == (0, 1, 2)
