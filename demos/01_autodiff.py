"""Tour of the closed-form training step.

An aligned training step is one formula: the mean cross-entropy of a batch
and of its augmented copy, plus lambda times the squared-l2 distance
between their logits.  This builds a small classifier, takes one step's
loss and its gradient with respect to each batch's logits, carries those
into the weights with one ``tensor.backward`` call, and confirms a couple
of weight coordinates against central finite differences.
"""

import numpy as np

from arlab import tensor as T
from arlab.model import init, logits
from arlab.training import TrainPlan, step_loss
from arlab.transforms import family_rotation

rng = np.random.default_rng(0)

# -- 1. a 16-6-2 classifier and one aligned step's loss ----------------------
model = init([16, 6, 2], seed=0)
images = rng.random((5, 4, 4))
labels = np.array([0, 1, 0, 0, 1])
w = model.layers[0][0]
# the copy is each image under the family's training vertex, a rotation
plan = TrainPlan(mode="aligned-vertex", family=family_rotation(), lam=0.1,
                 align_kind="sql2")


def step():
    return step_loss(plan, model, (images, labels))


loss = step()
print(f"loss value          {loss.value:.6f}")
print(f"penalty value       {loss.penalty:.6f}   (weighted by lambda = {plan.lam})")

# -- 2. the loss's gradient with respect to each batch's logits --------------
# the cross-entropy term (softmax - y) / 2b, plus the penalty's
# 2 lambda (u - v) / b for the originals u and its negative for the copies v
(u_pass, g_u), (v_pass, g_v) = loss.passes
u, v = u_pass.logits, v_pass.logits
y = np.eye(2)[labels]
b = len(labels)
by_hand = [(T.softmax_array(u) - y) / (2 * b) + 2 * plan.lam * (u - v) / b,
           (T.softmax_array(v) - y) / (2 * b) - 2 * plan.lam * (u - v) / b]
for name, g, want in zip(("u", "v"), (g_u, g_v), by_hand):
    print(f"dL/d{name} shape {g.shape}   largest gap to the formula by hand "
          f"{np.abs(g - want).max():.1e}")

# -- 3. one backward call fills .grad on every parameter ---------------------
T.backward(loss.passes)
for i, layer in enumerate(model.layers):
    for name, param in zip((f"w{i}", f"b{i}"), layer):
        print(f"dL/d{name} shape        {param.grad.shape}")

# -- 4. spot-check two coordinates with central differences ------------------
h = 1e-6
for (i, j) in [(0, 0), (15, 5)]:
    keep = w.data[i, j]
    w.data[i, j] = keep + h
    up = step().value
    w.data[i, j] = keep - h
    down = step().value
    w.data[i, j] = keep
    numeric = (up - down) / (2 * h)
    print(f"{f'dL/dw0[{i},{j}]':<20}analytic {w.grad[i, j]:+.8f}   "
          f"numeric {numeric:+.8f}")

# -- 5. non-finite values fail loudly instead of poisoning the run -----------
# a first-layer weight of -1e308 overflows that unit's pre-activation to
# -inf; ReLU would zero it, but the forward pass checks before the ReLU
w.data[:, 0] = -1e308
try:
    with np.errstate(over="ignore"):
        logits(model, images)
except T.NonFiniteError as exc:
    print(f"overflow raised     NonFiniteError: {exc}")
