"""Tour of the reverse-mode engine behind every training step.

Builds a small classifier, takes the loss of one baseline training step as
a graph node, runs one backward pass through it, and confirms a couple of
weight coordinates against central finite differences.
"""

import numpy as np

from arlab import tensor as T
from arlab.model import init, logits
from arlab.training import TrainPlan, step_loss
from arlab.transforms import family_rotation

rng = np.random.default_rng(0)

# -- 1. a 9-6-2 classifier: its parameters are the graph's leaves -----------
model = init([9, 6, 2], seed=0)
images = rng.random((5, 3, 3))
labels = np.array([0, 1, 0, 0, 1])
w = model.params["w0"]
# a baseline step is plain cross-entropy; the family only matters to the
# augmented modes
plan = TrainPlan(mode="baseline", family=family_rotation())


def loss_node():
    return step_loss(plan, model, (images, labels))


loss = loss_node()
print(f"loss value          {loss.item():.6f}")
print(f"graph               loss <- forward pass <- {len(model.params.tensors())} parameters")

# -- 2. one backward pass fills .grad on every parameter --------------------
T.backward(loss)
for name, param in model.params.items():
    print(f"dL/d{name} shape        {param.grad.shape}")

# -- 3. spot-check two coordinates with central differences -----------------
h = 1e-6
for (i, j) in [(0, 0), (8, 5)]:
    keep = w.data[i, j]
    w.data[i, j] = keep + h
    up = loss_node().item()
    w.data[i, j] = keep - h
    down = loss_node().item()
    w.data[i, j] = keep
    numeric = (up - down) / (2 * h)
    print(f"dL/dw0[{i},{j}]         analytic {w.grad[i, j]:+.8f}   "
          f"numeric {numeric:+.8f}")

# -- 4. non-finite values fail loudly instead of poisoning the run ----------
# a first-layer weight of -1e308 overflows that unit's pre-activation to
# -inf; ReLU would zero it, but the forward pass checks before the ReLU
w.data[:, 0] = -1e308
try:
    with np.errstate(over="ignore"):
        logits(model, images)
except T.NonFiniteError as exc:
    print(f"overflow raised     NonFiniteError: {exc}")
