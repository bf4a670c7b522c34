"""What the invariance score actually measures.

For each sample the test embeds every transformed copy, then asks: among
the nearest neighbors of the original's embedding (searched over all
copies of all same-class samples), what fraction are copies of the same
sample?  With t family members the score generically lives in [1/t, 1]:
an untrained network sits near the floor because only the identity copy
lands at distance zero, while an invariance-trained one pushes all t
copies together.
"""

import numpy as np

from arlab.datasets import gen_minidigits
from arlab.evaluation import evaluate, invariance_per_class
from arlab.model import family_logits, init
from arlab.training import LrSchedule, TrainPlan, train
from arlab.transforms import family_rotation

data = gen_minidigits(600, seed=1)
family = family_rotation()
t = len(family)
print(f"family size t = {t}, so scores live in [{1 / t:.2f}, 1.00]")

# -- 1. a random network: pairs are only as close as chance allows ----------
random_model = init([data.images[0].size, 32, 10], seed=9)
report = evaluate(random_model, data, family, seed=0)
print(f"random network      invariance {report.invariance:.3f}")

# -- 2. trained with alignment: copies collapse toward each other -----------
plan = TrainPlan("aligned-vertex", family=family, lam=1e-2,
                 align_kind="sql2", epochs=20, lr=LrSchedule(0.5),
                 batch_size=32, hidden=(32,), seed=0)
aligned = train(plan, data).model
report = evaluate(aligned, data, family, seed=0)
print(f"aligned network     invariance {report.invariance:.3f}")

# -- 3. the score decomposes per class --------------------------------------
# every metric reads the (t, n, k) cube of logits under each family member
cube = family_logits(aligned, data.images, family)
per_class = invariance_per_class(cube, data.labels, data.num_classes)
worst = int(np.argmin(per_class))
best = int(np.argmax(per_class))
print(f"per-class range     digit {worst} at {per_class[worst]:.3f} "
      f"to digit {best} at {per_class[best]:.3f}")
