"""Numerical checks of the assumptions behind the training bounds.

The alignment bounds only bind when a few structural conditions hold on
the data/model pair: each transformed embedding stays closest to its own
source (efficiency), the designated vertex pair is the farthest apart in
Wasserstein distance, and prediction flips are matched by confidence
drops.  None of these are guaranteed for a real network, so the package
measures the satisfied fraction of each and reports witnesses for the
failures instead of assuming them.
"""

import json

from arlab.datasets import gen_minidigits
from arlab.model import family_logits
from arlab.theory import bound_terms, run_all_checks
from arlab.training import LrSchedule, TrainPlan, train
from arlab.transforms import family_rotation

family = family_rotation()
data = gen_minidigits(500, seed=2)
plan = TrainPlan("aligned-vertex", family=family, lam=1e-3,
                 align_kind="sql2", epochs=10, lr=LrSchedule(0.5),
                 batch_size=32, hidden=(32,), seed=0)
model = train(plan, data).model

doc = run_all_checks(model, data, family)

print(f"checked on {doc['samples']} samples, family {doc['family']!r}")
for key in ("A2", "A3", "A6"):
    frac = doc[key]["fraction"]
    nwit = len(doc[key]["witnesses"])
    print(f"  {key}  satisfied fraction {frac:5.3f}   "
          f"witnesses kept {nwit}")
print(f"  A5  {doc['A5']['note']}")

# the matching identity: exact W1 vs the per-pair L1 sum, per member
print("\nmember            W1        sum(L1)   gap")
for entry in doc["matching_identity"]:
    print(f"  {entry['transform']:<14}  {entry['w1']:8.2f}  "
          f"{entry['l1_sum']:8.2f}  {entry['gap']:8.2f}")

# computable pieces of the two risk bounds (the capacity term is not)
for mode in ("vertex", "worst-case"):
    b = doc["bounds"][mode]
    print(f"\n{mode} bound terms: empirical risk {b['empirical_risk']:.3f}, "
          f"alignment mean {b['alignment_mean']:.3f}")
    print(f"  note: {b['phi_note']}")

# every report serializes, so runs can be archived and diffed
blob = json.dumps(doc, sort_keys=True)
print(f"\nfull report serializes to {len(blob)} bytes of JSON")

# bound_terms is also callable directly with a separate evaluation set;
# like every checker it reads (t, n, k) logit cubes, one per data set
holdout = gen_minidigits(500, seed=12)
direct = bound_terms(family_logits(model, data.images, family), data.labels,
                     family_logits(model, holdout.images, family), holdout.labels,
                     family, "vertex")
print(f"held-out vertex-risk average {direct.vertex_risk_average:.3f} "
      f"vs robust error {direct.robust_error:.3f}")
