"""The names the traced benchmark wraps exist, and a training step reaches them.

``benchmarks/tracer.py`` finds what it times by name.  A rename inside
``arlab`` would leave a layer without self time, which only a traced
benchmark run would notice; these tests notice it in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from arlab import tensor, transforms
from arlab.datasets import gen_minidigits
from arlab.regularizers import ALIGN_KINDS
from arlab.training import LrSchedule, TrainPlan, train
from arlab.transforms import family_by_name

TRACER_PATH = Path(__file__).parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("arlab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module", sorted(tracer.TRACED))
def test_every_traced_function_exists(module):
    owner = importlib.import_module(f"arlab.{module}")
    for name in tracer.TRACED[module]:
        assert callable(getattr(owner, name, None)), f"arlab.{module}.{name}"


def test_every_coverage_layer_names_a_traced_function():
    kinds = {
        "regularizers.penalty": set(ALIGN_KINDS),
        "transforms.apply_batch": set(tracer.TRANSFORM_KINDS.values()),
    }
    for layers in tracer.COVERAGE.values():
        for layer in layers:
            module, name, *kind = layer.split(".")
            assert name in tracer.TRACED[module], layer
            if kind:
                assert kind[0] in kinds[f"{module}.{name}"], layer
    for class_name in tracer.TRANSFORM_KINDS:
        assert isinstance(getattr(transforms, class_name), type), class_name


def test_aligned_training_step_reaches_the_traced_layers(calls_to):
    forward = calls_to("model.logits")
    penalties = calls_to("regularizers.penalty")
    backward = calls_to("tensor.backward")
    data = gen_minidigits(20, seed=0)
    # one batch holds the whole split, so one epoch is one step
    plan = TrainPlan(mode="aligned-vertex", family=family_by_name("rotation"),
                     lam=0.1, align_kind="sql2", epochs=1, lr=LrSchedule(0.01),
                     batch_size=20, seed=0, hidden=(8,))
    history = train(plan, data)
    assert np.isfinite(history.losses[0])
    assert len(forward) == 2
    assert [args[0] for args in penalties] == ["sql2"]
    assert len(backward) == 1


def test_disc_step_reaches_the_traced_discriminator_layers(calls_to):
    updates = calls_to("regularizers.aux_update")
    penalties = calls_to("regularizers.penalty")
    data = gen_minidigits(20, seed=0)
    plan = TrainPlan(mode="aligned-vertex", family=family_by_name("rotation"),
                     lam=0.1, align_kind="disc", epochs=1, lr=LrSchedule(0.01),
                     batch_size=20, seed=0, hidden=(8,))
    history = train(plan, data)
    assert np.isfinite(history.losses[0])
    assert len(updates) == 1
    assert [args[0] for args in penalties] == ["disc"]


@pytest.mark.parametrize("mode,lam,kind", [("baseline", 0.0, None),
                                           ("aligned-worst", 0.1, "disc")])
def test_a_train_call_makes_one_tensor_per_parameter(mode, lam, kind, monkeypatch):
    # the traced benchmark counts Tensor constructions as tensor.nodes; it
    # stays the cells' parameter count only while no step builds a Tensor
    made = []
    original = tensor.Tensor.__init__

    def counting(node, *args, **kwargs):
        made.append(node)
        original(node, *args, **kwargs)

    monkeypatch.setattr(tensor.Tensor, "__init__", counting)
    data = gen_minidigits(40, seed=0)
    plan = TrainPlan(mode=mode, family=family_by_name("rotation"), lam=lam,
                     align_kind=kind, epochs=2, lr=LrSchedule(0.01),
                     batch_size=16, seed=0, hidden=(8, 6))
    history = train(plan, data)
    assert history.model.num_layers == 3
    assert made == [t for layer in history.model.layers for t in layer]
