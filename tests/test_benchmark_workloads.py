"""The benchmark's workloads still run against the package, at toy sizes.

``benchmarks/workloads.py`` drives ``arlab`` through its public names:
the training modes, ``evaluate``'s four positional arguments,
``cmd_eval(seed=)``, the ``cli.train`` and ``cli.evaluate`` bindings it
rebinds, and ``LabeledImages.subset``.  A change to any of them would
otherwise surface only when the benchmark runs; here each workload sets
up and runs one study on a few samples.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from arlab import cli

WORKLOADS_PATH = Path(__file__).parent.parent / "benchmarks" / "workloads.py"
MODULE_NAME = "arlab_bench_workloads"

# sizes small enough that one study of each workload takes well under a second
TOY_SIZES = {"HEADLINE_N": 100, "HEADLINE_EPOCHS": 2, "AUDIT_N": 40,
             "CLI_N": 100, "CLI_EPOCHS": 1, "THEORY_N": 60, "EVAL_N": 60}

FAMILIES = ("texture", "rotation", "contrast")
DIGESTS = {
    "headline": {"metrics.csv", "theory.json"},
    "cli-mixed": {"metrics.csv", "theory.json"},
    "theory-audit": {f"{kind}-{name}.json" for kind in ("theory", "eval")
                     for name in FAMILIES},
}


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(MODULE_NAME, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, MODULE_NAME, module)
    spec.loader.exec_module(module)
    for name, value in TOY_SIZES.items():
        monkeypatch.setattr(module, name, value)
    # CliMixed rebinds both to timers; recording them here restores them after
    monkeypatch.setattr(cli, "train", cli.train)
    monkeypatch.setattr(cli, "evaluate", cli.evaluate)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_one_study_of_each_workload_is_valid(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    result = workload.study()
    assert result.invalid == []
    assert set(result.digests) == DIGESTS[name]
    assert result.attempted > 0
    assert result.wall_s > 0
