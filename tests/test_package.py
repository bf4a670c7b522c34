"""The package's public surface: what ``from arlab import *`` exports."""

import importlib

import pytest

import arlab

# names deleted because no path of the program reached them, by owning
# module; a dotted name is an attribute of a class in that module
REMOVED = {
    "tensor": ("dft2", "idft2", "softmax", "ParamSet.names"),
    "regularizers": ("critic_objective", "CRITIC_CLIP"),
    "evaluation": ("wasserstein_invariance", "invariance_score"),
    "model": ("predict", "predict_classes"),
    "transforms": ("apply", "parse_transform"),
}


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from arlab import *", namespace)
    for name in arlab.__all__:
        assert namespace[name] is getattr(arlab, name), name


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    for name in REMOVED[module]:
        owner = importlib.import_module(f"arlab.{module}")
        *path, attr = name.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert not hasattr(owner, attr), name
        if not path:
            assert not hasattr(arlab, name), name
            assert name not in arlab.__all__, name
