"""The package's public surface: what ``from arlab import *`` exports."""

import importlib

import pytest

import arlab

# names deleted because no path of the program reached them, by owning module
REMOVED = {
    "tensor": ("dft2", "idft2", "softmax"),
    "regularizers": ("critic_objective", "CRITIC_CLIP"),
    "evaluation": ("wasserstein_invariance",),
    "model": ("predict",),
    "transforms": ("apply", "parse_transform"),
}


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from arlab import *", namespace)
    for name in arlab.__all__:
        assert namespace[name] is getattr(arlab, name), name


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    owner = importlib.import_module(f"arlab.{module}")
    for name in REMOVED[module]:
        assert not hasattr(owner, name), name
        assert not hasattr(arlab, name), name
        assert name not in arlab.__all__, name
