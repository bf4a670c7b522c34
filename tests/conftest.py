import importlib
import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def calls_to(monkeypatch):
    """Record the calls to an ``arlab`` function, through every module binding.

    ``calls_to("transforms.apply_batch")`` replaces each binding of that
    function inside the package with a recording wrapper and returns the
    list that receives the positional arguments of every call.
    """

    def record(qualname: str) -> list:
        module_name, attr_name = qualname.rsplit(".", 1)
        original = getattr(importlib.import_module(f"arlab.{module_name}"), attr_name)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("arlab") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, recording)
        return calls

    return record
