import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def apply_batch_calls(monkeypatch):
    """The members passed to apply_batch, through every package binding."""
    from arlab import transforms

    calls = []
    original = transforms.apply_batch

    def counting(t, images):
        calls.append(t)
        return original(t, images)

    for name, module in list(sys.modules.items()):
        if name.startswith("arlab") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls
