"""The benchmark's traced run wraps public functions by name; keep them."""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_every_traced_layer_still_exists():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [
        f"{layer}: {module}.{name}"
        for layer, targets in child.LAYERS.items()
        for module, name in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
