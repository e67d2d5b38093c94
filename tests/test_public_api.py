"""Every name ``enttime`` exports is used by the package, the benchmark or the tools."""

import ast
import importlib.util
from pathlib import Path

import enttime

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def _names_used(path: Path) -> set[str]:
    """Every loaded ``Name`` and every ``Attribute`` name in one source file."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return {name for targets in child.LAYERS.values() for _, name in targets}


def test_every_export_is_used():
    sources = [p for p in (ROOT / "src" / "enttime").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    used = set().union(*(_names_used(p) for p in sources)) | _traced_names()
    assert sorted(set(enttime.__all__) - used) == []
