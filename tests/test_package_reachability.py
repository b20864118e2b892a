"""Every library module must be reached by something other than its tests.

A module counts as reached when its dotted path, or a name from its
``__all__``, appears in a ``.py`` file under ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/``.  Files under ``tests/``, package
``__init__`` files (which only re-export) and the module itself do not
count, so a module that only its package and its own tests import fails
here and should be deleted rather than kept alive by its tests.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USER_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _modules() -> list[Path]:
    return sorted(
        path
        for path in PACKAGE.rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    )


def _dotted(path: Path) -> str:
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _exported_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _user_sources() -> dict[Path, str]:
    return {
        path: path.read_text()
        for directory in USER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path.name != "__init__.py"
    }


USER_SOURCES = _user_sources()


@pytest.mark.parametrize("module", _modules(), ids=_dotted)
def test_module_is_reached(module: Path):
    dotted = _dotted(module)
    names = _exported_names(module)
    pattern = re.compile(
        "|".join([re.escape(dotted)] + [r"\b%s\b" % re.escape(name) for name in names])
    )
    users = [
        path
        for path, text in USER_SOURCES.items()
        if path != module and pattern.search(text)
    ]
    assert users, f"{dotted} is reached only by its package __init__ and tests"
