"""Design rules of the alcoves package, checked on its source.

- No `assert` statement: `python -O` strips them, so library invariants
  must be explicit exceptions.
- No module reaches into another module's private names, neither by
  `from .m import _x` nor by `m._x` on an imported module.
"""

import ast
from pathlib import Path

import pytest

import alcoves

SRC = Path(alcoves.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    here = path.stem
    modules = set()  # local names bound to other alcoves modules
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] \
                == "alcoves"
            if not internal:
                continue
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                if source in ("", "alcoves") and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif source != here and _private(alias.name):
                    out.append(f"line {node.lineno}: imports "
                               f"{source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "alcoves" and len(parts) == 2:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.value.id != here):
            out.append(f"line {node.lineno}: uses "
                       f"{node.value.id}.{node.attr}")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_module_layering(module):
    assert _violations(SRC / f"{module}.py") == []
