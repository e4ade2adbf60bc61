"""Design rules of the alcoves package, checked on its source.

- No `assert` statement: `python -O` strips them, so library invariants
  must be explicit exceptions.
- No module reaches into another module's private names, neither by
  `from .m import _x` nor by `m._x` on an imported module.
- No module imports `cli`: the command-line front end sits on top, and
  the verification harness it runs is the `verify` module.
- Every public top-level function is used by library code outside its
  own definition and `__init__` (a `Name` or `Attribute` node resolved
  to its module, not a docstring), or is kept in `KEEP` for the reason
  given there: a public name that only re-spells others is written out
  where it is used.
"""

import ast
from pathlib import Path

import pytest

import alcoves

SRC = Path(alcoves.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


# public functions no library code calls, each with why it stays
KEEP = {
    "alcove.eval_affine_root":
        "the Fraction reference for the integer root values",
    "rootdata.reflect":
        "the Fraction reflection the integer Weyl matrices are checked on",
    "weierstrass.eisenstein_truncated":
        "the literal lattice sum the shell tables are checked against",
    "centralizer.gauge_centralizer_circle":
        "the paper's centralizer of a constant gauge field on the circle",
    "ratmat.matmul":
        "`perfbench/spans.py` counts it through `getattr`",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _internal(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "alcoves"


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """(modules, origin): each local name bound to an alcoves module, and
    each other name imported from one, mapped to that module's name."""
    modules, origin = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _internal(node):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                if source in ("", "alcoves") and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    origin[alias.asname or alias.name] = source
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "alcoves" and len(parts) == 2:
                    modules[alias.asname or alias.name] = parts[1]
    return modules, origin


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    here = path.stem
    modules, _ = _imports(tree)  # local names bound to alcoves modules
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.ImportFrom) and _internal(node):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                if source != here and _private(alias.name):
                    out.append(f"line {node.lineno}: imports "
                               f"{source}.{alias.name}")
                if "cli" in (source, alias.name) and here != "cli":
                    out.append(f"line {node.lineno}: imports cli")
        elif isinstance(node, ast.Import) and here != "cli":
            if any(a.name == "alcoves.cli" for a in node.names):
                out.append(f"line {node.lineno}: imports cli")
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


def _unused_public_functions() -> list[str]:
    """Each public top-level function of the package, as "module.name",
    that nothing outside its own definition and `__init__` refers to.  A
    reference is resolved to the module it names: `m.f` counts only when
    m is bound to an alcoves module, and a bare `f` counts for the module
    it was imported from, or else for its own module."""
    trees = {m: ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8"))
             for m in MODULES if m != "__init__"}
    public, used = [], set()
    for module, tree in trees.items():
        own = {}  # node -> the name of the top-level function holding it
        modules, origin = _imports(tree)
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not top.name.startswith("_"):
                    public.append((module, top.name))
                own.update((node, top.name) for node in ast.walk(top))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                ref = (origin.get(node.id, module), node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                ref = (modules[node.value.id], node.attr)
            else:
                continue
            if ref != (module, own.get(node)):
                used.add(ref)
    return sorted(f"{m}.{n}" for m, n in public if (m, n) not in used)


def test_public_functions_are_used_or_kept():
    assert _unused_public_functions() == sorted(KEEP)
