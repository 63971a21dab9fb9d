"""Every ``src/repro`` module is reached from a command, the benchmark or
the paper suite, or is on an explicit, shrinking allowlist.

The walk follows ``import`` statements (with ``ast``, wherever they sit
in a file) from the roots:

* every ``repro`` module named ``__main__`` or with an
  ``if __name__ == "__main__"`` guard (the ``python -m`` commands);
* every ``bench/*.py`` and ``benchmarks/*.py`` file.

Importing a module also runs its parent packages' ``__init__``, so those
are reached too.  A module on the allowlist is not a root: it is there
because it is on its way out.

The unreached set must *equal* the allowlist.  A new module that only
tests reach fails the test; so does deleting an allowlisted module
without taking it off the list, so the list can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: modules no root reaches, each with the ROADMAP item that decides it
UNREACHED = {
    # the retired benchmark CLI; item 1(a) deletes it
    "repro.bench",
    # a roofline helper beside repro.eval.machines; item 4 deletes it
    # in the benchmark change (item 1(c)) that edits bench/layers.py
    "repro.baselines",
    "repro.baselines.devices",
    "repro.baselines.roofline",
    # INT8 calibration no compiler pass calls; deleted with baselines
    "repro.quantization",
    # the KNYFE-like kernel DSL (paper Section 5); item 8's claims table
    # decides it
    "repro.compiler.knyfe",
    # LayerNorm / softmax / reduce-add kernels (paper Section 7); item
    # 8's claims table decides them
    "repro.kernels.vector_ops",
}


def _module_files() -> Dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _is_command(name: str, tree: ast.Module) -> bool:
    if name.endswith(".__main__"):
        return True
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "__name__"):
            return True
    return False


def _imports(tree: ast.Module, modules: Dict[str, Path]) -> Set[str]:
    """The ``repro`` modules a file imports, with their parent packages."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    out = set()
    for name in found:
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules:
                out.add(prefix)
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def reached_modules() -> Set[str]:
    modules = _module_files()
    trees = {name: _parse(path) for name, path in modules.items()}
    frontier = {name for name, tree in trees.items()
                if name not in UNREACHED and _is_command(name, tree)}
    for folder in ("bench", "benchmarks"):
        for path in (ROOT / folder).glob("*.py"):
            frontier |= _imports(_parse(path), modules)
    reached: Set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        parts = name.split(".")
        frontier.update(".".join(parts[:i]) for i in range(1, len(parts)))
        frontier |= _imports(trees[name], modules) - reached
    return reached


def test_unreached_modules_are_exactly_the_allowlist():
    unreached = set(_module_files()) - reached_modules()
    assert sorted(unreached) == sorted(UNREACHED)

