"""Every ``src/repro`` module is reached from a command, the benchmark or
the paper suite, and every knob is set by one, or is on an explicit,
shrinking allowlist.

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

The same walk, with ``examples/*.py`` as further roots, holds the
*knobs* to that rule.  A knob is a field of a ``*Config`` dataclass
outside :mod:`repro.config` (whose fields are the paper's chip
parameters, Table I, not options), or a parameter with a default of one
of the :data:`ENTRY_POINTS`.  A knob is set when a call to its owner,
found by name in a walked file other than the owner's module, passes it
by keyword or by position, or when a ``replace`` call passes it by
keyword.  The unset knobs must equal :data:`UNSET`, in the same way.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

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


def _root_files(folders: Iterable[str]) -> List[Path]:
    return [path for folder in folders
            for path in sorted((ROOT / folder).glob("*.py"))]


def reached_modules(folders: Iterable[str] = ("bench", "benchmarks")
                    ) -> Set[str]:
    modules = _module_files()
    trees = {name: _parse(path) for name, path in modules.items()}
    frontier = {name for name, tree in trees.items()
                if name not in UNREACHED and _is_command(name, tree)}
    for path in _root_files(folders):
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


#: functions whose parameters with a default are knobs
ENTRY_POINTS = {"simulate_serving", "simulate_fleet", "run_fc", "run_tbe",
                "run_campaign", "fuzz_graph"}

#: knobs no root sets, as ``owner.name``, each with what decides it
UNSET = {
    # fp16 BMM: only tests/kernels/test_other_kernels.py builds one
    # (``profile bmm`` runs INT8); ROADMAP item 8's claims table decides
    # whether the fp16 path is a claim
    "BMMConfig.dtype",
    # fp16 MLPs: every Table IV model is INT8; item 8 again
    "DLRMConfig.quantized",
    # the 8-bit rows' dequantisation scale (every root keeps 1/64) and
    # per-sample weighted pooling (only tests/kernels/test_tbe.py):
    # item 8's Figure 12 rows decide them
    "TBEConfig.scale",
    "run_tbe.weights",
    # the sim cache: item 3(d) gives it a bench row or deletes it
    "run_tbe.cache",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "dataclass":
            return True
    return False


def knob_owners() -> Dict[str, Tuple[str, List[str], Set[str]]]:
    """Owner name -> (its module, parameters in positional order, knobs)."""
    owners = {}
    for module, path in _module_files().items():
        if module == "repro.config":
            continue
        for node in _parse(path).body:
            if (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config") and _is_dataclass(node)):
                fields = [item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                owners[node.name] = (module, fields, set(fields))
            elif (isinstance(node, ast.FunctionDef)
                    and node.name in ENTRY_POINTS):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                with_default = positional[len(positional)
                                          - len(args.defaults):]
                owners[node.name] = (module, positional,
                                     set(with_default)
                                     | {a.arg for a in args.kwonlyargs})
    return owners


def _call_name(node: ast.Call):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def set_knobs() -> Set[str]:
    """``owner.name`` of every knob a walked file sets."""
    owners = knob_owners()
    roots = ("bench", "benchmarks", "examples")
    modules = _module_files()
    files = [(name, modules[name])
             for name in sorted(reached_modules(roots))]
    files += [(None, path) for path in _root_files(roots)]
    found = set()
    for module, path in files:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            keywords = {k.arg for k in node.keywords if k.arg}
            if name == "replace":
                found |= {f"{owner}.{k}" for owner, (_m, _p, knobs)
                          in owners.items() for k in keywords & knobs}
            if name not in owners or owners[name][0] == module:
                continue
            _module, params, knobs = owners[name]
            passed = set(keywords)
            for param, arg in zip(params, node.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add(param)
            found |= {f"{name}.{k}" for k in passed & knobs}
    return found


def all_knobs() -> Set[str]:
    return {f"{owner}.{k}" for owner, (_m, _p, knobs)
            in knob_owners().items() for k in knobs}


def test_unset_knobs_are_exactly_the_allowlist():
    unset = all_knobs() - set_knobs()
    assert sorted(unset) == sorted(UNSET)
