#!/usr/bin/env python
"""Lint: architectural boundaries the type checker cannot see.

Four rules, all enforced by walking the AST of every Python file under
the given roots:

* **registry boundary** — concrete scheme classes (``TdmNetwork``,
  ``CircuitNetwork``, ``WormholeNetwork``, ``MultiSwitchTdmNetwork``)
  may only be constructed inside ``src/repro/networks/`` (the registry's
  factories) and ``tests/``; everything else resolves through
  ``repro.networks.registry.build_network``.
* **topology boundary** — the switch-graph builders (``full_mesh``,
  ``fat_tree``, ``line``) may only be called inside ``src/repro/topo/``,
  ``src/repro/networks/`` and ``tests/``.  Sweeps pick a composite
  scheme (``mesh-tdm``/``fattree-tdm``) and pass topology knobs through
  ``RunSpec.options``, keeping experiment cells plain cacheable data.
* **executor boundary** — ``multiprocessing`` and
  ``ProcessPoolExecutor`` may only appear inside ``src/repro/exec/`` and
  ``tests/``.  All fan-out goes through ``repro.exec.map_cells``, whose
  seed-derivation, ordered-reduction, and worker-reset rules are what
  make parallel sweeps bit-identical to serial ones; an ad-hoc pool
  would bypass every one of them.
* **VOQ boundary** — the virtual output queues' private state
  (``_queues``, ``_starts``) may only be touched inside
  ``src/repro/nic/`` and ``tests/``.  Schemes move bytes through
  ``VirtualOutputQueues.drain`` or the shared slot drain
  ``repro.nic.QueueMatrix.drain``, so a per-message first-byte time or a
  byte counter can never be settled two different ways.

Run:  python tools/check_construction.py            # lint the repo
      python tools/check_construction.py PATH ...   # lint specific roots
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SCHEME_CLASSES = frozenset(
    {
        "TdmNetwork",
        "CircuitNetwork",
        "WormholeNetwork",
        "MultiSwitchTdmNetwork",
        "IslipNetwork",
    }
)

#: switch-graph constructors only the topo layer, the registry's composite
#: factories, and tests may call directly; sweeps and examples pick a
#: topology by scheme name + options so cells stay plain cacheable data
TOPO_BUILDERS = frozenset({"full_mesh", "fat_tree", "line"})

#: process-pool machinery only repro.exec may touch
POOL_MODULES = frozenset({"multiprocessing"})
POOL_CLASSES = frozenset({"ProcessPoolExecutor"})

#: private VOQ state only repro.nic (and tests) may touch
VOQ_PRIVATE_ATTRS = frozenset({"_queues", "_starts"})

#: directories whose files may construct scheme classes directly
SCHEME_EXEMPT_PARTS = (
    ("src", "repro", "networks"),
    ("tests",),
)

#: directories whose files may use process pools directly
POOL_EXEMPT_PARTS = (
    ("src", "repro", "exec"),
    ("tests",),
)

#: directories whose files may build switch-graph topologies directly
TOPO_EXEMPT_PARTS = (
    ("src", "repro", "topo"),
    ("src", "repro", "networks"),
    ("tests",),
)

#: directories whose files may touch private VOQ state
VOQ_EXEMPT_PARTS = (
    ("src", "repro", "nic"),
    ("tests",),
)

DEFAULT_ROOTS = ("src", "examples", "benchmarks", "tools", "tests")


def _exempt(
    path: Path, repo_root: Path, exempt_parts: tuple[tuple[str, ...], ...]
) -> bool:
    try:
        rel = path.relative_to(repo_root).parts
    except ValueError:  # outside the repo (explicit roots): never exempt
        return False
    return any(rel[: len(parts)] == parts for parts in exempt_parts)


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _parse(path: Path) -> ast.AST | list[tuple[int, str]]:
    try:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:  # a broken file is its own problem
        return [(exc.lineno or 0, f"syntax error: {exc.msg}")]


def find_violations(path: Path) -> list[tuple[int, str]]:
    """Direct scheme constructions in one file, as (line, class) pairs."""
    tree = _parse(path)
    if isinstance(tree, list):
        return tree
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := _called_name(node)) in SCHEME_CLASSES
    ]


def find_topo_violations(path: Path) -> list[tuple[int, str]]:
    """Direct topology-builder calls in one file, as (line, name) pairs."""
    tree = _parse(path)
    if isinstance(tree, list):
        return tree
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := _called_name(node)) in TOPO_BUILDERS
    ]


def find_pool_violations(path: Path) -> list[tuple[int, str]]:
    """Process-pool imports/uses in one file, as (line, what) pairs."""
    tree = _parse(path)
    if isinstance(tree, list):
        return tree
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in POOL_MODULES:
                    out.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in POOL_MODULES:
                out.append((node.lineno, f"from {module} import ..."))
            else:
                for alias in node.names:
                    if alias.name in POOL_CLASSES:
                        out.append(
                            (node.lineno, f"from {module} import {alias.name}")
                        )
        elif isinstance(node, ast.Call):
            if (name := _called_name(node)) in POOL_CLASSES:
                out.append((node.lineno, f"{name}(...)"))
    return out


def find_voq_violations(path: Path) -> list[tuple[int, str]]:
    """Private VOQ attribute accesses in one file, as (line, attr) pairs."""
    tree = _parse(path)
    if isinstance(tree, list):
        return tree
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in VOQ_PRIVATE_ATTRS
    ]


def main(argv: list[str]) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    roots = [Path(a) for a in argv] if argv else [
        repo_root / r for r in DEFAULT_ROOTS
    ]
    rules = (
        (
            SCHEME_EXEMPT_PARTS,
            find_violations,
            lambda what: f"direct {what}(...) construction — resolve it "
            "through repro.networks.registry.build_network",
        ),
        (
            POOL_EXEMPT_PARTS,
            find_pool_violations,
            lambda what: f"{what} — all process fan-out goes through "
            "repro.exec.map_cells",
        ),
        (
            TOPO_EXEMPT_PARTS,
            find_topo_violations,
            lambda what: f"direct {what}(...) topology construction — pick "
            "a composite scheme (mesh-tdm/fattree-tdm) and pass topology "
            "knobs through RunSpec.options",
        ),
        (
            VOQ_EXEMPT_PARTS,
            find_voq_violations,
            lambda what: f"access to private VOQ state .{what} — drain "
            "through repro.nic (VirtualOutputQueues.drain or "
            "QueueMatrix.drain)",
        ),
    )
    violations: list[str] = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for exempt_parts, finder, message in rules:
                if _exempt(path, repo_root, exempt_parts):
                    continue
                for lineno, what in finder(path):
                    rel = (
                        path.relative_to(repo_root)
                        if path.is_relative_to(repo_root)
                        else path
                    )
                    violations.append(f"{rel}:{lineno}: {message(what)}")
    if violations:
        print("\n".join(violations))
        print(f"\n{len(violations)} boundary violation(s) found")
        return 1
    print("construction check passed: scheme construction goes through "
          "the registry, process fan-out through repro.exec, VOQ state "
          "through repro.nic")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
