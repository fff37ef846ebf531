#!/usr/bin/env python3
"""Surface ledger: the ``src/`` code only tests reach, and ``src/`` lines per package.

A definition is *unreferenced* when its identifier occurs, as a whole word,
nowhere in the reference corpus except at definition sites. The corpus is
every ``.py`` file under ``src/``, ``benchmarks/``, ``examples/`` and
``tools/``, plus ``README.md``. ``tests/`` is left out on purpose, so code that
only its own tests run shows up. A package ``__init__``'s docstring, imports
and ``__all__`` are left out too: a re-export is not a use. Each file is split
into words once, by one regular expression, so a name mentioned in a string or
a comment counts as used; the ledger errs towards keeping code.

Definitions are the top-level ``def`` / ``class`` / assignment targets of each
module under ``src/repro`` (inside top-level ``if`` / ``try`` blocks too) and
the members of each top-level class. Dunder names are protocol, not surface,
and are skipped. A name is matched, not a binding: a method is referenced when
any code mentions any attribute of that name.

``SURFACE.json`` holds the committed state: ``src_lines`` (a ceiling per
package) and ``allowed`` (qualified name -> the reason it stays; members of an
allowed class are covered by the class's entry). :func:`violations` is the
ratchet ``tests/test_surface.py`` runs in tier-1.

Usage: ``python tools/surface.py`` prints the ledger and exits 1 on any
violation.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
LEDGER_PATH = REPO_ROOT / "SURFACE.json"
REFERENCE_TREES = ("src", "benchmarks", "examples", "tools")
README = REPO_ROOT / "README.md"

_WORD = re.compile(r"[A-Za-z_]\w*")


class Definition(NamedTuple):
    qualname: str
    path: str
    line: int

    @property
    def identifier(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


class Scan(NamedTuple):
    definitions: List[Definition]
    unreferenced: List[Definition]
    src_lines: Dict[str, int]


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _flatten(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of ``body``, reaching into ``if`` / ``try`` blocks."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _flatten(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for handler in node.handlers for stmt in handler.body]
            yield from _flatten(node.body + handlers + node.orelse + node.finalbody)
        else:
            yield node


def _bound_names(node: ast.stmt) -> Iterator[Tuple[str, int]]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name, node.lineno
        return
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                yield name.id, name.lineno


def _definitions(module: str, path: str, tree: ast.Module) -> Iterator[Definition]:
    for node in _flatten(tree.body):
        for name, line in _bound_names(node):
            if name.startswith("__"):
                continue
            yield Definition(f"{module}.{name}", path, line)
            if isinstance(node, ast.ClassDef):
                for member in _flatten(node.body):
                    for member_name, member_line in _bound_names(member):
                        if not member_name.startswith("__"):
                            qualname = f"{module}.{name}.{member_name}"
                            yield Definition(qualname, path, member_line)


def _is_reexport(node: ast.stmt) -> bool:
    """A package ``__init__``'s docstring, imports and ``__all__``."""
    if isinstance(node, ast.Assign):
        return [ast.unparse(target) for target in node.targets] == ["__all__"]
    return isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr))


def scan() -> Scan:
    """Definitions under ``src/repro``, the unreferenced ones, ``src/`` lines per package."""
    definitions: List[Definition] = []
    words: Counter = Counter()
    src_lines: Dict[str, int] = {}
    for tree_name in REFERENCE_TREES:
        for path in sorted((REPO_ROOT / tree_name).rglob("*.py")):
            text = path.read_text()
            if PACKAGE_ROOT in path.parents:
                module = _module_name(path)
                tree = ast.parse(text, str(path))
                relative = str(path.relative_to(REPO_ROOT))
                definitions.extend(_definitions(module, relative, tree))
                package = ".".join(module.split(".")[:2])
                src_lines[package] = src_lines.get(package, 0) + text.count("\n")
                if path.name == "__init__.py":
                    kept = [node for node in tree.body if not _is_reexport(node)]
                    text = "\n".join(ast.get_source_segment(text, node) for node in kept)
            words.update(_WORD.findall(text))
    words.update(_WORD.findall(README.read_text()))
    sites = Counter(definition.identifier for definition in definitions)
    unreferenced = [d for d in definitions if words[d.identifier] <= sites[d.identifier]]
    return Scan(definitions, unreferenced, dict(sorted(src_lines.items())))


def load_ledger() -> dict:
    return json.loads(LEDGER_PATH.read_text())


def violations(result: Scan, ledger: dict) -> List[str]:
    """Everything the committed ``ledger`` and the tree disagree on, one line each."""
    allowed = ledger["allowed"]
    found = []
    for definition in result.unreferenced:
        owner = definition.qualname.rsplit(".", 1)[0]
        if definition.qualname not in allowed and owner not in allowed:
            found.append(
                f"{definition.path}:{definition.line}: {definition.qualname} is reached by "
                "tests only: delete it, or give SURFACE.json a reason it stays"
            )
    defined = {definition.qualname for definition in result.definitions}
    unreferenced = {definition.qualname for definition in result.unreferenced}
    for qualname in allowed:
        if qualname not in defined:
            found.append(f"SURFACE.json: allowed {qualname} no longer exists")
        elif qualname not in unreferenced:
            found.append(f"SURFACE.json: allowed {qualname} is referenced now; drop its entry")
    for package, lines in result.src_lines.items():
        ceiling = ledger["src_lines"].get(package)
        if ceiling is None or lines > ceiling:
            found.append(f"SURFACE.json: {package} has {lines} lines (ceiling {ceiling})")
    return found


def main() -> int:
    result = scan()
    ledger = load_ledger()
    print("Reached by tests only:")
    for definition in result.unreferenced:
        print(f"  {definition.qualname}  ({definition.path}:{definition.line})")
    print("src/ lines per package:")
    for package, lines in result.src_lines.items():
        print(f"  {package:<20} {lines:>6}  (ceiling {ledger['src_lines'].get(package)})")
    print(f"  {'total':<20} {sum(result.src_lines.values()):>6}")
    found = violations(result, ledger)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
