#!/usr/bin/env python3
"""Surface ledger: settable values, forks, the ``src/`` code only tests reach, ``src/`` lines.

The *corpus* is every ``.py`` file under ``src/``, ``benchmarks/``,
``examples/`` and ``tools/``. ``tests/`` is left out on purpose, so what only
tests use shows up.

Settable values
    A settable value is one of:

    * a parameter with a default of the ``__init__`` a public class defines,
      named ``module.Class(param=)``. A class is public when it is defined at
      the top level of a module under ``src/repro`` and its name does not
      start with ``_``;
    * a field with a default of a ``@dataclass`` a public constructor takes,
      named the same way. A constructor takes a dataclass when the class's
      name occurs in the annotation of one of its ``__init__`` parameters,
      or in a field annotation of a dataclass it takes. ``ClassVar`` fields
      and ``field(init=False)`` are not parameters and do not count;
    * an environment variable read by ``os.environ[K]``, ``os.environ.get(K)``
      or ``os.getenv(K)`` with a literal ``K`` anywhere in the corpus, named
      ``env K``;
    * a ``--flag`` given to ``add_argument`` anywhere in the corpus, named
      ``path --flag``.

    A constructor value is *set* when a call in the corpus passes it: any call
    with a keyword of its name, or a call of a callable of the class's name
    whose positional arguments (or a ``*`` argument) reach its position. The
    keyword match ignores the callee, so forwarding through ``**kwargs`` and
    ``dataclasses.replace`` counts, and the rule errs towards *set*. Values
    nothing sets are listed as *unset*; each needs a reason in the ledger.

Forks
    A fork is two or more functions under ``src/repro``, methods and nested
    functions included, whose bodies have at least three statements after a
    leading docstring and are equal once every bare name (``ast.Name`` and
    parameter) is renamed by order of first occurrence and every string
    constant is blanked. Attribute names and other constants are kept.

Unreferenced definitions
    A definition is *unreferenced* when no identifier token of its name occurs
    in the corpus outside the line spans of the definitions of that name.
    Identifier tokens are ``ast.Name`` ids, the names of the attributes read (a
    store, ``obj.name = ...`` or ``obj.name += 1``, writes an attribute and is
    no use of it), call keywords, the parts of import aliases, and string
    constants that are exactly an identifier (``getattr(obj, "name")``, field
    names). Comments, docstrings (string statements) and ``README.md`` are not
    tokens, nor is anything inside an ``__all__`` assignment, nor a package
    ``__init__``'s imports: a mention or a re-export is not a use. The line
    span of a definition is its whole statement, so a name used only inside its
    own body is unreferenced. Definitions are the top-level ``def`` / ``class``
    / assignment targets of each module under ``src/repro`` (inside top-level
    ``if`` / ``try`` blocks too) and the members of each top-level class.
    Dunder names are protocol, not surface, and are skipped. A name is matched,
    not a binding: a method is referenced when any code outside the bodies of
    that name reads any attribute of that name.

``SURFACE.json`` holds the committed state: ``src_lines`` (a ceiling per
package), ``settable`` (every settable value, by name), ``kept`` (unset value
or its class -> the reason it stays), ``forks`` (fork group -> the reason it
stays) and ``allowed`` (unreferenced qualified name -> the reason it stays;
members of an allowed class are covered by the class's entry).
:func:`violations` is the ratchet ``tests/test_surface.py`` runs in tier-1.

Usage: ``python tools/surface.py`` prints the ledger and exits 1 on any
violation. :func:`scan` takes another repository root, so a test can scan a
small tree of its own.
"""

from __future__ import annotations

import ast
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER_PATH = REPO_ROOT / "SURFACE.json"
REFERENCE_TREES = ("src", "benchmarks", "examples", "tools")

#: A ``*args`` argument reaches every position.
_EVERY_POSITION = sys.maxsize


class Definition(NamedTuple):
    qualname: str
    path: str
    line: int
    #: Last line of the defining statement.
    end: int

    @property
    def identifier(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


class Scan(NamedTuple):
    definitions: List[Definition]
    unreferenced: List[Definition]
    settable: List[str]
    unset: List[str]
    forks: List[str]
    src_lines: Dict[str, int]


class _Constructor(NamedTuple):
    """What calls to one public class or dataclass can pass."""

    qualname: str
    positional: List[str]
    defaulted: List[str]


def _module_name(path: Path, source_root: Path) -> str:
    parts = path.relative_to(source_root).with_suffix("").parts
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


def _bound_names(node: ast.stmt) -> Iterator[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
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
                yield name.id


def _definitions(module: str, path: str, tree: ast.Module) -> Iterator[Definition]:
    for node in _flatten(tree.body):
        for name in _bound_names(node):
            if name.startswith("__"):
                continue
            yield Definition(f"{module}.{name}", path, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for member in _flatten(node.body):
                    for member_name in _bound_names(member):
                        if not member_name.startswith("__"):
                            qualname = f"{module}.{name}.{member_name}"
                            yield Definition(qualname, path, member.lineno, member.end_lineno)


def _is_all(node: ast.AST) -> bool:
    """An assignment to ``__all__``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(getattr(target, "id", "") == "__all__" for target in targets)


def _tokens(tree: ast.Module, package_init: bool) -> Iterator[Tuple[str, int]]:
    """``(identifier, line)`` for every identifier token of ``tree``: names,
    attributes read, keywords, import alias parts and identifier-only strings.
    Docstrings, ``__all__`` and (in a package ``__init__``) imports are skipped."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            if not isinstance(node.ctx, ast.Store):
                yield node.attr, node.end_lineno
        elif isinstance(node, ast.keyword):
            if node.arg:
                yield node.arg, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and node.value.isidentifier():
                yield node.value, node.lineno
        elif isinstance(node, ast.Expr) and _literal(node.value):
            continue
        elif _is_all(node) or package_init and isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# -- Settable values -------------------------------------------------------------------


def _annotation_names(annotation) -> Iterator[str]:
    """Identifiers an annotation mentions, quoted forward references included."""
    if annotation is None:
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from _annotation_names(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                continue


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ast.unparse(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> Iterator[Tuple[ast.AnnAssign, bool]]:
    """``(field, has_default)`` for each parameter of a dataclass's ``__init__``."""
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in set(_annotation_names(stmt.annotation)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
            init = [kw.value for kw in value.keywords if kw.arg == "init"]
            if init and isinstance(init[0], ast.Constant) and init[0].value is False:
                continue
        yield stmt, value is not None


def _init_of(node: ast.ClassDef):
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            return stmt
    return None


def _constructors(modules: Dict[str, ast.Module]) -> List[_Constructor]:
    """Public classes' ``__init__`` parameters and the dataclasses they take."""
    found: List[_Constructor] = []
    dataclasses: Dict[str, List[Tuple[str, ast.ClassDef]]] = {}
    wanted: List[str] = []
    for module, tree in modules.items():
        for node in _flatten(tree.body):
            if not isinstance(node, ast.ClassDef):
                continue
            qualname = f"{module}.{node.name}"
            if _is_dataclass(node):
                dataclasses.setdefault(node.name, []).append((qualname, node))
            init = _init_of(node)
            if init is None or node.name.startswith("_"):
                continue
            arguments = init.args
            positional = arguments.posonlyargs + arguments.args
            with_default = positional[len(positional) - len(arguments.defaults) :]
            keyword_only = [
                arg
                for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
                if default is not None
            ]
            found.append(
                _Constructor(
                    qualname,
                    [arg.arg for arg in positional[1:]],
                    [arg.arg for arg in with_default + keyword_only],
                )
            )
            for arg in positional + arguments.kwonlyargs:
                wanted.extend(_annotation_names(arg.annotation))
    taken: Set[str] = set()
    while wanted:
        name = wanted.pop()
        if name in taken or name not in dataclasses:
            continue
        taken.add(name)
        for qualname, node in dataclasses[name]:
            fields = list(_dataclass_fields(node))
            found.append(
                _Constructor(
                    qualname,
                    [stmt.target.id for stmt, _ in fields],
                    [stmt.target.id for stmt, has_default in fields if has_default],
                )
            )
            for stmt, _ in fields:
                wanted.extend(_annotation_names(stmt.annotation))
    return found


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _literal(node) -> str:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def _environment_key(node: ast.AST) -> str:
    """``K`` when ``node`` reads ``os.environ[K]``, ``os.environ.get(K)`` or ``os.getenv(K)``."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        if getattr(node.value, "attr", "") == "environ" and ast.unparse(node.value) == "os.environ":
            return _literal(node.slice)
    elif isinstance(node, ast.Call) and node.args and _call_name(node) in ("get", "getenv"):
        if ast.unparse(node.func) in ("os.environ.get", "os.getenv"):
            return _literal(node.args[0])
    return ""


def _settable(
    modules: Dict[str, ast.Module], corpus: Dict[str, ast.Module]
) -> Tuple[List[str], List[str]]:
    """Every settable value, and the constructor values no call in ``corpus`` sets."""
    values: Set[str] = set()
    keywords: Set[str] = set()
    reach: Counter = Counter()
    for path, tree in corpus.items():
        for node in ast.walk(tree):
            key = _environment_key(node)
            if key:
                values.add(f"env {key}")
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            keywords.update(keyword.arg for keyword in node.keywords if keyword.arg)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            reach[name] = max(reach[name], _EVERY_POSITION if starred else len(node.args))
            if name == "add_argument":
                flags = [_literal(arg) for arg in node.args]
                values.update(f"{path} {flag}" for flag in flags if flag.startswith("--"))
    unset: List[str] = []
    for qualname, positional, defaulted in _constructors(modules):
        calls_reach = reach[qualname.rsplit(".", 1)[1]]
        for param in defaulted:
            value = f"{qualname}({param}=)"
            values.add(value)
            by_position = param in positional and calls_reach > positional.index(param)
            if param not in keywords and not by_position:
                unset.append(value)
    return sorted(values), sorted(unset)


# -- Forks -----------------------------------------------------------------------------


def _normalised(node, names: Dict[str, str]) -> str:
    """``node`` written out with bare names renamed in order of first occurrence
    and string constants blanked; ``names`` carries the renaming."""
    if isinstance(node, (ast.Name, ast.arg)):
        name = node.id if isinstance(node, ast.Name) else node.arg
        return names.setdefault(name, f"_{len(names)}")
    if isinstance(node, ast.Constant):
        return "''" if isinstance(node.value, str) else repr(node.value)
    if isinstance(node, ast.AST):
        fields = ",".join(_normalised(getattr(node, field), names) for field in node._fields)
        return f"{type(node).__name__}({fields})"
    if isinstance(node, list):
        return "[" + ",".join(_normalised(item, names) for item in node) + "]"
    return repr(node)


def _functions(prefix: str, body: Iterable[ast.AST]) -> Iterator[Tuple[str, ast.AST]]:
    """Every function defined in ``body``, at any depth, with its qualified name."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield qualname, node
            yield from _functions(qualname, node.body)
        else:
            for field in ("body", "handlers", "orelse", "finalbody"):
                yield from _functions(prefix, getattr(node, field, ()))


def _shape(function) -> str:
    """The normalised body of ``function``; empty when it is too short to be a fork."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and _literal(body[0].value):
        body = body[1:]
    if len(body) < 3:
        return ""
    names: Dict[str, str] = {}
    return _normalised(function.args, names) + _normalised(body, names)


def _forks(modules: Dict[str, ast.Module]) -> List[str]:
    groups: Dict[str, List[str]] = {}
    for module, tree in modules.items():
        for qualname, function in _functions(module, tree.body):
            shape = _shape(function)
            if shape:
                groups.setdefault(shape, []).append(qualname)
    return sorted(" = ".join(sorted(names)) for names in groups.values() if len(names) > 1)


# -- The scan and the ratchet -----------------------------------------------------------


def _unreferenced(
    definitions: List[Definition], corpus: Dict[str, ast.Module], inits: Set[str]
) -> List[Definition]:
    """The definitions no identifier token outside their name's definitions reads."""
    spans: Dict[str, Dict[str, List[Tuple[int, int]]]] = {}
    for definition in definitions:
        by_path = spans.setdefault(definition.identifier, {})
        by_path.setdefault(definition.path, []).append((definition.line, definition.end))
    referenced: Set[str] = set()
    for path, tree in corpus.items():
        for name, line in _tokens(tree, path in inits):
            if name in referenced or name not in spans:
                continue
            if not any(first <= line <= last for first, last in spans[name].get(path, ())):
                referenced.add(name)
    return [d for d in definitions if d.identifier not in referenced]


def scan(root: Path = REPO_ROOT) -> Scan:
    """Everything the ledger counts, read off the tree at ``root``."""
    source_root = root / "src"
    package_root = source_root / "repro"
    definitions: List[Definition] = []
    src_lines: Dict[str, int] = {}
    modules: Dict[str, ast.Module] = {}
    corpus: Dict[str, ast.Module] = {}
    inits: Set[str] = set()
    for tree_name in REFERENCE_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            text = path.read_text()
            relative = str(path.relative_to(root))
            tree = corpus[relative] = ast.parse(text, relative)
            if package_root in path.parents:
                module = _module_name(path, source_root)
                modules[module] = tree
                definitions.extend(_definitions(module, relative, tree))
                package = ".".join(module.split(".")[:2])
                src_lines[package] = src_lines.get(package, 0) + text.count("\n")
                if path.name == "__init__.py":
                    inits.add(relative)
    settable, unset = _settable(modules, corpus)
    return Scan(
        definitions,
        _unreferenced(definitions, corpus, inits),
        settable,
        unset,
        _forks(modules),
        dict(sorted(src_lines.items())),
    )


def load_ledger() -> dict:
    return json.loads(LEDGER_PATH.read_text())


def _kept_by(value: str, name: str) -> bool:
    """Whether the ``kept`` entry ``name`` covers the unset ``value`` (or its class)."""
    return name in (value, value.split("(")[0])


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
    listed = set(ledger["settable"])
    for value in result.settable:
        if value not in listed:
            found.append(f"{value} is a new settable value: use a constant, or list it")
    for value in sorted(listed - set(result.settable)):
        found.append(f"SURFACE.json: settable {value} is gone; drop it from the list")
    kept = ledger["kept"]
    for value in result.unset:
        if not any(_kept_by(value, name) for name in kept):
            found.append(f"{value} is set by tests only: delete it, or give a reason it stays")
    for name in kept:
        if not any(_kept_by(value, name) for value in result.unset):
            found.append(f"SURFACE.json: kept {name} is set now, or gone; drop its entry")
    for group in result.forks:
        if group not in ledger["forks"]:
            found.append(f"fork {group}: fold the bodies into one, or give a reason")
    for group in ledger["forks"]:
        if group not in result.forks:
            found.append(f"SURFACE.json: fork {group} is gone; drop its entry")
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
    print(f"Settable values ({len(result.settable)}):")
    for value in result.settable:
        print(f"  {value}{'  (unset)' if value in result.unset else ''}")
    print(f"Forks ({len(result.forks)}):")
    for group in result.forks:
        print(f"  {group}")
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
