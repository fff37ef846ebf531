"""The surface ledger (``tools/surface.py``) against the committed ``SURFACE.json``.

Code in ``src/`` that only tests reach and settable values only tests set must
be deleted or given a reason in the ledger, every settable value is listed by
name, forks are folded or given a reason, and no package may grow past its
committed line count.  The reference rule is checked on small trees written
for each case: a name counts as used only when other code reads it.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from tools import surface

#: Two bodies that differ only in the names they use and a string: a fork.
PLANTED_FORK = """
def first(data, offset):
    (value,) = FIELD.unpack_from(data, offset)
    offset += FIELD.size
    return value, "first"

def second(payload, start):
    (word,) = OTHER.unpack_from(payload, start)
    start += OTHER.size
    return word, "second"
"""

#: A class with members that nothing outside it names.
PLANTED_CLASS = """
class Planted:
    LIMIT = 3

    def first(self):
        return self.LIMIT
"""


@pytest.fixture(scope="module")
def result() -> surface.Scan:
    return surface.scan()


@pytest.fixture
def ledger() -> dict:
    return surface.load_ledger()


def test_the_tree_matches_the_committed_ledger(result, ledger):
    assert surface.violations(result, ledger) == []


def test_every_allowed_name_has_a_reason(ledger):
    assert 0 < len(ledger["allowed"]) <= 10
    reasons = {**ledger["allowed"], **ledger["kept"], **ledger["forks"]}
    assert all(reason.strip() for reason in reasons.values())


def test_settable_values_are_counted_by_kind(result):
    """Constructor values by class, environment reads and flags by name."""
    assert "repro.core.clam.CLAM(config=)" in result.settable
    assert "repro.service.simulator.TrafficSpec(seed=)" in result.settable
    assert "env PYTHONHASHSEED" in result.settable
    assert "benchmarks/bench_rebalance.py --quick" in result.settable
    assert set(result.unset) <= set(result.settable)


def test_members_of_an_allowed_class_are_covered_by_its_entry(result, ledger):
    """A planted class nothing references, allowed by one entry for the class."""
    planted = list(surface._definitions("planted", "planted.py", ast.parse(PLANTED_CLASS)))
    result = result._replace(
        definitions=result.definitions + planted, unreferenced=result.unreferenced + planted
    )
    ledger["allowed"]["planted.Planted"] = "why"
    assert surface.violations(result, ledger) == []
    members = [
        definition
        for definition in result.unreferenced
        if definition.qualname.startswith("planted.Planted.")
    ]
    assert members
    del ledger["allowed"]["planted.Planted"]
    found = surface.violations(result, ledger)
    assert len(found) == 1 + len(members)
    assert all("is reached by tests only" in line for line in found)


@pytest.mark.parametrize(
    "section, name, value, message",
    [
        ("allowed", "repro.core.incarnation.page_overflowed", None, "is reached by tests only"),
        ("allowed", "repro.core.clam.Gone", "why", "no longer exists"),
        ("allowed", "repro.core.clam.CLAM", "why", "is referenced now"),
        ("src_lines", "repro.core", 4000, "repro.core has"),
        ("src_lines", "repro.dedup", None, "repro.dedup has"),
        ("settable", "repro.core.clam.CLAM(config=)", None, "is a new settable value"),
        ("settable", "repro.core.clam.CLAM(gone=)", "listed", "is gone"),
        ("kept", "repro.wanopt.chunking.RabinChunker(min_size=)", None, "set by tests only"),
        ("kept", "repro.core.clam.CLAM(config=)", "why", "is set now, or gone"),
        ("forks", "planted", None, "fold the bodies into one"),
        ("forks", "repro.core.clam.CLAM.get = repro.core.clam.CLAM.lookup", "why", "is gone"),
    ],
)
def test_each_rule_bites(result, ledger, section, name, value, message):
    """One edit to the committed ledger, or one fork planted in the tree, one violation."""
    if section == "forks" and value is None:
        planted = surface._forks({name: ast.parse(PLANTED_FORK)})
        assert planted == ["planted.first = planted.second"]
        result = result._replace(forks=result.forks + planted)
    elif section == "settable" and value is None:
        ledger[section].remove(name)
    elif section == "settable":
        ledger[section].append(name)
    elif value is None:
        del ledger[section][name]
    else:
        ledger[section][name] = value
    found = surface.violations(result, ledger)
    assert len(found) == 1 and message in found[0], found


#: The module every reference case plants ``used`` and ``target`` in.
PLANTED_MODULE = '''
"""``target`` named in a module docstring."""

__all__ = ["target", "used"]


def target(depth):
    """``target`` named in its own docstring."""
    # target, named in a comment
    return target(depth - 1) if depth else 0


def used():
    return 1
'''


#: A record with two counters for the store-versus-read cases.
PLANTED_RECORD = """
from dataclasses import dataclass


@dataclass
class Tally:
    bumped: int = 0
    shown: int = 0
"""


def _unreferenced(tmp_path, caller: str, readme: str = "", module: str = PLANTED_MODULE) -> set:
    """The unreferenced names of a tree holding ``module`` (by default
    :data:`PLANTED_MODULE`) and ``caller`` as a tool script."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from repro.planted import target, used\n")
    (package / "planted.py").write_text(module)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "caller.py").write_text(textwrap.dedent(caller))
    (tmp_path / "README.md").write_text(readme)
    return {definition.qualname for definition in surface.scan(tmp_path).unreferenced}


def test_a_name_mentioned_only_in_prose_is_unreferenced(tmp_path):
    """Docstrings (one of them exactly the name), comments and README mention
    ``target``; no code reads it."""
    caller = '''
        """target"""
        from repro.planted import used  # and target, in a comment

        used()
    '''
    found = _unreferenced(tmp_path, caller, readme="Call `target(3)` to recurse.\n")
    assert found == {"repro.planted.target"}


def test_a_name_listed_only_in_all_is_unreferenced(tmp_path):
    """Both names sit in ``__all__`` and in the package's re-export."""
    assert _unreferenced(tmp_path, "from repro.planted import used\n") == {
        "repro.planted.target"
    }


def test_a_name_used_only_inside_its_own_body_is_unreferenced(tmp_path):
    """``target`` calls itself; nothing else does."""
    found = _unreferenced(tmp_path, "import repro.planted\n\nrepro.planted.used()\n")
    assert found == {"repro.planted.target"}


def test_a_string_that_is_exactly_the_name_is_a_reference(tmp_path):
    """``getattr(module, "target")`` reads ``target``; a longer string does not."""
    caller = '''
        import repro.planted as planted

        getattr(planted, "target")(2)
        print("used()")
    '''
    assert _unreferenced(tmp_path, caller) == {"repro.planted.used"}


def test_a_field_that_is_only_stored_to_is_unreferenced(tmp_path):
    """``bumped`` is only ``+=``'d: a store writes a field and is no use of it.
    ``shown`` is stored to as well, and read once: that read is a use."""
    caller = """
        from repro.planted import Tally

        tally = Tally()
        tally.bumped += 1
        tally.shown = 2
        print(tally.shown)
    """
    assert _unreferenced(tmp_path, caller, module=PLANTED_RECORD) == {
        "repro.planted.Tally.bumped"
    }
