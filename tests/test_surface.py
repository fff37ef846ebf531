"""The surface ledger (``tools/surface.py``) against the committed ``SURFACE.json``.

Code in ``src/`` that only tests reach and settable values only tests set must
be deleted or given a reason in the ledger, every settable value is listed by
name, forks are folded or given a reason, and no package may grow past its
committed line count.
"""

from __future__ import annotations

import ast

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
        ("kept", "repro.flashsim.clock.SimulationClock(start_ms=)", None, "set by tests only"),
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
