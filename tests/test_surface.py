"""The surface ledger (``tools/surface.py``) against the committed ``SURFACE.json``.

Code in ``src/`` that only tests reach must be deleted or given a reason in
the ledger, and no package may grow past its committed line count.
"""

from __future__ import annotations

import pytest

from tools import surface


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
    assert all(reason.strip() for reason in ledger["allowed"].values())


def test_members_of_an_allowed_class_are_covered_by_its_entry(result, ledger):
    members = [
        definition
        for definition in result.unreferenced
        if definition.qualname.startswith("repro.wanopt.connection.ConnectionManager.")
    ]
    assert members
    del ledger["allowed"]["repro.wanopt.connection.ConnectionManager"]
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
    ],
)
def test_each_rule_bites(result, ledger, section, name, value, message):
    """One edit to the committed ledger, one violation naming it."""
    if value is None:
        del ledger[section][name]
    else:
        ledger[section][name] = value
    found = surface.violations(result, ledger)
    assert len(found) == 1 and message in found[0], found
