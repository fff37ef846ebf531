"""The stdlib format proxy (``tools/format_check.py``) and the files it keeps clean.

ruff is not installed in every sandbox this repository is built in; the proxy
is what stands in for ``ruff format --check`` there, so it runs in tier-1.
"""

from __future__ import annotations

import pytest

from tools import format_check


def test_allowlisted_and_touched_files_pass_the_proxy(capsys):
    """CI's ``ruff format --check`` allowlist plus ``EXTRA_PATHS``, as the lint job runs it."""
    status = format_check.main([])
    assert (status, capsys.readouterr().out) == (0, "")


def test_the_allowlist_is_read_from_the_ci_workflow():
    paths = format_check.ruff_allowlist()
    assert "src/repro/service/" in paths and "benchmarks/bench_chaos.py" in paths
    assert all((format_check.REPO_ROOT / path).exists() for path in paths)
    assert format_check.line_length_limit() == 100


def test_every_extra_path_is_listed_once_and_exists():
    paths = format_check.EXTRA_PATHS
    assert sorted(path for path in set(paths) if paths.count(path) > 1) == []
    assert [path for path in paths if not (format_check.REPO_ROOT / path).exists()] == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("x = 1\n", None),
        ("value = call(\n    [1, 2],\n    {3: (4, 5)},\n)\n", None),
        ("x = '" + "a" * 100 + "'\n", "1: line is 106 characters (limit 100)"),
        ("if x:\n\tpass\n", "2: tab character"),
        ("x = 1 \n", "1: trailing whitespace"),
        ("x = 1", "1: file must end with exactly one newline"),
        ("x = 1\n\n", "3: file must end with exactly one newline"),
        ("x = (1,\n     2]\n", "2: unbalanced ']'"),
        ("x = 1)\n", "1: unbalanced ')'"),
        ("x = [1,\n     2\n", "EOF in multi-line statement"),
    ],
)
def test_each_rule_bites(text, message):
    findings = format_check.check_text(text, 100)
    if message is None:
        assert findings == []
    else:
        assert any(finding.endswith(message) for finding in findings), findings
