"""Fixture-driven rule tests.

Each fixture file seeds deliberate violations marked ``# expect: RULE``
(and suppressed ones marked with ``# repro: ignore[RULE]``).  The
harness asserts the analyzer reports *exactly* the expected set — every
seeded violation is caught by precisely its rule, negatives stay quiet,
and suppressions land in the ``suppressed`` bucket instead.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.check import run_check
from repro.analysis.check.source import SUPPRESS_RE

FIXTURES = sorted(
    (Path(__file__).parent / "fixtures").glob("*.py"),
    key=lambda p: p.name,
)

EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9]+)")


def expected_findings(path):
    out = set()
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = EXPECT_RE.search(line)
        if match:
            out.add((lineno, match.group(1)))
    return out


def expected_suppressions(path):
    out = set()
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = SUPPRESS_RE.search(line)
        if match is None or line.lstrip().startswith("#"):
            continue
        for rule_id in match.group(1).split(","):
            out.add((lineno, rule_id.strip().upper()))
    return out


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_matches_exactly(path):
    report = run_check([str(path)])
    got = {(f.line, f.rule) for f in report.findings}
    want = expected_findings(path)
    assert want, f"{path.name} has no # expect markers"
    assert got == want, (
        f"{path.name}: expected {sorted(want)}, got {sorted(got)}"
    )


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_suppressions_reported(path):
    report = run_check([str(path)])
    suppressed = {(f.line, f.rule) for f in report.suppressed}
    want = expected_suppressions(path)
    assert suppressed == want, (
        f"{path.name}: expected suppressed {sorted(want)}, "
        f"got {sorted(suppressed)}"
    )


def test_every_rule_has_a_fixture():
    covered = set()
    for path in FIXTURES:
        covered.update(rule for _, rule in expected_findings(path))
    from repro.analysis.check import known_rule_ids

    assert covered == set(known_rule_ids())


def test_standalone_suppression_line(tmp_path):
    src = tmp_path / "standalone_protocol.py"
    src.write_text(
        "import json\n"
        "def encode_one(v):\n"
        "    # repro: ignore[DET104]\n"
        "    return round(v, 3)\n"
        "def encode_two(v):\n"
        "    return round(v, 3)\n",
        encoding="utf-8",
    )
    report = run_check([str(src)])
    assert [(f.line, f.rule) for f in report.findings] == [(6, "DET104")]
    assert [(f.line, f.rule) for f in report.suppressed] == [(4, "DET104")]


def test_select_and_ignore_narrow_rules(tmp_path):
    src = tmp_path / "mixed_protocol.py"
    src.write_text(
        "def encode(v, entries):\n"
        "    return sorted(entries), round(v, 3)\n",
        encoding="utf-8",
    )
    both = run_check([str(src)])
    assert {f.rule for f in both.findings} == {"DET102", "DET104"}
    only = run_check([str(src)], select=["DET102"])
    assert {f.rule for f in only.findings} == {"DET102"}
    without = run_check([str(src)], ignore=["DET102"])
    assert {f.rule for f in without.findings} == {"DET104"}


def test_det104_scopes_every_service_wire_function():
    """Every function of the service protocol, and the server function
    that encodes change events, is one DET104 checks: a precision
    format or ``round()`` in any of them breaks the bitwise rebuild of
    full and delta events alike."""
    import ast

    import repro.service.protocol as protocol
    from repro.analysis.check.rules.determinism import _WIRE_FUNC_RE

    def out_of_scope(path, wanted):
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        return sorted(
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and wanted(node)
            and not _WIRE_FUNC_RE.search(node.name)
        )

    server = Path(protocol.__file__).with_name("server.py")

    def encodes_events(node):
        return any(
            isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) == "change_to_wire"
            for call in ast.walk(node)
        ) and not any(  # the innermost such function
            isinstance(inner, ast.FunctionDef) and inner is not node
            for inner in ast.walk(node)
        )

    assert out_of_scope(protocol.__file__, lambda node: True) == []
    assert out_of_scope(server, encodes_events) == []
