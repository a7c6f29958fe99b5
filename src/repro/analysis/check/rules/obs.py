"""Observability rules (OBS4xx).

The observability layer's overhead contract (docs/OBSERVABILITY.md) is
that instrumentation costs nothing when disabled: clock reads belong
at cycle granularity (the engine, the tracer's spans) — never once per
record.  A ``time.perf_counter()`` inside a per-record hot loop taxes
every benchmark whether or not anyone is looking at the numbers, and
is exactly the drift these rules guard against in the modules the cost
model times.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.check.astutil import (
    FUNCTION_NODES,
    dotted_name,
    name_tokens,
    terminal_name,
)
from repro.analysis.check.registry import Rule, register
from repro.analysis.check.report import Finding
from repro.analysis.check.source import SourceModule

# ---------------------------------------------------------------------------
# OBS401 — per-record clock reads in hot loops
# ---------------------------------------------------------------------------

#: timing calls that read a clock (``time.<name>`` or the bare name
#: imported from ``time``).
_CLOCK_CALLS = {
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}

#: identifier tokens marking a deadline/timeout wait loop — polling a
#: clock against a deadline is flow control, not instrumentation.
_WAIT_TOKENS = {"deadline", "timeout", "remaining", "expires"}


def _is_hot_module(module: SourceModule) -> bool:
    """The modules whose inner loops the cost model times per record."""
    return (
        module.imports_module("repro.core.batch")
        or module.imports_module("repro.grid.traversal")
        or "/grid/" in module.path.as_posix()
    )


def _is_clock_call(node: ast.Call) -> bool:
    final = terminal_name(node.func)
    if final not in _CLOCK_CALLS:
        return False
    dotted = dotted_name(node.func)
    return dotted == final or dotted == f"time.{final}"


def _statement_tokens(module: SourceModule, node: ast.AST) -> Set[str]:
    """Identifier tokens of the statement holding ``node``.

    For a call inside a ``while`` test, only the test is scanned — the
    loop body would drag in unrelated names.
    """
    for ancestor, child in module.parents.ancestry(node):
        if isinstance(ancestor, (ast.While, ast.If)) and child is (
            ancestor.test
        ):
            return name_tokens(ancestor.test) | _walk_tokens(ancestor.test)
        if isinstance(ancestor, ast.stmt):
            return _walk_tokens(ancestor)
    return set()


def _walk_tokens(root: ast.AST) -> Set[str]:
    tokens: Set[str] = set()
    for node in ast.walk(root):
        if isinstance(node, (ast.Name, ast.Attribute)):
            tokens |= name_tokens(node)
    return tokens


def _enabled_gated(module: SourceModule, node: ast.AST) -> bool:
    """True when an enclosing ``if`` tests a ``.enabled``-style flag.

    The blessed pattern::

        if tracer.enabled:
            started = time.perf_counter()
    """
    for ancestor in module.parents.ancestors(node):
        if isinstance(ancestor, FUNCTION_NODES):
            return False  # don't credit gates outside this function
        if not isinstance(ancestor, ast.If):
            continue
        for test_node in ast.walk(ancestor.test):
            if (
                isinstance(test_node, (ast.Name, ast.Attribute))
                and terminal_name(test_node) in ("enabled", "traced")
            ):
                return True
    return False


def _enclosing_loop(module: SourceModule, node: ast.AST) -> Optional[ast.AST]:
    """The innermost For/While loop whose *body* holds ``node``.

    A clock read in a ``while`` *test* still counts (it executes once
    per iteration); comprehension loops count too.
    """
    for ancestor in module.parents.ancestors(node):
        if isinstance(ancestor, FUNCTION_NODES):
            return None
        if isinstance(ancestor, (ast.For, ast.While)):
            return ancestor
        if isinstance(ancestor, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return ancestor
    return None


@register
class HotLoopClockRule(Rule):
    id = "OBS401"
    name = "hot-loop-clock-read"
    family = "observability"
    description = (
        "clock read (time.perf_counter/monotonic/process_time) inside "
        "a loop of a cost-model-timed module; hoist it to cycle "
        "granularity or gate it behind a tracer .enabled check so "
        "disabled instrumentation costs nothing per record"
    )

    def check(self, module: SourceModule) -> List[Finding]:
        if not _is_hot_module(module):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not _is_clock_call(node):
                continue
            if _enclosing_loop(module, node) is None:
                continue
            if _enabled_gated(module, node):
                continue
            # Deadline polling (``remaining = deadline - monotonic()``)
            # is flow control, not instrumentation.
            if _statement_tokens(module, node) & _WAIT_TOKENS:
                continue
            findings.append(
                self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "per-iteration clock read in a hot loop; time the "
                    "whole loop once, or gate on tracer.enabled",
                )
            )
        return findings
