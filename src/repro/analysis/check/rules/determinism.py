"""Determinism rules (DET1xx).

The reproduction's headline guarantee is bitwise-identical output for a
given seed — across runs, across shard counts, and across the numpy /
pure-python batch backends (see docs/PERFORMANCE.md).  These rules flag
the syntactic patterns that historically break that guarantee: hash
-order iteration feeding ordered output, unkeyed sorts of float-scored
data, backend-dependent accumulation order, and lossy float formatting
on the wire.
"""

from __future__ import annotations

import ast
import re
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
# DET101 — set / dict.keys() iteration feeding ordered output
# ---------------------------------------------------------------------------

# Method calls that append to order-sensitive containers.
_ORDER_SINKS = {
    "append",
    "extend",
    "insert",
    "appendleft",
    "heappush",
    "heapreplace",
    "heappushpop",
    "setdefault",
}

# Consumers that make iteration order irrelevant again.
_ORDER_FREE_CONSUMERS = {
    "sorted",
    "set",
    "frozenset",
    "any",
    "all",
    "len",
    "min",
    "max",
    "dict",
    "Counter",
}


def _is_set_expr(expr: ast.AST, local_sets: Set[str]) -> bool:
    """True when ``expr`` evaluates to a set-like (hash-ordered) view."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        final = terminal_name(expr.func)
        if final in ("set", "frozenset"):
            return True
        if final == "keys" and isinstance(expr.func, ast.Attribute):
            return True
        return False
    if isinstance(expr, ast.Name):
        return expr.id in local_sets
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(expr.left, local_sets) or _is_set_expr(
            expr.right, local_sets
        )
    return False


def _local_set_names(scope: ast.AST) -> Set[str]:
    """Names bound to an obviously set-valued expression in ``scope``."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _builds_ordered_output(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                final = terminal_name(node.func)
                if final in _ORDER_SINKS:
                    return True
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            elif isinstance(node, ast.AugAssign):
                return True
    return False


@register
class SetIterationRule(Rule):
    id = "DET101"
    name = "set-iteration-order"
    family = "determinism"
    description = (
        "iteration over a set or dict-keys view feeds ordered output "
        "(list/heap/yield/accumulator); iterate a sorted() or keyed "
        "sequence instead"
    )

    def check(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, FUNCTION_NODES)
        )
        flagged: Set[int] = set()
        for scope in scopes:
            local_sets = _local_set_names(scope)
            for node in ast.walk(scope):
                if isinstance(node, FUNCTION_NODES) and node is not scope:
                    continue  # handled as its own scope
                if isinstance(node, ast.For):
                    if not _is_set_expr(node.iter, local_sets):
                        continue
                    if not _builds_ordered_output(node.body):
                        continue
                    if node.lineno in flagged:
                        continue
                    flagged.add(node.lineno)
                    findings.append(
                        self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            "for-loop over a set feeds ordered output; "
                            "iterate sorted(...) for deterministic order",
                        )
                    )
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    if not any(
                        _is_set_expr(gen.iter, local_sets)
                        for gen in node.generators
                    ):
                        continue
                    parent = module.parents.parent(node)
                    if isinstance(parent, ast.Call):
                        consumer = terminal_name(parent.func)
                        if consumer in _ORDER_FREE_CONSUMERS:
                            continue
                    if isinstance(node, ast.GeneratorExp) and not isinstance(
                        parent, ast.Call
                    ):
                        continue  # lazily consumed; judged at the sink
                    if node.lineno in flagged:
                        continue
                    flagged.add(node.lineno)
                    findings.append(
                        self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            "comprehension over a set builds an ordered "
                            "sequence; wrap the source in sorted(...)",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# DET102 — unkeyed sorted()/.sort() on float-tie-prone data
# ---------------------------------------------------------------------------

_TIE_PRONE_TOKENS = {
    "score",
    "scores",
    "scored",
    "entry",
    "entries",
    "result",
    "results",
    "candidate",
    "candidates",
    "ranked",
    "topk",
    "skyband",
    "heap",
}


def _tie_prone(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Call):
        final = terminal_name(expr.func)
        if final in ("values", "items") and isinstance(
            expr.func, ast.Attribute
        ):
            return _tie_prone(expr.func.value)
        return False
    return bool(name_tokens(expr) & _TIE_PRONE_TOKENS)


@register
class UnkeyedFloatSortRule(Rule):
    id = "DET102"
    name = "unkeyed-float-sort"
    family = "determinism"
    description = (
        "unkeyed sorted()/.sort() on float-scored data compares raw "
        "tuples; supply an explicit (score, rid)-style key so float "
        "ties break on the integer id"
    )

    def check(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            has_key = any(kw.arg == "key" for kw in node.keywords)
            if has_key:
                continue
            func_final = terminal_name(node.func)
            target: Optional[ast.AST] = None
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                target = node.args[0]
            elif (
                func_final == "sort"
                and isinstance(node.func, ast.Attribute)
                and not node.args
            ):
                target = node.func.value
            if target is None or not _tie_prone(target):
                continue
            findings.append(
                self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "unkeyed sort of float-scored data; pass an explicit "
                    "key= that breaks ties on a total order",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# DET103 — accumulation-order hazards in dual-backend code
# ---------------------------------------------------------------------------

_BACKEND_MARKER = "REPRO_BATCH_BACKEND"
_REDUCTION_ATTRS = {"sum", "nansum", "cumsum", "dot", "matmul", "einsum"}
_NUMPY_RECEIVERS = {"np", "numpy"}


def _is_dual_backend(module: SourceModule) -> bool:
    return _BACKEND_MARKER in module.text or module.imports_module(
        "repro.core.batch"
    )


@register
class AccumulationOrderRule(Rule):
    id = "DET103"
    name = "dual-backend-accumulation"
    family = "determinism"
    description = (
        "vectorised reduction (np.sum/.dot/@/math.fsum) in dual-backend "
        "code sums in a backend-dependent order; keep the explicit "
        "column-at-a-time loop that both backends share bit-for-bit"
    )

    def check(self, module: SourceModule) -> List[Finding]:
        if not _is_dual_backend(module):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            message: Optional[str] = None
            lineno, col = 0, 0
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.MatMult
            ):
                message = (
                    "matrix multiply (@) accumulates in backend-defined "
                    "order; use the shared column-at-a-time loop"
                )
                lineno, col = node.lineno, node.col_offset
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                attr = node.func.attr
                receiver = node.func.value
                dotted = dotted_name(node.func)
                if dotted == "math.fsum":
                    message = (
                        "math.fsum has no pure-python twin with the same "
                        "rounding; use the plain left-to-right loop"
                    )
                elif attr in _REDUCTION_ATTRS:
                    recv_name = dotted_name(receiver)
                    if recv_name in _NUMPY_RECEIVERS or attr in (
                        "sum",
                        "dot",
                    ):
                        message = (
                            f"vectorised reduction .{attr}() orders the "
                            "accumulation differently per backend; keep "
                            "the explicit loop"
                        )
                if message is not None:
                    lineno, col = node.lineno, node.col_offset
            if message is not None:
                findings.append(
                    self.finding(module, lineno, col, message)
                )
        return findings


# ---------------------------------------------------------------------------
# DET104 — float formatting breaking the repr-faithful wire contract
# ---------------------------------------------------------------------------

_WIRE_FUNC_RE = re.compile(r"(encode|decode|to_wire|from_wire|^_op_|wire)")
_PRECISION_SPEC_RE = re.compile(r"\.\d+[efgn%]|^[efgn%]$")
_PERCENT_FLOAT_RE = re.compile(r"%[-+ #0-9.]*[efgEFG]")


def _in_wire_scope(module: SourceModule) -> bool:
    parts = module.path.as_posix()
    return (
        "/service/" in parts
        or "/transport/" in parts
        or module.path.name.endswith("protocol.py")
        or module.path.name.endswith("codec.py")
    )


def _in_wire_function(module: SourceModule, node: ast.AST) -> bool:
    return any(
        _WIRE_FUNC_RE.search(name)
        for name in module.parents.enclosing_function_names(node)
    )


def _format_spec_text(spec: Optional[ast.expr]) -> str:
    if not isinstance(spec, ast.JoinedStr):
        return ""
    return "".join(
        value.value
        for value in spec.values
        if isinstance(value, ast.Constant) and isinstance(value.value, str)
    )


@register
class WireFloatFormatRule(Rule):
    id = "DET104"
    name = "wire-float-format"
    family = "determinism"
    description = (
        "wire encode/decode paths must keep floats repr-faithful: no "
        "precision format specs, no round(x, n), and json.dumps must "
        "pass allow_nan=False"
    )

    def check(self, module: SourceModule) -> List[Finding]:
        if not _in_wire_scope(module):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not _in_wire_function(module, node):
                continue
            message: Optional[str] = None
            if isinstance(node, ast.FormattedValue):
                spec = _format_spec_text(node.format_spec)
                if _PRECISION_SPEC_RE.search(spec):
                    message = (
                        f"float format spec {spec!r} truncates the "
                        "repr-faithful wire value"
                    )
            elif isinstance(node, ast.Call):
                final = terminal_name(node.func)
                if final == "round" and len(node.args) >= 2:
                    message = (
                        "round(x, ndigits) on a wire value loses the "
                        "repr-faithful float contract"
                    )
                elif final == "dumps" and dotted_name(node.func) in (
                    "json.dumps",
                    "dumps",
                ):
                    allow_nan = None
                    for kw in node.keywords:
                        if kw.arg == "allow_nan":
                            allow_nan = kw.value
                    ok = (
                        isinstance(allow_nan, ast.Constant)
                        and allow_nan.value is False
                    )
                    if not ok:
                        message = (
                            "json.dumps on the wire path must pass "
                            "allow_nan=False (NaN/Inf have no JSON repr)"
                        )
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.Mod
            ):
                left = node.left
                if isinstance(left, ast.Constant) and isinstance(
                    left.value, str
                ):
                    if _PERCENT_FLOAT_RE.search(left.value):
                        message = (
                            "%-style float formatting truncates the "
                            "repr-faithful wire value"
                        )
            if message is not None:
                findings.append(
                    self.finding(
                        module, node.lineno, node.col_offset, message
                    )
                )
        return findings
