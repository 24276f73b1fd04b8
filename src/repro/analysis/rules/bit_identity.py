"""Bit-identity rules (RL1xx).

The engine's headline contract is that every configuration — single or
sharded, memory, mmap or lazy, one query or a batch, across processes —
returns **bit-identical** answers.  That only holds while query-path code never lets an
implementation-defined order or a narrowed float width leak into a
result.  These rules encode the three ways PRs 1–7 actually saw that
contract threatened:

``RL101``
    Iterating a ``set`` in a query-path module.  Set order depends on
    ``PYTHONHASHSEED`` for string tokens, so any result or stats field
    built from raw set iteration differs across processes.  Iterate
    ``sorted(...)`` instead.  (``dict`` iteration is insertion-ordered
    in CPython and is deliberately not flagged.)
``RL102``
    ``float32`` / ``float16`` dtypes in kernel code.  Verification is
    float64-exact; a narrowed intermediate silently changes similarity
    values and therefore tie-breaks.
``RL103``
    ``np.argsort`` / ``np.sort`` without ``kind="stable"`` in merge
    paths.  The default introsort reorders equal keys unpredictably,
    breaking the canonical ``(-similarity, index)`` tie-break.
    ``np.argpartition`` is flagged outright: it returns an *order* and
    has no stable kind.  ``np.partition`` is not — a merge may take the
    kth *value* from it (the top-k pre-filter of ``core/search.py``) and
    let the record index settle ties.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.registry import Finding, rule
from repro.analysis.rules.common import (
    ORDER_PRESERVING_WRAPPERS,
    dotted_name,
    enclosing_function,
    keyword_value,
    location,
)

_QUERY_PATH = ("repro/core/", "repro/distributed/", "repro/serve/", "repro/api.py")
_KERNEL_PATH = ("repro/core/", "repro/storage/")
_MERGE_PATH = (
    "repro/core/search.py",
    "repro/core/batch.py",
    "repro/core/join.py",
    "repro/distributed/",
    "repro/serve/",
)

_SET_CALLS = frozenset({"set", "frozenset"})
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Consumers whose result does not depend on iteration order, so feeding
#: them a set directly is safe: ``sum(x for x in some_set)`` is exact.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "sum", "set", "frozenset", "min", "max", "any", "all", "len"}
)


def _unwrap(node: ast.expr) -> ast.expr:
    """Look through ``list(...)`` / ``tuple(...)`` / ``enumerate(...)``."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ORDER_PRESERVING_WRAPPERS
        and node.args
    ):
        node = node.args[0]
    return node


def _local_set_bindings(context: FileContext, node: ast.AST) -> frozenset[str]:
    """Names bound (only) to set-valued expressions in the enclosing scope."""
    scope: ast.AST | None = enclosing_function(context, node)
    if scope is None:
        scope = context.tree
    set_bound: set[str] = set()
    otherwise_bound: set[str] = set()
    for child in ast.walk(scope):
        if isinstance(child, ast.Assign) and len(child.targets) == 1:
            target = child.targets[0]
            if isinstance(target, ast.Name):
                if _is_set_expr(child.value, frozenset()):
                    set_bound.add(target.id)
                else:
                    otherwise_bound.add(target.id)
                continue
        # Any other binding construct makes the name's type unknown.
        for target_node in _binding_targets(child):
            otherwise_bound.add(target_node)
    return frozenset(set_bound - otherwise_bound)


def _binding_targets(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Assign):
        # Reaching here means the single-Name form was already handled:
        # whatever a tuple-unpack or attribute/subscript store binds is
        # of unknown type.
        for target in node.targets:
            yield from _names_in(target)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        yield from _names_in(node.target)
    elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
        yield node.target.id
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        yield node.target.id
    elif isinstance(node, ast.comprehension):
        yield from _names_in(node.target)
    elif isinstance(node, ast.withitem) and node.optional_vars is not None:
        yield from _names_in(node.optional_vars)


def _names_in(target: ast.expr) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
    node = _unwrap(node)
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SET_CALLS
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False


def _iteration_sites(tree: ast.Module) -> Iterator[tuple[ast.expr, ast.AST]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # SetComp results are unordered anyway, so iterating a set
            # inside one cannot leak an order.
            for generator in node.generators:
                yield generator.iter, node


@rule(
    code="RL101",
    name="unsorted-set-iteration",
    summary="iteration over a set in a query-path module without sorted()",
    invariant="bit-identical answers across engines, load modes and processes",
    scope=_QUERY_PATH,
)
def check_unsorted_set_iteration(context: FileContext) -> Iterator[Finding]:
    for iter_expr, site in _iteration_sites(context.tree):
        if isinstance(site, ast.GeneratorExp):
            parent = context.parent(site)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE_CONSUMERS
            ):
                continue
        set_names = _local_set_bindings(context, site)
        if _is_set_expr(iter_expr, set_names):
            line, col = location(iter_expr)
            yield (
                line,
                col,
                "iteration over a set leaks hash order into a query path — "
                "wrap the iterable in sorted(...) to keep answers "
                "bit-identical across processes",
            )


@rule(
    code="RL102",
    name="narrow-float-dtype",
    summary="float32/float16 dtype in kernel code (kernels are float64-exact)",
    invariant="float64-exact similarity kernels (columnar kernel == scalar oracle)",
    scope=_KERNEL_PATH,
)
def check_narrow_float_dtype(context: FileContext) -> Iterator[Finding]:
    narrow = {"float32", "float16"}
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Attribute) and node.attr in narrow:
            line, col = location(node)
            yield (
                line,
                col,
                f"{node.attr} in kernel code: similarity kernels are "
                "float64-exact, and a narrowed dtype changes scores and "
                "tie-breaks",
            )
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            suspects: list[ast.expr] = []
            if name.endswith(".astype") or name in {"np.dtype", "numpy.dtype"}:
                suspects.extend(node.args[:1])
            dtype_kw = keyword_value(node, "dtype")
            if dtype_kw is not None:
                suspects.append(dtype_kw)
            for suspect in suspects:
                if isinstance(suspect, ast.Constant) and suspect.value in narrow:
                    line, col = location(suspect)
                    yield (
                        line,
                        col,
                        f"dtype {suspect.value!r} in kernel code: similarity "
                        "kernels are float64-exact, and a narrowed dtype "
                        "changes scores and tie-breaks",
                    )


@rule(
    code="RL103",
    name="unstable-merge-sort",
    summary="np.argsort/np.sort without kind='stable', or np.argpartition, in a merge path",
    invariant="canonical (-similarity, index) tie-break in every merge",
    scope=_MERGE_PATH,
)
def check_unstable_merge_sort(context: FileContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        line, col = location(node)
        if name in {"np.argpartition", "numpy.argpartition"}:
            yield (
                line,
                col,
                f"{name} in a merge path: introselect places equal "
                "similarities in no defined order and has no stable kind; "
                "take the kth value with np.partition and break ties by "
                "record index",
            )
            continue
        if name not in {"np.argsort", "numpy.argsort", "np.sort", "numpy.sort"}:
            continue
        kind = keyword_value(node, "kind")
        if isinstance(kind, ast.Constant) and kind.value == "stable":
            continue
        yield (
            line,
            col,
            f"{name} without kind='stable' in a merge path: the default "
            "sort reorders equal similarities, breaking the canonical "
            "(-similarity, index) tie-break",
        )
