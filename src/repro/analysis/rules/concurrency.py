"""Concurrency rules (RL2xx).

The sharded engine and the serving layer own real threads and shared
mutable state.  PRs 4–7 fixed (and re-fixed) the same three mistakes;
these rules keep them fixed:

``RL201``
    A ``concurrent.futures`` pool executor (thread or process) created
    without a guaranteed shutdown: not a ``with`` block, not a
    ``finally`` that shuts it down, and not handed to an object whose
    class exposes a shutdown path.  Leaked pools strand workers and
    hang interpreter exit.
``RL202``
    Mutating shared state of a lock-guarded class outside its lock.  A
    class that creates ``self._lock`` has declared its state shared;
    counters, caches, and containers touched off-lock are data races.
``RL203``
    Dispatching per-shard work to an executor without a
    :func:`repro.testing.faults.fault_point` in the function.  Every
    shard fan-out must be chaos-testable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.registry import Finding, rule
from repro.analysis.rules.common import (
    dotted_name,
    enclosing_class,
    enclosing_function,
    is_with_context_expr,
    location,
)

#: Matches both stdlib pools (``Thread…``/``Process…``), bare or dotted.
_EXECUTOR_SUFFIX = "PoolExecutor"

#: Method names that mutate a container in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
    }
)


def _is_executor_call(node: ast.Call) -> bool:
    name = dotted_name(node.func)
    return name.endswith(_EXECUTOR_SUFFIX) if name else False


def _finally_shuts_down(function: ast.AST, target: str) -> bool:
    """Does any ``finally`` in ``function`` call ``<target>.shutdown``?"""
    for node in ast.walk(function):
        if not isinstance(node, ast.Try):
            continue
        for final_stmt in node.finalbody:
            for child in ast.walk(final_stmt):
                if (
                    isinstance(child, ast.Call)
                    and dotted_name(child.func) == f"{target}.shutdown"
                ):
                    return True
    return False


def _class_has_shutdown_path(class_def: ast.ClassDef) -> bool:
    """Does the class reference ``.shutdown`` anywhere (close/__exit__/...)?"""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "shutdown"
        for node in ast.walk(class_def)
    )


@rule(
    code="RL201",
    name="unguarded-executor",
    summary="executor without with-block, finally-shutdown, or owning class",
    invariant="pool shutdown is guaranteed on every exit path",
)
def check_unguarded_executor(context: FileContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not (isinstance(node, ast.Call) and _is_executor_call(node)):
            continue
        if is_with_context_expr(context, node):
            continue
        parent = context.parent(node)
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Attribute):
                # Handed to an object: its class must expose a shutdown
                # path (a close()/__exit__ calling .shutdown).
                owner = enclosing_class(context, node)
                if owner is not None and _class_has_shutdown_path(owner):
                    continue
            elif isinstance(target, ast.Name):
                function = enclosing_function(context, node)
                if function is not None and _finally_shuts_down(function, target.id):
                    continue
                if function is not None and _is_returned(function, target.id):
                    continue
        if isinstance(parent, ast.Return):
            continue  # ownership moves to the caller
        line, col = location(node)
        yield (
            line,
            col,
            "executor has no guaranteed shutdown: use `with`, shut it "
            "down in a `finally`, or store it on a class that closes it",
        )


def _is_returned(function: ast.AST, name: str) -> bool:
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            return True
    return False


def _is_lock_name(name: str) -> bool:
    """``_lock`` / ``cache_lock`` / ``_cond`` — but not ``_breaker_clock``."""
    parts = name.lower().strip("_").split("_")
    return any(part in {"lock", "mutex", "cond", "condition"} for part in parts)


def _locked_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Classes that create a ``self.*lock*`` attribute anywhere."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Assign)
                and any(
                    isinstance(target, ast.Attribute)
                    and _is_lock_name(target.attr)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    for target in child.targets
                )
            ):
                yield node
                break


def _under_lock(context: FileContext, node: ast.AST) -> bool:
    """Is ``node`` inside a ``with self._lock:``-style block?"""
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                name = dotted_name(item.context_expr)
                if name and _is_lock_name(name.rsplit(".", 1)[-1]):
                    return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return False


def _self_attribute(node: ast.expr) -> str | None:
    """``x`` for ``self.x`` / ``self.x[...]``; None otherwise."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@rule(
    code="RL202",
    name="unlocked-shared-mutation",
    summary="mutating a lock-guarded class's state outside its lock",
    invariant="shared engine/cache/stats state changes only under the lock",
    scope=("repro/",),
)
def check_unlocked_shared_mutation(context: FileContext) -> Iterator[Finding]:
    for class_def in _locked_classes(context.tree):
        for method in class_def.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction happens-before sharing
            for node in ast.walk(method):
                finding = _mutation_of_self(node)
                if finding is None:
                    continue
                if _under_lock(context, node):
                    continue
                attribute, verb = finding
                line, col = location(node)
                yield (
                    line,
                    col,
                    f"{verb} of self.{attribute} outside the lock in a "
                    f"lock-guarded class ({class_def.name}): wrap it in "
                    "`with self._lock:` or document why it is safe",
                )


def _mutation_of_self(node: ast.AST) -> tuple[str, str] | None:
    if isinstance(node, ast.AugAssign):
        attribute = _self_attribute(node.target)
        if attribute is not None:
            return attribute, "augmented assignment"
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            attribute = _self_attribute(target)
            if attribute is not None and not attribute.startswith("__"):
                verb = (
                    "item assignment"
                    if isinstance(target, ast.Subscript)
                    else "assignment"
                )
                return attribute, verb
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATING_METHODS:
            attribute = _self_attribute(node.func.value)
            if attribute is not None:
                return attribute, f"in-place .{node.func.attr}()"
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attribute = _self_attribute(target)
            if attribute is not None:
                return attribute, "deletion"
    return None


def _mentions_shard(text: str) -> bool:
    return "shard" in text.lower()


@rule(
    code="RL203",
    name="shard-fanout-without-fault-point",
    summary="shard work submitted to an executor with no fault_point in reach",
    invariant="every shard fan-out path is chaos-testable",
    scope=("repro/distributed/",),
)
def check_shard_fanout_without_fault_point(context: FileContext) -> Iterator[Finding]:
    # The unit is the *outermost* function: closures share their parent's
    # chaos coverage (a fault_point in either is reachable by the plan).
    for node in context.tree.body:
        functions: list[ast.AST] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
        elif isinstance(node, ast.ClassDef):
            functions.extend(
                child
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        for function in functions:
            submit_call = _shard_submit_site(context, function)
            if submit_call is None:
                continue
            if _calls_fault_point(function):
                continue
            line, col = location(submit_call)
            yield (
                line,
                col,
                f"{function.name} submits per-shard work to an executor but "
                "never calls fault_point(...): the chaos harness cannot "
                "inject failures here, so supervision goes untested",
            )


def _shard_submit_site(context: FileContext, function: ast.AST) -> ast.Call | None:
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name != "submit" and not name.endswith(".submit"):
            continue
        if _mentions_shard(context.segment(node)) or _in_shard_loop(context, node):
            return node
    return None


def _in_shard_loop(context: FileContext, node: ast.AST) -> bool:
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, (ast.For, ast.AsyncFor)):
            header = ast.unparse(ancestor.target) + " " + ast.unparse(ancestor.iter)
            if _mentions_shard(header):
                return True
        if isinstance(ancestor, ast.ClassDef):
            break
    return False


def _calls_fault_point(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and dotted_name(node.func).endswith(
            "fault_point"
        ):
            return True
    return False
