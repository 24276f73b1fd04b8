"""Resilience rules (RL3xx).

PR 7's fault-tolerance machinery rests on two hard lines: saves go
through :func:`repro.core.persistence.atomic_directory` (so a crash can
never leave a half-written generation), and supervision never retries
:class:`PersistenceError` or :class:`DeadlineExceeded` (an integrity
refusal or an expired budget is not a shard fault).  These rules keep
both lines, plus the classic bare-``except`` failure sink:

``RL301``
    ``os.rename`` / ``os.replace`` / ``shutil.move`` / ``shutil.copytree``
    in engine code outside ``repro/core/persistence.py``.  Directory
    swaps belong inside ``atomic_directory``; ad-hoc renames reintroduce
    torn saves.
``RL302``
    Catching ``PersistenceError`` / ``DeadlineExceeded`` inside a loop
    without re-raising (or leaving the loop) — i.e. retrying a fatal
    error.  These exceptions mean *stop*, not *try again*.
``RL303``
    Bare ``except:`` — swallows ``KeyboardInterrupt`` and ``SystemExit``
    and hides every programming error behind it.
``RL304``
    Writing ``dataset.bin`` (constructing ``ColumnarFileWriter``, or
    opening/overwriting a path that names the binary dataset) outside
    the save/compaction path.  A saved generation is immutable: the
    write path appends to ``delta.log``, and only a save or
    ``repro compact`` may produce a new ``dataset.bin`` — an ad-hoc
    rewrite desynchronizes the file from its manifest digest and from
    every epoch-keyed cache.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.registry import Finding, rule
from repro.analysis.rules.common import dotted_name, enclosing_function, location

_RENAME_CALLS = frozenset(
    {"os.rename", "os.replace", "os.renames", "shutil.move", "shutil.copytree"}
)

#: Exception names whose capture-and-continue is forbidden.
_FATAL_NAMES = frozenset({"PersistenceError", "DeadlineExceeded"})


@rule(
    code="RL301",
    name="save-bypasses-atomic-directory",
    summary="directory rename/move outside atomic_directory",
    invariant="crash-safe saves: every generation swap is staged + fsynced",
    scope=("repro/",),
    exempt=("repro/core/persistence.py", "repro/testing/"),
)
def check_save_bypasses_atomic_directory(context: FileContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name not in _RENAME_CALLS:
            continue
        line, col = location(node)
        yield (
            line,
            col,
            f"{name} bypasses atomic_directory: renames into a save "
            "directory must go through the staged fsync+swap in "
            "repro.core.persistence so a crash never leaves a torn save",
        )


def _fatal_exception_names(handler_type: ast.expr | None) -> list[str]:
    if handler_type is None:
        return []
    nodes = handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    caught: list[str] = []
    for node in nodes:
        name = dotted_name(node)
        tail = name.rsplit(".", 1)[-1]
        if tail in _FATAL_NAMES:
            caught.append(tail)
    return caught


def _leaves_the_loop(handler: ast.ExceptHandler) -> bool:
    """Does the handler body re-raise or exit the surrounding loop?"""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.Break, ast.Return)):
                return True
    return False


def _inside_loop(context: FileContext, node: ast.AST) -> bool:
    function = enclosing_function(context, node)
    for ancestor in context.ancestors(node):
        if ancestor is function:
            break
        if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
            return True
    return False


@rule(
    code="RL302",
    name="retried-fatal-error",
    summary="PersistenceError/DeadlineExceeded caught in a loop without re-raise",
    invariant="fatal errors are never retried or fallen back on",
    scope=("repro/",),
)
def check_retried_fatal_error(context: FileContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = _fatal_exception_names(node.type)
        if not caught:
            continue
        if not _inside_loop(context, node):
            continue  # translating at a boundary (e.g. HTTP 504) is fine
        if _leaves_the_loop(node):
            continue
        line, col = location(node)
        yield (
            line,
            col,
            f"catching {' / '.join(sorted(set(caught)))} inside a loop "
            "without re-raising retries a fatal error: an integrity "
            "refusal or expired deadline must stop the operation",
        )


_DATASET_BIN_WRITERS = frozenset({"write_bytes", "write_text", "open"})
# open() modes that can mutate an existing file
_WRITE_MODE_CHARS = frozenset("wax+")


def _mentions_dataset_bin(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and "dataset.bin" in sub.value
        ):
            return True
        if isinstance(sub, ast.Name) and sub.id == "DATASET_BIN":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "DATASET_BIN":
            return True
    return False


def _open_mode(node: ast.Call) -> str | None:
    """The literal mode of an ``open``-style call, if statically known."""
    mode: ast.expr | None = None
    if isinstance(node.func, ast.Attribute):
        if node.args:
            mode = node.args[0]  # path.open("wb")
    elif len(node.args) >= 2:
        mode = node.args[1]  # open(path, "wb")
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"  # both built-in open and Path.open default to read
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: assume the worst


@rule(
    code="RL304",
    name="dataset-bin-mutated-outside-compaction",
    summary="dataset.bin written outside the save/compaction path",
    invariant="generations are immutable: mutations go to delta.log, "
    "new dataset.bin files come only from save/compact",
    scope=("repro/",),
    exempt=(
        "repro/core/persistence.py",
        "repro/storage/columnar_file.py",
        "repro/testing/",
    ),
)
def check_dataset_bin_mutated(context: FileContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        tail = name.rsplit(".", 1)[-1]
        if tail == "ColumnarFileWriter":
            line, col = location(node)
            yield (
                line,
                col,
                "ColumnarFileWriter outside the save/compaction path "
                "rewrites a generation's binary dataset in place — "
                "mutations belong in delta.log; only the generation "
                "writer in repro/core/persistence.py (behind save_engine/"
                "save_sharded) may emit a dataset.bin",
            )
            continue
        if tail not in _DATASET_BIN_WRITERS:
            continue
        if not _mentions_dataset_bin(node):
            continue
        if tail == "open":
            mode = _open_mode(node)
            if mode is not None and not (set(mode) & _WRITE_MODE_CHARS):
                continue  # read-only open: mmap loads and digest checks
        line, col = location(node)
        yield (
            line,
            col,
            "writing dataset.bin directly desynchronizes it from the "
            "manifest digest and every epoch-keyed cache — append to "
            "delta.log and let save/compact produce the next generation",
        )


@rule(
    code="RL303",
    name="bare-except",
    summary="bare `except:` clause",
    invariant="failures surface; nothing swallows KeyboardInterrupt/SystemExit",
)
def check_bare_except(context: FileContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            line, col = location(node)
            yield (
                line,
                col,
                "bare 'except:' catches KeyboardInterrupt/SystemExit and "
                "hides every failure — name the exceptions (or use "
                "'except Exception' with a reviewed justification)",
            )
