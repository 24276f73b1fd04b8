"""``repro.analysis`` — the engine's own static-analysis toolchain.

An AST-based invariant checker (``repro lint``) purpose-built for this
codebase: every rule encodes a contract the sharded, persistent,
fault-tolerant query engine actually depends on — bit-identity across
configurations, lock discipline, crash-safe saves, never-retried fatal
errors, owned file handles, and strict-module annotation coverage.

>>> from repro.analysis import analyze_source
>>> source = '''
... try:
...     risky()
... except:
...     pass
... '''
>>> [diagnostic.code for diagnostic in analyze_source(source)]
['RL303']

See ``docs/static-analysis.md`` for the full rule table, the
suppression syntax, and how to add a rule.
"""

from repro.analysis.diagnostics import Diagnostic, render_json, render_text
from repro.analysis.engine import (
    FileContext,
    analyze_file,
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from repro.analysis.registry import Rule, RuleError, all_rules, get_rule, resolve_codes

__all__ = [
    "Diagnostic",
    "FileContext",
    "Rule",
    "RuleError",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "get_rule",
    "iter_python_files",
    "render_json",
    "render_text",
    "resolve_codes",
]
