"""``docs/architecture.md``'s module map cannot drift from the tree.

Every package and top-level module under ``src/repro/`` — and every
module of the four packages the map details (``core/``,
``distributed/``, ``serve/``, ``storage/``) — must be named in the map,
and every name in the map must exist.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DETAILED = ("core", "distributed", "serve", "storage")

# An entry is a name at two (top level) or four (inside a package) spaces;
# description continuation lines are indented far deeper.
_ENTRY = re.compile(r"^(  |    )([A-Za-z_]+/?)(?:\s|$)")


def documented() -> set[str]:
    """Paths named by the map, relative to ``src/repro`` (packages end in ``/``)."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    block = text.split("## Module map", 1)[1].split("```", 2)[1]
    names, package = set(), ""
    for line in block.splitlines():
        entry = _ENTRY.match(line)
        if entry is None:
            continue
        indent, name = entry.groups()
        if len(indent) == 2:
            package = name if name.endswith("/") else ""
            names.add(name)
        else:
            assert package, f"nested entry {name!r} outside a package"
            names.add(package + name)
    return names


def in_the_tree() -> set[str]:
    def children(directory: Path, prefix: str) -> set[str]:
        found = set()
        for path in directory.iterdir():
            if path.is_dir() and (path / "__init__.py").is_file():
                found.add(f"{prefix}{path.name}/")
            elif path.suffix == ".py" and path.name != "__init__.py":
                found.add(prefix + path.stem)
        return found

    names = children(PACKAGE, "")
    for package in DETAILED:
        names |= children(PACKAGE / package, f"{package}/")
    return names


def test_module_map_matches_the_tree():
    named, tree = documented(), in_the_tree()
    assert not tree - named, f"missing from the module map: {sorted(tree - named)}"
    for name in sorted(named):
        path = PACKAGE / name.rstrip("/")
        exists = (
            (path / "__init__.py").is_file() if name.endswith("/")
            else path.with_suffix(".py").is_file()
        )
        assert exists, f"the module map names {name!r}, which is not in src/repro/"
