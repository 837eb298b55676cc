"""docs/API.md agrees with the packages it documents.

Every name a documented package exports through ``__all__`` has a row in
that package's ``##`` section, and every row names something that exists in
its section's module: a dotted row (``Document.sentences``) resolves
attribute by attribute, or as a dataclass field.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

API = Path(__file__).resolve().parent.parent / "docs" / "API.md"
_HEADING = re.compile(r"^(#{2,3}) `([\w.]+)`")
_ROW = re.compile(r"^\| `([\w.]+)` \|")


def _sections():
    """``(level, module, row names)`` per ``##``/``###`` heading, in order."""
    sections = []
    for line in API.read_text().splitlines():
        heading = _HEADING.match(line)
        if heading:
            sections.append((len(heading.group(1)), heading.group(2), []))
            continue
        row = _ROW.match(line)
        if row and sections:
            sections[-1][2].append(row.group(1))
    return sections


SECTIONS = _sections()
PACKAGES = [(module, rows) for level, module, rows in SECTIONS if level == 2]


def _resolve(module, dotted: str) -> bool:
    owner = module
    for part in dotted.split("."):
        if hasattr(owner, part):
            owner = getattr(owner, part)
        elif dataclasses.is_dataclass(owner) and part in {
            field.name for field in dataclasses.fields(owner)
        }:
            return True
        else:
            return False
    return True


def test_sections_found():
    assert len(PACKAGES) >= 10
    assert all(rows for _, rows in PACKAGES)


@pytest.mark.parametrize("module_name,rows", PACKAGES, ids=[m for m, _ in PACKAGES])
def test_every_exported_name_has_a_row(module_name, rows):
    module = importlib.import_module(module_name)
    missing = sorted(set(module.__all__) - set(rows))
    assert not missing, f"{module_name}: no docs/API.md row for {missing}"


@pytest.mark.parametrize(
    "module_name,rows", [(m, r) for _, m, r in SECTIONS], ids=[m for _, m, _ in SECTIONS]
)
def test_every_row_resolves(module_name, rows):
    module = importlib.import_module(module_name)
    unresolved = [name for name in rows if not _resolve(module, name)]
    assert not unresolved, f"{module_name}: docs/API.md rows name nothing: {unresolved}"
