"""The package namespace re-exports every module's __all__, the
sources parse as the Python floor that pyproject.toml declares, and
every name a source imports is used.

hsdpa_ee/__init__.py star-imports each module but cli_report, the
command line front end, so a name added to a module's __all__ is a
package name without being listed a second time.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hsdpa_ee

ROOT = Path(__file__).resolve().parents[1]

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(hsdpa_ee.__path__)
    if info.name not in ("cli_report", "__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_each_name_in_all_is_the_package_name(name):
    module = importlib.import_module(f"hsdpa_ee.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(hsdpa_ee, public) is getattr(module, public), public


def test_cli_report_names_stay_out_of_the_package_namespace():
    cli_report = importlib.import_module("hsdpa_ee.cli_report")
    assert not any(hasattr(hsdpa_ee, public) for public in cli_report.__all__)


def _floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's requires-python floor."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


SOURCES = sorted(
    str(p.relative_to(ROOT))
    for pattern in ("src/hsdpa_ee/*.py", "tools/*.py", "demos/*.py")
    for p in ROOT.glob(pattern)
)


@pytest.mark.parametrize("source", SOURCES)
def test_source_parses_under_the_declared_python_floor(source):
    # the suite may run on a newer interpreter than the floor, so the
    # floor's grammar is checked by parsing: ast rejects syntax newer
    # than feature_version
    ast.parse((ROOT / source).read_text(encoding="utf-8"), source, feature_version=_floor())


def test_newer_syntax_fails_the_floor_check():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=_floor())


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """The names tree's imports bind, with their lines; __future__ and
    star imports bind none that code reads."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = alias.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """The names tree reads: in code, in annotations (string ones too)
    and as the strings of __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # an argument's or assignment's annotation, or a return's
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used_names(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("source", SOURCES)
def test_every_imported_name_is_used(source):
    tree = ast.parse((ROOT / source).read_text(encoding="utf-8"), source)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{source}: imported and never used: {unused}"


def test_the_import_check_counts_annotations_and_all():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from os import *\n"
        "import a.b\n"
        "from m import c, d as e, f, g, h\n"
        "__all__ = ['f']\n"
        "def k(x: c) -> 'e':\n"
        "    y: list[g] = a.b\n"
    )
    used = _used_names(tree)
    assert set(_imported_names(tree)) == {"a", "c", "e", "f", "g", "h"}
    assert {name for name in _imported_names(tree) if name not in used} == {"h"}
