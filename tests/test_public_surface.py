"""Every public name of a bchsim module is read by something besides its unit tests.

A name in a submodule's ``__all__`` must be referenced, other than by its
own definition, in the package, the benchmark harness, the scripts or the
acceptance tests.  A public name that only its own unit tests read is
surface the program does not need.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import bchsim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bchsim"
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(bchsim.__path__))


def references(source: str, own: str | None = None) -> set[tuple[str, str]]:
    """(module, name) pairs of bchsim submodule names that source reads.

    A name counts where it is imported from its module, read as an
    attribute of a name bound to that module, or loaded bare inside its own
    module (own).  A name imported from the package root, which re-exports
    it, counts for any module ("*").  Definitions, assignments, strings and
    comments never count, and neither does a local of the same name.
    """
    tree = ast.parse(source)
    bound, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"bchsim.{base}" if base else "bchsim"
            for alias in node.names:
                if base.startswith("bchsim."):
                    refs.add((base.split(".")[1], alias.name))
                elif base == "bchsim" and alias.name in SUBMODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif base == "bchsim":
                    refs.add(("*", alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "bchsim" and len(parts) == 2 and alias.asname:
                    bound[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            refs.add((bound[node.value.id], node.attr))
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((own, node.id))
    return refs


def unread(public: dict[str, list[str]], sources: list[tuple[str, str | None]]) -> list[str]:
    """The module.name entries of public that no source reads.

    sources pairs each source text with the submodule it is, or with None.
    """
    read = set().union(*(references(text, own) for text, own in sources))
    return [f"{module}.{name}" for module, names in public.items() for name in names
            if (module, name) not in read and ("*", name) not in read]


def test_every_public_name_is_read_outside_its_unit_tests():
    # the guard's own control: a public function that only a test calls,
    # with a local of the same name in the caller
    planted = "def used():\n    return 1\n\n\ndef test_only():\n    return 2\n"
    caller = "from bchsim import grid\n\ntest_only = 3\ngrid.used(test_only)\n"
    test = "from bchsim.grid import test_only\n\nassert test_only() == 2\n"
    public = {"grid": ["used", "test_only"]}
    assert unread(public, [(planted, "grid"), (caller, None)]) == ["grid.test_only"]
    assert unread(public, [(planted, "grid"), (caller, None), (test, None)]) == []

    public = {name: list(importlib.import_module(f"bchsim.{name}").__all__)
              for name in SUBMODULES}
    sources = [(path.read_text(), path.stem if path.parent == PACKAGE else None)
               for path in READERS]
    assert unread(public, sources) == []
