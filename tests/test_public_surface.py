"""Every public name of a bchsim module is read by something besides its unit tests.

A name in a submodule's ``__all__`` must be referenced, other than by its
own definition, in the package, the benchmark harness, the scripts or the
acceptance tests.  So must every method, property and dataclass field of
a public class.  A public name that only its own unit tests read is
surface the program does not need.  So is a defaulted parameter of a
public function or method that no call there passes: a knob only tests
turn.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import types
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


# members kept although nothing reads them, each with its reason
UNREAD_MEMBERS_KEPT = {
    # marks a fault: the table stopped short of e_cap at the last amplitude
    # distinguishable from the binodal
    "energy.EnergyPeriodTable.truncated",
}


def members(cls: type) -> list[str]:
    """The dataclass fields, methods and properties of cls, dunders excepted."""
    names = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    names += [name for name, value in vars(cls).items()
              if not (name.startswith("__") and name.endswith("__"))
              and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))]
    return names


def unread_members(classes: dict[str, list[str]], sources: list[str]) -> list[str]:
    """The class.member entries of classes that no source loads as an attribute."""
    loaded = {node.attr for text in sources for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls}.{name}" for cls, names in classes.items() for name in names
            if name not in loaded]


def test_every_public_class_member_is_read_outside_its_unit_tests():
    # the guard's own control: a field that is only stored, never loaded,
    # outside a test, and a dunder that nothing reads
    @dataclasses.dataclass
    class Planted:
        read: float
        test_only: float

        def used(self):
            return self.read

        def __call__(self):
            return 0.0

    assert members(Planted) == ["read", "test_only", "used"]
    caller = "planted.used(planted.read)\nplanted.test_only = 2.0\n"
    test = "assert planted.test_only == 2.0\n"
    classes = {"grid.Planted": members(Planted)}
    assert unread_members(classes, [caller]) == ["grid.Planted.test_only"]
    assert unread_members(classes, [caller, test]) == []

    classes = {}
    for module_name in SUBMODULES:
        module = importlib.import_module(f"bchsim.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type):
                classes[f"{module_name}.{name}"] = members(obj)
    unread = unread_members(classes, [path.read_text() for path in READERS])
    assert [m for m in unread if m not in UNREAD_MEMBERS_KEPT] == []


def defaulted(fn, method: bool = False) -> list[tuple[str, int | None]]:
    """The defaulted parameters of fn, each with its position in a call, None
    for a keyword-only one.  A method's position does not count self."""
    params = list(inspect.signature(fn).parameters.values())[int(method):]
    return [(p.name, i if p.kind is p.POSITIONAL_OR_KEYWORD else None)
            for i, p in enumerate(params)
            if p.default is not p.empty and p.kind is not p.VAR_KEYWORD]


def unpassed(knobs: dict[str, list[tuple[str, int | None]]], sources: list[str]) -> list[str]:
    """The name(parameter) entries of knobs that no call in sources passes.

    A call counts for the function or method of its called name, the last
    part of each knobs key.  It passes a parameter by keyword, by a
    positional argument at that parameter's position, or by unpacking.
    """
    calls = [node for text in sources for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call)]
    out = []
    for key, params in knobs.items():
        name = key.rsplit(".", 1)[-1]
        mine = [c for c in calls if getattr(c.func, "id", getattr(c.func, "attr", None)) == name]
        for param, position in params:
            if not any(any(k.arg in (param, None) for k in c.keywords)
                       or (position is not None
                           and (len(c.args) > position
                                or any(isinstance(a, ast.Starred) for a in c.args)))
                       for c in mine):
                out.append(f"{key}({param})")
    return out


def test_every_defaulted_parameter_is_passed_outside_its_unit_tests():
    # the guard's own control: a knob only a test sets, beside one passed by
    # keyword, one passed by position and a keyword-only one
    def planted(x, by_keyword=1, by_position=2, test_only=3, *, keyword_only=4):
        return x

    class Planted:
        def method(self, x, by_position=1):
            return x

    knobs = {"grid.planted": defaulted(planted),
             "grid.Planted.method": defaulted(Planted.method, method=True)}
    assert knobs["grid.planted"] == [("by_keyword", 1), ("by_position", 2), ("test_only", 3),
                                     ("keyword_only", None)]
    caller = ("grid.planted(0, by_keyword=1, keyword_only=2)\nplanted(0, 1, 2)\n"
              "obj.method(0, 5)\ntest_only = 3\n")
    test = "planted(0, test_only=5)\n"
    assert unpassed(knobs, [caller]) == ["grid.planted(test_only)"]
    assert unpassed(knobs, [caller, test]) == []

    knobs = {}
    for module_name in SUBMODULES:
        module = importlib.import_module(f"bchsim.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, types.FunctionType):
                knobs[f"{module_name}.{name}"] = defaulted(obj)
            elif isinstance(obj, type):
                for member, value in vars(obj).items():
                    fn = getattr(value, "__func__", value)  # a classmethod's or staticmethod's
                    if isinstance(fn, types.FunctionType) and not member.startswith("__"):
                        knobs[f"{module_name}.{name}.{member}"] = defaulted(
                            fn, method=not isinstance(value, staticmethod))
    assert unpassed(knobs, [path.read_text() for path in READERS]) == []
