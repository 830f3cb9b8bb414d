"""Every name a library module imports is used in that module, each
module imports at run time only the package modules its layer allows,
every private name the library defines is read somewhere in the library,
every public module-level function and class and every public method and
property of a library class is read outside its own definition by the
library or the benchmark, every defaulted parameter of a public function
or method is passed by some call in the library or the benchmark, no
module imports another module's private name, and no module uses
``functools.cached_property``.

Names that ``enexmatch/__init__.py`` lists in ``__all__`` are re-exports
and count as used there.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import enexmatch

PACKAGE = Path(enexmatch.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
# The benchmark and its tests read the library from outside it; this
# directory's tests do not count as readers.
BENCHMARK_MODULES = sorted((PACKAGE.parents[1] / "perfbench").rglob("*.py"))


def imported_names(tree):
    """Names bound by every import outside ``from __future__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def quoted_annotation_names(tree):
    """Names inside the quoted parts of annotations, one per occurrence."""
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                yield from (n.id for n in ast.walk(inner) if isinstance(n, ast.Name))


def used_names(tree):
    """Names read anywhere, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return used | set(quoted_annotation_names(tree))


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    spare = imported_names(tree) - used_names(tree) - exported_names(tree)
    return sorted(spare)


# The package modules each module may import at run time. The discriminant
# knows nothing of traits or galleries; the gallery and matching both build
# on the discriminant's ClassBlock and never import each other; evaluation
# and the CLI sit on top. Imports under ``if TYPE_CHECKING:`` do not count.
LAYERS = {
    "errors": set(),
    "imaging": {"errors"},
    "features": {"imaging"},
    "discriminant": {"errors"},
    "gallery": {"errors", "discriminant", "features"},
    "matching": {"errors", "discriminant", "features"},
    "evaluation": {"errors", "imaging", "features", "gallery", "matching"},
    "cli": {"errors", "imaging", "features", "gallery", "matching", "evaluation"},
    "__init__": {
        "errors", "imaging", "features", "discriminant", "gallery", "matching",
        "evaluation",
    },
}


def private_definitions(tree):
    """Module-level functions, classes and constants, and methods, named with a
    leading underscore but not dunder names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            names.extend(n.name for n in node.body if isinstance(n, ast.FunctionDef))
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def unreferenced_private_names(sources):
    """Private names defined in ``sources`` that no source reads, by name or attribute."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = {name for tree in trees for name in private_definitions(tree)}
    return sorted(defined - read)


def attribute_reads(tree):
    """How often each attribute name is read in ``tree``."""
    return Counter(
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def unread_public_members(library, readers=()):
    """Public methods and properties of the classes in ``library`` that no
    source in ``library`` or ``readers`` reads by attribute name outside the
    class's own body."""
    trees = [ast.parse(source) for source in library]
    reads = sum(map(attribute_reads, trees + [ast.parse(s) for s in readers]), Counter())
    unread = []
    for tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            own = attribute_reads(cls)
            unread.extend(
                node.name
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and reads[node.name] == own[node.name]
            )
    return sorted(unread)


def name_reads(tree):
    """How often each name is read in ``tree``, as a name, an attribute or
    a quoted annotation; an import binds a name but does not read it."""
    reads = attribute_reads(tree)
    reads.update(
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )
    reads.update(quoted_annotation_names(tree))
    return reads


def unread_public_definitions(library, readers=()):
    """Public module-level functions and classes of ``library`` that no
    source in ``library`` or ``readers`` reads outside their own
    definition. Listing a name in ``__all__`` is not a read."""
    trees = [ast.parse(source) for source in library]
    reads = sum(map(name_reads, trees + [ast.parse(s) for s in readers]), Counter())
    return sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and reads[node.name] == name_reads(node)[node.name]
    )


def defaulted_parameters(function, method):
    """Each defaulted parameter of ``function`` with its place among the
    positional arguments a call writes, or None when only a keyword sets it.
    A method's place leaves out ``self`` or ``cls``, as an attribute call does."""
    spec = function.args
    positional = spec.posonlyargs + spec.args
    skip = method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list
    )
    first = len(positional) - len(spec.defaults)
    for place, arg in enumerate(positional[first:], start=first - skip):
        yield arg.arg, place
    for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
        if default is not None:
            yield arg.arg, None


def unset_defaults(library, readers=()):
    """``function(parameter)`` for each defaulted parameter of a public
    module-level function or public method in ``library`` that no call in
    ``library`` or ``readers`` passes, by keyword or by position.

    A call is matched to a definition by the name it calls alone, so a call
    to another function of the same name counts as one that passes."""
    trees = [ast.parse(source) for source in library]
    calls = {}
    for tree in trees + [ast.parse(source) for source in readers]:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            calls.setdefault(name, []).append(call)

    def passed(call, name, place):
        if any(k.arg in (None, name) for k in call.keywords):
            return True
        if place is None:
            return False
        return len(call.args) > place or any(isinstance(a, ast.Starred) for a in call.args)

    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((node, False))
            elif isinstance(node, ast.ClassDef):
                definitions.extend(
                    (n, True) for n in node.body if isinstance(n, ast.FunctionDef)
                )
    return sorted(
        f"{function.name}({name})"
        for function, method in definitions
        if not function.name.startswith("_")
        for name, place in defaulted_parameters(function, method)
        if not any(passed(call, name, place) for call in calls.get(function.name, ()))
    )


def package_imports(source):
    """The package modules a module imports outside ``if TYPE_CHECKING:`` blocks."""
    found = set()

    def visit(node):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            nodes = node.orelse
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "enexmatch":
                    return
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
            return
        elif isinstance(node, ast.Import):
            found.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("enexmatch.")
            )
            return
        else:
            nodes = ast.iter_child_nodes(node)
        for child in nodes:
            visit(child)

    visit(ast.parse(source))
    return found


def private_imports(source):
    """Private names a module imports from a package module, as written:
    ``.gallery._pack`` or ``enexmatch.gallery._pack``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "enexmatch":
            continue
        prefix = "." * node.level + (f"{module}." if module else "")
        found.extend(
            prefix + a.name
            for a in node.names
            if a.name.startswith("_") and not a.name.endswith("__")
        )
    return sorted(found)


def cached_properties(source):
    """Lines that name ``cached_property`` in code, as an import, a name or
    an attribute; comments and strings do not count."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.alias) and node.name == "cached_property")
        or (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
    )


def test_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_runtime_imports_follow_the_layers(module):
    assert package_imports(module.read_text(encoding="utf-8")) == LAYERS[module.stem]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported(module):
    assert private_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_cached_properties(module):
    # A cached value is written into the built instance's __dict__ on first
    # read, which slows every later attribute read on that instance; the
    # library derives such values on construction instead.
    assert cached_properties(module.read_text(encoding="utf-8")) == []


def test_every_exported_name_is_bound_once():
    names = enexmatch.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(enexmatch, name)] == []


def test_every_private_name_is_read():
    sources = [module.read_text(encoding="utf-8") for module in MODULES]
    assert unreferenced_private_names(sources) == []


def test_every_public_member_is_read():
    library = [module.read_text(encoding="utf-8") for module in MODULES]
    readers = [module.read_text(encoding="utf-8") for module in BENCHMARK_MODULES]
    assert readers
    assert unread_public_members(library, readers) == []


def test_every_public_definition_is_read():
    # parse_report is the documented inverse of emit_report: callers read
    # a written report back with it, and the tests check the round trip.
    library = [module.read_text(encoding="utf-8") for module in MODULES]
    readers = [module.read_text(encoding="utf-8") for module in BENCHMARK_MODULES]
    assert readers
    assert unread_public_definitions(library, readers) == ["parse_report"]


def test_every_default_is_overridden_somewhere():
    # A default that no caller overrides is a constant with a parameter's cost.
    library = [module.read_text(encoding="utf-8") for module in MODULES]
    readers = [module.read_text(encoding="utf-8") for module in BENCHMARK_MODULES]
    assert readers
    assert unset_defaults(library, readers) == []


class TestChecker:
    def test_flags_an_unused_import(self):
        source = "import os\nfrom typing import Mapping, Sequence\nx: Mapping = {}\n"
        assert unused_imports(source) == ["Sequence", "os"]

    def test_reads_quoted_annotations_and_aliases(self):
        source = (
            "from __future__ import annotations\n"
            "import numpy as np\n"
            "from pathlib import Path\n"
            "from typing import Sequence\n"
            "def f(p: 'Path', q: list['Sequence']) -> None:\n"
            "    return np.zeros(1)\n"
        )
        assert unused_imports(source) == []

    def test_plain_strings_do_not_count_as_use(self):
        source = "from pathlib import Path\nNAME = 'Path'\n"
        assert unused_imports(source) == ["Path"]

    def test_all_exempts_re_exports(self):
        source = "from .gallery import Gallery, MAGIC\n__all__ = ['Gallery']\n"
        assert unused_imports(source) == ["MAGIC"]

    def test_flags_private_names_nothing_reads(self):
        source = (
            "_LIMIT = 3\n"
            "_USED = 4\n"
            "def _unused():\n"
            "    return _USED\n"
            "class _Box:\n"
            "    def __init__(self):\n"
            "        self._fill()\n"
            "    def _fill(self):\n"
            "        pass\n"
            "    def _spare(self):\n"
            "        pass\n"
        )
        assert unreferenced_private_names([source]) == ["_Box", "_LIMIT", "_spare", "_unused"]
        user = "from box import _Box, _unused\n_unused()\nx = _Box()\n"
        assert unreferenced_private_names([source, user]) == ["_LIMIT", "_spare"]

    def test_flags_public_members_read_only_by_their_own_class(self):
        source = (
            "class Box:\n"
            "    def __len__(self):\n"
            "        return self.size + self.spare()\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 1\n"
            "    def spare(self):\n"
            "        return 0\n"
            "    def used(self):\n"
            "        return 2\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls()\n"
        )
        assert unread_public_members([source]) == ["make", "size", "spare", "used"]
        user = "box = Box.make()\nbox.used = 3\nprint(box.size)\n"
        assert unread_public_members([source], [user]) == ["spare", "used"]

    def test_flags_public_definitions_read_only_by_themselves(self):
        source = (
            "from typing import Sequence\n"
            "def spare():\n"
            "    return spare\n"
            "def used(x: 'Sequence[Kept]') -> int:\n"
            "    return 1\n"
            "class Box:\n"
            "    def make(self):\n"
            "        return Box()\n"
            "class Kept:\n"
            "    pass\n"
            "def _private():\n"
            "    return used([])\n"
            "__all__ = ['spare', 'used', 'Box', 'Kept']\n"
        )
        assert unread_public_definitions([source]) == ["Box", "spare"]
        user = "import lib\nfrom lib import spare\nlib.Box().make()\n"
        assert unread_public_definitions([source], [user]) == ["spare"]

    def test_flags_defaults_that_no_call_passes(self):
        source = (
            "def f(a, b=1, c=2, *, d=3, e=4):\n"
            "    return f(a, 5, e=6)\n"
            "def _private(x=1):\n"
            "    return x\n"
            "class Box:\n"
            "    def put(self, item, size=1, *rest):\n"
            "        return item\n"
            "    @staticmethod\n"
            "    def make(size=1):\n"
            "        return Box()\n"
            "    @classmethod\n"
            "    def load(cls, path='x'):\n"
            "        return cls()\n"
            "    def grow(self, by=1):\n"
            "        return self\n"
        )
        assert unset_defaults([source]) == [
            "f(c)", "f(d)", "grow(by)", "load(path)", "make(size)", "put(size)"
        ]
        user = (
            "Box.make(2)\n"
            "box = Box.load()\n"
            "box.put('a', 2)\n"
            "box.grow(**{'by': 2})\n"
            "f(1, *[2, 3])\n"
            "load('y')\n"
        )
        assert unset_defaults([source], [user]) == ["f(d)"]

    def test_flags_cached_properties_outside_comments_and_strings(self):
        source = (
            "import functools\n"
            "from functools import cached_property as cached\n"
            "# functools.cached_property writes into __dict__\n"
            "class A:\n"
            "    @functools.cached_property\n"
            "    def x(self):\n"
            "        return 'cached_property'\n"
        )
        assert cached_properties(source) == [2, 5]

    def test_flags_private_imports_from_the_package_only(self):
        source = (
            "from __future__ import annotations\n"
            "from os import _exit\n"
            "from .gallery import Gallery, _pack\n"
            "from . import _helpers\n"
            "from enexmatch.features import __all__, _spare\n"
        )
        assert private_imports(source) == [
            "._helpers", ".gallery._pack", "enexmatch.features._spare"
        ]

    def test_layers_skip_type_checking_and_read_nested_imports(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "from .errors import EnexError\n"
            "if TYPE_CHECKING:\n"
            "    from .gallery import Gallery\n"
            "else:\n"
            "    from . import imaging\n"
            "def f():\n"
            "    from enexmatch.features import FEATURE_IDS\n"
            "    import enexmatch.matching\n"
            "    import numpy\n"
        )
        assert package_imports(source) == {"errors", "imaging", "features", "matching"}
