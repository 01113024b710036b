"""The package computes on coordinate rows only: element tuples are parsed
and formatted in `gset` and `groups`, never computed on elsewhere.  Element
rows are sorted, deduplicated, searched and ranked by `gset.row_keys` alone.
Python sets of elements are built only by `genset`'s generators, and the
multiplicative side (`moments`, `checks`) uses no `Fraction`.  Caps are
passed in: no function body reads `DEFAULT_CAPS`.  The convolution engine
and the chain compute on int64 planes: none of them builds a Python-int
(object) array.  Every top-level function and class in the package has a
caller in another part of it, bar a short allow-list with reasons, and no
module imports a name it never reads.  The float FFT runs only in the
engine's transforms and a set's kept spectrum (`spectrum._dft`).  A
table's facts, its nonzero count, mass and maximum, are read in one
place, `ConvTable.facts`, at most once per table (its birth mass is read
there alone), and every table the package builds is born with its mass
or its facts.  Outside `moments` a table
is read through its methods: no module reads its planes, `_flat()` or
`facts()`, and `moments._square_sum` is named only by `eigen._gram`, on its
plain int64 Gram.  Every integer matrix product
runs through `moments._exact_product`, on its caller's a priori bound.
Pretty JSON is written by one writer, `groups.dumps_json`: no module
indents JSON through the stdlib.  Each module imports only the layers below
it, groups < gset < moments < genset < setops < spectrum < eigen < extract
< checks < cli: the engine stands below the set algebra that reads it.
No test patches a threshold by which the engine picks its path
(`_DIRECT_MAX`, `_DIRECT_MIN`, `_FOUR_STEP_MIN`, `_WIDE`): every path is
reached through its operands."""

import ast
from pathlib import Path

import hienergy

SRC = Path(hienergy.__file__).parent
TUPLE_VIEWS = {"elems", "as_set"}


def tuple_layer_uses(path: Path) -> list[str]:
    """Every `.elems`/`.as_set` attribute and `groups.op_*` reference in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in TUPLE_VIEWS:
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("op_")
              and isinstance(node.value, ast.Name) and node.value.id == "groups"):
            found.append(f"{path.name}:{node.lineno} groups.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("groups"):
            found += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names
                      if a.name.startswith("op_")]
    return found


def test_no_tuple_layer_outside_gset_and_groups():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in ("gset.py", "groups.py"))
    assert len(modules) >= 8
    assert [use for p in modules for use in tuple_layer_uses(p)] == []


def test_guard_sees_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .groups import op_add\nx = a.elems\ny = b.as_set\nz = groups.op_sub\n")
    assert tuple_layer_uses(bad) == ["bad.py:1 import op_add", "bad.py:2 .elems",
                                     "bad.py:3 .as_set", "bad.py:4 groups.op_sub"]


def row_keying_uses(path: Path) -> list[str]:
    """Every `np.lexsort`, `.view(...)` to a structured dtype (a list or
    `np.dtype` argument) and `np.unique(..., axis=...)` in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name = node.func.attr
        if name == "lexsort":
            found.append(f"{path.name}:{node.lineno} lexsort")
        elif name == "view" and any(
                isinstance(arg, (ast.List, ast.ListComp, ast.Tuple))
                or (isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "dtype")
                for arg in node.args):
            found.append(f"{path.name}:{node.lineno} structured view")
        elif name == "unique" and any(kw.arg == "axis" for kw in node.keywords):
            found.append(f"{path.name}:{node.lineno} unique rows")
    return found


def test_row_keys_only_in_gset():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "gset.py")
    assert len(modules) >= 9
    assert [use for p in modules for use in row_keying_uses(p)] == []
    assert row_keying_uses(SRC / "gset.py") != []   # the guard reads the module that keys


def test_row_key_guard_sees_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("p = np.lexsort(rows.T)\n"
                   "k = rows.view([('a', np.int64), ('b', np.int64)])\n"
                   "k = rows.view(np.dtype([('a', np.int64)]))\n"
                   "k = rows.view([(f'c{i}', np.int64) for i in range(2)])\n"
                   "u = np.unique(rows, axis=0)\n"
                   "ok = acc.view(np.uint64)\n"
                   "ok = np.unique(keys, return_counts=True)\n")
    assert row_keying_uses(bad) == ["bad.py:1 lexsort", "bad.py:2 structured view",
                                    "bad.py:3 structured view", "bad.py:4 structured view",
                                    "bad.py:5 unique rows"]


def set_and_fraction_uses(path: Path) -> list[str]:
    """Every set comprehension and `fractions` import in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.SetComp):
            found.append(f"{path.name}:{node.lineno} set comprehension")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"{path.name}:{node.lineno} fractions")
        elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            found.append(f"{path.name}:{node.lineno} fractions")
    return found


def test_set_comprehensions_only_in_genset():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "genset.py")
    assert len(modules) >= 9
    assert [use for p in modules for use in set_and_fraction_uses(p)
            if use.endswith("set comprehension")] == []
    assert set_and_fraction_uses(SRC / "moments.py") == []
    assert set_and_fraction_uses(SRC / "checks.py") == []


def test_set_comprehension_guard_sees_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from fractions import Fraction\n"
                   "import fractions\n"
                   "s = {x * y for x in xs for y in xs}\n"
                   "ok = set(xs)\n"
                   "ok = {x: 1 for x in xs}\n")
    assert set_and_fraction_uses(bad) == ["bad.py:1 fractions", "bad.py:2 fractions",
                                           "bad.py:3 set comprehension"]


def default_caps_reads(path: Path) -> list[str]:
    """Every `DEFAULT_CAPS` named inside a function or lambda body: as a name,
    an attribute or a string (`getattr`).  A default argument is read once,
    where the function is defined, and is allowed."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for stmt in fn.body if isinstance(fn.body, list) else [fn.body]:
            for node in ast.walk(stmt):
                if ((isinstance(node, ast.Name) and node.id == "DEFAULT_CAPS")
                        or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_CAPS")
                        or (isinstance(node, ast.Constant) and node.value == "DEFAULT_CAPS")):
                    found.add((node.lineno, node.col_offset))
    return [f"{path.name}:{line} DEFAULT_CAPS" for line, _ in sorted(found)]


def test_no_function_body_reads_default_caps():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert [use for p in modules for use in default_caps_reads(p)] == []
    # the defaults themselves are there, and allowed
    assert "DEFAULT_CAPS" in (SRC / "checks.py").read_text(encoding="utf-8")


def test_default_caps_guard_sees_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def ok(a, caps=DEFAULT_CAPS):\n"
                   "    return caps.tuples\n"
                   "def f(a):\n"
                   "    return g(a, DEFAULT_CAPS)\n"
                   "def h(a):\n"
                   "    if a > setops.DEFAULT_CAPS.tuples:\n"
                   "        return getattr(setops, 'DEFAULT_CAPS')\n"
                   "    def inner(caps=DEFAULT_CAPS):\n"
                   "        return caps\n"
                   "ok2 = lambda caps=DEFAULT_CAPS: caps\n"
                   "bad2 = lambda: DEFAULT_CAPS\n")
    assert default_caps_reads(bad) == ["bad.py:4 DEFAULT_CAPS", "bad.py:6 DEFAULT_CAPS",
                                       "bad.py:7 DEFAULT_CAPS", "bad.py:8 DEFAULT_CAPS",
                                       "bad.py:11 DEFAULT_CAPS"]


PLANE_ONLY = ("_direct", "_fft", "_limbs", "_checked", "_total", "_Chain",
              "_square_sum", "_histogram", "_moment", "energy_k_pair")
GRAM_ONLY = ("_gram",)   # eigen's Gram: int64 entries below 2^63, checked without Python ints


def object_array_uses(path: Path, names=PLANE_ONLY) -> list[str]:
    """Every use of the `object` dtype inside the named top-level functions
    and classes of a module: the name `object` (as in `dtype=object`,
    `.astype(object)` or a dtype chosen by a condition) and `np.object_`."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if getattr(top, "name", None) not in names:
            continue
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "object")
                    or (isinstance(node, ast.Attribute) and node.attr == "object_")):
                found.append(f"{top.name}:{node.lineno} object")
    return found


def test_engine_builds_no_python_int_arrays():
    path = SRC / "moments.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {getattr(node, "name", None) for node in tree.body}
    assert set(PLANE_ONLY) <= defined   # the guard reads every one of them
    assert object_array_uses(path) == []
    # the one place that builds Python ints, for the public readers of a wide table
    assert object_array_uses(path, ("_combine",)) != []
    assert "def _gram(" in (SRC / "eigen.py").read_text(encoding="utf-8")
    assert object_array_uses(SRC / "eigen.py", GRAM_ONLY) == []


def test_object_array_guard_sees_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def _total(x):\n"
                   "    return int(x.astype(object).sum())\n"
                   "def _fft(f, g, wide):\n"
                   "    acc = np.zeros(f.shape, dtype=object if wide else np.uint64)\n"
                   "    return acc\n"
                   "class _Chain:\n"
                   "    def extend(self, k):\n"
                   "        return self.top.array.astype(dtype=np.object_)\n"
                   "def _direct(f, g, wide):\n"
                   "    dtype = object if wide else np.int64\n"
                   "    return np.zeros(3, dtype=dtype)\n"
                   "def _combine(x):\n"
                   "    return x.astype(object)\n"
                   "def _checked(x):\n"
                   "    return x.astype(np.int64), np.zeros(3, dtype=np.int64)\n"
                   "def _gram(a, b, k):\n"
                   "    gram = correlate(b, b).values_at(diffs) ** k\n"
                   "    return int(np.trace(gram.astype(object)))\n")
    assert object_array_uses(bad) == ["_total:2 object", "_fft:4 object", "_Chain:8 object",
                                      "_direct:10 object"]
    assert object_array_uses(bad, GRAM_ONLY) == ["_gram:18 object"]


FACT_HOME = "ConvTable.facts"   # where a table's nonzero count, mass and maximum are first read


def fact_derivations(path: Path) -> list[str]:
    """Every call of `count_nonzero` and every read of a table's birth
    `._mass` in a module, as `where:line name`, where is the top-level
    function or `Class.method` it sits in (a nested function or lambda
    counts as its owner's).  Storing a mass, as a product's constructor
    does, derives nothing."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owners = ([(f"{top.name}.{m.name}", m) for m in top.body if isinstance(m, ast.FunctionDef)]
                  if isinstance(top, ast.ClassDef) else [(getattr(top, "name", "<module>"), top)])
        for where, owner in owners:
            for node in ast.walk(owner):
                if (isinstance(node, ast.Attribute) and node.attr == "_mass"
                        and isinstance(node.ctx, ast.Load)):
                    found.append(f"{where}:{node.lineno} _mass")
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "count_nonzero":
                    found.append(f"{where}:{node.lineno} {name}")
    return found


def test_table_facts_are_derived_in_one_place():
    uses = fact_derivations(SRC / "moments.py")
    assert [use for use in uses if not use.startswith(FACT_HOME + ":")] == []
    # the guard reads the one home: a nonzero count and the birth mass
    assert sorted(use.rsplit(" ", 1)[1] for use in uses) == ["_mass", "count_nonzero"]


def test_fact_guard_sees_each_form(tmp_path):
    bad = tmp_path / "moments.py"
    bad.write_text("class ConvTable:\n"
                   "    def facts(self):\n"
                   "        return np.count_nonzero(self.planes), self._mass\n"
                   "    def square_sum(self):\n"
                   "        return self._mass\n"
                   "def _fft(f, g):\n"
                   "    fn = f._mass\n"
                   "    return numpy.count_nonzero(g)\n"
                   "def _conv(tf, tg):\n"
                   "    nz = lambda t: count_nonzero(_support(t.planes))\n"
                   "    return tg._mass, nz(tf)\n"
                   "def _square_sum(t):\n"
                   "    t._mass = 5\n"
                   "    return t._mass, (lambda: tf._mass)()\n"
                   "ok = np.flatnonzero(x)\n")
    assert sorted(fact_derivations(bad)) == sorted([
        "ConvTable.facts:3 count_nonzero", "ConvTable.facts:3 _mass", "ConvTable.square_sum:5 _mass",
        "_fft:7 _mass", "_fft:8 count_nonzero", "_conv:10 count_nonzero", "_conv:11 _mass",
        "_square_sum:14 _mass", "_square_sum:14 _mass"])


def massless_tables(path: Path) -> list[str]:
    """Every `of_planes` call in a module that passes neither a mass nor
    facts, as `module:line`: by keyword (`mass=`, `facts=`), or facts as
    the fourth positional argument.  Such a table would sum its planes for
    its mass on first use, a derivation the engine never needs."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "of_planes"
                and len(node.args) < 4 and not {kw.arg for kw in node.keywords} & {"mass", "facts"}):
            found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_table_is_born_with_its_mass():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert [use for p in modules for use in massless_tables(p)] == []
    # the guard reads the builders: a set's table (two calls) and every product
    tree = ast.parse((SRC / "moments.py").read_text(encoding="utf-8"))
    assert sum(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "of_planes"
               for node in ast.walk(tree)) == 3


def test_mass_guard_sees_each_form(tmp_path):
    bad = tmp_path / "moments.py"
    bad.write_text("def from_gset(cls, a):\n"
                   "    cls.of_planes(g, arr, lo, facts)\n"
                   "    cls.of_planes(g, arr[None], facts=facts)\n"
                   "    return cls.of_planes(g, arr)\n"
                   "def _conv(tf, tg):\n"
                   "    ConvTable.of_planes(grp, out, off, mass=m)\n"
                   "    ConvTable.of_planes(grp, out, off, offset=None)\n"
                   "    return ConvTable.of_planes(grp, out, None, **kw)\n")
    assert massless_tables(bad) == ["moments:4", "moments:7", "moments:8"]


TABLE_INSIDES = ("planes", "_flat", "facts")   # a table's storage and facts, read in moments only
SQUARE_SUM_READERS = ["eigen._gram _square_sum"]   # its Gram is int64, never a set's uint8 plane


def table_internals(path: Path) -> list[str]:
    """`module.top form` for every `.planes`, `._flat` and `.facts`
    attribute and every `_square_sum` name, attribute or import in a
    module, by the top-level definition it sits in."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in TABLE_INSIDES:
                found.append(f"{where} .{node.attr}")
            elif ((isinstance(node, ast.Attribute) and node.attr == "_square_sum")
                  or (isinstance(node, ast.Name) and node.id == "_square_sum")
                  or (isinstance(node, ast.ImportFrom) and any(a.name == "_square_sum" for a in node.names))):
                found.append(f"{where} _square_sum")
    return found


def test_tables_are_read_through_their_methods_outside_moments():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "moments.py")
    assert len(modules) >= 10
    assert [use for p in modules for use in table_internals(p)] == SQUARE_SUM_READERS
    # the guard reads the module that owns them
    assert {use.rsplit(" ", 1)[1] for use in table_internals(SRC / "moments.py")} == {
        ".planes", "._flat", ".facts", "_square_sum"}


def test_table_guard_sees_each_form(tmp_path):
    bad = tmp_path / "extract.py"
    bad.write_text("from .moments import _square_sum\n"
                   "def cs_period_search(a, b):\n"
                   "    base = moments.convolve(a, b)\n"
                   "    return moments._square_sum(base._flat(), base.facts()[1][1])\n"
                   "class Report:\n"
                   "    def energy(self, t):\n"
                   "        return _square_sum(t.planes.reshape(1, -1), 1)\n"
                   "ok = base.square_sum() + t.values().sum() + np.dot(x, x) + t.array.sum()\n")
    assert sorted(table_internals(bad)) == [
        "extract.<module> _square_sum", "extract.Report .planes", "extract.Report _square_sum",
        "extract.cs_period_search ._flat", "extract.cs_period_search .facts",
        "extract.cs_period_search _square_sum"]


# Names that no code in the package reaches, each kept for what calls it.
UNREACHED_BY_DESIGN = {
    "groups.op_add": "the tuple group law: the benchmark's test (ROADMAP item 1) calls it",
    "extract.almost_period_check": "the exact shift defect: acceptance criterion 6 calls it",
    "spectrum.dissociated_test": "the paper's dissociativity: ROADMAP item 21's check is to call it",
}


def unreached(paths) -> list[str]:
    """Every top-level `def`/`class` of the given modules, as `module.name`,
    whose name no code of those modules mentions outside its own definition,
    as a name, an attribute or a `from ... import` name; and every method,
    property or classmethod (a non-dunder `def` in a class body), as
    `module.Class.name`, whose name no code mentions as an attribute
    outside its own body.  Its blind spot: a method whose name is also a
    field or a method of another type that some code reads (`total`,
    `values` of a dict) counts as reached."""
    defined, names, attrs = [], set(), set()
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{own}", own, False))
            methods = [m for m in (top.body if isinstance(top, ast.ClassDef) else [])
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not (m.name.startswith("__") and m.name.endswith("__"))]
            defined += [(f"{path.stem}.{own}.{m.name}", m.name, True) for m in methods]
            for part in ast.iter_child_nodes(top) if methods else [top]:
                skip = {own, part.name if part in methods else None}
                seen_names, seen_attrs = set(), set()
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        seen_names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        seen_attrs.add(node.attr)
                    elif isinstance(node, ast.ImportFrom):
                        seen_names.update(a.name for a in node.names)
                names |= seen_names - skip
                attrs |= seen_attrs - skip
    return [where for where, name, method in defined if name not in (attrs if method else names | attrs)]


def test_every_function_has_a_caller():
    # the package's own re-exports in __init__ are no caller
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    assert sorted(unreached(modules)) == sorted(UNREACHED_BY_DESIGN)


def test_reachability_guard_sees_each_form(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n"
                                   "    return _helper()\n"
                                   "def dead(n):\n"
                                   "    return dead(n - 1) if n else 0\n"
                                   "class Dead:\n"
                                   "    def used(self):\n"
                                   "        return 1\n"
                                   "def _helper():\n"
                                   "    return 2\n"
                                   "def by_attribute():\n"
                                   "    return 3\n"
                                   "class Table:\n"
                                   "    def __len__(self):\n"
                                   "        return 0\n"
                                   "    @property\n"
                                   "    def size(self):\n"
                                   "        return self.count()\n"
                                   "    @classmethod\n"
                                   "    def empty(cls):\n"
                                   "        return cls()\n"
                                   "    def count(self):\n"
                                   "        return 0\n"
                                   "    def planted(self):\n"
                                   "        return self.planted()\n"
                                   "    @property\n"
                                   "    def dead_view(self):\n"
                                   "        return 1\n"
                                   "    def named(self):\n"
                                   "        return 2\n")
    (tmp_path / "b.py").write_text("from .a import used, Table\n"
                                   "from . import a\n"
                                   "x = used() + a.by_attribute() + Table.empty().size\n"
                                   "named = 1\n")
    (tmp_path / "__init__.py").write_text("from .a import dead, Dead\nTable().planted()\n")
    modules = sorted(p for p in tmp_path.glob("*.py") if p.name != "__init__.py")
    assert unreached(modules) == ["a.dead", "a.Dead", "a.Dead.used", "a.Table.planted",
                                  "a.Table.dead_view", "a.Table.named"]


def unused_imports(path: Path) -> list[str]:
    """Every name a module imports (`from __future__` aside) that no `Name`
    node of it reads; `np.zeros` reads `np`, an annotation reads its names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            found += [f"{path.name}:{node.lineno} {bound}" for a in node.names
                      if (bound := (a.asname or a.name).split(".")[0]) not in read]
    return found


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    assert [use for p in modules for use in unused_imports(p)] == []


def test_unused_import_guard_sees_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from __future__ import annotations\n"
                   "import os\n"
                   "import numpy as np\n"
                   "from typing import Callable, Sequence\n"
                   "from .gset import GSet as G, read_set\n"
                   "import os.path\n"
                   "x = np.zeros(3)\n"
                   "def f(s: Sequence) -> G:\n"
                   "    return s\n")
    assert unused_imports(bad) == ["bad.py:2 os", "bad.py:4 Callable", "bad.py:5 read_set",
                                   "bad.py:6 os"]


# The float FFT runs only in the engine's bounded transforms and the build of
# a set's kept spectrum: the restricted operator on a subgroup is the integer
# pattern Gram, and its float twin is an oracle in tests/oracles.py.
FFT_HOMES = {"moments._rfft", "moments._irfft", "spectrum._dft"}


def fft_uses(path: Path) -> list[tuple[str, str]]:
    """(module.top, form) for every `np.fft`/`numpy.fft` attribute and every
    import from or of a `*.fft` module in a module, by the top-level
    definition it sits in."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append((where, "np.fft"))
            elif isinstance(node, ast.ImportFrom) and ((node.module or "").endswith(".fft")
                                                       or any(a.name == "fft" for a in node.names)):
                found.append((where, "import fft"))
            elif isinstance(node, ast.Import) and any(a.name.endswith(".fft") for a in node.names):
                found.append((where, "import fft"))
    return found


def misplaced_fft(uses: list[tuple[str, str]]) -> list[str]:
    return [f"{where} {form}" for where, form in uses if where not in FFT_HOMES]


def test_float_fft_runs_only_where_its_object_is_not_an_integer():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    uses = [use for p in modules for use in fft_uses(p)]
    assert misplaced_fft(uses) == []
    # the guard reads every home it allows
    assert {where for where, _ in uses} == FFT_HOMES


def test_fft_guard_sees_each_form(tmp_path):
    # a home is named with its module: spectrum's _dft, not a _dft planted in eigen
    bad = tmp_path / "eigen.py"
    bad.write_text("import numpy.fft\n"
                   "from numpy import fft\n"
                   "from scipy.fft import rfft\n"
                   "def _dft(flat):\n"
                   "    return np.fft.fftn(flat)\n"
                   "def subgroup_eigencheck(gamma):\n"
                   "    w = numpy.fft.ifft(gamma)\n"
                   "    return np.fft.fft(w)\n")
    assert sorted(misplaced_fft(fft_uses(bad))) == [
        "eigen.<module> import fft", "eigen.<module> import fft", "eigen.<module> import fft",
        "eigen._dft np.fft", "eigen.subgroup_eigencheck np.fft", "eigen.subgroup_eigencheck np.fft"]


JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def stdlib_pretty_json(path: Path) -> list[str]:
    """Every call of `json.dump`, `json.dumps` or `json.JSONEncoder` (as an
    attribute, or by a name imported from `json`, aliases included) that
    passes `indent` other than None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"
                for a in node.names if a.name in JSON_WRITERS}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not ((isinstance(func, ast.Attribute) and func.attr in JSON_WRITERS)
                or (isinstance(func, ast.Name) and func.id in imported)):
            continue
        if any(kw.arg == "indent" and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
               for kw in node.keywords):
            found.append(f"{path.name}:{node.lineno} {ast.unparse(func)}")
    return found


def test_pretty_json_has_one_writer():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert [use for p in modules for use in stdlib_pretty_json(p)] == []
    assert "def dumps_json(" in (SRC / "groups.py").read_text(encoding="utf-8")


def test_pretty_json_guard_sees_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import json\n"
                   "from json import dumps as to_text, dump\n"
                   "a = json.dumps(x, indent=2, sort_keys=True)\n"
                   "json.dump(x, fh, indent=4)\n"
                   "b = to_text(x, indent='  ')\n"
                   "dump(x, fh, indent=width)\n"
                   "enc = json.JSONEncoder(indent=1)\n"
                   "ok = json.dumps(x, sort_keys=True)\n"
                   "ok = json.dumps(x, indent=None)\n"
                   "ok = other.format(x, indent=2)\n")
    assert stdlib_pretty_json(bad) == ["bad.py:3 json.dumps", "bad.py:4 json.dump",
                                       "bad.py:5 to_text", "bad.py:6 dump",
                                       "bad.py:7 json.JSONEncoder"]


# Every `@` and `np.matmul` in the package, by where it sits, one entry per use.
MATMUL_ALLOWED = [
    "moments._exact_product @",   # the float64 product, below 2^53 ...
    "moments._exact_product @",   # ... and the int64 one, below 2^63
    # the complex mat @ chi of the character residuals: float by nature, it counts nothing
    "eigen.subgroup_eigencheck @",
]


def matmul_uses(path: Path) -> list[str]:
    """`module.top form` for every `@`, `@=`, `np.matmul`/`numpy.matmul` and
    name `matmul` imports from numpy (aliases included) in a module, by the
    top-level definition it sits in.  The int64 1-D `np.dot` reductions of
    `moments` (`_square_sum`, `_power_dot`) and `setops.family_energies` are
    no matrix product: each is bounded on its own, in its docstring."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy"
                for a in node.names if a.name == "matmul"}
    found = []
    for top in tree.body:
        where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where} @")
            elif (isinstance(node, ast.Attribute) and node.attr == "matmul"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{where} np.matmul")
            elif isinstance(node, ast.Name) and node.id in imported:
                found.append(f"{where} matmul")
    return found


def test_integer_products_go_through_one_helper():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert sorted(use for p in modules for use in matmul_uses(p)) == sorted(MATMUL_ALLOWED)


def test_matmul_guard_sees_each_form(tmp_path):
    bad = tmp_path / "extract.py"
    bad.write_text("from numpy import matmul, matmul as mm\n"
                   "def robust_core(member):\n"
                   "    inter = member @ member.T\n"
                   "    inter @= member\n"
                   "    return np.matmul(inter, numpy.matmul(member, member))\n"
                   "class Report:\n"
                   "    def gram(self, x):\n"
                   "        return matmul(x, mm(x, x.T))\n"
                   "ok = np.dot(x, x) + x * y\n")
    assert sorted(matmul_uses(bad)) == [
        "extract.Report matmul", "extract.Report matmul", "extract.robust_core @",
        "extract.robust_core @", "extract.robust_core np.matmul", "extract.robust_core np.matmul"]


# The package's modules, lowest first: each imports only modules before it.
LAYERS = ("groups", "gset", "moments", "genset", "setops", "spectrum", "eigen", "extract",
          "checks", "cli")


def package_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for every module of the package that a module imports,
    at the top or inside a function: `from . import x`, `from .x import y`,
    and the same through `hienergy`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if base in (".", "hienergy"):
                found += [(node.lineno, a.name) for a in node.names]
            elif base.startswith((".", "hienergy.")):
                found.append((node.lineno, base.lstrip(".").removeprefix("hienergy.").split(".")[0]))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[1]) for a in node.names
                      if a.name.startswith("hienergy.")]
    return found


def upward_imports(path: Path) -> list[str]:
    """Every import of a module of the package that is not below this one."""
    below = LAYERS[:LAYERS.index(path.stem)]
    return [f"{path.name}:{line} imports {name}" for line, name in package_imports(path)
            if name not in below]


def test_modules_import_only_the_layers_below():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in ("__init__.py", "__main__.py"))
    assert sorted(p.stem for p in modules) == sorted(LAYERS)   # every module has its layer
    assert [use for p in modules for use in upward_imports(p)] == []
    # the guard reads the edge it orders: set algebra reads the engine
    assert "moments" in {name for _, name in package_imports(SRC / "setops.py")}


def test_layer_guard_sees_each_form(tmp_path):
    bad = tmp_path / "moments.py"
    bad.write_text("from . import groups, setops\n"
                   "from .gset import GSet\n"
                   "from .checks import run_check\n"
                   "import hienergy.cli\n"
                   "from hienergy import extract\n"
                   "def f():\n"
                   "    from .eigen import build_gram\n"
                   "    from hienergy.moments import t_k\n"
                   "import numpy.fft\n"
                   "from numpy import linalg\n")
    assert upward_imports(bad) == ["moments.py:1 imports setops", "moments.py:3 imports checks",
                                   "moments.py:4 imports cli", "moments.py:5 imports extract",
                                   "moments.py:7 imports eigen", "moments.py:8 imports moments"]


TESTS = Path(__file__).parent
THRESHOLDS = ("_DIRECT_MAX", "_DIRECT_MIN", "_FOUR_STEP_MIN", "_WIDE")   # where `_conv` picks a path


def threshold_patches(path: Path) -> list[str]:
    """Every `setattr` call in a module that names one of the engine's path
    thresholds, as a name argument (`monkeypatch.setattr(moments, "_WIDE",
    0)`) or a dotted target (`monkeypatch.setattr("hienergy.moments._WIDE",
    0)`), and every assignment to one, as `module:line name`.  A test
    reaches each path through its operands, as a real input does."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and "setattr" in (getattr(node.func, "attr", None),
                                                        getattr(node.func, "id", None)):
            found += [(node.lineno, arg.value.rsplit(".", 1)[-1]) for arg in node.args
                      if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                      and arg.value.rsplit(".", 1)[-1] in THRESHOLDS]
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.attr) for t in targets
                      if isinstance(t, ast.Attribute) and t.attr in THRESHOLDS]
    return [f"{path.stem}:{line} {name}" for line, name in sorted(found)]


def test_no_test_patches_an_engine_threshold():
    modules = sorted(TESTS.glob("*.py"))
    assert len(modules) >= 10
    assert [use for p in modules for use in threshold_patches(p)] == []
    # the names it looks for are the engine's module-level thresholds
    tree = ast.parse((SRC / "moments.py").read_text(encoding="utf-8"))
    assert set(THRESHOLDS) <= {t.id for node in tree.body if isinstance(node, ast.Assign)
                               for t in node.targets if isinstance(t, ast.Name)}


def test_threshold_guard_sees_each_form(tmp_path):
    bad = tmp_path / "test_bad.py"
    bad.write_text("def test_a(monkeypatch):\n"
                   "    monkeypatch.setattr(moments, '_DIRECT_MAX', 0)\n"
                   "    monkeypatch.setattr('hienergy.moments._WIDE', 1)\n"
                   "    with monkeypatch.context() as m:\n"
                   "        m.setattr(moments, '_FOUR_STEP_MIN', 8, raising=True)\n"
                   "    setattr(moments, '_DIRECT_MIN', 0)\n"
                   "    moments._WIDE = 4\n"
                   "    moments._DIRECT_MAX += 1\n"
                   "    monkeypatch.setattr(moments, '_fold', fold)\n"
                   "    monkeypatch.setattr(moments, '_DIRECT_MAXIMUM', 0)\n"
                   "    caps = moments._WIDE\n")
    assert threshold_patches(bad) == ["test_bad:2 _DIRECT_MAX", "test_bad:3 _WIDE", "test_bad:5 _FOUR_STEP_MIN",
                                      "test_bad:6 _DIRECT_MIN", "test_bad:7 _WIDE", "test_bad:8 _DIRECT_MAX"]
