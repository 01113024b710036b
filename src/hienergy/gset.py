"""Finite subsets of an ambient group, plus the on-disk set format.

A GSet stores one form, ``coords``: an (n, dim) int64 matrix with one row per
element, rows reduced mod the moduli in a cyclic product, unique and sorted
lexicographically (the order of the sorted coordinate tuples).  Lattice
coordinates must satisfy |c| < 2^62, so a sum or difference of two rows
cannot wrap.  Everything in the package computes on ``coords``; element
tuples appear only where input is parsed and output is formatted.  The two
views, ``elems`` (tuples of Python ints, for tests and callers outside the
package) and ``indicator()``, are derived on first use and cached, and
``flat_indices()`` reads the indicator.  Membership (``x in a``,
``isin``) is a binary search of the sorted rows.

Objects computed from a set, and from partner sets compared by value, are
kept on it in one dict through ``GSet.kept(key, build)``, which runs
``build()`` once per key and keeps nothing if it raises.  The dict dies with
the set; ``subset`` and every constructor start an empty one.  Its keys:

- ``"AoA"``: the table A o A (``moments.correlate(a, a)``), read-only;
- ``"chain"``: the convolution powers behind ``moments.t_k``/``sigma_k``;
- ``"A+A"``, ``"A-A"``: ``setops.sumset(a, a)``, ``setops.diffset(a, a)``;
- ``("D", k)``, ``("S", k)``: the counts D_k(A), S_k(A), never the tuples;
- ``("R", b, k)``: R^(k)_B[A] and its witness (``setops.magnification_k``);
- ``("F", depth)``: ``checks.slice_corr_sums``, a read-only mapping;
- ``("gram", b, k)``: ``eigen.build_gram``, its array read-only;
- ``("Epair", b, k)``: E_k(A, B) (``moments.energy_k_pair``).

Every cap check of a kept function runs before the lookup, so a smaller
``Caps`` still refuses a value that is already kept.

File format (UTF-8 text): line 1 is ``group: <literal>``, every following
non-blank line is one element with comma-separated coordinates.  Files
written by :func:`write_set` round-trip bit-exactly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from . import groups
from .groups import Elem, GroupSpec

_LATTICE_BOUND = 1 << 62
_MISSING = object()


class SetFileError(ValueError):
    """Set file parse failure; carries the offending line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def as_rows(group: GroupSpec, elems) -> np.ndarray:
    """Elements (ints, coordinate sequences or an int64 matrix) as a
    len x dim int64 matrix in input order, reduced in a cyclic product."""
    try:
        rows = np.array(elems if isinstance(elems, np.ndarray) else list(elems), dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        raise groups.GroupError(f"elements of {group} must be integer coordinates "
                                "within int64") from None
    if rows.ndim == 1 and (group.dim == 1 or rows.size == 0):
        rows = rows.reshape(-1, group.dim)
    if rows.ndim != 2 or rows.shape[1] != group.dim:
        raise groups.GroupError(f"elements of {group} need {group.dim} coordinates")
    return rows % np.array(group.moduli, dtype=np.int64) if group.is_cyclic else rows


def bounded_rows(group: GroupSpec, elems) -> np.ndarray:
    """``as_rows``, refusing lattice coordinates outside (-2^62, 2^62): the
    sum or difference of two such rows cannot wrap."""
    rows = as_rows(group, elems)
    if not group.is_cyclic and (rows.max(initial=0) >= _LATTICE_BOUND
                                or rows.min(initial=0) <= -_LATTICE_BOUND):
        raise groups.GroupError("lattice coordinates must lie strictly between -2^62 and 2^62")
    return rows


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One scalar per row that compares as the row does lexicographically:
    the coordinate itself in one dimension, else a structured view."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    rows = np.ascontiguousarray(rows)
    return rows.view([(f"c{i}", np.int64) for i in range(rows.shape[1])])[:, 0]


class GSet:
    """Immutable finite subset, stored as ``coords`` (see the module docstring)."""

    def __init__(self, group: GroupSpec, elems: Iterable = ()):  # elems: ints, tuples or rows
        rows = bounded_rows(group, elems)
        rows = np.sort(rows, axis=0) if group.dim == 1 else rows[np.lexsort(rows.T[::-1])]
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        self.group = group
        self.coords = rows[fresh]
        self.coords.flags.writeable = False
        self._kept: dict = {}   # see the module docstring

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Elem]:
        return iter(self.elems)

    def __contains__(self, x) -> bool:
        return bool(self.isin(as_rows(self.group, [x]))[0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, GSet) and self.group == other.group
                and np.array_equal(self.coords, other.coords))

    def __hash__(self) -> int:
        return hash((self.group, self.coords.tobytes()))

    def __repr__(self) -> str:
        inner = ",".join("(" + groups.format_elem(e) + ")" for e in self.coords[:8].tolist())
        if len(self) > 8:
            inner += ",..."
        return f"GSet({self.group}, {{{inner}}}, n={len(self)})"

    @cached_property
    def elems(self) -> tuple[Elem, ...]:
        return tuple(map(tuple, self.coords.tolist()))

    @cached_property
    def _dense(self) -> np.ndarray:
        g = self.group
        if not g.is_cyclic:
            raise groups.GroupError("dense indicator needs a cyclic product")
        arr = np.zeros(g.moduli, dtype=np.int64)
        arr[tuple(self.coords.T)] = 1
        arr.flags.writeable = False
        return arr

    def indicator(self) -> np.ndarray:
        """Dense 0/1 array shaped by the moduli (cyclic products only)."""
        return self._dense

    def flat_indices(self) -> np.ndarray:
        """Element ranks for a cyclic product, sorted ascending."""
        return np.flatnonzero(self.indicator())

    def isin(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the rows of a reduced len x dim matrix that are elements."""
        keys, want = _row_keys(self.coords), _row_keys(rows)
        at = np.searchsorted(keys, want)
        found = np.zeros(len(want), dtype=bool)
        inside = at < len(keys)
        found[inside] = keys[at[inside]] == want[inside]
        return found

    def subset(self, mask: np.ndarray) -> "GSet":
        """The elements at the True entries of a boolean mask over the rows.
        Selected rows of a canonical matrix are canonical, so nothing is
        sorted or checked again."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(self),):
            raise ValueError(f"subset needs a boolean mask of length {len(self)}")
        out = GSet.__new__(GSet)
        out.group = self.group
        out.coords = self.coords[mask]
        out.coords.flags.writeable = False
        out._kept = {}
        return out

    def kept(self, key, build: Callable):
        """The value kept under key, else build()'s, kept; nothing is kept
        if build raises."""
        value = self._kept.get(key, _MISSING)
        if value is _MISSING:
            value = self._kept[key] = build()
        return value

    def translate(self, t) -> "GSet":
        return GSet(self.group, self.coords + GSet(self.group, [t]).coords)

    def negate(self) -> "GSet":
        return GSet(self.group, -self.coords)

    def intersect(self, other: "GSet") -> "GSet":
        _require_same_group(self, other)
        return self.subset(other.isin(self.coords))

    def union(self, other: "GSet") -> "GSet":
        _require_same_group(self, other)
        return GSet(self.group, np.concatenate([self.coords, other.coords]))

    def issubset(self, other: "GSet") -> bool:
        _require_same_group(self, other)
        return bool(other.isin(self.coords).all())


def _require_same_group(a: GSet, b: GSet) -> None:
    if a.group != b.group:
        raise groups.GroupError(f"operands live in different groups: {a.group} vs {b.group}")


def full_group(g: GroupSpec) -> GSet:
    if not g.is_cyclic:
        raise groups.GroupError("the lattice is not a finite set")
    return GSet(g, np.argwhere(np.ones(g.moduli, dtype=bool)))


def gset(group: GroupSpec, elems: Iterable) -> GSet:
    return GSet(group, elems)


def zset(elems: Iterable[int]) -> GSet:
    """Convenience: a subset of the 1-dimensional integer lattice."""
    return GSet(groups.lattice(1), elems)


def write_set(a: GSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_set(a))


def dumps_set(a: GSet) -> str:
    lines = [f"group: {groups.format_group(a.group)}"]
    lines.extend(groups.format_elem(e) for e in a.coords.tolist())
    return "\n".join(lines) + "\n"


def read_set(path) -> GSet:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_set(fh.read())


def loads_set(text: str) -> GSet:
    lines = text.splitlines()
    if not lines:
        raise SetFileError("empty set file", 1)
    head = lines[0].strip()
    if not head.startswith("group:"):
        raise SetFileError("first line must be 'group: <literal>'", 1)
    try:
        g = groups.parse_group(head[len("group:"):])
    except groups.GroupError as exc:
        raise SetFileError(str(exc), 1) from None
    elems = []
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            elems.append(groups.parse_elem(g, line))
        except groups.GroupError as exc:
            raise SetFileError(str(exc), i, _bad_column(raw)) from None
    return GSet(g, elems)


def _bad_column(raw: str) -> int:
    """1-based offset of the first coordinate token that fails to parse."""
    offset = len(raw) - len(raw.lstrip())
    for piece in raw.strip().split(","):
        try:
            int(piece)
        except ValueError:
            return offset + 1
        offset += len(piece) + 1
    return 1
