"""Finite subsets of an ambient group, plus the on-disk set format.

A GSet stores one form, ``coords``: an (n, dim) int64 matrix with one row per
element, rows reduced mod the moduli in a cyclic product, unique and sorted
lexicographically (the order of the sorted coordinate tuples).  Lattice
coordinates must satisfy |c| < 2^62, so a sum or difference of two rows
cannot wrap.  Everything in the package computes on ``coords``; element
tuples appear only where input is parsed and output is formatted.

``row_keys`` gives each row one key, and every sort, dedup, search and rank
of element rows reads it: in a cyclic product the row-major rank, one int64
below the order (``make_group`` refuses orders of 2^62 and more), which
orders rows as the lexicographic sort does; in Z the coordinate; in Z^d,
d >= 2, a structured view.  A set is one sort of its keys and a neighbour
mask, its rows read back from the keys (Z^d alone runs ``np.lexsort``, several
times faster there than a sort of the structured key).  The sorted keys are
kept, read-only, as ``keys`` (in one dimension a view of ``coords``):
``flat_indices()`` returns them, ``indicator()`` is filled from them,
membership (``x in a``, ``isin``) is a binary search of them, and an
intersection is ``subset`` of an ``isin`` mask.  ``elems`` (tuples, for tests
and callers outside the package) and ``indicator()`` are derived on first
use and cached.  The indicator is one read-only ``uint8`` 0/1 plane, a byte
per group element, and the convolution engine reads it as the set's table
(``moments.ConvTable.from_gset``) without a wider copy.

Objects computed from a set, and from partner sets compared by value, are
kept on it in one dict through ``GSet.kept(key, build)``, which runs
``build()`` once per key and keeps nothing if it raises.  The dict dies with
the set; ``subset`` and every constructor start an empty one.  Its keys:

- ``"AoA"``: the table A o A (``moments.correlate(a, a)``), read-only;
- ``"levels"``: the histogram of its values, read-only arrays (levels,
  counts), and the integer power sums E_0..E_k read off it so far, behind
  every ``moments.energy_k`` and |A - A|; ``level_sequence`` is runs over
  it (``moments.LevelSequence``), one int per distinct level;
- ``"chain"``: the convolution powers behind ``moments.t_k``/``sigma_k``;
- ``"A+A"``, ``"A-A"``: ``setops.sumset(a, a)``, ``setops.diffset(a, a)``;
- ``"AA"``: the product set ``moments.prodset(a, a)`` of a set of Z;
- ``"A/A"``: its quotient counts (``moments.quotient_counts``), read-only;
- ``"cosets"``: a subgroup's cosets, one read-only matrix (``genset.subgroup_cosets``);
- ``"dft"``: the spectrum of a set of a cyclic product (``spectrum.dft``), read-only;
- ``("D", k)``, ``("S", k)``: the counts D_k(A), S_k(A), never the tuples;
- ``("R", b, k)``: R^(k)_B[A] and its witness (``setops.magnification_k``);
- ``("F", depth)``: ``checks.slice_corr_sums``, a read-only mapping.

A partner b equal to the set itself is keyed as ``"self"`` (``GSet.partner``),
and no kept value holds the set, so a set is freed as soon as it is dropped.

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
    len x dim int64 matrix in input order, reduced in a cyclic product.  An
    int64 matrix that needs no reduction is returned itself, not a copy; an
    iterable other than an array, list, tuple or range is read as one list."""
    try:
        rows = _int64(elems if isinstance(elems, (np.ndarray, list, tuple, range)) else list(elems))
    except (OverflowError, TypeError, ValueError):
        raise groups.GroupError(f"elements of {group} must be integer coordinates "
                                "within int64") from None
    if rows.ndim == 1 and (group.dim == 1 or rows.size == 0):
        rows = rows.reshape(-1, group.dim)
    if rows.ndim != 2 or rows.shape[1] != group.dim:
        raise groups.GroupError(f"elements of {group} need {group.dim} coordinates")
    if group.is_cyclic and (rows.min(initial=0) < 0 or (
            rows.max(initial=0) >= min(group.moduli)   # then each column against its own
            and (group.dim == 1 or (rows.max(axis=0) >= group.moduli).any()))):
        rows = rows % np.array(group.moduli, dtype=np.int64)
    return rows


def _int64(elems) -> np.ndarray:
    """np.asarray(elems, dtype=np.int64), values and errors alike: a list
    that starts with a Python int by one np.fromiter (int() on each entry,
    as asarray does, without its shape discovery: 10-30% faster),
    back to np.asarray if an entry is not a scalar; rows and everything
    else by np.asarray, without a failed np.fromiter's exception."""
    if isinstance(elems, list) and elems and isinstance(elems[0], int):
        try:
            return np.fromiter(elems, np.int64, len(elems))
        except (TypeError, ValueError):
            pass
    return np.asarray(elems, dtype=np.int64)


def sum_rows(group: GroupSpec, x: np.ndarray, y: np.ndarray, minus: bool = False) -> np.ndarray:
    """The rows x + y, or x - y with ``minus``, of two int64 arrays of
    reduced rows that broadcast against each other (``x[:, None]`` and
    ``y[None]`` give row i len(y) + j for x_i -+ y_j), as one reduced
    len x dim matrix.  In a cyclic product each coordinate of a sum lies in
    [0, 2m) and of a difference in (-m, m), so one conditional subtract or
    add of the modulus per column reduces it; lattice rows pass through."""
    out = (np.subtract(x, y) if minus else np.add(x, y)).reshape(-1, group.dim)
    if group.is_cyclic:
        for col, m in zip(out.T, group.moduli):
            if minus:
                np.add(col, m, out=col, where=col < 0)
            else:
                np.subtract(col, m, out=col, where=col >= m)
    return out


def bounded_rows(group: GroupSpec, elems) -> np.ndarray:
    """``as_rows``, refusing lattice coordinates outside (-2^62, 2^62): the
    sum or difference of two such rows cannot wrap."""
    rows = as_rows(group, elems)
    if not group.is_cyclic and (rows.max(initial=0) >= _LATTICE_BOUND
                                or rows.min(initial=0) <= -_LATTICE_BOUND):
        raise groups.GroupError("lattice coordinates must lie strictly between -2^62 and 2^62")
    return rows


def row_keys(group: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """One key per row of a reduced len x dim matrix, ordered as the rows are
    lexicographically (see the module docstring); on one column, a view."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    if group.is_cyclic:
        keys = rows[:, 0] * group.moduli[1]
        for n, col in zip(group.moduli[2:], rows.T[1:]):
            keys += col
            keys *= n
        keys += rows[:, -1]
        return keys
    rows = np.ascontiguousarray(rows)
    return rows.view([(f"c{i}", np.int64) for i in range(rows.shape[1])])[:, 0]


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal keys (or rows) in sorted order."""
    fresh = np.ones(len(ordered), dtype=bool)
    differs = ordered[1:] != ordered[:-1]
    fresh[1:] = differs if ordered.ndim == 1 else differs.any(axis=1)
    return fresh


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The first of each run of equal keys (or rows) in sorted order: ordered
    itself where no run repeats, so a set of distinct elements is not copied."""
    fresh = _firsts(ordered)
    return ordered if fresh.all() else ordered[fresh]


def _unrank(keys: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """The rows of a product of two or more moduli with these row-major ranks."""
    rows = np.empty((len(keys), len(moduli)), dtype=np.int64)
    for j in range(len(moduli) - 1, 0, -1):
        keys = np.divmod(keys, moduli[j], out=(rows[:, j - 1], rows[:, j]))[0]
    return rows


class GSet:
    """Immutable finite subset, stored as ``coords`` (see the module docstring)."""

    def __init__(self, group: GroupSpec, elems: Iterable = ()):  # elems: ints, tuples or rows
        rows = bounded_rows(group, elems)
        if group.is_cyclic or group.dim == 1:
            keys = _distinct(np.sort(row_keys(group, rows)))
            self._store(group, keys[:, None] if group.dim == 1 else _unrank(keys, group.moduli), keys)
        else:   # Z^d: lexsort, several times faster than a sort of the structured key
            rows = rows[np.lexsort(rows.T[::-1])]
            self._store(group, _distinct(rows))

    def _store(self, group: GroupSpec, coords: np.ndarray, keys: np.ndarray | None = None) -> None:
        """Take sorted distinct rows, with their keys where known, as the set."""
        self.group, self.coords, self._kept = group, coords, {}   # _kept: see the module docstring
        self.keys = row_keys(group, coords) if keys is None else keys
        coords.flags.writeable = self.keys.flags.writeable = False

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
        arr = np.zeros(self.group.order, dtype=np.uint8)
        arr[self.flat_indices()] = 1
        arr.flags.writeable = False
        return arr.reshape(self.group.moduli)

    def indicator(self) -> np.ndarray:
        """Dense read-only 0/1 ``uint8`` array shaped by the moduli, one byte
        per group element (cyclic products only)."""
        return self._dense

    def flat_indices(self) -> np.ndarray:
        """Row-major element ranks in a cyclic product, ascending: the keys."""
        if not self.group.is_cyclic:
            raise groups.GroupError("flat indices and the dense indicator need a cyclic product")
        return self.keys

    def isin(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the rows of a reduced len x dim matrix that are elements."""
        keys, want = self.keys, row_keys(self.group, rows)
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
        out._store(self.group, self.coords[mask])
        return out

    def partner(self, b: "GSet"):
        """b as it appears in a key of this set's memo: "self" when b equals
        this set, so that no kept key refers back to the set it is kept on
        (the set is then freed by reference counting alone)."""
        return "self" if b == self else b

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
