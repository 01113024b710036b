"""Set algebra: sumsets, stabilizer slices, higher-dimensional delta-sumsets,
greedy completions, basis-depth tests and exact magnification ratios.

The k-dimensional objects A_1 x ... x A_k -+ Delta(C) are materialized by
one kernel, `_translate_grid`.  A tuple packs into one int64 in slot-major
mixed radix (slot 1's coordinates are the most significant), inside one
window shared by every translate: the fundamental domain of a cyclic group,
the box of the A_i -+ C on a lattice.  Each slot packs A_i -+ c for all c at
once, and one broadcast per slot folds it in, giving a |C| x prod |A_i| grid
with a row per c.  `delta_sumset` dedups the grid with an in-place sort and
a neighbour comparison: sorted output is what `TupleSet` stores anyway, and
the sort needs no hash table.  D_k and S_k are its cardinalities when all
A_i = C; the rows themselves are the id sets of the magnification search.
A + A, A - A, the counts D_k and S_k and the ratios R^(k)_B[A] are kept on
the set (see the gset module), each behind its cap checks: `_check_work`
bounds the grid's size before any lookup or build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import groups
from .groups import Elem, GroupSpec, InvariantError
from .gset import GSet, _require_same_group, _row_keys, as_rows, bounded_rows, full_group

MINUS = "-"
PLUS = "+"


class CapExceededError(RuntimeError):
    """A desk-scale guard (tuple space, subset count, ...) was exceeded."""


@dataclass
class Caps:
    tuples: int = 10_000_000       # materialized tuple work bound
    subsets: int = 20              # magnification exhaustive |A| bound
    gram: int = 512                # pattern Gram side bound

DEFAULT_CAPS = Caps()


# ---------------------------------------------------------------------------
# one-dimensional operations


def sumset(a: GSet, b: GSet) -> GSet:
    """A + B; A + A is kept on A."""
    _require_same_group(a, b)
    build = lambda: GSet(a.group, (a.coords[:, None] + b.coords[None]).reshape(-1, a.group.dim))
    return a.kept("A+A", build) if a is b else build()


def diffset(a: GSet, b: GSet) -> GSet:
    """A - B; A - A is kept on A."""
    _require_same_group(a, b)
    build = lambda: GSet(a.group, (a.coords[:, None] - b.coords[None]).reshape(-1, a.group.dim))
    return a.kept("A-A", build) if a is b else build()


def iterated(a: GSet, n: int, m: int) -> GSet:
    """nA - mA as a fold of sumsets and difference sets; needs n + m >= 1."""
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"iterated sumset needs n, m >= 0 and n + m >= 1, got {(n, m)}")
    acc: GSet | None = None
    for _ in range(n):
        acc = a if acc is None else sumset(acc, a)
    neg = a.negate()
    for _ in range(m):
        acc = neg if acc is None else sumset(acc, neg)
    return acc


_BLOCK = 1 << 22   # entries of one block of translated rows or packed keys


def slice_masks(a: GSet, shifts) -> np.ndarray:
    """The slice family {A_s = A n (A - s) : s in S} as one |S| x |A|
    membership matrix, M[i, j] = 1_A(a_j + s_i): one membership test over
    the translated rows, in blocks of whole rows of at most 2^22 entries.
    Shifts are elements (ints, coordinate sequences or an int64 matrix),
    reduced in a cyclic product; repeats give repeated rows."""
    shifts = bounded_rows(a.group, shifts)
    n, d = len(a), a.group.dim
    member = np.empty((len(shifts), n), dtype=bool)
    step = max(1, _BLOCK // max(1, n))
    for lo in range(0, len(shifts), step):
        block = shifts[lo:lo + step]
        moved = as_rows(a.group, (block[:, None] + a.coords[None]).reshape(-1, d))
        member[lo:lo + step] = a.isin(moved).reshape(len(block), n)
    return member


def stabilizer_slice(a: GSet, s: Sequence) -> GSet:
    """A_s = A n (A - s_1) n ... n (A - s_j), the x in A with every x + s_i
    in A.  Empty s gives A itself."""
    return a.subset(slice_masks(a, s).all(axis=0))


def family_sumset_sizes(a: GSet, left: np.ndarray, right: np.ndarray,
                        sign: str = MINUS) -> np.ndarray:
    """The |L| x |R| table of |B_i -+ C_j|, for B_i and C_j the rows of A
    that row i of `left` and row j of `right` select (boolean matrices over
    the rows of A, slice families from `slice_masks`, say).  The value
    a_x -+ a_y gets a compact id from one sort of the |A|^2 values;
    |B_i -+ C_j| is then the count of distinct keys (i |R| + j) |A -+ A| + id
    over x in B_i and y in C_j, sorted in blocks of whole rows of `left` of
    at most 2^22 keys."""
    n, d = len(a), a.group.dim
    pairs = a.coords[:, None] - a.coords[None] if sign == MINUS else a.coords[:, None] + a.coords[None]
    values, ids = np.unique(_row_keys(as_rows(a.group, pairs.reshape(-1, d))), return_inverse=True)
    ids, width = ids.reshape(n, n).astype(np.int64), len(right) * len(values)
    r_rows, r_cols = np.nonzero(right)
    sizes = np.zeros((len(left), len(right)), dtype=np.int64)
    step = max(1, _BLOCK // max(1, n * len(r_rows)))
    for lo in range(0, len(left), step):
        block = left[lo:lo + step]
        l_rows, l_cols = np.nonzero(block)
        keys = (l_rows[:, None] * width + r_rows[None] * len(values)
                + ids[l_cols[:, None], r_cols[None]]).ravel()
        keys.sort()
        counts = np.bincount(keys[np.diff(keys, prepend=-1) != 0] // len(values),
                             minlength=len(block) * len(right))
        sizes[lo:lo + step] = counts.reshape(len(block), len(right))
    return sizes


def restricted_sum(a: GSet, b: GSet, edges: Iterable[tuple], sign: str = MINUS) -> GSet:
    """{a - b : (a, b) in edges} (or a + b); edges must lie inside A x B."""
    _require_same_group(a, b)
    g = a.group
    edges = list(edges)
    x = as_rows(g, [e[0] for e in edges])
    y = as_rows(g, [e[1] for e in edges])
    inside = a.isin(x) & b.isin(y)
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(f"edge ({tuple(x[i].tolist())}, {tuple(y[i].tolist())}) leaves A x B")
    return GSet(g, x - y if sign == MINUS else x + y)


def greedy_completion(a: GSet) -> GSet:
    """Greedy X with A + X = G; |X| <= ceil((N/|A|)(ln N + 1)) by set cover."""
    g = a.group
    if not g.is_cyclic:
        raise groups.GroupError("completion needs a finite ambient group")
    if not a:
        raise ValueError("cannot complete the empty set")
    n = g.order
    if len(a) == 1:
        return GSet(g, full_group(g).coords - a.coords[0])
    from .moments import ConvTable, correlate  # late import, avoids a cycle

    ind = a.indicator()
    uncovered = np.ones(g.moduli, dtype=np.int64)
    chosen: list[int] = []
    while uncovered.any():
        # gain(x) = |(A + x) n U| = sum_y A(y) U(y + x) = (A o U)(x)
        gains = correlate(ConvTable(g, ind), ConvTable(g, uncovered)).array.ravel()
        x = int(np.argmax(gains))  # argmax takes the smallest index on ties
        if gains[x] <= 0:
            raise InvariantError("greedy cover stalled")  # unreachable: translates cover G
        chosen.append(x)
        uncovered[np.roll(ind, np.unravel_index(x, g.moduli), axis=tuple(range(g.dim))) == 1] = 0
    bound = math.ceil((n / len(a)) * (math.log(n) + 1))
    if len(chosen) > bound:
        raise InvariantError(f"greedy cover guarantee violated: {len(chosen)} > {bound}")
    return GSet(g, np.stack(np.unravel_index(chosen, g.moduli), axis=1))


# ---------------------------------------------------------------------------
# packed tuple sets


def _pack(rel: np.ndarray, radices: np.ndarray) -> np.ndarray:
    """Mixed-radix value of the window-relative coordinates on the last axis."""
    return np.ravel_multi_index(np.moveaxis(rel, -1, 0), radices)


class TupleSet:
    """A finite set of k-tuples of group elements, stored packed.

    Packing maps a tuple (x_1, ..., x_k) with d-dimensional coordinates to an
    integer in mixed radix; `offsets`/`radices` describe the per-slot ranges.
    """

    __slots__ = ("group", "arity", "packed", "offsets", "radices")

    def __init__(self, group: GroupSpec, arity: int, packed: np.ndarray,
                 offsets: np.ndarray, radices: np.ndarray):
        self.group = group
        self.arity = arity
        self.packed = packed            # sorted unique int64
        self.offsets = offsets          # per flat coordinate slot (arity*dim)
        self.radices = radices

    def __len__(self) -> int:
        return len(self.packed)

    def __contains__(self, tup) -> bool:
        rows = as_rows(self.group, tup)
        if len(rows) != self.arity:
            return False
        rel = rows.ravel() - self.offsets
        if (rel < 0).any() or (rel >= self.radices).any():
            return False  # outside the window
        val = _pack(rel, self.radices)
        i = np.searchsorted(self.packed, val)
        return i < len(self.packed) and self.packed[i] == val

    def decode(self, value: int) -> tuple[Elem, ...]:
        coords = np.array(np.unravel_index(value, self.radices)) + self.offsets
        d = self.group.dim
        return tuple(tuple(int(c) for c in coords[i * d:(i + 1) * d]) for i in range(self.arity))

    def __iter__(self):
        for v in self.packed:
            yield self.decode(int(v))


def _box(rows: np.ndarray) -> np.ndarray:
    """Coordinatewise minima over maxima of a row matrix (zeros if it is empty)."""
    if len(rows) == 0:
        return np.zeros((2, rows.shape[1]), dtype=np.int64)
    return np.stack([rows.min(axis=0), rows.max(axis=0)])


def _check_work(sets: Sequence[GSet], c: GSet, caps: Caps) -> None:
    """Refuse the |C| prod |A_i| tuples of A_1 x ... x A_k -+ Delta(C) above
    the tuple cap; the operands must share one group."""
    for a in sets:
        _require_same_group(a, c)
    work = len(c) * math.prod(max(len(a), 1) for a in sets)
    if work > caps.tuples:
        raise CapExceededError(f"tuple work {work} exceeds cap {caps.tuples}")


def _translate_grid(sets: Sequence[GSet], c: GSet, sign: str,
                    caps: Caps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed values of A_1 x ... x A_k -+ Delta(c) for every c in C.

    Returns (grid, offsets, radices): row j of the |C| x prod |A_i| int64
    grid packs the translate by the j-th element of C, all rows in one
    window (the fundamental domain of a cyclic group, the box of the
    A_i -+ C on a lattice), so values of different rows compare directly.
    """
    if not sets:
        raise ValueError("need at least one factor set")
    _check_work(sets, c, caps)
    g = c.group
    d = g.dim
    shift = -c.coords if sign == MINUS else c.coords
    if g.is_cyclic:
        offsets = np.zeros(len(sets) * d, dtype=np.int64)
        radices = list(g.moduli) * len(sets)
    else:  # slot i spans the box of A_i + shift
        boxes = np.concatenate([_box(a.coords) + _box(shift) for a in sets], axis=1)
        offsets = boxes[0]
        # in Python ints: a radix may pass 2^63 before the bit count rejects it
        radices = [hi - lo + 1 for lo, hi in boxes.T.tolist()]
    if sum(r.bit_length() for r in radices) > 62:
        raise CapExceededError("packed tuple space exceeds 62 bits")
    radices = np.array(radices, dtype=np.int64)
    grid = np.zeros((len(c), 1), dtype=np.int64)
    for i, a in enumerate(sets):
        window = slice(i * d, (i + 1) * d)
        rel = a.coords[None] + shift[:, None]                 # |C| x |A_i| x d
        if g.is_cyclic:
            rel %= radices[window]
        part = _pack(rel - offsets[window], radices[window])  # |C| x |A_i|
        slot_radix = int(np.prod(radices[window]))
        grid = (grid[:, :, None] * slot_radix + part[:, None, :]).reshape(
            len(c), grid.shape[1] * len(a))
    return grid, offsets, radices


def delta_sumset(sets: Sequence[GSet], b: GSet, sign: str = MINUS,
                 caps: Caps = DEFAULT_CAPS) -> TupleSet:
    """A_1 x ... x A_k -+ Delta(B) as a union of translated boxes.

    With the minus sign a tuple x belongs iff B n (A_1 - x_1) n ... n
    (A_k - x_k) is nonempty; with plus iff B n (x_1 - A_1) n ... is.
    Cardinalities give D_k(A) / S_k(A) when every set equals B.
    """
    grid, offsets, radices = _translate_grid(sets, b, sign, caps)
    vals = grid.ravel()
    vals.sort()
    first = np.ones(len(vals), dtype=bool)
    first[1:] = vals[1:] != vals[:-1]
    return TupleSet(b.group, len(sets), vals[first], offsets, radices)


def d_k(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> int:
    """D_k(A) = |A^k - Delta(A)|, kept on A (the count only)."""
    return _delta_count(a, k, MINUS, caps)


def s_k(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> int:
    """S_k(A) = |A^k + Delta(A)|, kept on A (the count only)."""
    return _delta_count(a, k, PLUS, caps)


def _delta_count(a: GSet, k: int, sign: str, caps: Caps) -> int:
    _check_work([a] * k, a, caps)
    return a.kept(("D" if sign == MINUS else "S", k),
                  lambda: len(delta_sumset([a] * k, a, sign, caps)))


def basis_depth_test(b: GSet, k: int, sign: str = MINUS,
                     caps: Caps = DEFAULT_CAPS) -> tuple[bool, tuple[Elem, ...] | None]:
    """Whether B -+_k B = G^k; on failure also the first missing k-tuple.

    Equivalent membership form: every k-tuple x has B n (B -+ x_1) n ... n
    (B -+ x_k) nonempty.
    """
    g = b.group
    if not g.is_cyclic:
        raise groups.GroupError("basis depth is defined over finite groups")
    n = g.order
    if n ** k > caps.tuples:
        raise CapExceededError(f"G^k has {n ** k} tuples, cap is {caps.tuples}")
    if not b:
        return False, tuple(groups.zero(g) for _ in range(k))
    t = delta_sumset([b] * k, b, sign, caps)
    if len(t) == n ** k:
        return True, None
    # packed values of a full cyclic tuple space are exactly 0..n^k - 1
    gaps = np.flatnonzero(t.packed != np.arange(len(t.packed), dtype=np.int64))
    missing = int(gaps[0]) if len(gaps) else len(t.packed)
    return False, t.decode(missing)


# ---------------------------------------------------------------------------
# magnification ratios


def _magnification_search(grid: np.ndarray) -> tuple[Fraction, tuple[int, ...]]:
    """Exact min over nonempty Z of |union of the chosen rows' ids| / |Z|.

    Each row's ids become one Python-int bitmask over the compacted ids,
    so a union is an OR and its size a popcount; ratios are compared by
    integer cross-multiplication.  Supersets are pruned once |B+Z|/|A|
    already exceeds the incumbent ratio.
    """
    n_elems = len(grid)
    ids, compact = np.unique(grid, return_inverse=True)
    masks = []
    for part in compact.reshape(grid.shape):
        bits = np.zeros(len(ids), dtype=bool)
        bits[part] = True
        masks.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
    best = [0, 0, ()]  # |B+Z| and |Z| of the incumbent (|Z| = 0: none yet), its indices

    def rec(start: int, size: int, union: int, chosen: list[int]) -> None:
        for j in range(start, n_elems):
            union2 = union | masks[j]
            count = union2.bit_count()
            chosen.append(j)
            if best[1] == 0 or count * best[1] < best[0] * (size + 1):
                best[:] = [count, size + 1, tuple(chosen)]
            if count * best[1] < best[0] * n_elems:
                rec(j + 1, size + 1, union2, chosen)
            chosen.pop()

    rec(0, 0, 0, [])
    return Fraction(best[0], best[1]), best[2]


def magnification(a: GSet, b: GSet, caps: Caps = DEFAULT_CAPS) -> tuple[Fraction, GSet]:
    """R_B[A] = min over nonempty Z <= A of |B + Z| / |Z|, with a witness Z."""
    _require_same_group(a, b)
    if not a:
        raise ValueError("magnification needs a nonempty A")
    if not b:
        raise ValueError("magnification needs a nonempty B")
    return magnification_k(a, b, 1, caps)


def magnification_k(a: GSet, b: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> tuple[Fraction, GSet]:
    """R^(k)_B[A] = min over nonempty Z <= A of |B^k + Delta(Z)| / |Z|,
    with a witness Z; kept on A per (B, k)."""
    _require_same_group(a, b)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not a or not b:
        raise ValueError("magnification needs nonempty sets")
    if len(a) > caps.subsets:
        raise CapExceededError(f"|A| = {len(a)} exceeds subset cap {caps.subsets}")
    _check_work([b] * k, a, caps)
    return a.kept(("R", a.partner(b), k), lambda: _magnification(a, b, k, caps))


def _magnification(a: GSet, b: GSet, k: int, caps: Caps) -> tuple[Fraction, GSet]:
    grid, _, _ = _translate_grid([b] * k, a, PLUS, caps)   # row z: B^k + Delta(z)
    ratio, chosen = _magnification_search(grid)
    return ratio, GSet(a.group, a.coords[list(chosen)])
