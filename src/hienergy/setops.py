"""Set algebra: sumsets, stabilizer slices, higher-dimensional delta-sumsets,
basis-depth tests and exact magnification ratios.

The k-dimensional objects A_1 x ... x A_k -+ Delta(C) are materialized by
one kernel, `_translate_grid`.  A tuple packs into one int64 in slot-major
mixed radix (slot 1's coordinates are the most significant), inside one
window shared by every translate: the fundamental domain of a cyclic group,
the box of the A_i -+ C on a lattice.  Each slot packs A_i -+ c for all c at
once, by its row keys on a cyclic group (`gset.row_keys`, radix |G|) and by
a multiply-add over the box-relative coordinates on a lattice, and one
broadcast per slot folds it in, giving a |C| x prod |A_i| grid
with a row per c.  `delta_sumset` counts the distinct values of the grid
with an in-place sort and a neighbour comparison, which needs no hash table;
`basis_depth_test` marks them in a table of the whole tuple space.  D_k and
S_k are the counts when all A_i = C; the rows themselves are the id sets of
the magnification search.
A family of subsets B_i of one set A takes its sumset sizes |B_i -+ C_j|
and its energies E_2(B_i) from one id per difference a_x -+ a_y
(`pair_ids`): `family_sumset_sizes` counts distinct ids, `family_energies`
squares their bincounts, and reads the engine (`moments`) for a whole row
or past 2^22 pairs.
A + A, A - A, the counts D_k and S_k and the ratios R^(k)_B[A] are kept on
the set (see the gset module), each behind its cap checks: `_check_work`
bounds the grid's size before any lookup or build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import groups, moments
from .groups import Elem
from .gset import GSet, _firsts, _require_same_group, bounded_rows, row_keys, sum_rows

MINUS = "-"
PLUS = "+"


class CapExceededError(RuntimeError):
    """A desk-scale guard (tuple space, subset count, ...) was exceeded."""


@dataclass(frozen=True)
class Caps:
    tuples: int = 10_000_000       # materialized tuple work bound
    subsets: int = 20              # magnification exhaustive |A| bound

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


_BLOCK = 1 << 22   # entries of one block of translated rows or packed keys; family_energies' pair budget


def slice_masks(a: GSet, shifts) -> np.ndarray:
    """The slice family {A_s = A n (A - s) : s in S} as one |S| x |A|
    membership matrix, M[i, j] = 1_A(a_j + s_i): one membership test over
    the translated rows, in blocks of whole rows of at most 2^22 entries.
    Shifts are elements (ints, coordinate sequences or an int64 matrix),
    reduced in a cyclic product; repeats give repeated rows.  The AND of the
    rows is the stabilizer slice A n (A - s_1) n ... n (A - s_j)."""
    shifts = bounded_rows(a.group, shifts)
    n = len(a)
    member = np.empty((len(shifts), n), dtype=bool)
    step = max(1, _BLOCK // max(1, n))
    for lo in range(0, len(shifts), step):
        block = shifts[lo:lo + step]
        moved = sum_rows(a.group, block[:, None], a.coords[None])
        member[lo:lo + step] = a.isin(moved).reshape(len(block), n)
    return member


def pair_ids(a: GSet, sign: str = MINUS) -> tuple[np.ndarray, int]:
    """Ids of the |A|^2 values a_x -+ a_y as an |A| x |A| int64 matrix, equal
    ids for equal values, and a bound above every id.  In a cyclic product of
    at most |A|^2 elements the id is the flat rank of the value, read with no
    sort, and the bound the order; else the ids are compact, from one sort of
    the values, and the bound is |A -+ A|.  Either way the bound is at most
    |A|^2."""
    n, g = len(a), a.group
    keys = row_keys(g, sum_rows(g, a.coords[:, None], a.coords[None], sign == MINUS))
    if g.is_cyclic and g.order <= n * n:
        return keys.reshape(n, n), g.order
    values, ids = np.unique(keys, return_inverse=True)
    return ids.reshape(n, n).astype(np.int64, copy=False), len(values)


def family_sumset_sizes(a: GSet, left: np.ndarray, right: np.ndarray,
                        sign: str = MINUS) -> np.ndarray:
    """The |L| x |R| table of |B_i -+ C_j|, for B_i and C_j the rows of A
    that row i of `left` and row j of `right` select (boolean matrices over
    the rows of A, slice families from `slice_masks`, say).  With the ids of
    `pair_ids` over the rows some B_i or C_j selects, |B_i -+ C_j| is the
    count of distinct ids of a_x -+ a_y over x in B_i and y in C_j
    (`distinct_counts`), in blocks of whole rows of `left` of at most 2^22 keys.
    Where some row of A is in no B_i and no C_j, the ids cover the used rows
    only; a family that uses every row, as C20's whole rows, takes A as it is."""
    used = left.any(axis=0) | right.any(axis=0)
    if not used.all():
        a, left, right = a.subset(used), left[:, used], right[:, used]
    ids, width = pair_ids(a, sign)
    r_rows, r_cols = np.nonzero(right)
    sizes = np.zeros((len(left), len(right)), dtype=np.int64)
    step = max(1, _BLOCK // max(1, len(ids) * len(r_rows)))
    for lo in range(0, len(left), step):
        block = left[lo:lo + step]
        l_rows, l_cols = np.nonzero(block)
        pair = l_rows[:, None] * len(right) + r_rows[None]   # the (i, j) of each (x, y)
        counts = distinct_counts(pair.ravel(), ids[l_cols][:, r_cols].ravel(),
                                 len(block) * len(right), width)
        sizes[lo:lo + step] = counts.reshape(len(block), len(right))
    return sizes


def distinct_counts(rows: np.ndarray, ids: np.ndarray, count: int, width: int) -> np.ndarray:
    """For each row r < count, the number of distinct ids in [0, width)
    paired with r in the two equal-length arrays, from the keys r width + id.
    Where the count x width boolean table has no more entries than there are
    keys, one scatter into it and one sum per row; else one sort of the keys
    and a count per row of the first key of each run.  Either way no array
    outgrows the keys."""
    keys = rows * width + ids
    if count * width <= len(keys):
        seen = np.zeros(count * width, dtype=bool)
        seen[keys] = True
        return seen.reshape(count, width).sum(axis=1)
    keys.sort()
    return np.bincount(keys[np.diff(keys, prepend=-1) != 0] // width, minlength=count)


def family_energies(a: GSet, member: np.ndarray) -> list[int]:
    """E_2(B_i) for B_i the rows of A that row i of a boolean matrix over the
    rows of A selects.  A full row reads E_2(A) off the kept A o A.  For the
    other rows, E_2(B) = sum_d r_B(d)^2 with r_B(d) the number of pairs
    (x, y) in B x B with a_x - a_y = d, so row i's energy is the square sum
    of one bincount of the ids (`pair_ids`) of its |B_i|^2 pairs, an
    exact int of at most |B_i|^3, with A's id matrix built once for the
    family.  That count serves while |A|^2 and the sum of the rows' |B_i|^2
    stay within 2^22, the path chosen a priori as `moments._conv` chooses its
    own; above that, each row's subset calls `moments.energy_k`, so large
    sets keep the FFT."""
    sizes = member.sum(axis=1).tolist()
    part = [i for i, s in enumerate(sizes) if s < len(a)]
    found = {}
    if max(len(a) ** 2, sum(sizes[i] ** 2 for i in part)) > _BLOCK:
        found = {i: moments.energy_k(a.subset(member[i]), 2) for i in part}
    elif part:
        ids, _ = pair_ids(a, MINUS)
        for i in part:
            counts = np.bincount(ids[member[i]][:, member[i]].ravel())
            found[i] = int(np.dot(counts, counts))
    whole = None
    if len(part) < len(sizes):   # E_2(A) = sum (A o A)^2; no histogram is kept
        whole = moments.correlate(a, a).square_sum()
    return [found.get(i, whole) for i in range(len(sizes))]


# ---------------------------------------------------------------------------
# packed tuple grids


def _pack(rel: np.ndarray, radices: list[int]) -> np.ndarray:
    """Mixed-radix value of the rows of a len x dim window-relative matrix,
    by one multiply-add per further column."""
    keys = rel[:, 0]
    for r, col in zip(radices[1:], rel.T[1:]):
        keys = keys * r + col
    return keys


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


def _translate_grid(sets: Sequence[GSet], c: GSet, sign: str, caps: Caps) -> np.ndarray:
    """Packed values of A_1 x ... x A_k -+ Delta(c) for every c in C.

    Row j of the |C| x prod |A_i| int64 grid packs the translate by the j-th
    element of C, all rows in one window (the fundamental domain of a cyclic
    group, the box of the A_i -+ C on a lattice), so values of different rows
    compare directly.  In a cyclic group the window starts at 0 and its
    radices are the moduli, slot after slot: the values of the whole tuple
    space are 0 .. |G|^k - 1, in the order of `np.unravel_index`.
    """
    if not sets:
        raise ValueError("need at least one factor set")
    _check_work(sets, c, caps)
    g = c.group
    d = g.dim
    if g.is_cyclic:
        radices = list(g.moduli) * len(sets)
    else:  # slot i spans the box of A_i -+ C
        shift = -c.coords if sign == MINUS else c.coords
        boxes = np.concatenate([_box(a.coords) + _box(shift) for a in sets], axis=1)
        offsets = boxes[0]
        # in Python ints: a radix may pass 2^63 before the bit count rejects it
        radices = [hi - lo + 1 for lo, hi in boxes.T.tolist()]
    if sum(r.bit_length() for r in radices) > 62:
        raise CapExceededError("packed tuple space exceeds 62 bits")
    grid = np.zeros((len(c), 1), dtype=np.int64)
    for i, a in enumerate(sets):
        window = slice(i * d, (i + 1) * d)
        rows = sum_rows(g, a.coords[None], c.coords[:, None], sign == MINUS)   # row j |A_i| + x: a_x -+ c_j
        if g.is_cyclic:
            part, slot_radix = row_keys(g, rows), g.order
        else:
            part, slot_radix = _pack(rows - offsets[window], radices[window]), math.prod(radices[window])
        grid = (grid[:, :, None] * slot_radix + part.reshape(len(c), 1, len(a))).reshape(
            len(c), grid.shape[1] * len(a))
    return grid


def delta_sumset(sets: Sequence[GSet], b: GSet, sign: str = MINUS,
                 caps: Caps = DEFAULT_CAPS) -> int:
    """|A_1 x ... x A_k -+ Delta(B)|, the size of a union of translated boxes.

    With the minus sign a tuple x belongs iff B n (A_1 - x_1) n ... n
    (A_k - x_k) is nonempty; with plus iff B n (x_1 - A_1) n ... is.
    The counts are D_k(A) / S_k(A) when every set equals B.
    """
    vals = _translate_grid(sets, b, sign, caps).ravel()
    vals.sort()
    return int(np.count_nonzero(_firsts(vals)))


def d_k(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> int:
    """D_k(A) = |A^k - Delta(A)|, kept on A (the count only)."""
    return _delta_count(a, k, MINUS, caps)


def s_k(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> int:
    """S_k(A) = |A^k + Delta(A)|, kept on A (the count only)."""
    return _delta_count(a, k, PLUS, caps)


def _delta_count(a: GSet, k: int, sign: str, caps: Caps) -> int:
    k = groups.integral_order(k, 1, "D_k" if sign == MINUS else "S_k")
    _check_work([a] * k, a, caps)
    return a.kept(("D" if sign == MINUS else "S", k),
                  lambda: delta_sumset([a] * k, a, sign, caps))


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
    seen = np.zeros(n ** k, dtype=bool)   # the packed tuple space, 0 .. n^k - 1
    seen[_translate_grid([b] * k, b, sign, caps)] = True
    if seen.all():
        return True, None
    coords = [int(c) for c in np.unravel_index(int(np.argmin(seen)), g.moduli * k)]
    d = g.dim
    return False, tuple(tuple(coords[i * d:(i + 1) * d]) for i in range(k))


# ---------------------------------------------------------------------------
# magnification ratios


def _magnification_search(grid: np.ndarray) -> tuple[Fraction, tuple[int, ...]]:
    """Exact min over nonempty Z of |union of the chosen rows' ids| / |Z|.

    Each row's ids become one Python-int bitmask over the compacted ids,
    so a union is an OR and its size a popcount; ratios are compared by
    integer cross-multiplication.  The search walks Z in index order; a
    node's supersets hold at most size + n_elems - j elements, j its last
    index, and their unions only grow, so they are pruned once |union| over
    that size is no better than the incumbent.  A pruned set is never
    strictly better than the incumbent that pruned it, and the incumbent
    changes only on a strict gain, so the ratio and witness are those of
    the full search.
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
            if count * best[1] < best[0] * (size + n_elems - j):
                rec(j + 1, size + 1, union2, chosen)
            chosen.pop()

    rec(0, 0, 0, [])
    return Fraction(best[0], best[1]), best[2]


def magnification(a: GSet, b: GSet, caps: Caps = DEFAULT_CAPS) -> tuple[Fraction, GSet]:
    """R_B[A] = min over nonempty Z <= A of |B + Z| / |Z|, with a witness Z."""
    return magnification_k(a, b, 1, caps)


def magnification_k(a: GSet, b: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> tuple[Fraction, GSet]:
    """R^(k)_B[A] = min over nonempty Z <= A of |B^k + Delta(Z)| / |Z|,
    with a witness Z; kept on A per (B, k)."""
    _require_same_group(a, b)
    k = groups.integral_order(k, 1, "R^(k)_B[A]")
    if not a or not b:
        raise ValueError("magnification needs nonempty sets")
    if len(a) > caps.subsets:
        raise CapExceededError(f"|A| = {len(a)} exceeds subset cap {caps.subsets}")
    _check_work([b] * k, a, caps)
    return a.kept(("R", a.partner(b), k), lambda: _magnification(a, b, k, caps))


def _magnification(a: GSet, b: GSet, k: int, caps: Caps) -> tuple[Fraction, GSet]:
    grid = _translate_grid([b] * k, a, PLUS, caps)   # row z: B^k + Delta(z)
    ratio, chosen = _magnification_search(grid)
    return ratio, GSet(a.group, a.coords[list(chosen)])
