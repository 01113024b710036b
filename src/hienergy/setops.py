"""Set algebra: sumsets, stabilizer slices, higher-dimensional delta-sumsets,
greedy completions, basis-depth tests and exact magnification ratios.

The k-dimensional objects A_1 x ... x A_k -+ Delta(B) are materialized as
packed integer arrays; D_k and S_k are their cardinalities when all A_i = B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import groups
from .groups import Elem, GroupSpec
from .gset import GSet, _require_same_group, full_group

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
    _require_same_group(a, b)
    g = a.group
    return GSet(g, (groups.op_add(g, x, y) for x in a for y in b))


def diffset(a: GSet, b: GSet) -> GSet:
    _require_same_group(a, b)
    g = a.group
    return GSet(g, (groups.op_sub(g, x, y) for x in a for y in b))


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
    assert acc is not None
    return acc


def stabilizer_slice(a: GSet, s: Sequence) -> GSet:
    """A_s = A n (A - s_1) n ... n (A - s_j); empty s gives A itself."""
    g = a.group
    out = a
    for si in s:
        si = groups.as_elem(g, si)
        shifted = GSet(g, (groups.op_sub(g, e, si) for e in a))
        out = out.intersect(shifted)
        if not out:
            break
    return out


def restricted_sum(a: GSet, b: GSet, edges: Iterable[tuple], sign: str = MINUS) -> GSet:
    """{a - b : (a, b) in edges} (or a + b); edges must lie inside A x B."""
    _require_same_group(a, b)
    g = a.group
    out = []
    for x, y in edges:
        x = groups.as_elem(g, x)
        y = groups.as_elem(g, y)
        if x not in a.as_set or y not in b.as_set:
            raise ValueError(f"edge ({x}, {y}) leaves A x B")
        out.append(groups.op_sub(g, x, y) if sign == MINUS else groups.op_add(g, x, y))
    return GSet(g, out)


def greedy_completion(a: GSet, caps: Caps = DEFAULT_CAPS) -> GSet:
    """Greedy X with A + X = G; |X| <= ceil((N/|A|)(ln N + 1)) by set cover."""
    g = a.group
    if not g.is_cyclic:
        raise groups.GroupError("completion needs a finite ambient group")
    if not a:
        raise ValueError("cannot complete the empty set")
    n = g.order
    if len(a) == 1:
        base = a.elems[0]
        return GSet(g, (groups.op_sub(g, x, base) for x in groups.enumerate_elements(g)))
    from .moments import ConvTable, correlate  # late import, avoids a cycle

    ind = a.indicator()
    uncovered = np.ones(g.moduli, dtype=np.int64)
    chosen: list[int] = []
    while uncovered.any():
        # gain(x) = |(A + x) n U| = sum_y A(y) U(y + x) = (A o U)(x)
        gains = correlate(ConvTable(g, ind), ConvTable(g, uncovered)).array.ravel()
        x = int(np.argmax(gains))  # argmax takes the smallest index on ties
        if gains[x] <= 0:
            raise AssertionError("greedy cover stalled")  # unreachable: translates cover G
        chosen.append(x)
        uncovered[np.roll(ind, groups.from_flat(g, x), axis=tuple(range(g.dim))) == 1] = 0
    bound = math.ceil((n / len(a)) * (math.log(n) + 1))
    assert len(chosen) <= bound, f"greedy cover guarantee violated: {len(chosen)} > {bound}"
    return GSet(g, (groups.from_flat(g, x) for x in chosen))


# ---------------------------------------------------------------------------
# packed tuple sets


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

    def _pack_coords(self, coords: np.ndarray) -> np.ndarray:
        rel = coords - self.offsets
        if (rel < 0).any() or (rel >= self.radices).any():
            return np.full(len(coords), -1, dtype=np.int64)  # outside the window
        out = np.zeros(len(coords), dtype=np.int64)
        for j in range(coords.shape[1]):
            out = out * self.radices[j] + rel[:, j]
        return out

    def __contains__(self, tup) -> bool:
        g = self.group
        elems = [groups.as_elem(g, x) for x in tup]
        if len(elems) != self.arity:
            return False
        flat = np.array([c for e in elems for c in e], dtype=np.int64).reshape(1, -1)
        val = self._pack_coords(flat)[0]
        if val < 0:
            return False
        i = np.searchsorted(self.packed, val)
        return i < len(self.packed) and self.packed[i] == val

    def decode(self, value: int) -> tuple[Elem, ...]:
        coords = []
        for radix in self.radices[::-1]:
            coords.append(value % radix)
            value //= radix
        coords = np.array(coords[::-1], dtype=np.int64) + self.offsets
        d = self.group.dim
        return tuple(tuple(int(c) for c in coords[i * d:(i + 1) * d]) for i in range(self.arity))

    def __iter__(self):
        for v in self.packed:
            yield self.decode(int(v))

    def to_set(self) -> set:
        return set(self)


def _slot_layout(group: GroupSpec, coord_mins, coord_maxs):
    """Offsets and radices for packing arity*dim coordinate rows."""
    offsets = np.array(coord_mins, dtype=np.int64)
    radices = np.array(coord_maxs, dtype=np.int64) - offsets + 1
    total_bits = sum(int(r).bit_length() for r in radices)
    if total_bits > 62:
        raise CapExceededError("packed tuple space exceeds 62 bits")
    return offsets, radices


def _pack_columns(cols: list[np.ndarray], radices: np.ndarray) -> np.ndarray:
    out = np.zeros_like(cols[0])
    for j, col in enumerate(cols):
        out = out * radices[j] + col
    return out


def delta_sumset(sets: Sequence[GSet], b: GSet, sign: str = MINUS,
                 caps: Caps = DEFAULT_CAPS) -> TupleSet:
    """A_1 x ... x A_k -+ Delta(B) as a union of translated boxes.

    With the minus sign a tuple x belongs iff B n (A_1 - x_1) n ... n
    (A_k - x_k) is nonempty; with plus iff B n (x_1 - A_1) n ... is.
    Cardinalities give D_k(A) / S_k(A) when every set equals B.
    """
    if not sets:
        raise ValueError("need at least one factor set")
    g = b.group
    for a in sets:
        _require_same_group(a, b)
    k = len(sets)
    d = g.dim
    work = len(b) * math.prod(max(len(a), 1) for a in sets)
    if work > caps.tuples:
        raise CapExceededError(f"delta_sumset work {work} exceeds cap {caps.tuples}")

    mats = [a.coord_matrix() for a in sets]
    bmat = b.coord_matrix()
    mods = np.array(g.moduli, dtype=np.int64) if g.is_cyclic else None

    # per-slot coordinate windows over all translates
    mins, maxs = [], []
    for i in range(k):
        for ax in range(d):
            if g.is_cyclic:
                mins.append(0)
                maxs.append(g.moduli[ax] - 1)
            else:
                lo_a = int(mats[i][:, ax].min()) if len(mats[i]) else 0
                hi_a = int(mats[i][:, ax].max()) if len(mats[i]) else 0
                lo_b = int(bmat[:, ax].min()) if len(bmat) else 0
                hi_b = int(bmat[:, ax].max()) if len(bmat) else 0
                if sign == MINUS:
                    mins.append(lo_a - hi_b)
                    maxs.append(hi_a - lo_b)
                else:
                    mins.append(lo_a + lo_b)
                    maxs.append(hi_a + hi_b)
    offsets, radices = _slot_layout(g, mins, maxs)

    chunks = []
    for bi in range(len(bmat)):
        bvec = bmat[bi]
        acc: np.ndarray | None = None
        for i in range(k):
            shifted = mats[i] - bvec if sign == MINUS else mats[i] + bvec
            if g.is_cyclic:
                shifted = shifted % mods
            cols = [shifted[:, ax] - offsets[i * d + ax] for ax in range(d)]
            part = _pack_columns(cols, radices[i * d:(i + 1) * d])
            # fold this slot into the accumulated prefix
            slot_radix = int(np.prod(radices[i * d:(i + 1) * d]))
            if acc is None:
                acc = part
            else:
                acc = (acc[:, None] * slot_radix + part[None, :]).ravel()
        if acc is not None:
            chunks.append(acc)
    if not chunks or any(len(a) == 0 for a in mats) or len(bmat) == 0:
        packed = np.zeros(0, dtype=np.int64)
    else:
        packed = np.unique(np.concatenate(chunks))
    return TupleSet(g, k, packed, offsets, radices)


def _unpack_coords(t: TupleSet) -> np.ndarray:
    """n x (arity*dim) coordinate rows of a packed tuple set."""
    vals = t.packed.copy()
    cols = []
    for radix in t.radices[::-1]:
        cols.append(vals % radix)
        vals = vals // radix
    if not cols:
        return np.zeros((len(t.packed), 0), dtype=np.int64)
    return np.stack(cols[::-1], axis=1) + t.offsets


def diagonal_translate_family(t: TupleSet, c_set: GSet, sign: str = PLUS) -> list[np.ndarray]:
    """Packed values of T +- Delta(c) for every c in C, in one shared window
    so values from different translates are directly comparable."""
    g = t.group
    if len(t) == 0 or len(c_set) == 0:
        return [np.zeros(0, dtype=np.int64) for _ in c_set]
    coords = _unpack_coords(t)
    cmat = c_set.coord_matrix()
    if g.is_cyclic:
        offsets = np.zeros(coords.shape[1], dtype=np.int64)
        radices = np.tile(np.array(g.moduli, dtype=np.int64), t.arity)
        mods = radices
    else:
        tiled_lo = np.tile(cmat.min(axis=0), t.arity)
        tiled_hi = np.tile(cmat.max(axis=0), t.arity)
        if sign == PLUS:
            lo = coords.min(axis=0) + tiled_lo
            hi = coords.max(axis=0) + tiled_hi
        else:
            lo = coords.min(axis=0) - tiled_hi
            hi = coords.max(axis=0) - tiled_lo
        offsets, radices = _slot_layout(g, lo, hi)
        mods = None
    out = []
    for c in cmat:
        delta = np.tile(c, t.arity)
        shifted = coords + delta if sign == PLUS else coords - delta
        if mods is not None:
            shifted = shifted % mods
        rel = shifted - offsets
        packed = np.zeros(len(rel), dtype=np.int64)
        for j in range(rel.shape[1]):
            packed = packed * radices[j] + rel[:, j]
        out.append(packed)
    return out


def delta_translate(t: TupleSet, c, sign: str = PLUS) -> np.ndarray:
    """Packed values of T +- Delta(c) for one element (cyclic groups keep the
    fundamental-domain window, so results are comparable between calls)."""
    g = t.group
    c = groups.as_elem(g, c)
    return diagonal_translate_family(t, GSet(g, [c]), sign)[0]


def delta_sumset_tupleset(t: TupleSet, c_set: GSet, sign: str = PLUS) -> int:
    """|T +- Delta(C)| for an arbitrary tuple set T (cardinality only)."""
    if len(t) == 0 or len(c_set) == 0:
        return 0
    chunks = diagonal_translate_family(t, c_set, sign)
    return len(np.unique(np.concatenate(chunks)))


def product_tupleset(sets: Sequence[GSet], caps: Caps = DEFAULT_CAPS) -> TupleSet:
    """Plain Cartesian product A_1 x ... x A_k as a TupleSet."""
    g = sets[0].group
    zero = GSet(g, [groups.zero(g)])
    return delta_sumset(list(sets), zero, MINUS, caps)


def d_k(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> int:
    """D_k(A) = |A^k - Delta(A)|."""
    return len(delta_sumset([a] * k, a, MINUS, caps))


def s_k(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> int:
    """S_k(A) = |A^k + Delta(A)|."""
    return len(delta_sumset([a] * k, a, PLUS, caps))


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


def _coverage_arrays(a: GSet, b_sets_packed: list[np.ndarray]):
    """Per-element packed-id arrays used by the branch-and-bound search."""
    return [np.unique(arr) for arr in b_sets_packed]


def _magnification_search(ids_per_elem: list[np.ndarray], n_elems: int):
    """Exact min over nonempty Z of |union of chosen id sets| / |Z|.

    Supersets are pruned once |B+Z|/|A| already exceeds the incumbent ratio.
    """
    counts: dict[int, int] = {}
    best = [None, None]  # Fraction ratio, chosen index tuple

    def include(j: int) -> int:
        fresh = 0
        for v in ids_per_elem[j]:
            c = counts.get(v, 0)
            counts[v] = c + 1
            if c == 0:
                fresh += 1
        return fresh

    def exclude(j: int) -> None:
        for v in ids_per_elem[j]:
            c = counts[v] - 1
            if c:
                counts[v] = c
            else:
                del counts[v]

    def rec(start: int, size: int, union: int, chosen: list[int]) -> None:
        for j in range(start, n_elems):
            fresh = include(j)
            union2 = union + fresh
            chosen.append(j)
            ratio = Fraction(union2, size + 1)
            if best[0] is None or ratio < best[0]:
                best[0] = ratio
                best[1] = tuple(chosen)
            if best[0] is None or Fraction(union2, n_elems) < best[0]:
                rec(j + 1, size + 1, union2, chosen)
            chosen.pop()
            exclude(j)

    rec(0, 0, 0, [])
    return best[0], best[1]


def magnification(a: GSet, b: GSet, caps: Caps = DEFAULT_CAPS) -> tuple[Fraction, GSet]:
    """R_B[A] = min over nonempty Z <= A of |B + Z| / |Z|, with a witness Z."""
    _require_same_group(a, b)
    if not a:
        raise ValueError("magnification needs a nonempty A")
    if not b:
        raise ValueError("magnification needs a nonempty B")
    if len(a) > caps.subsets:
        raise CapExceededError(f"|A| = {len(a)} exceeds subset cap {caps.subsets}")
    return magnification_k(a, b, 1, caps)


def magnification_k(a: GSet, b: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> tuple[Fraction, GSet]:
    """R^(k)_B[A] = min over nonempty Z <= A of |B^k + Delta(Z)| / |Z|."""
    _require_same_group(a, b)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not a or not b:
        raise ValueError("magnification needs nonempty sets")
    if len(a) > caps.subsets:
        raise CapExceededError(f"|A| = {len(a)} exceeds subset cap {caps.subsets}")
    if len(b) ** k * len(a) > caps.tuples:
        raise CapExceededError("B^k tuple space exceeds cap")
    bk = product_tupleset([b] * k, caps)
    ids = diagonal_translate_family(bk, a, PLUS)
    ratio, chosen = _magnification_search(_coverage_arrays(a, ids), len(a))
    witness = GSet(a.group, [a.elems[j] for j in chosen])
    return ratio, witness
