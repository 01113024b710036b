"""Convolutions, correlations and energy functionals.

Tables are counts, exact nonnegative integer finitely-supported functions
(1_A, A o A, A^(*j)), stored as int64 digit planes of radix 2^R, R = 32
(Knuth, TAOCP vol. 2, 4.3.1): an array of shape (D,) + window with value
sum_d planes[d] 2^(R d).  A set's table is the one exception: one
read-only uint8 0/1 plane, the set's own indicator on a cyclic group,
which every reader of a table takes as it is (a product of it is int64;
its square sum is its nonzero count).  While the a priori bound B =
min(|f|_1 |g|_inf, |g|_1 |f|_inf) on every entry of a product stays below
2^62, D = 1 and the one plane is the value itself.  From 2^62 on, D is the
fewest planes with B < 2^(R D), each in [0, 2^R).  B bounds the entries
only, so a table of D >= 2 planes may hold small values, and the engine
reads an operand through all its planes even where the product fits in
one.
So no plane sum wraps: a window holds fewer than 2^(63 - R) = 2^31 entries
(16 GB a plane), so a per-plane sum stays below 2^63; the engine adds
pieces below 2^R into the low planes (2^31 of them per entry before one
carry pass) and only the top plane adds modulo 2^64, which is exact
because the value it ends with is small.  Digits cut from the planes for
the FFT's limbs and T_k's square sums have widths chosen before any entry
is read, so every digit product sum stays below 2^63; the direct path's
pair products are whole int64s, as it sums one-plane products only.  Python
ints are built only for the public readers of a wide table (array, values,
support_rows, argmax), once, on demand.  Direct pair sums serve a product
iff it fits one plane (B < 2^62) and nnz(f) nnz(g) <= max(2^14, 2 x
transform size), capped at 2^22 pairs; else, so for every wide product, a
real FFT on operands split into limbs chosen before it runs, so that
Percival's a priori error bound proves each limb product rounds exactly.
A one-dimensional transform of 2^m >= 2^15 points (Z/2^m, the padded linear
product of another Z/N, a 1-D lattice window) runs as a four-step (Bailey,
J. Supercomputing 4, 1990): n1 = 2^floor(m/2) rows of n2 points, a real
FFT down the rows, a twiddle multiply w^(k1 j2) from two tables of whole
rows per length, and an FFT along them; its bound counts the m butterfly
levels and the two twiddle multiplies.
Smaller one-dimensional shapes call numpy's rfft/irfft, the routine that
rfftn/irfftn run on one axis, bit for bit the same without its wrapper;
multi-dimensional shapes use rfftn/irfftn.  A
correlation is the same call: the direct path subtracts indices, the FFT
conjugates f's spectrum.  A self-product (f is g) transforms each limb
once, and a chain of convolution powers its base once per FFT shape.  A
one-limb self-product whose spectrum no chain keeps forms the product in
that spectrum's own buffer; a fresh A o A at a four-step shape instead
forms its power spectrum |X|^2 as a real array, half the complex one's
bytes, and drops the complex one.  A o A is even, (A o A)(x) = (A o A)(-x),
and so is the inverse of any real spectrum: the four-step inverts only the
columns j2 <= n2/2, rounds them to int64 and mirrors the rest, by the same
butterfly levels and twiddle multiplies, so under the same bound.  So a
fresh A o A holds at most one half-spectrum, and none once the inverse is
rounded to int64; a chain's first step squares its
kept spectrum into one fresh buffer, and T_k's square sums cut their
digits _BLOCK entries at a time, as do mass sums past 2^63, so a chain
step peaks near its working set of four tables (the kept spectrum, the
level below, the product's spectrum and the inverse's output).  A table's
facts are its nonzero count, its mass sum x = |x|_1 and its maximum, read
once per table and by every engine call it enters; each call checks the
product's mass identity sum(f*g) = sum(f) sum(g) exactly, on either path,
and besides that only T_k's cross-check is validated after the fact.
Every table the engine builds is born with its mass (a set's |A|, a
product's the one it checked), so its facts read only its nonzero count
and maximum; a table built from planes alone sums its mass once and
refuses a negative entry.  The limb thresholds are planned once per
transform size.  A o A of a GSet is built once and kept on the set (see the gset module), read-only, and so is the
histogram of its values, from bincounts of blocks shifted by their
minima, over half the table doubled in one dimension, with its count total
and top level, and its integer power sums: a read of E_k keeps every order
up to k, each missing order j one `_power_dot` under the a priori bound
top E_(j-1) (v^j <= top v^(j-1) for every level v), and every order from
the first that needs Python ints in one walk over the levels, so a read of
a kept order is a list lookup.  |A - A| reads the histogram too, and the
level sequence is runs over it (`LevelSequence`), O(distinct levels) in
size; the Gram (B o B)^k reads the table, and E_k(A, B) is a power sum of
a histogram of the two kept tables, built on every call and read as the
kept one is.  A set's chain is kept the same way: each level
A^(*j) is built once per set, by one engine call on the level below, and
leaves T_j and sigma_j behind; the set keeps only the top level and the
base's spectra, which on a cyclic group T_k's cross-check reuses: the
nonzero frequencies, weighted for the half-spectrum's layout, must sum to
N T_k - |A|^(2k).  On a power-of-two cyclic group, with one limb per
operand, T_1..T_k and sigma_1..sigma_k together cost 2k - 2 real FFTs per set.

Moment notation used throughout: (f*g)(x) = sum_y f(y) g(x-y) and
(f o g)(x) = sum_y f(y) g(y+x); E_k(A) = sum_x (A o A)(x)^k; T_k(A) is the
square sum of the k-fold convolution; sigma_k(A) counts k-tuples summing to
zero.  The engine imports only `groups` and `gset`.
"""

from __future__ import annotations

import bisect
import collections.abc
import dataclasses
import functools
import itertools
import math
import operator
from typing import Iterator

import numpy as np

from . import groups
from .groups import Elem, GroupSpec, InvariantError
from .gset import GSet, zset

_DIRECT_MIN = 1 << 14         # support pairs the direct path serves for a one-plane product ...
_DIRECT_MAX = 1 << 22         # ... and never exceeds
_WIDE = 1 << 62               # entry bound from which tables are stored as R-bit planes
_R = 32                       # the planes' radix: value = sum_d planes[d] 2^(R d)
_FOUR_STEP_MIN = 1 << 15      # one-dimensional power-of-two transforms from here run as a four-step
_TWIDDLE_ERR = 16 * 2.0 ** -53   # bound on |table entry - w^e| of the four-step's twiddles
_BLOCK = 1 << 14              # entries per block of a spectrum squared in place and of square and mass sums' digits
_COUNT_BLOCK = 1 << 16        # entries per bincount of a histogram: np.bincount copies a read-only input
_INT_BOUND = 1 << 30          # |x| bound on the elements of multiplicative operands


class ConvTable:
    """Finitely-supported nonnegative integer function on a group, a count,
    stored as a dense window of int64 planes: ``planes`` has shape (D,) +
    window (see the module docstring); a set's table (``from_gset``) is one
    read-only uint8 0/1 plane.  ``array`` is the window of values: the one
    plane itself, or, for D >= 2, Python ints built once on first read,
    read-only.  Tables are built by ``from_gset`` and ``of_planes``.

    ``offset`` is the coordinate of the window's [0,...,0] cell; cyclic
    tables use the full fundamental domain with zero offset.  A lattice
    product's window is the linear product's, tight for tight operands.

    ``facts()`` are the table's nonzero count, mass and maximum, read off
    the planes at most once; the planes are not written after construction.
    """

    __slots__ = ("group", "offset", "planes", "_ints", "_facts", "_mass")

    # -- construction -------------------------------------------------

    @classmethod
    def of_planes(cls, group: GroupSpec, planes: np.ndarray, offset: tuple[int, ...] | None = None,
                  facts: tuple[int, tuple[int, int]] | None = None,
                  mass: int | None = None) -> "ConvTable":
        """The table of nonnegative planes as they are, no copy, with its
        facts or its mass: every engine product passes the mass it checked.
        A table given neither derives its mass in `facts`."""
        t = cls()
        t.group, t.planes, t._ints, t._facts, t._mass = group, planes, None, facts, mass
        t.offset = offset if offset is not None else (0,) * group.dim
        return t

    @classmethod
    def from_gset(cls, a: GSet) -> "ConvTable":
        """The indicator of a as one read-only uint8 plane (the set's own on a
        cyclic group, else its lattice window), born with its facts: |A|
        nonzeros, all 1, mass |A|."""
        g, n = a.group, len(a)
        facts = n, (n, min(n, 1))
        if g.is_cyclic:
            return cls.of_planes(g, a.indicator()[None], facts=facts)
        mat = a.coords   # the empty set's window is one cell at 0
        lo, hi = (mat.min(axis=0), mat.max(axis=0)) if n else ((0,) * g.dim,) * 2
        arr = np.zeros((1,) + tuple(int(h - l + 1) for l, h in zip(lo, hi)), dtype=np.uint8)
        arr[(0,) + tuple((mat - lo).T)] = 1
        arr.flags.writeable = False
        return cls.of_planes(g, arr, tuple(int(v) for v in lo), facts)

    def facts(self) -> tuple[int, tuple[int, int]]:
        """(nonzero count, (mass, max)) as exact ints, read on the first call
        and kept: the mass sum x = |x|_1 is the table's own from its birth,
        the maximum |x|_inf the plane's, or for D >= 2 planes the bound
        2^(R (D-1)) (top + 1) - 1 read off the top plane.  A table born
        without its mass sums its planes here, once, and refuses a negative
        entry by name: a table is a count."""
        if self._facts is None:
            x, mass = self.planes, self._mass
            top = x[-1]
            hi = int(np.max(top))
            linf = hi if len(x) == 1 else (hi + 1 << _R * (len(x) - 1)) - 1
            if mass is None:
                i = int(np.argmin(top))
                if top.flat[i] < 0:   # the top plane holds the sign
                    point = tuple(int(p + o) for p, o in zip(np.unravel_index(i, top.shape), self.offset))
                    raise ValueError(f"table entry {self.array.flat[i]} at {point} is negative: a table is a count")
                mass = _total(x, top.size * linf)
            self._facts = int(np.count_nonzero(_support(x))), (mass, linf)
        return self._facts

    # -- access -------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        if len(self.planes) == 1:
            return self.planes[0]
        if self._ints is None:
            self._ints = _combine(self.planes)
            self._ints.flags.writeable = False
        return self._ints

    def support_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, values) of the nonzero entries: a len x dim coordinate
        matrix in lexicographic order (the window's row-major order), and
        the entries at those points."""
        arr = self.array
        idx = np.argwhere(arr)
        return idx + np.array(self.offset, dtype=np.int64), arr[tuple(idx.T)]

    def argmax(self) -> tuple[Elem, int]:
        """The first maximum in the lexicographic order of its point, and its value."""
        i = int(np.argmax(self.array))   # row-major order is lexicographic
        point = np.unravel_index(i, self.array.shape)
        return tuple(int(p + o) for p, o in zip(point, self.offset)), int(self.array.flat[i])

    def square_sum(self) -> int:
        """sum v^2 over the entries: a set's uint8 0/1 plane's nonzero count
        (a uint8 dot would wrap), else `_square_sum` under the |x|_inf fact."""
        nnz, (_, linf) = self.facts()
        return nnz if self.planes.dtype == np.uint8 else _square_sum(self._flat(), linf)

    def _gather(self, points: np.ndarray) -> np.ndarray:
        """The planes at the rows of a len x dim coordinate matrix, 0 off the window: D x len."""
        if self.group.is_cyclic:   # the window is the group: every reduced point is inside
            return self.planes[(slice(None),) + tuple((points % self.group.moduli).T)]
        idx = points - self.offset
        inside = ((idx >= 0) & (idx < self.planes.shape[1:])).all(axis=1)
        out = np.zeros((len(self.planes), len(points)), dtype=np.int64)
        out[:, inside] = self.planes[(slice(None),) + tuple(idx[inside].T)]
        return out

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Entries at the rows of a len x dim coordinate matrix, 0 off the window."""
        return _combine(self._gather(points))

    def values(self) -> np.ndarray:
        return self.array.ravel()

    def _flat(self) -> np.ndarray:
        """The planes with the window flattened: D x size."""
        return self.planes.reshape(len(self.planes), -1)


def as_table(x) -> ConvTable:
    if isinstance(x, ConvTable):
        return x
    if isinstance(x, GSet):
        return ConvTable.from_gset(x)
    raise TypeError(f"expected GSet or ConvTable, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# planes


def _combine(x: np.ndarray) -> np.ndarray:
    """Planes as their values: the one int64 plane itself, else Python ints."""
    if len(x) == 1:
        return x[0]
    out = x[-1].astype(object)
    for plane in x[-2::-1]:
        out = (out << _R) + plane.astype(object)
    return out


def _support(x: np.ndarray) -> np.ndarray:
    """A window whose nonzeros are the table's."""
    return x[0] if len(x) == 1 else x.any(axis=0)


def _digits(x: np.ndarray, width: int, count: int) -> list[np.ndarray]:
    """The values of planes x as count int64 digits, x = sum_j d_j 2^(width j):
    the low ones in [0, 2^width), the last the rest (the caller's count
    makes it fit).  A digit is floor(x / 2^(width j)), read off the planes
    from the one holding its lowest bit, modulo 2^64 (int64 arithmetic) and,
    but for the last, modulo 2^width."""
    radix = _R if len(x) > 1 else 64
    out = []
    for j in range(count):
        b, last = j * width, j == count - 1
        p = min(b // radix, len(x) - 1)   # past the top plane: 0
        d = x[p] >> b - p * radix
        for q in range(p + 1, len(x)):
            if not last and q * radix - b >= width:
                break
            d = d + (x[q] << q * radix - b)
        out.append(d if last else d & (1 << width) - 1)
    return out


def _whole(x: np.ndarray) -> np.ndarray:
    """The values of planes x as one int64 array, for a caller whose bound
    shows they fit: plane 0 of one plane, else every plane read through.
    D follows an a priori bound, so planes may hold small values."""
    return x[0] if len(x) == 1 else _digits(x, 64, 1)[0]


def _deposit(x: np.ndarray, part: np.ndarray, shift: int) -> None:
    """x += part 2^shift before a carry pass, 0 <= part < 2^63: pieces of
    part in [0, 2^R) on each plane below the last it reaches (at most three
    planes), the rest on that one.  So a low plane takes 2^31 deposits
    before it could wrap; the top plane adds modulo 2^64, which is exact
    because the value it ends with is small.  One plane adds modulo 2^64."""
    q, o = divmod(shift, _R) if len(x) > 1 else (0, shift)
    last = min(q + 2, len(x) - 1)
    while q < last:
        x[q] += (part & (1 << _R - o) - 1) << o
        part = part >> _R - o
        q, o = q + 1, 0
    x[q] += part << o


def _carry(x: np.ndarray) -> np.ndarray:
    """One carry pass: the low planes into [0, 2^R), the rest up into the top plane."""
    for d in range(len(x) - 1):
        x[d + 1] += x[d] >> _R
        x[d] &= (1 << _R) - 1
    return x


def _count(fn: tuple[int, int], gn: tuple[int, int]) -> int:
    """The product's planes, from the operands' (mass, max): one while the
    entry bound B = min(|f|_1 |g|_inf, |g|_1 |f|_inf) < 2^62, else the
    fewest R-bit planes with B < 2^(R D)."""
    b = min(fn[0] * gn[1], gn[0] * fn[1])
    return 1 if b < _WIDE else -(-b.bit_length() // _R)


# ---------------------------------------------------------------------------
# convolution engine


def _digit_blocks(x: np.ndarray, linf: int, order: int) -> tuple[int, Iterator[list[np.ndarray]]]:
    """(w, blocks): the digits of D x n planes of entries at most linf, w =
    (63 - bitlen(n)) // order bits each and as many as linf needs, _BLOCK
    entries at a time, so a sum over n entries of `order`-digit products is < 2^63."""
    w = (63 - x.shape[1].bit_length()) // order
    count = -(-linf.bit_length() // w)
    return w, (_digits(x[:, s:s + _BLOCK], w, count) for s in range(0, x.shape[1], _BLOCK))


def _total(x: np.ndarray, bound: int | None = None) -> int:
    """Exact sum of nonnegative planes.  One plane is one int64 sum where
    size max x, or the caller's bound on every partial sum, is below 2^63,
    else the sums of its `_digit_blocks` digits; an R-bit plane of fewer than
    2^(63 - R) entries cannot wrap."""
    if len(x) > 1:
        return sum(int(plane.sum()) << _R * d for d, plane in enumerate(x))
    if bound is None:
        bound = x.size * int(x.max(initial=0))
    if bound < 1 << 63:
        return int(x.sum())
    w, blocks = _digit_blocks(x.reshape(1, -1), (1 << 63) - 1, 1)
    return sum(int(d.sum()) << w * j for digits in blocks for j, d in enumerate(digits))


def _checked(out: np.ndarray, fn: tuple[int, int], gn: tuple[int, int], path: str) -> np.ndarray:
    """out, once its mass identity sum(f*g) = sum(f) sum(g) holds exactly:
    one plane summed in int64 where the mass |f|_1 |g|_1 < 2^63, which bounds
    every partial sum of a correct nonnegative product, else by _total's
    R-bit digits.  Direct sums are integer arithmetic and the FFT's limbs
    are exact by an a priori bound, so on either path only a defect breaks it."""
    mass = fn[0] * gn[0]
    if _total(out, mass) != mass:
        raise InvariantError(f"{path} convolution broke the mass identity sum(f*g) = sum(f) sum(g)")
    return out


def _moduli(t: ConvTable) -> tuple[int, ...] | None:
    return t.group.moduli if t.group.is_cyclic else None


def _direct(tf: ConvTable, tg: ConvTable, corr: bool = False) -> np.ndarray:
    """Sum over all pairs of support points (at most max(2^14, 2 x FFT size),
    capped at 2^22) at index i + j, or j - i for a correlation, into one
    int64 plane: `_conv` sends only products whose entry bound is below
    2^62, so every pair product and partial sum fits.  On a cyclic group the
    window is the group, else the lattice window, where correlation lags
    start at 1 - (f's extent).  The masses and maxima are the tables' facts;
    operands of several planes are read whole."""
    fa, ga, moduli, same = tf.planes, tg.planes, _moduli(tf), tf is tg
    (_, fn), (_, gn) = tf.facts(), tg.facts()
    out_shape = moduli or tuple(int(a + b - 1) for a, b in zip(fa.shape[1:], ga.shape[1:]))
    fidx = np.flatnonzero(_support(fa))
    gidx = fidx if same else np.flatnonzero(_support(ga))
    if len(fidx) == 0 or len(gidx) == 0:
        return np.zeros((1,) + out_shape, dtype=np.int64)
    fvals, gvals = fa.reshape(len(fa), -1).take(fidx, 1), ga.reshape(len(ga), -1).take(gidx, 1)
    flat = None   # the pairs' flat output index, built in place axis by axis
    for fc, gc, fs, dim in zip(np.unravel_index(fidx, fa.shape[1:]), np.unravel_index(gidx, ga.shape[1:]),
                               fa.shape[1:], out_shape):
        s = gc[None, :] - fc[:, None] if corr else fc[:, None] + gc[None, :]
        if moduli:   # sums lie in [0, 2 dim), lags in (-dim, dim)
            if corr:
                np.add(s, dim, out=s, where=s < 0)
            else:
                np.subtract(s, dim, out=s, where=s >= dim)
        elif corr:
            s += fs - 1
        if flat is not None:
            s += flat * dim
        flat = s
    flat = flat.ravel()
    size = math.prod(out_shape)
    if fn[1] == gn[1] == 1:   # 0/1 operands: the pair counts, entries <= min(|supp|)
        out = np.bincount(flat, minlength=size)
    else:
        out = np.zeros(size, dtype=np.int64)
        np.add.at(out, flat, np.multiply.outer(_whole(fvals), _whole(gvals)).ravel())
    return _checked(out.reshape((1,) + out_shape), fn, gn, "direct")


def _percival(size: int, four_step: bool = False) -> float:
    """Percival (Math. Comp. 72, 2003): a radix-2 FFT convolution of length
    2^m errs by less than ||x||_2 ||y||_2 ((1+e)^3m (1+e sqrt5)^(3m+1)
    (1+e)^3m - 1) per entry, e = 2^-53 (twiddles accurate to e); about 13 m e.
    Each of the three transforms of a four-step runs the same m butterfly
    levels plus two twiddle multiplies, by table entries accurate to
    _TWIDDLE_ERR: 3 x 2 more factors (1+e sqrt5)(1+_TWIDDLE_ERR).  The even
    inverse of a self-correlation's power spectrum re^2 + im^2, the real
    part of conj(c) c, runs those levels and multiplies on half the columns
    and copies the rest, so the same bound and limb plan serve it."""
    m, e = max(1, (size - 1).bit_length()), 2.0 ** -53
    t = 2 if four_step else 0
    return math.expm1(6 * m * math.log1p(e) + (3 * (m + t) + 1) * math.log1p(e * math.sqrt(5))
                      + 3 * t * math.log1p(_TWIDDLE_ERR))


@functools.cache
def _limb_caps(size: int, four_step: bool) -> tuple[int, int]:
    """The limb plan of one transform size and kind, built once: integers C
    and S such that an integer product of squared norms is below Percival's
    cap = 1 / (16 bound^2) iff it is below C = ceil(cap), and one below
    sqrt(cap) iff below S = ceil(sqrt(cap))."""
    cap = 1 / (16 * _percival(size, four_step) ** 2)
    return math.ceil(cap), math.ceil(math.sqrt(cap))


def _log4(q: int) -> int:
    """The largest b with 4^b <= q, 0 for q < 4."""
    return max(q.bit_length() - 1, 0) // 2


def _split(fn: tuple[int, int], gn: tuple[int, int], size: int,
           four_step: bool = False) -> tuple[int | None, int | None]:
    """Limb widths for f and g (None: whole) that keep Percival's bound for
    every limb product below 1/4, i.e. ||x||_2^2 ||y||_2^2 < cap, from the
    operands' (mass, max).  A whole x has ||x||_2^2 <= |x|_1 |x|_inf, a
    b-bit limb ||limb||_2^2 <= 4^b size.
    The operand with the larger maximum is split first, into the widest b
    with 4^b size |g|_1 |g|_inf < cap; the other only if no b >= 1 fits,
    both then into the widest b with 4^b size < sqrt(cap)."""
    if fn[1] < gn[1]:
        return _split(gn, fn, size, four_step)[::-1]
    whole, limb = _limb_caps(size, four_step)
    whole_g = gn[0] * gn[1]
    if fn[0] * fn[1] * whole_g < whole:
        return None, None
    bits = _log4((whole - 1) // (whole_g * size))
    if bits:
        return bits, None
    bits = _log4((limb - 1) // size)
    return bits, bits


def _limbs(x: np.ndarray, bits: int | None, linf: int) -> list[np.ndarray]:
    """Planes x = sum_i limb_i 2^(bits i) as float64 arrays, cut straight
    from the planes: in [0, 2^bits), as many as the maximum linf needs;
    with bits None, x whole (then every entry is below 2^53)."""
    if bits is None:
        return [_whole(x).astype(np.float64)]
    return [d.astype(np.float64) for d in _digits(x, bits, (linf.bit_length() - 1) // bits + 1)]


def _fold(x: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Wrap the first 2m entries per trailing axis of a window onto Z/m."""
    for ax, m in enumerate(moduli, x.ndim - len(moduli)):
        x = x.take(np.arange(2 * m), axis=ax)
        x = x.reshape(x.shape[:ax] + (2, m) + x.shape[ax + 1:]).sum(axis=ax)
    return x


def _shape(fs: tuple[int, ...], gs: tuple[int, ...], moduli: tuple[int, ...] | None) -> tuple[int, ...]:
    """The FFT's shape for windows fs and gs: the group for power-of-two
    moduli, else powers of two over the linear product."""
    pow2 = bool(moduli) and all(m & (m - 1) == 0 for m in moduli)
    return moduli if pow2 else tuple(1 << int(a + b - 2).bit_length() for a, b in zip(fs, gs))


def _four_step(shape: tuple[int, ...]) -> bool:
    """Whether a transform of this shape runs as a four-step: one axis of
    2^m >= _FOUR_STEP_MIN points."""
    return len(shape) == 1 and shape[0] >= _FOUR_STEP_MIN and shape[0] & (shape[0] - 1) == 0


@functools.cache
def _twiddles(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n1, hi, lo) for the four-step of length n = n1 n2, n1 = 2^floor(m/2):
    hi[a, j2] lo[b, j2] = w^(k1 j2), w = exp(-2 pi i / n), for k1 = a t + b
    <= n1/2 (b < t) and j2 < n2, t = 2^floor(log2(n1/2)/2): rows of n2
    points, hi[a] = w^(a t j2) for a t <= n1/2, lo[b] = w^(b j2).  Kept per
    n, read-only: about 2 sqrt(n1/2) n2 entries, 0.8 MB at 2^20.  Every
    exponent e = a t j2 or b j2 is below (n1/2) n2 = n/2, so each angle
    -2 pi e / n is one rounding from fl(2 pi) and |angle| < pi; with cos and
    sin to an ulp, each entry is within 6 e of w^e, inside _TWIDDLE_ERR.  So
    w^(k1 j2) is applied as two multiplies, each by one entry within
    _TWIDDLE_ERR of its power of w, which is what _percival counts."""
    n1 = 1 << (n.bit_length() - 1) // 2
    n2, half = n // n1, n1 // 2
    t = 1 << (half.bit_length() - 1) // 2
    j2 = np.arange(n2)[None, :]
    step = -2j * np.pi / n   # exact: n is a power of two
    hi = np.exp(step * (np.arange(0, half + 1, t)[:, None] * j2))
    lo = np.exp(step * (np.arange(t)[:, None] * j2))
    hi.flags.writeable = lo.flags.writeable = False
    return n1, hi, lo


def _twiddle(c: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Multiply the (n1/2 + 1, n2) array c in place by w^(k1 j2), row k1 =
    a t + b by hi[a] and lo[b]: broadcast multiplies over whole rows.  Row
    n1/2 = a t takes hi[a] alone (lo[0] = 1)."""
    t = len(lo)
    v = c[:-1].reshape(len(hi) - 1, t, c.shape[1])
    v *= hi[:-1, None]
    v *= lo
    c[-1] *= hi[-1]


def _rfft(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Spectrum of the real array x zero-padded to shape.  A four-step shape
    n = n1 n2 reads x as n1 rows of n2, real-transforms down the rows,
    multiplies by w^(k1 j2) and transforms along them (Bailey, J.
    Supercomputing 4, 1990): c[k1, k2] = X[k1 + n1 k2] for k1 <= n1/2, every
    frequency up to conjugation, with bins k1 = 1..n1/2 - 1 standing for
    their partners too.  Other shapes give numpy's rfftn layout: one axis by
    rfftn's own 1-D routine, bit for bit, without its wrapper (about 1.5 us
    a call at 1,024 points); more axes by rfftn."""
    if not _four_step(shape):
        if len(shape) == 1:
            return np.fft.rfft(x, shape[0])
        return np.fft.rfftn(x, shape, tuple(range(len(shape))))
    n1, hi, lo = _twiddles(shape[0])
    n2 = shape[0] // n1
    if len(x) % n2:
        x = np.pad(x, (0, -len(x) % n2))
    c = np.fft.rfft(x.reshape(-1, n2), n1, axis=0)
    _twiddle(c, hi, lo)
    return np.fft.fft(c, axis=1, out=c)


def _irfft(c: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The real array of the given shape whose _rfft is c.  A four-step
    runs the steps backwards, applying the conjugate twiddle in place as
    conj(conj(b) w); it consumes a complex c.  A real float64 c, a power
    spectrum |X|^2, has an even inverse, x(j) = x(-j): the four-step then
    computes only the columns j2 = 0..n2/2, each row by ihfft (the first
    n2/2 + 1 entries of a real row's ifft), twiddled by the tables' first
    n2/2 + 1 columns and inverted down the columns, rounds them into an
    int64 table, fills in the rest by `_mirror` and returns that table.
    Those columns run the same m butterfly levels and two twiddle
    multiplies as the complex inverse, so _percival's bound holds as it is.
    Other shapes invert numpy's rfftn layout, one axis by irfftn's own 1-D
    routine, more by irfftn."""
    if not _four_step(shape):
        if len(shape) == 1:
            return np.fft.irfft(c, shape[0])
        return np.fft.irfftn(c, shape, tuple(range(len(shape))))
    n1, hi, lo = _twiddles(shape[0])
    n2 = shape[0] // n1
    even = c.dtype == np.float64
    if even:
        cols = n2 // 2 + 1
        c, hi, lo = np.fft.ihfft(c, axis=1), hi[:, :cols], lo[:, :cols]
    else:
        c = np.fft.ifft(c, axis=1, out=c)
    np.conjugate(c, out=c)
    _twiddle(c, hi, lo)
    np.conjugate(c, out=c)
    x = np.fft.irfft(c, n1, axis=0)
    if not even:
        return x.reshape(shape)
    c = None   # gone before the table is allocated
    out = np.empty((n1, n2), dtype=np.int64)
    out[:, :cols] = np.rint(x, out=x)
    x = None
    _mirror(out)
    return out.reshape(shape)


def _mirror(x: np.ndarray) -> None:
    """Fill the columns j2 > n2/2 of an even table's n1 x n2 four-step
    layout, x[j1, j2] = x(j1 n2 + j2), from the columns below: -(j1 n2 + j2)
    = (n1 - 1 - j1) n2 + (n2 - j2) mod n, so x[j1, j2] = x[n1-1-j1, n2-j2]."""
    half = x.shape[1] // 2
    x[:, half + 1:] = x[::-1, half - 1:0:-1]


def _power(c: np.ndarray) -> np.ndarray:
    """|c|^2 = re^2 + im^2 of a spectrum as a fresh float64 array, the real
    part of conj(c) c, _BLOCK entries at a time."""
    p, spare = np.empty(c.shape), np.empty(_BLOCK)
    cf, pf = c.reshape(-1), p.reshape(-1)
    for s in range(0, len(cf), _BLOCK):
        block, out = cf[s:s + _BLOCK], pf[s:s + _BLOCK]
        np.square(block.real, out=out)
        out += np.square(block.imag, out=spare[:len(block)])
    return p


def _abs_squared(c: np.ndarray) -> np.ndarray:
    """c = conj(c) c in place on a fresh spectrum, _BLOCK entries at a time."""
    flat = c.reshape(-1)
    for s in range(0, len(flat), _BLOCK):
        block = flat[s:s + _BLOCK]
        np.multiply(np.conjugate(block), block, out=block)
    return c


def _fft(tf: ConvTable, tg: ConvTable, corr: bool = False, spectra: dict | None = None) -> np.ndarray:
    """Real-FFT convolution, or correlation with f's spectrum conjugated,
    exact by the a priori limb split of `_split` on the tables' masses and
    maxima (their facts): cyclic at the group size for power-of-two moduli,
    else linear at power-of-two sizes, folded if cyclic, else its linear
    slice copied out of the padded transform, so that no kept table holds
    padding.  Operands and product are planes.  One limb each forms the
    product in f's spectrum, or in g's own for a self-product that spectra
    does not keep (by _abs_squared for a correlation; at a four-step shape
    a self-correlation takes the real power spectrum `_power` instead,
    whose inverse `_irfft` computes on half the columns and rounds itself),
    or, for a self-product on a kept spectrum, in one fresh buffer by one
    multiply, and drops every spectrum but the kept one before the
    inverse's int64 cast; more are deposited limb pair by limb pair into the product's planes (one
    plane adds modulo 2^64, exact while B < 2^62) and carried once.  spectra
    (the caller's, for one g) keeps g's whole spectrum per shape."""
    fa, ga, moduli, same = tf.planes, tg.planes, _moduli(tf), tf is tg
    (_, fn), (_, gn) = tf.facts(), tg.facts()
    fs = fa.shape[1:]
    lin = tuple(int(a + b - 1) for a, b in zip(fs, ga.shape[1:]))
    shape = _shape(fs, ga.shape[1:], moduli)
    fbits, gbits = _split(fn, gn, math.prod(shape), _four_step(shape))
    planes = _count(fn, gn)
    cache = spectra if spectra is not None and gbits is None else {}
    if (ghat := cache.get(shape)) is None:
        ghat = cache[shape] = [_rfft(p, shape) for p in _limbs(ga, gbits, gn[1])]
    if fbits is None and gbits is None and planes == 1:
        own = same and spectra is None   # nothing keeps g's spectrum: the product takes its buffer
        gh, ghat, cache = ghat[0], None, None
        if own and corr:   # |gh|^2: real at a four-step shape, else in gh's own buffer
            prod = _power(gh) if _four_step(shape) else _abs_squared(gh)
        elif same:   # a convolution: in gh's own buffer, or a kept spectrum's in a fresh one
            prod = np.multiply(gh, gh, out=gh if own else None)
        else:
            prod = _rfft(_limbs(fa, None, fn[1])[0], shape)
            np.multiply(np.conjugate(prod, out=prod) if corr else prod, gh, out=prod)
        gh = None
        out = _irfft(prod, shape)
        prod = None   # no spectrum outlives the inverse
        if out.dtype != np.int64:   # the even inverse rounds its own columns
            out = np.rint(out, out=out).astype(np.int64)
        out = out[None]
    else:
        # f's limb spectra are made one at a time, or shared with g's for a self-product
        fhat = ghat if same and fbits == gbits else (_rfft(p, shape) for p in _limbs(fa, fbits, fn[1]))
        if corr:
            fhat = (np.conj(h) for h in fhat)
        out = np.zeros((planes,) + shape, dtype=np.int64)
        for i, fh in enumerate(fhat):
            for j, gh in enumerate(ghat):
                part = np.rint(_irfft(fh * gh, shape)).astype(np.int64)
                _deposit(out, part, i * (fbits or 0) + j * (gbits or 0))
    if shape != moduli:
        # a correlation's lag d sits at index d mod size; roll the window's
        # first lag to index 0: 1 - (f's extent) on a lattice, -m for the fold
        if corr:
            out = np.roll(out, moduli or tuple(s - 1 for s in fs), tuple(range(1, out.ndim)))
        if moduli:
            out = _fold(out, moduli)
        elif lin != shape:   # a kept table holds no padding: the linear slice is copied out
            out = out[(slice(None),) + tuple(slice(0, s) for s in lin)].copy()
    return _checked(_carry(out), fn, gn, "FFT")


def _conv(tf: ConvTable, tg: ConvTable, corr: bool = False, spectra: dict | None = None) -> ConvTable:
    """Direct iff the product fits one plane (entry bound below 2^62) and
    nnz(f) nnz(g) <= max(2^14, 2 x FFT size), capped at 2^22; else the FFT,
    whose limbs serve every wide product.  Both read the operands' kept
    facts, so no table's nonzeros, mass or maximum is derived twice, and
    check the product's mass identity exactly.  Every product is born with
    that mass, |f|_1 |g|_1 (0 for the zeros of an empty operand, which
    `_direct` returns at once).  spectra (a chain's, kept across its steps)
    comes with convolutions only, never with a correlation."""
    grp, fa, ga, moduli = tf.group, tf.planes, tg.planes, _moduli(tf)
    (fnnz, fn), (gnnz, gn) = tf.facts(), tg.facts()
    size = math.prod(_shape(fa.shape[1:], ga.shape[1:], moduli))
    direct = _count(fn, gn) == 1 and fnnz * gnnz <= min(_DIRECT_MAX, max(_DIRECT_MIN, 2 * size))
    out = _direct(tf, tg, corr) if direct else _fft(tf, tg, corr, spectra)
    # a correlation's lags start at g's offset minus the far corner of f's window
    off = None if moduli else tuple(b - a - s + 1 if corr else a + b
                                    for a, b, s in zip(tf.offset, tg.offset, fa.shape[1:]))
    return ConvTable.of_planes(grp, out, off, mass=fn[0] * gn[0])


def convolve(f, g, *, corr: bool = False) -> ConvTable:
    """(f * g)(x) = sum_y f(y) g(x - y), or with corr the correlation
    (f o g)(x) = sum_y f(y) g(y + x); exact integers."""
    tf = as_table(f)
    tg = tf if g is f else as_table(g)
    if tf.group != tg.group:
        raise groups.GroupError("convolution operands live in different groups")
    return _conv(tf, tg, corr)


def correlate(f, g) -> ConvTable:
    """(f o g)(x) = sum_y f(y) g(y + x); for sets, counts of x = b - a, whose
    mass |A||B| the engine's mass identity checks.  With one GSet passed
    twice the table is built once and kept on the set."""
    if f is g and isinstance(f, GSet):
        return f.kept("AoA", lambda: _read_only(convolve(f, f, corr=True)))
    return convolve(f, g, corr=True)


def _read_only(t: ConvTable) -> ConvTable:
    t.planes.flags.writeable = False
    return t


def _at_zero(t: ConvTable) -> int:
    """The table's entry at the group's zero: a cyclic table's first, else
    the window's cell -offset, 0 off the window."""
    if t.group.is_cyclic:
        cell = t._flat()[:, 0]
    else:
        idx = tuple(-o for o in t.offset)
        if not all(0 <= i < s for i, s in zip(idx, t.planes.shape[1:])):
            return 0
        cell = t.planes[(slice(None),) + idx]
    return int(cell[0]) if len(cell) == 1 else sum(v << _R * d for d, v in enumerate(cell.tolist()))


class _Chain:
    """The convolution powers of one set, kept on it under "chain": the top
    level A^(*L), read-only, and T_j = sum (A^(*j))^2 and sigma_j = A^(*j)(0)
    for every j <= L.  It keeps the base's spectra per FFT shape for its
    steps, and on a cyclic group for T_k's cross-check.  A lattice window
    grows at every level, but its padded power-of-two shape repeats: the
    levels 4 to 6 of a base in [-18, 18]^2 all run at 256 x 256."""

    __slots__ = ("base", "top", "spectra", "t", "sigma", "checked")

    def __init__(self, a: GSet):
        self.base = self.top = ConvTable.from_gset(a)   # read-only, as from_gset makes it
        self.spectra = {}
        self.t, self.sigma = [len(a)], [sigma_k(a, 1)]   # level j at index j - 1
        self.checked: set[int] = set()   # k whose T_k passed the Fourier cross-check

    def extend(self, k: int) -> "_Chain":
        """Build the levels up to k.  A level's table, T_j and sigma_j are
        committed together once all three exist, so a step that raises leaves
        the last good level in place."""
        while len(self.t) < k:
            top = _read_only(_conv(self.top, self.base, False, self.spectra))
            t, sigma = top.square_sum(), _at_zero(top)
            self.top = top
            self.t.append(t)
            self.sigma.append(sigma)
        return self

    def spectrum(self) -> np.ndarray:
        """The base's real half-spectrum at the group size (cyclic chains
        only): the steps' own where their FFT ran there, else made once."""
        moduli = self.base.group.moduli
        if moduli not in self.spectra:
            self.spectra[moduli] = [_rfft(self.base.array, moduli)]
        return self.spectra[moduli][0]


def _chain(a: GSet) -> _Chain:
    """a's kept chain, built at level 1 on first use."""
    return a.kept("chain", lambda: _Chain(a))


# ---------------------------------------------------------------------------
# energies


def _square_sum(x: np.ndarray, linf: int) -> int:
    """sum v^2 over nonnegative int64 D x n planes whose entries are at most
    linf: one int64 dot where linf^2 n < 2^63, else the dots of each pair of
    a block's `_digit_blocks` digits.  A set's uint8 table never comes here
    (`ConvTable.square_sum`): a dot of uint8 arrays would wrap."""
    top = x[-1]
    if len(x) == 1 and linf * linf * len(top) < 1 << 63:
        return int(np.dot(top, top))
    w, blocks = _digit_blocks(x, linf, 2)
    return sum(int(np.dot(d[i], d[j])) << w * (i + j) + (i < j)
               for d in blocks for i in range(len(d)) for j in range(i, len(d)))


def _exact_product(x: np.ndarray, y: np.ndarray, bound: int) -> np.ndarray:
    """x @ y as int64 for integer or boolean x, y, given a bound on every
    partial sum of every entry (max sum_k |x_ik| |y_kj| is one): in float64
    BLAS below 2^53, where each such sum is an integer held exactly in any
    order of addition; in int64 below 2^63; from 2^63 on, int64 could wrap."""
    if bound < 1 << 53:   # one float copy of x, shared by y = x^T (BLAS's symmetric product) ...
        f = x.astype(np.float64)
        f = f @ (f.T if x.T.__array_interface__ == y.__array_interface__ else y.astype(np.float64))
        return f.astype(np.int64)   # ... gone, with y's, before the int64 cast
    if bound < 1 << 63:
        return x.astype(np.int64, copy=False) @ y.astype(np.int64, copy=False)
    raise OverflowError(f"product bound {bound} reaches 2^63")


@dataclasses.dataclass(frozen=True, eq=False)
class _Histogram:
    """Paired nonnegative int64 arrays (levels, counts), zeros and repeats
    allowed, with their count total and top level taken once: immutable
    but for ``sums``, and it unpacks as (levels, counts).  ``sums`` keeps its integer power
    sums [E_0 = total, E_1, ..., E_m], E_j = sum c v^j, as `power_sum`
    reads them."""

    levels: np.ndarray
    counts: np.ndarray
    total: int   # sum of the counts
    top: int     # the largest level, 0 if none
    sums: list   # the power sums read so far, E_j at index j

    @classmethod
    def of(cls, levels: np.ndarray, counts: np.ndarray) -> "_Histogram":
        total = int(counts.sum())
        return cls(levels, counts, total, int(levels.max(initial=0)), [total])

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter((self.levels, self.counts))

    def power_sum(self, k: int) -> int:
        """E_k for an integer k >= 0, kept with every order below it: a
        missing order j is one `_power_dot` bounded by top E_(j-1), as
        v^j <= top v^(j-1) for every level v.  From the first order whose
        bound sends it to Python ints, every order up to k is filled in one
        walk over the levels (`_int_power_sums`)."""
        sums = self.sums
        while len(sums) <= k:
            j, bound = len(sums), self.top * sums[-1]
            if _needs_ints(self, j, bound):
                sums += _int_power_sums(self, j, k)
            else:
                sums.append(_power_dot(self, j, bound))
        return sums[k]


def _histogram(values: np.ndarray, twice: np.ndarray | None = None) -> _Histogram:
    """The distinct positive entries of a flat int64 table in ascending
    order and their multiplicities, read-only; with twice, the entries of
    twice count two each, those of values one (an even table's halves, from
    `_halves`).  Each block of _COUNT_BLOCK entries is counted from its own
    minimum lo, np.bincount(block - lo) added into bins[lo:]: the shifted
    copy is the block's one copy (np.bincount copies a read-only input, as
    the kept A o A is), and its bincount spans the block's range, not its
    top.  The bins are short: every table passed here, A o A and the
    quotient counts, has entries in [0, |A|].  An object (wide) table or a
    negative entry raises."""
    bins = _add_counts(np.zeros(1, dtype=np.int64), values)
    if twice is not None:
        bins = _add_counts(bins, twice, 2)
    levels = np.flatnonzero(bins[1:]) + 1
    counts = bins[levels]
    levels.flags.writeable = counts.flags.writeable = False
    return _Histogram.of(levels, counts)


def _add_counts(bins: np.ndarray, values: np.ndarray, weight: int = 1) -> np.ndarray:
    """bins with every entry of values counted weight times, each block
    shifted by its minimum; bins grow, at least twofold, where a block
    reaches past them.  `_histogram` counts its values first: an even
    table's lone entries hold its top, |A| at x = 0, so the bins take their
    length at once."""
    for s in range(0, len(values), _COUNT_BLOCK):
        block = values[s:s + _COUNT_BLOCK]
        lo = int(block.min())
        if lo < 0:   # the shift would hide it from np.bincount
            raise ValueError(f"histogram of a table with a negative entry {lo}")
        part = np.bincount(block - lo)
        top = lo + len(part)
        if top > len(bins):
            grown = np.zeros(max(top, 2 * len(bins)), dtype=np.int64)
            grown[:len(bins)] = bins
            bins = grown
        if weight > 1:
            part *= weight
        bins[lo:top] += part
    return bins


def _halves(t: ConvTable) -> tuple[np.ndarray, np.ndarray | None]:
    """(values, twice) of an even one-dimensional table for `_histogram`:
    the entries that are their own partners under x -> -x and one of each
    pair of the others.  On Z/N, x and N - x pair for x = 1..ceil(N/2) - 1,
    and 0 and, for even N, N/2 stand alone; on a lattice window of length
    L, cells i and L - 1 - i pair around the centre cell of an odd L.  A
    table of any other dimension is (values, None)."""
    v = t.values()
    if t.group.dim != 1:
        return v, None
    n = len(v)
    if t.group.is_cyclic:
        return (v[:1] if n % 2 else v[[0, n // 2]]), v[1:(n + 1) // 2]
    return v[n // 2:(n + 1) // 2], v[:n // 2]


def _needs_ints(hist: _Histogram, k: int, bound: int) -> bool:
    """Whether sum c v^k under this bound takes Python ints, not `_power_dot`."""
    return bound >= 1 << 63 and (hist.top ** k >= 1 << 63 or hist.total >= 1 << 31)


def _power_dot(hist: _Histogram, k: int, bound: int) -> int:
    """sum c v^k for an integer k >= 0, given a bound on the sum that
    `_needs_ints` passed: one int64 dot below 2^63 (a level whose count is 0
    may wrap in levels^k; its product is 0 all the same, and every other
    term and partial sum is at most the sum); else, as top^k < 2^63 and the
    counts total below 2^31, two int64 dots over the R-bit halves of v^k,
    whose sums stay below 2^31 2^R = 2^63."""
    if bound < 1 << 63:
        return int(np.dot(hist.counts, hist.levels ** k))
    lo, hi = _digits((hist.levels ** k)[None], _R, 2)
    return (int(np.dot(hist.counts, hi)) << _R) + int(np.dot(hist.counts, lo))


def _int_power_sums(hist: _Histogram, lo: int, hi: int) -> list[int]:
    """[sum c v^j for j = lo..hi] in Python ints, from one walk over the
    levels that carries each term c v^j on to order j + 1."""
    sums = [0] * (hi - lo + 1)
    for v, c in zip(hist.levels.tolist(), hist.counts.tolist()):
        term = c * v ** lo
        for j in range(len(sums)):
            sums[j] += term
            term *= v
    return sums


def _moment(hist: _Histogram, k: float) -> float:
    """sum c v^k over the histogram's pairs (v, c) for a non-integer k:
    Python floats summed in the arrays' order (a histogram's ascending
    levels).  An integer order is `_Histogram.power_sum`'s."""
    levels, counts = hist
    return float(sum(float(c) * float(v) ** k for v, c in zip(levels.tolist(), counts.tolist())))


def _levels(a: GSet) -> _Histogram:
    """The histogram of the kept A o A's values, kept on the set under
    "levels"; A o A is even, so in one dimension it counts half the table
    and doubles it (`_halves`)."""
    t = correlate(a, a)
    return a.kept("levels", lambda: _histogram(*_halves(t)))


def energy_k(a: GSet, k) -> int | float:
    """E_k(A) = sum_x (A o A)(x)^k, the k-th moment of the set's kept
    histogram; exact for integer k, and then kept there with every order
    below it; E_1(A) = |A|^2."""
    if not 1 <= k < math.inf:   # NaN fails both comparisons
        raise ValueError(f"energy order must be >= 1 and finite, got {k}")
    hist = _levels(a)
    return hist.power_sum(int(k)) if float(k).is_integer() else _moment(hist, k)


def energy_k_pair(a: GSet, b: GSet, k) -> int | float:
    """E_k(A, B) = sum_x (A o A)(x) (B o B)(x)^(k-1), the (k-1)-th moment of
    B o B's values weighted by A o A's, over A o A's support; E_2(A, B) is
    the additive energy E(A, B) = sum_x (A * B)(x)^2."""
    if a.group != b.group:
        raise groups.GroupError("energy operands live in different groups")
    if not 1 <= k < math.inf:   # NaN fails both comparisons
        raise ValueError(f"energy order must be >= 1 and finite, got {k}")
    points, v = correlate(a, a).support_rows()
    hist = _Histogram.of(correlate(b, b).values_at(points), v)
    return hist.power_sum(int(k) - 1) if float(k).is_integer() else _moment(hist, k - 1)


def t_k(a: GSet, k: int) -> int:
    """T_k(A) = sum_x (A *_(k-1) A)(x)^2, read from the set's kept chain and
    cross-checked on the dual side the first time it is served."""
    k = groups.integral_order(k, 1, "T_k")
    chain = _chain(a).extend(k)
    result = chain.t[k - 1]
    if a.group.is_cyclic and k not in chain.checked:
        # N T_k = sum |A^(xi)|^(2k) and A^(0) = |A|: the nonzero frequencies must give
        # N T_k - |A|^(2k), 0 only for the empty set and the group.  |A^(xi)| <= |A|, so only
        # where |A|^(2k) may overflow are both sides divided by s^(2k), s = max(1, max |A^(xi)|)
        spec = np.abs(chain.spectrum())
        spec.flat[0] = 0
        scale = max(1.0, float(spec.max())) if len(a) ** (2 * k) * spec.size >> 1000 else 1.0
        # |A^|^(2k) as |A^|^2 times itself k - 1 times: np.power takes about three times as long
        sq = np.square(np.divide(spec, scale, out=spec) if scale > 1 else spec, out=spec)
        spec = sq if k == 1 else np.multiply(sq, sq)
        for _ in range(k - 2):
            spec *= sq
        moduli = a.group.moduli
        # a bin whose conjugate the half-spectrum omits counts twice: rows
        # 1..n1/2 - 1 of a four-step, else last-axis bins but the first and Nyquist
        twice = spec[1:len(spec) - 1] if _four_step(moduli) else spec[..., 1:(moduli[-1] + 1) // 2]
        twice *= 2
        num, den = scale.as_integer_ratio()
        fourier = float(spec.sum())
        exact = (a.group.order * result - len(a) ** (2 * k)) * den ** (2 * k) / num ** (2 * k)
        if not math.isclose(fourier, exact, rel_tol=1e-6, abs_tol=1e-6):
            raise InvariantError(f"T_k Fourier cross-check failed off the zero frequency: {fourier} vs {exact}")
        chain.checked.add(k)
    return result


def sigma_k(a: GSet, k: int) -> int:
    """sigma_k(A) = number of k-tuples of A summing to zero = A^(*k)(0)
    = sum over a in A of A^(*(k-1))(-a): recorded by the set's kept chain up
    to its top level, gathered from the top above it."""
    k = groups.integral_order(k, 1, "sigma_k")
    if k == 1:   # [0 in A]: one search of the set's keys, without the chain
        return int(a.isin(np.zeros((1, a.group.dim), dtype=np.int64))[0])
    chain = _chain(a)
    if k <= len(chain.sigma):
        return chain.sigma[k - 1]
    return _total(chain.extend(k - 1).top._gather(-a.coords))


class LevelSequence(collections.abc.Sequence):
    """The positive values of A o A sorted descending, read-only, held as
    runs: the distinct levels, descending, each one Python int, and their
    counts, so it costs O(distinct levels), not O(|A - A|).  Its length is
    the counts' total; an index bisects the cumulative counts, and a slice
    is a list.  Iteration repeats each level's one int object by its count.
    It equals another LevelSequence, a list or a tuple of the same values,
    compared run by run; it is unhashable, as a list is."""

    __slots__ = ("_levels", "_counts", "_ends")
    __hash__ = None

    def __init__(self, hist: _Histogram):
        levels, counts = hist
        self._levels = levels[::-1].tolist()
        self._counts = counts[::-1].tolist()
        self._ends = list(itertools.accumulate(self._counts))   # run r covers [ends[r-1], ends[r])

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        j = operator.index(i)
        j += len(self) if j < 0 else 0
        if not 0 <= j < len(self):
            raise IndexError("level sequence index out of range")
        return self._levels[bisect.bisect_right(self._ends, j)]

    def __iter__(self) -> Iterator[int]:
        for v, c in zip(self._levels, self._counts):
            yield from itertools.repeat(v, c)

    def __eq__(self, other) -> bool:
        if isinstance(other, LevelSequence):
            return self._levels == other._levels and self._counts == other._counts
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        if len(other) != len(self):
            return False
        start = 0
        for v, end in zip(self._levels, self._ends):
            if other[start:end].count(v) != end - start:
                return False
            start = end
        return True


def level_sequence(a: GSet) -> LevelSequence:
    """Positive values of A o A sorted descending, length |A - A|, as runs
    over the set's kept histogram: one int per distinct level, repeated by
    its count (`LevelSequence`)."""
    return LevelSequence(_levels(a))


# ---------------------------------------------------------------------------
# multiplicative energies of integer sets


def _int_set(a) -> GSet:
    """a as a set of Z (a Z/N set read as its residues), every |x| < 2^30: so
    AA, AA + A and A(A + A) lie inside GSet's 2^62 lattice bound and a packed
    quotient fits in int64 (an operand such as A + A obeys the same bound)."""
    if not isinstance(a, GSet):
        a = zset(list(a))
    elif a.group.dim != 1:
        raise ValueError("multiplicative energies need 1-dimensional integer sets")
    z = zset(a.coords[:, 0]) if a.group.is_cyclic else a
    if len(z) and max(-z.coords[0, 0], z.coords[-1, 0]) >= _INT_BOUND:
        raise ValueError("multiplicative operands need every |x| < 2^30")
    return z


def prodset(a, b) -> GSet:
    """AB = {xy : x in A, y in B}, a set of Z; AA is kept on A."""
    a, b = _int_set(a), _int_set(b)
    build = lambda: zset(np.multiply.outer(a.coords[:, 0], b.coords[:, 0]).ravel())
    return a.kept("AA", build) if a is b else build()


def quotient_counts(a) -> np.ndarray:
    """r_{A/A}(q) for every quotient q = x/y of A: reduced by its gcd, sign on
    the numerator, packed as num 2^30 + den (0 < den < 2^30), counted by one
    sort; kept read-only on the set of Z."""
    a = _int_set(a)
    return a.kept("A/A", lambda: _quotient_counts(a.coords[:, 0]))


def _quotient_counts(xs: np.ndarray) -> np.ndarray:
    if (xs == 0).any():
        raise ValueError("quotient set needs 0 not in A")
    g = np.gcd.outer(xs, xs)
    keys = xs[:, None] // g * np.sign(xs) * _INT_BOUND + np.abs(xs) // g
    counts = np.unique(keys, return_counts=True)[1]
    counts.flags.writeable = False
    return counts


def mult_energy_k(a, k: int = 2) -> int:
    """E^x_k(A) = sum over quotients q of r_{A/A}(q)^k, for an integer k >= 2."""
    k = groups.integral_order(k, 2, "E^x_k")
    return _histogram(quotient_counts(a)).power_sum(k)


def prodset_size(a) -> int:
    return len(prodset(a, a))


def quotset_size(a) -> int:
    return len(quotient_counts(a))
