"""Convolutions, correlations and energy functionals.

Tables are exact integer-valued finitely-supported functions: int64 while
B = min(|f|_1 |g|_inf, |g|_1 |f|_inf) < 2^62 bounds every entry, Python
ints above.  Direct pair sums serve a product iff nnz(f) nnz(g) <= max(2^14,
2 x transform size), capped at 2^22 pairs; else a real FFT on operands split
into limbs chosen before it runs, so that Percival's a priori error bound
proves each limb product rounds exactly.  A one-dimensional transform of
2^m >= 2^15 points (Z/2^m, the padded linear product of another Z/N, a 1-D
lattice window) runs as a four-step (Bailey, J. Supercomputing 4, 1990):
n1 = 2^floor(m/2) rows of n2 points, a real FFT down the rows, a twiddle
multiply w^(k1 j2) from two small tables per length, and an FFT along them;
its bound counts the m butterfly levels and the two twiddle multiplies.
Smaller and multi-dimensional shapes use numpy's rfftn/irfftn.  A
correlation is the same call: the direct path subtracts indices, the FFT
conjugates f's spectrum.  A self-product (f is g) transforms each limb
once, and a chain of convolution powers its base once per FFT shape.  Each
engine call reads an operand's nonzeros and norms once and checks the
product's mass identity sum(f*g) = sum(f) sum(g) exactly, on either path;
besides that only T_k's cross-check is validated after the fact.  A o A of a
GSet is built once and kept on the set (see the gset module), read-only:
every E_k, the level sequence and the Gram (B o B)^k read that one table,
and E_k(A, B) is kept on A per (B, k).  Its chain is kept the same way: each
level A^(*j) is built once per set, by one engine call on the level below,
and leaves T_j and sigma_j behind; the set keeps only the top level and, on
a cyclic group, the base's spectra, which T_k's cross-check reuses: the
nonzero frequencies, weighted for the half-spectrum's layout, must sum to
N T_k - |A|^(2k).  On a power-of-two cyclic group, with one limb per
operand, T_1..T_k and sigma_1..sigma_k together cost 2k - 2 real FFTs per
set.

Moment notation used throughout: (f*g)(x) = sum_y f(y) g(x-y) and
(f o g)(x) = sum_y f(y) g(y+x); E_k(A) = sum_x (A o A)(x)^k; T_k(A) is the
square sum of the k-fold convolution; sigma_k(A) counts k-tuples summing to
zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import groups
from .groups import Elem, GroupSpec, InvariantError
from .gset import GSet

_DIRECT_MIN = 1 << 14         # support pairs the direct path always serves ...
_DIRECT_MAX = 1 << 22         # ... and never exceeds
_WIDE = 1 << 62               # entry bound from which tables hold Python ints
_FOUR_STEP_MIN = 1 << 15      # one-dimensional power-of-two transforms from here run as a four-step
_TWIDDLE_ERR = 16 * 2.0 ** -53   # bound on |table entry - w^e| of the four-step's twiddles


class ConvTable:
    """Finitely-supported function on a group, stored as a dense window.

    ``offset`` is the coordinate of the window's [0,...,0] cell; cyclic
    tables use the full fundamental domain with zero offset.
    """

    __slots__ = ("group", "offset", "array")

    def __init__(self, group: GroupSpec, array: np.ndarray, offset: tuple[int, ...] | None = None):
        self.group = group
        self.array = array
        self.offset = offset if offset is not None else (0,) * group.dim

    # -- construction -------------------------------------------------

    @classmethod
    def from_gset(cls, a: GSet) -> "ConvTable":
        g = a.group
        if g.is_cyclic:
            return cls(g, a.indicator())
        mat = a.coords
        if len(mat) == 0:
            return cls(g, np.zeros((1,) * g.dim, dtype=np.int64))
        lo = mat.min(axis=0)
        shape = tuple(int(h - l + 1) for l, h in zip(lo, mat.max(axis=0)))
        arr = np.zeros(shape, dtype=np.int64)
        arr[tuple((mat - lo).T)] = 1
        return cls(g, arr, tuple(int(v) for v in lo))

    # -- access -------------------------------------------------------

    def support_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, values) of the nonzero entries: a len x dim coordinate
        matrix in lexicographic order (the window's row-major order), and
        the entries at those points."""
        idx = np.argwhere(self.array)
        return idx + np.array(self.offset, dtype=np.int64), self.array[tuple(idx.T)]

    def argmax(self) -> tuple[Elem, int]:
        """The first maximum in the lexicographic order of its point, and its value."""
        i = int(np.argmax(self.array))   # row-major order is lexicographic
        point = np.unravel_index(i, self.array.shape)
        return tuple(int(p + o) for p, o in zip(point, self.offset)), int(self.array.flat[i])

    def total(self) -> int:
        return _total(self.array)

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Entries at the rows of a len x dim coordinate matrix, 0 off the window."""
        idx = points % self.group.moduli if self.group.is_cyclic else points - self.offset
        inside = ((idx >= 0) & (idx < self.array.shape)).all(axis=1)
        out = np.zeros(len(points), dtype=self.array.dtype)
        out[inside] = self.array[tuple(idx[inside].T)]
        return out

    def values(self) -> np.ndarray:
        return self.array.ravel()

    def trimmed(self) -> "ConvTable":
        if self.group.is_cyclic:
            return self
        nz = np.nonzero(self.array)
        if len(nz[0]) == 0:
            return ConvTable(self.group, np.zeros((1,) * self.group.dim, dtype=self.array.dtype))
        slices = tuple(slice(int(i.min()), int(i.max()) + 1) for i in nz)
        off = tuple(int(s.start + o) for s, o in zip(slices, self.offset))
        return ConvTable(self.group, self.array[slices].copy(), off)

    def to_csv(self) -> str:
        lines = ["element,count"]
        points, values = self.support_rows()
        for elem, v in zip(points.tolist(), values.tolist()):
            lines.append(f"\"{groups.format_elem(elem)}\",{v}")
        return "\n".join(lines) + "\n"


def as_table(x) -> ConvTable:
    if isinstance(x, ConvTable):
        return x
    if isinstance(x, GSet):
        return ConvTable.from_gset(x)
    raise TypeError(f"expected GSet or ConvTable, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# convolution engine


def _total(x: np.ndarray) -> int:
    """Exact sum of an integer array, summed in int64 where that cannot wrap."""
    if x.dtype != object and x.size * max(int(x.max(initial=0)), -int(x.min(initial=0))) >= 1 << 63:
        x = x.astype(object)
    return int(x.sum())


def _norms(x: np.ndarray) -> tuple[int, int, int]:
    """(|x|_1, |x|_inf, sum x) as exact Python ints, from one min, one max
    and one sum (two for a signed x), in int64 where size |x|_inf < 2^63."""
    lo, hi = int(x.min()), int(x.max())
    linf = max(hi, -lo)
    if x.dtype != object and x.size * linf >= 1 << 63:
        x = x.astype(object)
    total = int(x.sum())
    return (total if lo >= 0 else int(np.abs(x).sum())), linf, total


def _wide(fn: tuple[int, ...], gn: tuple[int, ...]) -> bool:
    """Whether the entry bound B = min(|f|_1 |g|_inf, |g|_1 |f|_inf) reaches 2^62."""
    return min(fn[0] * gn[1], gn[0] * fn[1]) >= _WIDE


def _checked(out: np.ndarray, fn: tuple[int, ...], gn: tuple[int, ...], path: str) -> np.ndarray:
    """out, once its mass identity sum(f*g) = sum(f) sum(g) holds exactly:
    summed in int64 where |f|_1 |g|_1 < 2^63 bounds every partial sum of a
    correct product, else in Python ints.  Direct sums are integer
    arithmetic, so there only a defect breaks it."""
    mass = out if out.dtype == object or fn[0] * gn[0] < 1 << 63 else out.astype(object)
    if int(mass.sum()) != fn[2] * gn[2]:
        raise (InvariantError if path == "direct" else ArithmeticError)(
            f"{path} convolution broke the mass identity sum(f*g) = sum(f) sum(g)")
    return out


def _direct(fa: np.ndarray, ga: np.ndarray, moduli: tuple[int, ...] | None = None,
            corr: bool = False) -> np.ndarray:
    """Sum over all pairs of support points (at most max(2^14, 2 x FFT size),
    capped at 2^22) at index i + j, or j - i for a correlation.  With moduli
    the window is the group, else the lattice window, where correlation lags
    start at 1 - (f's extent).  The norms are read off the support values."""
    out_shape = moduli or tuple(int(a + b - 1) for a, b in zip(fa.shape, ga.shape))
    fidx = np.flatnonzero(fa)
    gidx = fidx if fa is ga else np.flatnonzero(ga)
    if len(fidx) == 0 or len(gidx) == 0:
        return np.zeros(out_shape, dtype=np.int64)
    fvals, gvals = fa.ravel()[fidx], ga.ravel()[gidx]
    fn = _norms(fvals)
    gn = fn if fa is ga else _norms(gvals)
    unit = bool((fvals == 1).all() and (gvals == 1).all())
    flat = None   # the pairs' flat output index, built in place axis by axis
    for fc, gc, fs, dim in zip(np.unravel_index(fidx, fa.shape), np.unravel_index(gidx, ga.shape),
                               fa.shape, out_shape):
        s = gc[None, :] - fc[:, None] if corr else fc[:, None] + gc[None, :]
        if moduli:
            s %= dim
        elif corr:
            s += fs - 1
        if flat is not None:
            s += flat * dim
        flat = s
    size = math.prod(out_shape)
    if unit:  # entries are at most min(|supp f|, |supp g|)
        out = np.bincount(flat.ravel(), minlength=size)
    else:
        dtype = object if _wide(fn, gn) else np.int64
        out = np.zeros(size, dtype=dtype)
        np.add.at(out, flat.ravel(), np.multiply.outer(fvals.astype(dtype), gvals.astype(dtype)).ravel())
    return _checked(out.reshape(out_shape), fn, gn, "direct")


def _percival(size: int, four_step: bool = False) -> float:
    """Percival (Math. Comp. 72, 2003): a radix-2 FFT convolution of length
    2^m errs by less than ||x||_2 ||y||_2 ((1+e)^3m (1+e sqrt5)^(3m+1)
    (1+e)^3m - 1) per entry, e = 2^-53 (twiddles accurate to e); about 13 m e.
    Each of the three transforms of a four-step runs the same m butterfly
    levels plus two twiddle multiplies, by table entries accurate to
    _TWIDDLE_ERR: 3 x 2 more factors (1+e sqrt5)(1+_TWIDDLE_ERR)."""
    m, e = max(1, (size - 1).bit_length()), 2.0 ** -53
    t = 2 if four_step else 0
    return math.expm1(6 * m * math.log1p(e) + (3 * (m + t) + 1) * math.log1p(e * math.sqrt(5))
                      + 3 * t * math.log1p(_TWIDDLE_ERR))


def _split(fn: tuple[int, ...], gn: tuple[int, ...], size: int,
           four_step: bool = False) -> tuple[int | None, int | None]:
    """Limb widths for f and g (None: whole) that keep Percival's bound for
    every limb product below 1/4.  A whole x has ||x||_2^2 <= |x|_1 |x|_inf,
    a b-bit limb ||limb||_2^2 <= 4^b size.  The operand with the larger
    maximum is split first; the other only if 1-bit limbs cannot suffice."""
    if fn[1] < gn[1]:
        return _split(gn, fn, size, four_step)[::-1]
    cap = 1 / (16 * _percival(size, four_step) ** 2)   # need ||x||_2^2 ||y||_2^2 < cap
    whole_g = gn[0] * gn[1]
    if fn[0] * fn[1] * whole_g < cap:
        return None, None
    bits = max((b for b in range(1, 64) if 4 ** b * whole_g * size < cap), default=0)
    if bits:
        return bits, None
    bits = max(b for b in range(1, 64) if 4 ** b * size < math.sqrt(cap))
    return bits, bits


def _limbs(x: np.ndarray, bits: int | None, linf: int) -> list[np.ndarray]:
    """x = sum_i limb_i 2^(bits i) as float64 arrays: low limbs in
    [0, 2^bits), the top one carries the sign."""
    if bits is None:
        return [x.astype(np.float64)]
    top = (linf.bit_length() - 1) // bits
    return [(x >> (bits * i) & (1 << bits) - 1 if i < top else x >> (bits * i)).astype(np.float64)
            for i in range(top + 1)]


def _fold(x: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Wrap the first 2m entries per axis of a window onto Z/m."""
    for ax, m in enumerate(moduli):
        x = x.take(np.arange(2 * m), axis=ax)
        x = x.reshape(x.shape[:ax] + (2, m) + x.shape[ax + 1:]).sum(axis=ax)
    return x


def _shape(fa: np.ndarray, ga: np.ndarray, moduli: tuple[int, ...] | None) -> tuple[int, ...]:
    """The FFT's shape: the group for power-of-two moduli, else powers of two over the linear product."""
    pow2 = bool(moduli) and all(m & (m - 1) == 0 for m in moduli)
    return moduli if pow2 else tuple(1 << int(a + b - 2).bit_length() for a, b in zip(fa.shape, ga.shape))


def _four_step(shape: tuple[int, ...]) -> bool:
    """Whether a transform of this shape runs as a four-step: one axis of
    2^m >= _FOUR_STEP_MIN points."""
    return len(shape) == 1 and shape[0] >= _FOUR_STEP_MIN and shape[0] & (shape[0] - 1) == 0


@functools.cache
def _twiddles(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n1, hi, lo) for the four-step of length n = n1 n2, n1 = 2^floor(m/2):
    hi[k1, u, 0] lo[k1, 0, v] = w^(k1 j2), w = exp(-2 pi i / n), for k1 <= n1/2
    and j2 = u s + v < n2, s = 2^floor(log2(n2)/2).  Kept per n, read-only:
    about n1 sqrt(n2) entries, 0.5 MB at 2^20.  k1 j2 < n/2, so each angle
    -2 pi k1 j2 / n is one rounding from fl(2 pi) and |angle| < pi; with cos
    and sin to an ulp, each entry is within 6 e of w^(k1 j2), inside _TWIDDLE_ERR."""
    n1 = 1 << (n.bit_length() - 1) // 2
    n2 = n // n1
    s = 1 << (n2.bit_length() - 1) // 2
    k1 = np.arange(n1 // 2 + 1)[:, None, None]
    step = -2j * np.pi / n   # exact: n is a power of two
    hi = np.exp(step * (k1 * np.arange(0, n2, s)[None, :, None]))
    lo = np.exp(step * (k1 * np.arange(s)[None, None, :]))
    hi.flags.writeable = lo.flags.writeable = False
    return n1, hi, lo


def _twiddle(c: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Multiply the (n1/2 + 1, n2) array c in place by w^(k1 j2), as two broadcast multiplies."""
    v = c.reshape(hi.shape[0], hi.shape[1], lo.shape[2])
    v *= hi
    v *= lo


def _rfft(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Spectrum of the real array x zero-padded to shape.  A four-step shape
    n = n1 n2 reads x as n1 rows of n2, real-transforms down the rows,
    multiplies by w^(k1 j2) and transforms along them (Bailey, J.
    Supercomputing 4, 1990): c[k1, k2] = X[k1 + n1 k2] for k1 <= n1/2, every
    frequency up to conjugation, with bins k1 = 1..n1/2 - 1 standing for
    their partners too.  Other shapes give numpy's rfftn layout."""
    if not _four_step(shape):
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
    consumes c: it runs the steps backwards, applying the conjugate twiddle
    in place as conj(conj(b) w)."""
    if not _four_step(shape):
        return np.fft.irfftn(c, shape, tuple(range(len(shape))))
    n1, hi, lo = _twiddles(shape[0])
    c = np.fft.ifft(c, axis=1, out=c)
    np.conjugate(c, out=c)
    _twiddle(c, hi, lo)
    np.conjugate(c, out=c)
    return np.fft.irfft(c, n1, axis=0).reshape(shape)


def _fft(fa: np.ndarray, ga: np.ndarray, moduli: tuple[int, ...] | None = None,
         corr: bool = False, spectra: dict | None = None) -> np.ndarray:
    """Real-FFT convolution, or correlation with f's spectrum conjugated,
    exact by the a priori limb split of `_split`: cyclic at the group size
    for power-of-two moduli, else linear at power-of-two sizes (folded if
    cyclic).  One limb each forms the product in one buffer; more are summed
    in int64 modulo 2^64, exact while B < 2^62, and in Python ints above.
    spectra (the caller's, for one g) keeps g's whole spectrum per shape."""
    lin = tuple(int(a + b - 1) for a, b in zip(fa.shape, ga.shape))
    shape = _shape(fa, ga, moduli)
    same = fa is ga
    fn = _norms(fa)
    gn = fn if same else _norms(ga)
    fbits, gbits = _split(fn, gn, math.prod(shape), _four_step(shape))
    wide = _wide(fn, gn)
    cache = spectra if spectra is not None and gbits is None else {}
    if (ghat := cache.get(shape)) is None:
        ghat = cache[shape] = [_rfft(p, shape) for p in _limbs(ga, gbits, gn[1])]
    if fbits is None and gbits is None and not wide:
        prod = ghat[0].copy() if same else _rfft(fa.astype(np.float64), shape)
        if corr:
            np.conjugate(prod, out=prod)
        prod *= ghat[0]
        out = _irfft(prod, shape)
        out = np.rint(out, out=out).astype(np.int64)
    else:
        # f's limb spectra are made one at a time, or shared with g's for a self-product
        fhat = ghat if same and fbits == gbits else (_rfft(p, shape) for p in _limbs(fa, fbits, fn[1]))
        if corr:
            fhat = (np.conj(h) for h in fhat)
        acc = np.zeros(shape, dtype=object if wide else np.uint64)
        for i, fh in enumerate(fhat):
            for j, gh in enumerate(ghat):
                part = np.rint(_irfft(fh * gh, shape)).astype(np.int64)
                shift = i * (fbits or 0) + j * (gbits or 0)
                acc += part.astype(object) << shift if wide else part.view(np.uint64) << shift
        out = acc if wide else acc.view(np.int64)
    if shape != moduli:
        # a correlation's lag d sits at index d mod size; roll the window's
        # first lag to index 0: 1 - (f's extent) on a lattice, -m for the fold
        if corr:
            out = np.roll(out, moduli or tuple(s - 1 for s in fa.shape), tuple(range(fa.ndim)))
        out = _fold(out, moduli) if moduli else out[tuple(slice(0, s) for s in lin)]
    return _checked(out, fn, gn, "FFT")


def _conv(tf: ConvTable, tg: ConvTable, corr: bool = False, spectra: dict | None = None) -> ConvTable:
    """Direct iff nnz(f) nnz(g) <= max(2^14, 2 x FFT size), capped at 2^22;
    else the FFT.  Each operand's nonzeros are counted once (once in all for
    a self-product); each path reads the norms once and checks the product's
    mass identity exactly."""
    grp, fa, ga = tf.group, tf.array, tg.array
    moduli = grp.moduli if grp.is_cyclic else None
    fnz = np.count_nonzero(fa)
    pairs = fnz * (fnz if fa is ga else np.count_nonzero(ga))
    direct = pairs <= min(_DIRECT_MAX, max(_DIRECT_MIN, 2 * math.prod(_shape(fa, ga, moduli))))
    out = _direct(fa, ga, moduli, corr) if direct else _fft(fa, ga, moduli, corr, spectra)
    if moduli:
        return ConvTable(grp, out)
    # a correlation's lags start at g's offset minus the far corner of f's window
    off = tuple(b - a - s + 1 if corr else a + b for a, b, s in zip(tf.offset, tg.offset, fa.shape))
    return ConvTable(grp, out, off).trimmed()


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
    t.array.flags.writeable = False
    return t


def conv_power(a, k: int) -> ConvTable:
    """k-fold convolution power (k factors); k = 1 returns the table itself.
    Nothing is kept: t_k and sigma_k read a set's kept chain instead."""
    if k < 1:
        raise ValueError("conv_power needs k >= 1")
    out = t = as_table(a)
    for out in _powers(t, t, {}, k - 1):
        pass
    return out


def _powers(top: ConvTable, base: ConvTable, spectra: dict, steps: int) -> Iterator[ConvTable]:
    """top * base, top * base * base, ...: one engine call per step, each
    transforming base at most once per FFT shape (spectra keeps its spectrum)."""
    for _ in range(steps):
        top = _conv(top, base, False, spectra)
        yield top


def _at_zero(t: ConvTable) -> int:
    """The table's entry at the group's zero."""
    return int(t.values_at(np.zeros((1, t.group.dim), dtype=np.int64))[0])


class _Chain:
    """The convolution powers of one set, kept on it under "chain": the top
    level A^(*L), read-only, and T_j = sum (A^(*j))^2 and sigma_j = A^(*j)(0)
    for every j <= L.  A cyclic chain keeps the base's spectra for its steps
    and T_k's cross-check; a lattice window grows at every level, so there a
    spectrum serves one extension only."""

    __slots__ = ("base", "top", "spectra", "t", "sigma", "checked")

    def __init__(self, a: GSet):
        self.base = self.top = ConvTable.from_gset(a)
        self.base.array.flags.writeable = False
        self.spectra = {} if a.group.is_cyclic else None
        self.t, self.sigma = [len(a)], [_at_zero(self.base)]   # level j at index j - 1
        self.checked: set[int] = set()   # k whose T_k passed the Fourier cross-check

    def extend(self, k: int) -> "_Chain":
        """Build the levels up to k.  A level's table, T_j and sigma_j are
        committed together once all three exist, so a step that raises leaves
        the last good level in place."""
        spectra = {} if self.spectra is None else self.spectra
        for top in _powers(self.top, self.base, spectra, k - len(self.t)):
            t, sigma = _power_sum(top.values(), 2), _at_zero(top)
            top.array.flags.writeable = False
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


def _power_sum(values: np.ndarray, k) -> int | float:
    """sum v^k over the positive entries; for integer k >= 1 in int64 over
    the whole table where it is nonnegative and nothing can wrap (zeros add
    nothing), else over the positive entries: in int64 where nothing can
    wrap there, over a bincount where max <= 4 len (every E_k), in int64
    binomial terms of v = h 2^s + l (h, l < 2^s) where (2^s)^k len < 2^63;
    else over the distinct values in Python numbers."""
    ki = int(k) if float(k).is_integer() else None
    exact = ki is not None and values.dtype != object
    if exact:
        top = int(values.max(initial=0))   # also the maximum of the positive entries
        if top ** ki * len(values) < 1 << 63 and values.min(initial=0) >= 0:
            return int(np.dot(values, values) if ki == 2 else (values ** ki).sum())
    pos = values[values > 0]
    if len(pos) == 0:
        return 0.0 if ki is None else 0
    if exact:
        n = len(pos)
        if top ** ki * n < 1 << 63:
            return int((pos ** ki).sum())
        if top <= 4 * n:
            vals = np.flatnonzero(cnts := np.bincount(pos))
            return sum(c * v ** ki for v, c in zip(vals.tolist(), cnts[vals].tolist()))
        s = (top.bit_length() + 1) // 2
        if (1 << s * ki) * n < 1 << 63:
            h, l = pos >> s, pos & (1 << s) - 1
            return sum(math.comb(ki, j) * int((h ** j * l ** (ki - j)).sum()) << s * j
                       for j in range(ki + 1))
    vals, cnts = (v.tolist() for v in np.unique(pos, return_counts=True))
    if ki is not None:
        return sum(c * v ** ki for v, c in zip(vals, cnts))
    return float(sum(float(c) * float(v) ** k for v, c in zip(vals, cnts)))


def energy_k(a: GSet, k) -> int | float:
    """E_k(A) = sum_x (A o A)(x)^k; exact for integer k, E_1(A) = |A|^2."""
    if k < 1:
        raise ValueError("energy order must be >= 1")
    return _power_sum(correlate(a, a).values(), k)


def energy_pair(a: GSet, b: GSet) -> int:
    """Additive energy E(A, B) = sum_x (A * B)(x)^2."""
    return _power_sum(convolve(a, b).values(), 2)


def energy_k_pair(a: GSet, b: GSet, k) -> int | float:
    """E_k(A, B) = sum_x (A o A)(x) (B o B)(x)^(k-1); E_2(A, B) = E(A, B).
    Kept on A per (B, k)."""
    if a.group != b.group:
        raise groups.GroupError("energy operands live in different groups")
    if k < 1:
        raise ValueError("energy order must be >= 1")
    return a.kept(("Epair", a.partner(b), k), lambda: _energy_k_pair(a, b, k))


def _energy_k_pair(a: GSet, b: GSet, k) -> int | float:
    """For integer k summed in int64 where |supp| max v max w^(k-1) < 2^63,
    else in Python numbers."""
    points, v = correlate(a, a).support_rows()
    w = correlate(b, b).values_at(points)
    if float(k).is_integer():
        e = int(k) - 1
        if len(v) * int(v.max(initial=0)) * int(w.max(initial=0)) ** e < 1 << 63:
            return int((v * w ** e).sum())
        return sum(x * y ** e for x, y in zip(v.tolist(), w.tolist()))
    return sum((float(x) * float(y) ** (k - 1) for x, y in zip(v.tolist(), w.tolist()) if y), 0.0)


def t_k(a: GSet, k: int) -> int:
    """T_k(A) = sum_x (A *_(k-1) A)(x)^2, read from the set's kept chain and
    cross-checked on the dual side the first time it is served."""
    if k < 1:
        raise ValueError("T_k needs k >= 1")
    chain = _chain(a).extend(k)
    result = chain.t[k - 1]
    if a.group.is_cyclic and k not in chain.checked:
        # N T_k = sum |A^(xi)|^(2k) and A^(0) = |A|: the nonzero frequencies
        # must give N T_k - |A|^(2k), 0 only for the empty set and the group
        spec = np.abs(chain.spectrum()) ** (2 * k)
        spec.flat[0] = 0
        moduli = a.group.moduli
        # a bin whose conjugate the half-spectrum omits counts twice: rows
        # 1..n1/2 - 1 of a four-step, else last-axis bins but the first and Nyquist
        twice = spec[1:len(spec) - 1] if _four_step(moduli) else spec[..., 1:(moduli[-1] + 1) // 2]
        twice *= 2
        fourier, exact = float(spec.sum()), a.group.order * result - len(a) ** (2 * k)
        if not math.isclose(fourier, exact, rel_tol=1e-6, abs_tol=1e-6):
            raise InvariantError(f"T_k Fourier cross-check failed off the zero frequency: {fourier} vs {exact}")
        chain.checked.add(k)
    return result


def sigma_k(a: GSet, k: int) -> int:
    """sigma_k(A) = number of k-tuples of A summing to zero = A^(*k)(0)
    = sum over a in A of A^(*(k-1))(-a): recorded by the set's kept chain up
    to its top level, gathered from the top above it."""
    if k < 1:
        raise ValueError("sigma_k needs k >= 1")
    if k == 1:
        return int(a.isin(np.zeros((1, a.group.dim), dtype=np.int64))[0])
    chain = _chain(a)
    if k <= len(chain.sigma):
        return chain.sigma[k - 1]
    return _total(chain.extend(k - 1).top.values_at(-a.coords))


def level_sequence(a: GSet) -> list[int]:
    """Positive values of A o A sorted descending; length |A - A|."""
    vals = correlate(a, a).values()
    return np.sort(vals[vals > 0])[::-1].tolist()


# ---------------------------------------------------------------------------
# multiplicative energies of integer sets


def _as_int_set(a) -> list[int]:
    if isinstance(a, GSet):
        if a.group.dim != 1:
            raise ValueError("multiplicative energies need 1-dimensional integer sets")
        return a.coords[:, 0].tolist()
    return sorted(set(int(x) for x in a))


def quotient_counts(a) -> dict[Fraction, int]:
    xs = _as_int_set(a)
    if 0 in xs:
        raise ValueError("quotient set needs 0 not in A")
    counts: dict[Fraction, int] = {}
    for x in xs:
        for y in xs:
            q = Fraction(x, y)
            counts[q] = counts.get(q, 0) + 1
    return counts


def mult_energy_k(a, k: int = 2) -> int:
    """E^x_k(A) = sum over quotients q of r_{A/A}(q)^k."""
    if k < 2:
        raise ValueError("multiplicative energy order must be >= 2")
    return sum(c ** k for c in quotient_counts(a).values())


def prodset_size(a) -> int:
    xs = _as_int_set(a)
    return len({x * y for x in xs for y in xs})


def quotset_size(a) -> int:
    return len(quotient_counts(a))


# ---------------------------------------------------------------------------
# normalized profile


@dataclass
class EnergyProfile:
    """Normalized invariants: kappa_k = E_k/|A|^(k+1), delta = |A|/N,
    K = |A-A|/|A|, L = |A+A|/|A|."""

    set_id: str
    size: int
    kappa: dict[int, float]
    delta: float | None
    doubling_minus: float
    doubling_plus: float

    @classmethod
    def from_set(cls, a: GSet, ks: Iterable[int] = (2, 3, 4), set_id: str = "") -> "EnergyProfile":
        """Every E_k and |A - A| (its support) from the set's A o A;
        |A + A| is the support of A * A."""
        if not a:
            raise ValueError("profile needs a nonempty set")
        n = len(a)
        kappa = {int(k): float(energy_k(a, int(k))) / n ** (k + 1) for k in ks}
        delta = n / a.group.order if a.group.is_cyclic else None
        return cls(set_id=set_id, size=n, kappa=kappa, delta=delta,
                   doubling_minus=np.count_nonzero(correlate(a, a).array) / n,
                   doubling_plus=np.count_nonzero(convolve(a, a).array) / n)

    def as_dict(self) -> dict:
        return {
            "set_id": self.set_id,
            "size": self.size,
            "kappa": {str(k): v for k, v in sorted(self.kappa.items())},
            "delta": self.delta,
            "K": self.doubling_minus,
            "L": self.doubling_plus,
        }
