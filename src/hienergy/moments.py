"""Convolutions, correlations and energy functionals.

Tables are exact integer-valued finitely-supported functions: int64 while
B = min(|f|_1 |g|_inf, |g|_1 |f|_inf) < 2^62 bounds every entry, Python
ints above.  Direct pair sums serve a product iff nnz(f) nnz(g) <= max(2^14,
2 x transform size), capped at 2^22 pairs; else a real FFT on operands split
into limbs chosen before it runs, so that Percival's a priori error bound
proves each limb product rounds exactly.  A correlation is the same call:
the direct path subtracts indices, the FFT conjugates f's spectrum.  A
self-product (f is g) transforms each limb once, and a conv_power chain its
base once, which T_k's cross-check reuses: A o A costs two real FFTs, T_k
2k - 2 on a power-of-two cyclic group.  Only the exact mass identity and
T_k's cross-check are validated after the fact.  A o A of a GSet is built
once and kept on the set, read-only: every E_k, the level sequence and the
Gram (B o B)^k read that one table.

Moment notation used throughout: (f*g)(x) = sum_y f(y) g(x-y) and
(f o g)(x) = sum_y f(y) g(y+x); E_k(A) = sum_x (A o A)(x)^k; T_k(A) is the
square sum of the k-fold convolution; sigma_k(A) counts k-tuples summing to
zero.
"""

from __future__ import annotations

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

    def value(self, x) -> int:
        x = groups.as_elem(self.group, x)
        idx = tuple(c - o for c, o in zip(x, self.offset))
        if any(i < 0 or i >= s for i, s in zip(idx, self.array.shape)):
            return 0
        return int(self.array[idx])

    def support_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, values) of the nonzero entries: a len x dim coordinate
        matrix in lexicographic order (the window's row-major order), and
        the entries at those points."""
        idx = np.argwhere(self.array)
        return idx + np.array(self.offset, dtype=np.int64), self.array[tuple(idx.T)]

    def support(self) -> Iterator[tuple[Elem, int]]:
        points, values = self.support_rows()
        return zip(map(tuple, points.tolist()), values.tolist())

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
        for elem, v in sorted(self.support()):
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
    if x.dtype != object and x.size * max(int(x.max()), -int(x.min())) >= 1 << 63:
        x = x.astype(object)
    return int(x.sum())


def _norms(x: np.ndarray) -> tuple[int, int]:
    """(|x|_1, |x|_inf) as exact Python ints."""
    lo, hi = int(x.min()), int(x.max())
    return _total(x if lo >= 0 else np.abs(x)), max(hi, -lo)


def _direct(fa: np.ndarray, ga: np.ndarray, moduli: tuple[int, ...] | None = None,
            corr: bool = False) -> np.ndarray:
    """Sum over all pairs of support points (at most max(2^14, 2 x FFT size),
    capped at 2^22) at index i + j, or j - i for a correlation.  With moduli
    the window is the group, else the lattice window, where correlation lags
    start at 1 - (f's extent)."""
    out_shape = moduli or tuple(int(a + b - 1) for a, b in zip(fa.shape, ga.shape))
    fidx, gidx = np.flatnonzero(fa), np.flatnonzero(ga)
    if len(fidx) == 0 or len(gidx) == 0:
        return np.zeros(out_shape, dtype=np.int64)
    fvals, gvals = fa.ravel()[fidx], ga.ravel()[gidx]
    unit = bool((fvals == 1).all() and (gvals == 1).all())
    flat = 0
    for fc, gc, fs, dim in zip(np.unravel_index(fidx, fa.shape), np.unravel_index(gidx, ga.shape),
                               fa.shape, out_shape):
        s = gc[None, :] - fc[:, None] + (0 if moduli else fs - 1) if corr else fc[:, None] + gc[None, :]
        flat = flat * dim + (s % dim if moduli else s)
    size = math.prod(out_shape)
    if unit:  # entries are at most min(|supp f|, |supp g|)
        return np.bincount(flat.ravel(), minlength=size).reshape(out_shape)
    fl, gl = (list(map(abs, v.tolist())) for v in (fvals, gvals))
    dtype = object if min(sum(fl) * max(gl), sum(gl) * max(fl)) >= _WIDE else np.int64
    out = np.zeros(size, dtype=dtype)
    np.add.at(out, flat.ravel(), np.multiply.outer(fvals.astype(dtype), gvals.astype(dtype)).ravel())
    return out.reshape(out_shape)


def _percival(size: int) -> float:
    """Percival (Math. Comp. 72, 2003): a radix-2 FFT convolution of length
    2^m errs by less than ||x||_2 ||y||_2 ((1+e)^3m (1+e sqrt5)^(3m+1)
    (1+e)^3m - 1) per entry, e = 2^-53 (twiddles accurate to e); about 13 m e."""
    m, e = max(1, (size - 1).bit_length()), 2.0 ** -53
    return math.expm1(6 * m * math.log1p(e) + (3 * m + 1) * math.log1p(e * math.sqrt(5)))


def _split(fn: tuple[int, int], gn: tuple[int, int], size: int) -> tuple[int | None, int | None]:
    """Limb widths for f and g (None: whole) that keep Percival's bound for
    every limb product below 1/4.  A whole x has ||x||_2^2 <= |x|_1 |x|_inf,
    a b-bit limb ||limb||_2^2 <= 4^b size.  The operand with the larger
    maximum is split first; the other only if 1-bit limbs cannot suffice."""
    if fn[1] < gn[1]:
        return _split(gn, fn, size)[::-1]
    cap = 1 / (16 * _percival(size) ** 2)   # need ||x||_2^2 ||y||_2^2 < cap
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
    axes, same = tuple(range(fa.ndim)), fa is ga
    fn = _norms(fa)
    gn = fn if same else _norms(ga)
    fbits, gbits = _split(fn, gn, math.prod(shape))
    wide = min(fn[0] * gn[1], gn[0] * fn[1]) >= _WIDE
    cache = spectra if spectra is not None and gbits is None else {}
    if (ghat := cache.get(shape)) is None:
        ghat = cache[shape] = [np.fft.rfftn(p, shape, axes) for p in _limbs(ga, gbits, gn[1])]
    if fbits is None and gbits is None and not wide:
        prod = ghat[0].copy() if same else np.fft.rfftn(fa.astype(np.float64), shape, axes)
        if corr:
            np.conjugate(prod, out=prod)
        prod *= ghat[0]
        out = np.fft.irfftn(prod, shape, axes)
        out = np.rint(out, out=out).astype(np.int64)
    else:
        # f's limb spectra are made one at a time, or shared with g's for a self-product
        fhat = ghat if same and fbits == gbits else (np.fft.rfftn(p, shape, axes)
                                                     for p in _limbs(fa, fbits, fn[1]))
        if corr:
            fhat = (np.conj(h) for h in fhat)
        acc = np.zeros(shape, dtype=object if wide else np.uint64)
        for i, fh in enumerate(fhat):
            for j, gh in enumerate(ghat):
                part = np.rint(np.fft.irfftn(fh * gh, shape, axes)).astype(np.int64)
                shift = i * (fbits or 0) + j * (gbits or 0)
                acc += part.astype(object) << shift if wide else part.view(np.uint64) << shift
        out = acc if wide else acc.view(np.int64)
    if shape != moduli:
        # a correlation's lag d sits at index d mod size; roll the window's
        # first lag to index 0: 1 - (f's extent) on a lattice, -m for the fold
        if corr:
            out = np.roll(out, moduli or tuple(s - 1 for s in fa.shape), axes)
        out = _fold(out, moduli) if moduli else out[tuple(slice(0, s) for s in lin)]
    if (int(out.sum()) - int(fa.sum()) * int(ga.sum())) % (1 << 64):   # checked mod 2^64
        raise ArithmeticError("FFT convolution broke the mass identity sum(f*g) = sum(f) sum(g)")
    return out


def _conv(tf: ConvTable, tg: ConvTable, corr: bool = False, spectra: dict | None = None) -> ConvTable:
    """Direct iff nnz(f) nnz(g) <= max(2^14, 2 x FFT size), capped at 2^22; else the FFT."""
    grp, fa, ga = tf.group, tf.array, tg.array
    moduli = grp.moduli if grp.is_cyclic else None
    pairs = np.count_nonzero(fa) * np.count_nonzero(ga)
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
    """(f o g)(x) = sum_y f(y) g(y + x); for sets, counts of x = b - a.
    With one GSet passed twice the table is built once and kept on the set."""
    keep = f is g and isinstance(f, GSet)
    if keep and f._self_corr is not None:
        return f._self_corr
    out = convolve(f, g, corr=True)
    if isinstance(f, GSet) and isinstance(g, GSet) and out.total() != len(f) * len(g):
        raise InvariantError("correlation mass must equal |A||B|")
    if keep:
        out.array.flags.writeable = False
        f._self_corr = out
    return out


def conv_power(a, k: int) -> ConvTable:
    """k-fold convolution power (k factors); k = 1 returns the table itself."""
    if k < 1:
        raise ValueError("conv_power needs k >= 1")
    return _power(as_table(a), k, {})


def _power(t: ConvTable, k: int, spectra: dict) -> ConvTable:
    """t^(*k), transforming t once: spectra keeps its spectrum for the call."""
    out = t
    for _ in range(k - 1):
        out = _conv(out, t, False, spectra)
    return out


# ---------------------------------------------------------------------------
# energies


def _power_sum(values: np.ndarray, k) -> int | float:
    """sum v^k over the positive entries; for integer k in int64 where nothing
    can wrap, over a bincount where max <= 4 len (every E_k), in int64 binomial
    terms of v = h 2^s + l (h, l < 2^s) where (2^s)^k len < 2^63; else over
    the distinct values in Python numbers."""
    pos, ki = values[values > 0], int(k) if float(k).is_integer() else None
    if len(pos) == 0:
        return 0.0 if ki is None else 0
    if ki is not None and pos.dtype != object:
        top, n = int(pos.max()), len(pos)
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
    """E_k(A, B) = sum_x (A o A)(x) (B o B)(x)^(k-1); E_2(A, B) = E(A, B)."""
    if a.group != b.group:
        raise groups.GroupError("energy operands live in different groups")
    if k < 1:
        raise ValueError("energy order must be >= 1")
    points, v = correlate(a, a).support_rows()
    v, w = v.tolist(), correlate(b, b).values_at(points).tolist()
    if float(k).is_integer():
        return sum(x * y ** (int(k) - 1) for x, y in zip(v, w))
    return sum((float(x) * float(y) ** (k - 1) for x, y in zip(v, w) if y), 0.0)


def t_k(a: GSet, k: int) -> int:
    """T_k(A) = sum_x (A *_(k-1) A)(x)^2, cross-checked on the dual side."""
    if k < 1:
        raise ValueError("T_k needs k >= 1")
    base, spectra = ConvTable.from_gset(a), {}
    result = _power_sum(_power(base, k, spectra).values(), 2)
    if a.group.is_cyclic:
        # the real half-spectrum, the chain's own where its FFT ran at the group
        # size: each last-axis bin but the first and Nyquist counts twice
        spec = np.abs((spectra.get(a.group.moduli) or [np.fft.rfftn(base.array)])[0]) ** (2 * k)
        spec[..., 1:(a.group.moduli[-1] + 1) // 2] *= 2
        fourier = float(spec.sum()) / a.group.order
        if not math.isclose(fourier, float(result), rel_tol=1e-6):
            raise InvariantError(f"T_k Fourier cross-check failed: {fourier} vs {result}")
    return result


def sigma_k(a: GSet, k: int) -> int:
    """sigma_k(A) = number of k-tuples of A summing to zero
    = sum over a in A of A^(*(k-1))(-a)."""
    if k < 1:
        raise ValueError("sigma_k needs k >= 1")
    if k == 1:
        return int(groups.zero(a.group) in a)
    return sum(conv_power(a, k - 1).values_at(-a.coords).tolist())


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
        return [e[0] for e in a.elems]
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
