"""Convolutions, correlations and energy functionals.

Tables are exact integer-valued finitely-supported functions: int64 while
B = min(|f|_1 |g|_inf, |g|_1 |f|_inf) < 2^62 bounds every entry, Python
ints above.  Small windows convolve by direct pair sums; the rest by a real
FFT whose operands are split into limbs chosen before it runs, so that
Percival's a priori error bound proves each limb product rounds exactly.
Nothing is validated after the fact except the exact mass identity.

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
from .groups import Elem, GroupSpec
from .gset import GSet

FFT_THRESHOLD = 1024          # cyclic order at which the FFT path takes over
_LATTICE_DIRECT = 1 << 22     # lattice window product below which the direct path runs
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
        mat = a.coord_matrix()
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

    def support(self) -> Iterator[tuple[Elem, int]]:
        for idx in zip(*np.nonzero(self.array)):
            coords = tuple(int(i + o) for i, o in zip(idx, self.offset))
            yield coords, int(self.array[idx])

    def support_size(self) -> int:
        return int(np.count_nonzero(self.array))

    def total(self) -> int:
        return _total(self.array)

    def sum_at(self, points: np.ndarray) -> int:
        """Exact sum of the table over the rows of a len x dim coordinate matrix."""
        idx = points % self.group.moduli if self.group.is_cyclic else points - self.offset
        inside = ((idx >= 0) & (idx < self.array.shape)).all(axis=1)
        return sum(self.array[tuple(idx[inside].T)].tolist())

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvTable) or self.group != other.group:
            return NotImplemented
        a, b = self.trimmed(), other.trimmed()
        return a.offset == b.offset and a.array.shape == b.array.shape and bool((a.array == b.array).all())

    def __hash__(self):
        raise TypeError("ConvTable is not hashable")

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


def _direct(fa: np.ndarray, ga: np.ndarray, moduli: tuple[int, ...] | None = None) -> np.ndarray:
    """Sum over all pairs of support points (the engine sends at most 2^22
    pairs).  With moduli the window is the group, else the lattice window."""
    out_shape = moduli or tuple(int(a + b - 1) for a, b in zip(fa.shape, ga.shape))
    fidx, gidx = np.flatnonzero(fa), np.flatnonzero(ga)
    if len(fidx) == 0 or len(gidx) == 0:
        return np.zeros(out_shape, dtype=np.int64)
    fvals, gvals = fa.ravel()[fidx], ga.ravel()[gidx]
    unit = bool((fvals == 1).all() and (gvals == 1).all())
    flat = 0
    for fc, gc, dim in zip(np.unravel_index(fidx, fa.shape), np.unravel_index(gidx, ga.shape), out_shape):
        s = fc[:, None] + gc[None, :]
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
    a b-bit limb ||limb||_2^2 <= 4^b size.  f, the operand with the larger
    maximum, is split first; g too only if 1-bit limbs of f do not suffice."""
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
    """Wrap a linear window of length 2m - 1 per axis onto Z/m."""
    for ax, m in enumerate(moduli):
        x = np.concatenate([x, np.zeros(x.shape[:ax] + (1,) + x.shape[ax + 1:], x.dtype)], axis=ax)
        x = x.reshape(x.shape[:ax] + (2, m) + x.shape[ax + 1:]).sum(axis=ax)
    return x


def _fft(fa: np.ndarray, ga: np.ndarray, moduli: tuple[int, ...] | None = None) -> np.ndarray:
    """Real-FFT convolution, exact by the a priori limb split of `_split`:
    cyclic at the group size for power-of-two moduli, else linear at
    power-of-two sizes (folded if cyclic).  Limb products are summed in int64
    modulo 2^64, exact while B < 2^62, and in Python ints above."""
    lin = tuple(int(a + b - 1) for a, b in zip(fa.shape, ga.shape))
    pow2 = bool(moduli) and all(m & (m - 1) == 0 for m in moduli)
    shape = moduli if pow2 else tuple(1 << (s - 1).bit_length() for s in lin)
    axes = tuple(range(fa.ndim))
    fn, gn = _norms(fa), _norms(ga)
    if fn[1] < gn[1]:
        fa, ga, fn, gn = ga, fa, gn, fn
    fbits, gbits = _split(fn, gn, math.prod(shape))
    wide = min(fn[0] * gn[1], gn[0] * fn[1]) >= _WIDE
    ghat = [np.fft.rfftn(p, shape, axes) for p in _limbs(ga, gbits, gn[1])]
    acc = np.zeros(shape, dtype=object if wide else np.uint64)
    for i, p in enumerate(_limbs(fa, fbits, fn[1])):
        fh = np.fft.rfftn(p, shape, axes)
        for j, gh in enumerate(ghat):
            part = np.rint(np.fft.irfftn(fh * gh, shape, axes)).astype(np.int64)
            shift = i * (fbits or 0) + j * (gbits or 0)
            acc += part.astype(object) << shift if wide else part.view(np.uint64) << shift
    out = acc if wide else acc.view(np.int64)
    if not pow2:
        out = _fold(out[tuple(slice(0, s) for s in lin)], moduli or ())
    if (int(out.sum()) - int(fa.sum()) * int(ga.sum())) % (1 << 64):   # checked mod 2^64
        raise ArithmeticError("FFT convolution broke the mass identity sum(f*g) = sum(f) sum(g)")
    return out


_direct_cyclic, _fft_cyclic = _direct, _fft   # the paths under their cyclic-only names


def _conv(fa: np.ndarray, ga: np.ndarray, moduli: tuple[int, ...] | None = None) -> np.ndarray:
    small = fa.size < FFT_THRESHOLD if moduli else fa.size * ga.size < _LATTICE_DIRECT
    return (_direct if small else _fft)(fa, ga, moduli)


def convolve(f, g) -> ConvTable:
    """(f * g)(x) = sum_y f(y) g(x - y), exact integers."""
    tf, tg = as_table(f), as_table(g)
    if tf.group != tg.group:
        raise groups.GroupError("convolution operands live in different groups")
    grp = tf.group
    if grp.is_cyclic:
        return ConvTable(grp, _conv(tf.array, tg.array, grp.moduli))
    off = tuple(a + b for a, b in zip(tf.offset, tg.offset))
    return ConvTable(grp, _conv(tf.array, tg.array), off).trimmed()


def _reflect(t: ConvTable) -> ConvTable:
    flipped = np.flip(t.array)
    if t.group.is_cyclic:  # index negation: -i mod n
        return ConvTable(t.group, np.roll(flipped, 1, axis=tuple(range(flipped.ndim))))
    off = tuple(-(o + s - 1) for o, s in zip(t.offset, t.array.shape))
    return ConvTable(t.group, flipped.copy(), off)


def correlate(f, g) -> ConvTable:
    """(f o g)(x) = sum_y f(y) g(y + x); for sets, counts of x = b - a."""
    tf, tg = as_table(f), as_table(g)
    out = convolve(_reflect(tf), tg)
    if isinstance(f, GSet) and isinstance(g, GSet):
        assert out.total() == len(f) * len(g), "correlation mass must equal |A||B|"
    return out


def conv_power(a, k: int) -> ConvTable:
    """k-fold convolution power (k factors); k = 1 returns the table itself."""
    if k < 1:
        raise ValueError("conv_power needs k >= 1")
    t = as_table(a)
    out = t
    for _ in range(k - 1):
        out = convolve(out, t)
    return out


# ---------------------------------------------------------------------------
# energies


def _power_sum(values: np.ndarray, k) -> int | float:
    pos = values[values > 0]
    if len(pos) == 0:
        return 0 if float(k).is_integer() else 0.0
    vals, cnts = np.unique(pos, return_counts=True)
    if float(k).is_integer():
        ki = int(k)
        return sum(int(c) * int(v) ** ki for v, c in zip(vals, cnts))
    return float(sum(float(c) * float(v) ** k for v, c in zip(vals, cnts)))


def energy_k(a: GSet, k) -> int | float:
    """E_k(A) = sum_x (A o A)(x)^k; exact for integer k, E_1(A) = |A|^2."""
    if k < 1:
        raise ValueError("energy order must be >= 1")
    if not a:
        return 0 if float(k).is_integer() else 0.0
    return _power_sum(correlate(a, a).values(), k)


def energy_pair(a: GSet, b: GSet) -> int:
    """Additive energy E(A, B) = sum_x (A * B)(x)^2."""
    if not a or not b:
        return 0
    return _power_sum(convolve(a, b).values(), 2)


def energy_k_pair(a: GSet, b: GSet, k) -> int | float:
    """E_k(A, B) = sum_x (A o A)(x) (B o B)(x)^(k-1); E_2(A, B) = E(A, B)."""
    if a.group != b.group:
        raise groups.GroupError("energy operands live in different groups")
    if k < 1:
        raise ValueError("energy order must be >= 1")
    if not a:
        return 0 if float(k).is_integer() else 0.0
    ta = correlate(a, a)
    tb = correlate(b, b)
    exact = float(k).is_integer()
    km1 = (int(k) if exact else k) - 1
    total = 0 if exact else 0.0
    for elem, v in ta.support():
        w = tb.value(elem) if km1 else 1
        if w:
            total += v * w ** km1 if exact else float(v) * float(w) ** km1
    return total


def t_k(a: GSet, k: int) -> int:
    """T_k(A) = sum_x (A *_(k-1) A)(x)^2, cross-checked on the dual side."""
    if k < 1:
        raise ValueError("T_k needs k >= 1")
    if not a:
        return 0
    base = ConvTable.from_gset(a)
    result = _power_sum(conv_power(base, k).values(), 2)
    if a.group.is_cyclic:
        spec = np.abs(np.fft.fftn(base.array)) ** (2 * k)
        fourier = float(spec.sum()) / a.group.order
        if not math.isclose(fourier, float(result), rel_tol=1e-6):
            raise AssertionError(f"T_k Fourier cross-check failed: {fourier} vs {result}")
    return result


def sigma_k(a: GSet, k: int) -> int:
    """sigma_k(A) = number of k-tuples of A summing to zero
    = sum over a in A of A^(*(k-1))(-a)."""
    if k < 1:
        raise ValueError("sigma_k needs k >= 1")
    if not a:
        return 0
    if k == 1:
        return int(groups.zero(a.group) in a)
    return conv_power(a, k - 1).sum_at(-a.coord_matrix())


def level_sequence(a: GSet) -> list[int]:
    """Positive values of A o A sorted descending; length |A - A|."""
    if not a:
        return []
    vals = correlate(a, a).values()
    return sorted((int(v) for v in vals[vals > 0]), reverse=True)


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
        from .setops import diffset, sumset  # local import to avoid a cycle

        if not a:
            raise ValueError("profile needs a nonempty set")
        n = len(a)
        kappa = {int(k): float(energy_k(a, int(k))) / n ** (k + 1) for k in ks}
        delta = n / a.group.order if a.group.is_cyclic else None
        return cls(set_id=set_id, size=n, kappa=kappa, delta=delta,
                   doubling_minus=len(diffset(a, a)) / n,
                   doubling_plus=len(sumset(a, a)) / n)

    def as_dict(self) -> dict:
        return {
            "set_id": self.set_id,
            "size": self.size,
            "kappa": {str(k): v for k, v in sorted(self.kappa.items())},
            "delta": self.delta,
            "K": self.doubling_minus,
            "L": self.doubling_plus,
        }
