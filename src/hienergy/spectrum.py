"""Discrete Fourier analysis on cyclic products: spectra, large-spectrum
sets, dissociativity and dimension."""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from . import groups, moments
from .groups import Elem, GroupSpec, InvariantError
from .gset import GSet
from .setops import CapExceededError

PARSEVAL_RTOL = 1e-9
DISSOCIATED_CAP = 26
DIM_EXACT_CAP = 20


class SpectrumTable:
    """Complex DFT values indexed by dual elements (dual identified with G)."""

    __slots__ = ("group", "array")

    def __init__(self, group: GroupSpec, array: np.ndarray):
        self.group = group
        self.array = array

    def value(self, xi) -> complex:
        xi = groups.as_elem(self.group, xi)
        return complex(self.array[xi])

    def to_csv(self) -> str:
        lines = ["xi,re,im,abs"]
        for xi in groups.enumerate_elements(self.group):
            v = self.array[xi]
            lines.append(f"\"{groups.format_elem(xi)}\",{v.real!r},{v.imag!r},{abs(v)!r}")
        return "\n".join(lines) + "\n"


def dft(f) -> SpectrumTable:
    """f^(xi) = sum_x f(x) e(-xi.x); FFT-factorized over the moduli."""
    table = moments.as_table(f)
    g = table.group
    if not g.is_cyclic:
        raise groups.GroupError("the DFT needs a finite cyclic product")
    arr = np.fft.fftn(table.array.astype(np.float64))
    spec = SpectrumTable(g, arr)
    # Parseval consistency against the source table
    lhs = float((table.array.astype(np.float64) ** 2).sum())
    rhs = float((np.abs(arr) ** 2).sum()) / g.order
    if not math.isclose(lhs, rhs, rel_tol=PARSEVAL_RTOL, abs_tol=1e-12):
        raise InvariantError(f"Parseval check failed: {lhs} vs {rhs}")
    return spec


def large_spectrum(a: GSet, alpha: float) -> GSet:
    """R_alpha(A) = {r : |A^(r)| >= alpha |A|} as a subset of the dual."""
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    g = a.group
    spec = dft(a)
    mags = np.abs(spec.array)
    thresh = alpha * len(a) - 1e-9 * max(1, len(a))
    picked = [xi for xi in groups.enumerate_elements(g) if mags[xi] >= thresh]
    out = GSet(g, picked)
    if groups.zero(g) not in out.as_set:
        raise InvariantError("large spectrum must contain 0")
    delta = len(a) / g.order
    if len(out) > alpha ** -2 * delta ** -1 * (1 + 1e-9):
        raise InvariantError("trivial bound violated")
    return out


def _signed_sum_counts(g: GroupSpec, elems: list[Elem]) -> dict[Elem, int]:
    counts: dict[Elem, int] = {groups.zero(g): 1}
    for lam in elems:
        nxt: dict[Elem, int] = {}
        neg = groups.op_neg(g, lam)
        for s, c in counts.items():
            for t in (s, groups.op_add(g, s, lam), groups.op_add(g, s, neg)):
                nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return counts


def dissociated_test(l_set: GSet) -> bool:
    """True iff sum eps_j lam_j = 0 with eps in {-1,0,1} forces eps = 0.

    Meet-in-the-middle over the two halves; counts the solutions of
    s1 + s2 = 0 and compares with the single trivial one.
    """
    elems = list(l_set.elems)
    t = len(elems)
    if t == 0:
        return True
    if t > DISSOCIATED_CAP:
        raise CapExceededError(f"dissociated test capped at {DISSOCIATED_CAP} elements")
    g = l_set.group
    half = t // 2
    left = _signed_sum_counts(g, elems[:half])
    right = _signed_sum_counts(g, elems[half:])
    solutions = 0
    for s, c in left.items():
        other = right.get(groups.op_neg(g, s))
        if other:
            solutions += c * other
            if solutions > 1:
                return False
    return solutions == 1


def dim_exact(q: GSet, cap: int = DIM_EXACT_CAP) -> int:
    """Size of the largest dissociated subset, by decreasing-size sweep."""
    if len(q) > cap:
        raise CapExceededError(f"dim_exact capped at {cap} elements")
    elems = list(q.elems)
    for size in range(len(elems), 0, -1):
        for combo in itertools.combinations(elems, size):
            if dissociated_test(GSet(q.group, combo)):
                return size
    return 0


def dim_greedy(q: GSet) -> int:
    """Greedy maximal dissociated subset size; never exceeds dim_exact."""
    kept: list[Elem] = []
    for e in q.elems:
        if dissociated_test(GSet(q.group, kept + [e])):
            kept.append(e)
    return len(kept)


def spectrum_energy_t_k(l_set: GSet, k: int) -> int:
    """T_k of a dual subset viewed as a plain set."""
    if k < 2:
        raise ValueError("spectral T_k is used with k >= 2")
    return moments.t_k(l_set, k)


def energy_via_spectrum(a: GSet, k: int) -> float:
    """E_2k by direct summation over zero-sum dual tuples (tiny N only).

    sum over r_1 + ... + r_2k = 0 of prod |A^(r_i)|^2, divided by N^(2k-1).
    """
    g = a.group
    n = g.order
    if n ** (2 * k - 1) > 4_000_000:
        raise CapExceededError("zero-sum dual enumeration is desk-scale only")
    mags2 = np.abs(dft(a).array) ** 2
    total = 0.0
    for rs in itertools.product(groups.enumerate_elements(g), repeat=2 * k - 1):
        last = groups.op_neg(g, _sum_elems(g, rs))
        prod = mags2[last]
        for r in rs:
            prod *= mags2[r]
        total += prod
    return total / n ** (2 * k - 1)


def _sum_elems(g: GroupSpec, rs: Iterable[Elem]) -> Elem:
    acc = groups.zero(g)
    for r in rs:
        acc = groups.op_add(g, acc, r)
    return acc
