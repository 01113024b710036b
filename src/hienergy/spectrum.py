"""Discrete Fourier analysis on cyclic products: spectra (built once per set and
kept on it as ``"dft"``, read-only), large-spectrum sets, dissociativity and dimension."""

from __future__ import annotations

import math

import numpy as np

from . import groups
from .groups import GroupSpec, InvariantError
from .gset import GSet, _firsts, as_rows, row_keys
from .setops import CapExceededError

PARSEVAL_RTOL = 1e-9
DISSOCIATED_CAP = 26
DIM_EXACT_CAP = 20


def dft(a: GSet) -> np.ndarray:
    """1_A^(xi) = sum_{x in A} e(-xi.x) over the dual (identified with G), as
    the complex array shaped by the moduli; kept on the set, read-only."""
    if not a.group.is_cyclic:
        raise groups.GroupError("the DFT needs a finite cyclic product")
    return a.kept("dft", lambda: _dft(a))


def _dft(a: GSet) -> np.ndarray:
    """``dft``'s build: FFT-factorized over the moduli, checked against Parseval."""
    arr = np.fft.fftn(a.indicator().astype(np.float64))
    lhs = float(len(a))   # sum of the indicator's squares, exact in float64
    rhs = float((np.abs(arr) ** 2).sum()) / a.group.order
    if not math.isclose(lhs, rhs, rel_tol=PARSEVAL_RTOL, abs_tol=1e-12):
        raise InvariantError(f"Parseval check failed: {lhs} vs {rhs}")
    arr.flags.writeable = False
    return arr


def large_spectrum(a: GSet, alpha: float) -> GSet:
    """R_alpha(A) = {r : |A^(r)| >= alpha |A|} as a subset of the dual."""
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    g = a.group
    mags = np.abs(dft(a))
    thresh = alpha * len(a) - 1e-9 * max(1, len(a))
    out = GSet(g, np.argwhere(mags >= thresh))   # row-major is lexicographic
    if len(out) == 0 or out.coords[0].any():
        raise InvariantError("large spectrum must contain 0")
    delta = len(a) / g.order
    if len(out) > alpha ** -2 * delta ** -1 * (1 + 1e-9):
        raise InvariantError("trivial bound violated")
    return out


def _signed_sums(g: GroupSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sums sum_j eps_j lam_j, eps in {-1,0,1}^t, over the rows
    lam_j, as sorted rows with their counts.  Each row extends the sums by
    {0, +lam, -lam}; repeats merge by one sort of their keys."""
    sums, counts = np.zeros((1, g.dim), dtype=np.int64), np.ones(1, dtype=np.int64)
    for lam in rows:
        sums, counts = np.concatenate([sums, sums + lam, sums - lam]), np.tile(counts, 3)
        if g.is_cyclic:
            sums %= np.array(g.moduli, dtype=np.int64)
        keys = row_keys(g, sums)
        order = np.argsort(keys, kind="stable")
        keys, sums, counts = keys[order], sums[order], counts[order]
        starts = np.flatnonzero(_firsts(keys))
        sums, counts = sums[starts], np.add.reduceat(counts, starts)
    return sums, counts


def _dissociated(g: GroupSpec, rows: np.ndarray) -> bool:
    """Meet in the middle: count the solutions of s1 + s2 = 0 with s1, s2
    signed sums of the two halves; only eps = 0 may solve it."""
    t = len(rows)
    if t > DISSOCIATED_CAP:
        raise CapExceededError(f"dissociated test capped at {DISSOCIATED_CAP} elements")
    half = t // 2
    # a signed sum of the larger half, or a cyclic row plus or minus another, stays in int64
    if (t - half) * int(np.abs(rows).max(initial=0)) >= 1 << 62:
        raise CapExceededError("signed sums of these coordinates could leave int64")
    left, left_counts = _signed_sums(g, rows[:half])
    right, right_counts = _signed_sums(g, rows[half:])
    want = row_keys(g, as_rows(g, -left))
    keys = row_keys(g, right)
    at = np.searchsorted(keys, want).clip(max=len(keys) - 1)
    hit = keys[at] == want
    return int((left_counts[hit] * right_counts[at[hit]]).sum()) == 1


def dissociated_test(l_set: GSet) -> bool:
    """True iff sum eps_j lam_j = 0 with eps in {-1,0,1} forces eps = 0."""
    return _dissociated(l_set.group, l_set.coords)


def dim_exact(q: GSet) -> int:
    """Size of the largest dissociated subset, by depth-first search over
    dissociated subsets only (a subset of a dissociated set is dissociated),
    pruned once the rows left cannot beat the best size found."""
    if len(q) > DIM_EXACT_CAP:
        raise CapExceededError(f"dim_exact capped at {DIM_EXACT_CAP} elements")
    rows, best = q.coords, 0

    def grow(chosen: list[int]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for i in range(chosen[-1] + 1 if chosen else 0, len(rows)):
            if len(chosen) + len(rows) - i <= best:
                return
            if _dissociated(q.group, rows[chosen + [i]]):
                grow(chosen + [i])

    grow([])
    return best


def dim_greedy(q: GSet) -> int:
    """Greedy maximal dissociated subset size; never exceeds dim_exact."""
    kept: list[int] = []
    for i in range(len(q)):
        if _dissociated(q.group, q.coords[kept + [i]]):
            kept.append(i)
    return len(kept)
