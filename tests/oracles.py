"""Brute-force oracles, independent of the package internals.

Everything here works on plain python tuples with explicit loops over
tuples of elements; no convolution tables, no packed arrays.  The pinned
acceptance values are recomputed through these before the main
implementation is trusted.  Two oracles are numeric: a cyclic Jacobi
eigensolver cross-checks the LAPACK spectra of the pattern Grams, and the
float operator f -> psi . (phi^c^ * f) on a cyclic product, a dense complex
FFT, holds the bilinear-form identity of acceptance criterion 4.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def normalize(group_moduli, x):
    """Reduce a coordinate tuple; group_moduli None means the lattice."""
    if group_moduli is None:
        return tuple(x)
    return tuple(c % n for c, n in zip(x, group_moduli))


def add(mods, x, y):
    return normalize(mods, tuple(a + b for a, b in zip(x, y)))


def sub(mods, x, y):
    return normalize(mods, tuple(a - b for a, b in zip(x, y)))


def from_flat(mods, idx):
    """The element of rank idx in the lexicographic order of a cyclic product."""
    coords = []
    for n in reversed(mods):
        coords.append(idx % n)
        idx //= n
    return tuple(reversed(coords))


def enumerate_elements(mods):
    """Every element of a cyclic product, in lexicographic order."""
    return itertools.product(*(range(n) for n in mods))


def character(mods, xi, x):
    """e(-xi.x) with xi.x = sum_i xi_i x_i / n_i."""
    phase = sum((a * b) / n for a, b, n in zip(xi, x, mods))
    return cmath.exp(-2j * math.pi * phase)


def energy_via_spectrum(mods, a, k):
    """E_2k(A) as N^(1 - 2k) times the sum of prod_i |A^(r_i)|^2 over the
    dual tuples r_1 + ... + r_2k = 0, each A^(r) a character sum (tiny N only)."""
    dual = list(enumerate_elements(mods))
    zero = (0,) * len(mods)
    mags2 = {r: abs(sum(character(mods, r, x) for x in a)) ** 2 for r in dual}
    total = 0.0
    for rs in itertools.product(dual, repeat=2 * k - 1):
        last = zero
        for r in rs:
            last = sub(mods, last, r)
        prod = mags2[last]
        for r in rs:
            prod *= mags2[r]
        total += prod
    return total / math.prod(mods) ** (2 * k - 1)


def zero_sum_supports(mods, elems):
    """The supports, as bitmasks over the positions, of every nonzero eps in
    {-1, 0, 1}^t with sum_j eps_j lam_j = 0: all 3^t signed sums are
    enumerated, one element at a time."""
    elems = list(elems)
    sums = [((0,) * len(elems[0]) if elems else (), 0)]
    for j, lam in enumerate(elems):
        neg = tuple(-c for c in lam)
        sums = [entry for s, m in sums
                for entry in ((s, m), (add(mods, s, lam), m | 1 << j), (add(mods, s, neg), m | 1 << j))]
    return {m for s, m in sums if m and not any(s)}


def dimensions(mods, elems):
    """(largest dissociated subset size, greedy dissociated size), over every
    subset: a subset is dissociated iff it holds no zero-sum support.  The
    greedy pass keeps each element, in the given order, that leaves the kept
    ones dissociated."""
    supports = zero_sum_supports(mods, elems)
    free = [mask for mask in range(1 << len(elems)) if not any(z & ~mask == 0 for z in supports)]
    kept = 0
    for j in range(len(elems)):
        if kept | 1 << j in free:
            kept |= 1 << j
    return max(bin(mask).count("1") for mask in free), bin(kept).count("1")


def elems_of(a):
    """Set of coordinate tuples from a GSet-like or iterable of ints/tuples."""
    out = set()
    for e in a:
        out.add(tuple(e) if not isinstance(e, int) else (e,))
    return out


def corr_counts(mods, a, b):
    """r(x) = #{(u, v) in A x B : v - u = x}."""
    counts = {}
    for u in a:
        for v in b:
            x = sub(mods, v, u)
            counts[x] = counts.get(x, 0) + 1
    return counts


def oracle_energy_k(mods, a, k):
    counts = corr_counts(mods, a, a)
    return sum(c ** k for c in counts.values())


def sum_counts(mods, a, b):
    """(A*B)(x) = #{(u, v) in A x B : u + v = x}."""
    sums = {}
    for u in a:
        for v in b:
            x = add(mods, u, v)
            sums[x] = sums.get(x, 0) + 1
    return sums


def oracle_energy_pair(mods, a, b):
    return sum(c ** 2 for c in sum_counts(mods, a, b).values())


def oracle_shift_defect(mods, a, b, t):
    """sum_x ((A*B)(x) - (A*B)(x+t))^2, by definition: over every x at which
    either term is nonzero."""
    c = sum_counts(mods, a, b)
    points = set(c) | {sub(mods, x, t) for x in c}
    return sum((c.get(x, 0) - c.get(add(mods, x, t), 0)) ** 2 for x in points)


def oracle_sequence_defect(mods, seq, a, b, k):
    """sum_y (|A| c(y) - k d(y))^2 with c(y) = #{(i, v) : s_i + v = y, v in B}
    over the sequence (repeats counted) and d = A*B."""
    c = sum_counts(mods, seq, b)   # seq is a list, so a repeated s_i counts twice
    d = sum_counts(mods, a, b)
    n = len(a)
    return sum((n * c.get(y, 0) - k * d.get(y, 0)) ** 2 for y in set(c) | set(d))


def oracle_first_configuration(mods, target, coeffs):
    """First (x, d), d != 0, in lexicographic order with every x + c d in target."""
    elems = list(itertools.product(*(range(n) for n in mods)))
    for x in elems:
        for d in elems[1:]:   # elems[0] is zero
            if all(add(mods, x, tuple(c * di for di in d)) in target for c in coeffs):
                return x, d
    return None


def oracle_energy_k_pair(mods, a, b, k):
    ca = corr_counts(mods, a, a)
    cb = corr_counts(mods, b, b)
    return sum(v * cb.get(x, 0) ** (k - 1) for x, v in ca.items())


def oracle_t_k(mods, a, k):
    sums = {}
    for tup in itertools.product(sorted(a), repeat=k):
        s = tup[0]
        for t in tup[1:]:
            s = add(mods, s, t)
        sums[s] = sums.get(s, 0) + 1
    return sum(c ** 2 for c in sums.values())


def oracle_sigma_k(mods, a, k):
    zero = (0,) * len(next(iter(a)))
    total = 0
    for tup in itertools.product(sorted(a), repeat=k):
        s = tup[0]
        for t in tup[1:]:
            s = add(mods, s, t)
        if s == zero:
            total += 1
    return total


def oracle_delta_sumset(mods, sets, b, sign):
    """A_1 x ... x A_k -+ Delta(B) as an explicit set of tuple-of-tuples."""
    out = set()
    op = sub if sign == "-" else add
    for bb in b:
        for tup in itertools.product(*[sorted(s) for s in sets]):
            out.add(tuple(op(mods, t, bb) for t in tup))
    return out


def oracle_d_k(mods, a, k):
    return len(oracle_delta_sumset(mods, [a] * k, a, "-"))


def oracle_s_k(mods, a, k):
    return len(oracle_delta_sumset(mods, [a] * k, a, "+"))


def oracle_magnification(mods, a, b, k=1):
    """min |B^k + Delta(Z)| / |Z| by plain full enumeration over every
    nonempty subset Z of A, no pruning."""
    a = sorted(a)
    best = None
    witness = None
    for r in range(1, len(a) + 1):
        for z in itertools.combinations(a, r):
            plus = {tuple(add(mods, x, y) for x in xs)
                    for xs in itertools.product(b, repeat=k) for y in z}
            ratio = Fraction(len(plus), len(z))
            if best is None or ratio < best:
                best = ratio
                witness = z
    return best, witness


def oracle_slice(mods, a, s):
    """A n (A - s_1) n ... by literal membership tests."""
    out = set(a)
    for si in s:
        out = {x for x in out if add(mods, x, si) in a}
    return out


def oracle_slice_energy(mods, a, k):
    """sum over (k-1)-tuples s of |A_s|^2, enumerating s over (A - A)^(k-1)."""
    diffs = sorted(corr_counts(mods, a, a))
    total = 0
    for s in itertools.product(diffs, repeat=k - 1):
        total += len(oracle_slice(mods, a, s)) ** 2
    return total


def oracle_pair_slice_sum(mods, a, k, l):
    """sum over s, t of E(A_s, A_t) with honest slice construction."""
    diffs = sorted(corr_counts(mods, a, a))
    total = 0
    for s in itertools.product(diffs, repeat=k - 1):
        a_s = oracle_slice(mods, a, s)
        if not a_s:
            continue
        for t in itertools.product(diffs, repeat=l - 1):
            a_t = oracle_slice(mods, a, t)
            if not a_t:
                continue
            total += oracle_energy_pair(mods, a_s, a_t)
    return total


def oracle_gram_2x2_eigs(g00, g01, g11):
    """Closed-form eigenvalues of [[g00, g01], [g01, g11]]."""
    tr = g00 + g11
    disc = ((g00 - g11) ** 2 + 4 * g01 ** 2) ** 0.5
    return (tr + disc) / 2, (tr - disc) / 2


def kronecker_convolve(mods, f, g):
    """(f * g)(x) = sum_y f(y) g(x - y) for dicts {coordinate tuple: count >= 0}.

    Kronecker substitution: each function becomes one Python integer with a
    fixed-width slot per point of the output box, so one exact integer
    product holds every convolution value in its own slot.  Cyclic results
    are reduced mod the moduli afterwards.
    """
    f = {x: v for x, v in f.items() if v}
    g = {x: v for x, v in g.items() if v}
    if not f or not g:
        return {}
    dim = len(next(iter(f)))
    flo = [min(x[i] for x in f) for i in range(dim)]
    glo = [min(x[i] for x in g) for i in range(dim)]
    spans = [max(x[i] for x in f) - flo[i] + max(x[i] for x in g) - glo[i] + 1
             for i in range(dim)]
    strides = [1] * dim
    for i in range(dim - 2, -1, -1):
        strides[i] = strides[i + 1] * spans[i + 1]
    slots = strides[0] * spans[0]
    bound = min(sum(f.values()) * max(g.values()), sum(g.values()) * max(f.values()))
    width = bound.bit_length() // 8 + 1          # bytes per slot; no slot carries

    def pack(h, lo):
        buf = bytearray(width * slots)
        for x, v in h.items():
            pos = sum((x[i] - lo[i]) * strides[i] for i in range(dim))
            buf[pos * width:(pos + 1) * width] = v.to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    raw = (pack(f, flo) * pack(g, glo)).to_bytes(width * slots, "little")
    out = {}
    for pos in range(slots):
        v = int.from_bytes(raw[pos * width:(pos + 1) * width], "little")
        if v:
            x = tuple(pos // strides[i] % spans[i] + flo[i] + glo[i] for i in range(dim))
            x = normalize(mods, x)
            out[x] = out.get(x, 0) + v
    return out


def kronecker_sum_counts(mods, a, k):
    """r_{kA}(x) = #{(a_1..a_k) in A^k : a_1 + ... + a_k = x}, as a dict."""
    ind = {x: 1 for x in a}
    counts = ind
    for _ in range(k - 1):
        counts = kronecker_convolve(mods, counts, ind)
    return counts


def is_convex(xs):
    """Whether the sorted integers xs have strictly increasing gaps (at most
    two points always do): the convex generator's oracle."""
    gaps = [y - x for x, y in zip(xs, xs[1:])]
    return all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


# The operator (T^phi_psi f)(x) = psi(x) (phi^c^ * f)(x) on a cyclic product
# with the given moduli.  Every function is a dense vector of the product's
# elements in row-major (lexicographic) order, and a set E is the list of
# its elements' ranks in that order.


def _group_fft(mods, f):
    return np.fft.fftn(np.reshape(np.asarray(f, dtype=np.complex128), mods)).ravel()


def _reflect(mods, f):
    """x -> f(-x) on the cyclic product."""
    return np.roll(np.flip(np.reshape(f, mods)), 1, axis=tuple(range(len(mods)))).ravel()


def operator_apply(mods, phi, psi, f):
    """psi . (phi^c^ * f) as a dense complex vector."""
    kernel = _group_fft(mods, _reflect(mods, phi))   # phi^c^
    conv = np.fft.ifftn(np.reshape(_group_fft(mods, kernel) * _group_fft(mods, f), mods)).ravel()
    return np.asarray(psi) * conv


def restricted_matrix(mods, phi, e_idx):
    """Matrix of the operator restricted to functions supported on E: entry
    (i, j) is the kernel phi^c^ at x_i - x_j, the difference taken in the
    product, coordinate by coordinate."""
    kernel = _group_fft(mods, _reflect(mods, phi))
    x = np.array(np.unravel_index(np.asarray(e_idx, dtype=np.int64), mods)).reshape(len(mods), -1)
    diffs = (x[:, :, None] - x[:, None, :]) % np.array(mods).reshape(-1, 1, 1)
    return kernel[np.ravel_multi_index(tuple(diffs), mods)]


def bilinear_residual(mods, phi, e_idx, u, v):
    """Relative residual of <T^phi_E u, v> = sum_x phi(x) u^(x) conj(v^(x))
    for u, v supported on E, psi the indicator of E."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    psi = np.zeros(math.prod(mods))
    psi[list(e_idx)] = 1.0
    if np.abs(u[psi == 0]).max(initial=0.0) > 0 or np.abs(v[psi == 0]).max(initial=0.0) > 0:
        raise ValueError("u and v must be supported on E")
    lhs = complex(np.vdot(v, operator_apply(mods, phi, psi, u)))
    rhs = complex((np.asarray(phi) * _group_fft(mods, u) * np.conj(_group_fft(mods, v))).sum())
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def oracle_int_set(a):
    return sorted(set(int(x) for x in a))


def oracle_quotient_counts(a):
    """r_{A/A}(q) for every quotient q, as {Fraction: count}."""
    xs = oracle_int_set(a)
    if 0 in xs:
        raise ValueError("quotient set needs 0 not in A")
    counts = {}
    for x in xs:
        for y in xs:
            q = Fraction(x, y)
            counts[q] = counts.get(q, 0) + 1
    return counts


def oracle_mult_energy_k(a, k):
    return sum(c ** k for c in oracle_quotient_counts(a).values())


def oracle_prodset_size(a):
    xs = oracle_int_set(a)
    return len({x * y for x in xs for y in xs})


def oracle_quotset_size(a):
    return len(oracle_quotient_counts(a))


def oracle_prod_plus_size(a):
    """|AA + A|."""
    xs = oracle_int_set(a)
    prods = sorted({x * y for x in xs for y in xs})
    return len({p + x for p in prods for x in xs})


def oracle_prod_of_sums_size(a):
    """|A(A + A)|."""
    xs = oracle_int_set(a)
    sums = sorted({x + y for x in xs for y in xs})
    return len({x * s for x in xs for s in sums})


def oracle_subgroup_cosets(p, members):
    """All cosets x Gamma of a multiplicative subgroup of Z/p, each sorted,
    ordered by smallest member, by a walk over 1..p-1."""
    seen = set()
    cosets = []
    for x in range(1, p):
        if x in seen:
            continue
        coset = sorted((x * m) % p for m in members)
        seen.update(coset)
        cosets.append(coset)
    return cosets


def oracle_is_mult_closed(p, members):
    """Whether a set of residues mod p is closed under multiplication, by
    trying every product."""
    ms = set(members)
    return all((x * y) % p in ms for x in ms for y in ms)


class EigenConvergenceError(RuntimeError):
    pass


def jacobi_eigenvalues(matrix: np.ndarray, rel_tol: float = 1e-10,
                       max_sweeps: int = 64) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic-by-rows Jacobi.

    Deterministic sweep order; stops when the off-diagonal Frobenius mass
    drops below rel_tol * ||matrix||_F.  Returns values sorted descending.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return a.ravel().copy()
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n)
    thresh = rel_tol * norm
    rotate_floor = thresh / (n * n)
    for _ in range(max_sweeps):
        hollow = a.copy()
        np.fill_diagonal(hollow, 0.0)
        if float(np.linalg.norm(hollow)) <= thresh:
            return np.sort(np.diag(a))[::-1].copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= rotate_floor:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    raise EigenConvergenceError(f"Jacobi did not converge in {max_sweeps} sweeps")
