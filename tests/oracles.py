"""Brute-force oracles, independent of the package internals.

Everything here works on plain python tuples with explicit loops over
tuples of elements; no convolution tables, no FFT, no packed arrays.  The
pinned acceptance values are recomputed through these before the main
implementation is trusted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def normalize(group_moduli, x):
    """Reduce a coordinate tuple; group_moduli None means the lattice."""
    if group_moduli is None:
        return tuple(x)
    return tuple(c % n for c, n in zip(x, group_moduli))


def add(mods, x, y):
    return normalize(mods, tuple(a + b for a, b in zip(x, y)))


def sub(mods, x, y):
    return normalize(mods, tuple(a - b for a, b in zip(x, y)))


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


def oracle_energy_pair(mods, a, b):
    sums = {}
    for u in a:
        for v in b:
            x = add(mods, u, v)
            sums[x] = sums.get(x, 0) + 1
    return sum(c ** 2 for c in sums.values())


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


def oracle_magnification(mods, a, b):
    """Plain full enumeration over every nonempty subset, no pruning."""
    a = sorted(a)
    best = None
    witness = None
    for r in range(1, len(a) + 1):
        for z in itertools.combinations(a, r):
            plus = {add(mods, x, y) for x in b for y in z}
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
