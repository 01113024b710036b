"""The verification registry: every identity and inequality in scope is a
named check producing a CheckResult, and the suite runner sweeps families of
generated or supplied sets.

Hard checks (unconditional theorems with explicit constants) must never
fail; ratio checks measure the implied constant of a <</>> statement and
only assert finiteness here, with trend assertions applied by sweep
drivers.  Exact integer comparisons are used wherever both sides are
integers (cross-multiplied where the statement divides)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import eigen, extract, genset, groups, moments, setops, spectrum
from .groups import Elem
from .gset import GSet, as_rows, full_group, row_keys, sum_rows
from .setops import DEFAULT_CAPS, MINUS, PLUS, Caps

REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass
class CheckResult:
    check_id: str
    inputs: dict
    lhs: float
    rhs: float
    relation: str              # '=', '<=', '>='
    passed: bool
    ratio: float
    hard: bool = True
    witness: object = None
    tolerance: float = 0.0


def _ratio(lhs, rhs) -> float:
    lhs, rhs = float(lhs), float(rhs)
    if rhs == 0.0:
        return 1.0 if lhs == 0.0 else float("inf")
    return lhs / rhs


def _verdict(lhs, rhs, relation: str, tolerance: float) -> bool:
    if tolerance == 0.0 and isinstance(lhs, int) and isinstance(rhs, int):
        if relation == "=":
            return lhs == rhs
        return lhs <= rhs if relation == "<=" else lhs >= rhs
    lhs, rhs = float(lhs), float(rhs)
    slack = max(tolerance * max(abs(lhs), abs(rhs)), ABS_TOL)
    if relation == "=":
        return abs(lhs - rhs) <= slack
    if relation == "<=":
        return lhs <= rhs + slack
    return lhs >= rhs - slack


def _res(check_id: str, inputs: dict, lhs, rhs, relation: str, *, hard=True,
         tolerance=0.0, witness=None, passed=None) -> CheckResult:
    if passed is None:
        passed = _verdict(lhs, rhs, relation, tolerance)
    return CheckResult(check_id=check_id, inputs=inputs, lhs=float(lhs), rhs=float(rhs),
                       relation=relation, passed=bool(passed), ratio=_ratio(lhs, rhs),
                       hard=hard, witness=witness, tolerance=tolerance)


def _summary(a: GSet, name: str = "A") -> dict:
    return {name: {"group": str(a.group), "size": len(a)}}


# ---------------------------------------------------------------------------
# honest slice enumeration (the oracle side of the slice identities)


def slice_corr_sums(a: GSet, depth: int) -> Mapping[Elem, int]:
    """F_depth(x) = sum over s in G^depth of (A_s o A_s)(x), evaluated by
    explicit translate intersections: pairs (u, v) of A contribute
    |(A-u) n (A-v)|^depth at x = v - u.  Kept on A per depth, read-only."""
    return a.kept(("F", depth), lambda: MappingProxyType(_slice_corr_sums(a, depth)))


def _slice_corr_sums(a: GSet, depth: int) -> dict[Elem, int]:
    if not a:
        return {}
    n = len(a)
    # row u n + v is v - u: the translate A - u lists its points in rows u n .. u n + n - 1
    rows = sum_rows(a.group, a.coords[None, :], a.coords[:, None], minus=True)
    _, first, point = np.unique(row_keys(a.group, rows), return_index=True, return_inverse=True)
    points = rows[first]
    holds = np.zeros((len(points), n), dtype=bool)   # holds[p, u]: point p lies in A - u
    holds[point, np.repeat(np.arange(n), n)] = True
    inter = moments._exact_product(holds.T, holds, n)   # |(A-u) n (A-v)| <= |A|
    sums = np.zeros(len(points), dtype=object)
    np.add.at(sums, point, inter.ravel().astype(object) ** depth)
    # keys in the order a loop over pairs (u, v) meets them: float sums over the dict follow it
    return {tuple(points[p].tolist()): sums[p] for p in np.argsort(first)}


def _pair_energy_materialized(a: GSet, b: GSet, k: int, caps: Caps) -> int:
    """E(Delta(A), B^k) by materializing both tuple sets and counting
    coincident sums, independent of the correlation-table route."""
    sums = setops._translate_grid([b] * k, a, PLUS, caps)
    _, counts = np.unique(sums, return_counts=True)
    return int((counts.astype(object) ** 2).sum())


# ---------------------------------------------------------------------------
# basic moment inequalities and identities


def check_c1(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    d = setops.diffset(a, a)
    lhs = len(a) ** (2 * k)
    rhs = moments.energy_k(a, k) * moments.sigma_k(d, k)
    return _res("C1", {**_summary(a), "k": k}, lhs, rhs, "<=")


def check_c2(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    s = setops.sumset(a, a)
    lhs = len(a) ** (4 * k)
    rhs = moments.energy_k(a, 2 * k) * moments.t_k(s, k)
    return _res("C2", {**_summary(a), "k": k}, lhs, rhs, "<=")


def check_c3(a: GSet, k: int, sign: str = MINUS, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    side = setops.diffset(a, a) if sign == MINUS else setops.sumset(a, a)
    lhs = len(a) ** (2 * k + 4)
    rhs = moments.energy_k(a, k + 2) * moments.energy_k(side, k)
    return _res("C3", {**_summary(a), "k": k, "sign": sign}, lhs, rhs, "<=")


def check_c4(a: GSet, k: int, l: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    fk = slice_corr_sums(a, k - 1)
    fl = fk if l == k else slice_corr_sums(a, l - 1)
    lhs = sum(v * fl.get(x, 0) for x, v in fk.items())
    rhs = moments.energy_k(a, k + l)
    return _res("C4", {**_summary(a), "k": k, "l": l}, lhs, rhs, "=")


def check_c5(a: GSet, b: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    lhs = moments.energy_k_pair(a, b, k + 1)
    rhs = _pair_energy_materialized(a, b, k, caps)
    return _res("C5", {**_summary(a), **_summary(b, "B"), "k": k}, lhs, rhs, "=")


def check_c6(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    lhs = len(a) ** (2 * k + 2)
    rhs = setops.d_k(a, k, caps) * moments.energy_k(a, k + 1)
    return _res("C6", {**_summary(a), "k": k}, lhs, rhs, "<=")


def check_c7(sets: Sequence[GSet], caps: Caps = DEFAULT_CAPS) -> CheckResult:
    k = len(sets)
    lhs = setops.delta_sumset(list(sets[:-1]), sets[-1], MINUS, caps)
    bound_a = math.prod(len(s) for s in sets)
    bound_b = math.prod(len(setops.diffset(s, sets[-1])) for s in sets[:-1])
    rhs = min(bound_a, bound_b)
    return _res("C7", {"sizes": [len(s) for s in sets], "k": k}, lhs, rhs, "<=")


def check_c8(a: GSet, alpha: float, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    g = a.group
    lam = GSet(g, spectrum.large_spectrum(a, alpha).coords[1:])   # row 0 is the zero frequency
    lhs = moments.t_k(lam, k) if lam else 0
    delta = len(a) / g.order
    rhs = delta * alpha ** (2 * k) * len(lam) ** (2 * k)
    return _res("C8", {**_summary(a), "alpha": alpha, "k": k, "lam": len(lam)},
                lhs, rhs, ">=", tolerance=REL_TOL)


def check_c9(a: GSet, alpha: float, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """|Lambda| <= alpha^-3 delta^-1 (kappa - delta^(2k-1))^(1/(2k)) for the
    nonzero large spectrum Lambda = R_alpha(A) minus 0 (as in C8), where
    kappa = E_2k(A)/|A|^(2k+1).  With h = A o A - delta|A|, h^(r) = |A^(r)|^2
    for r != 0 but h^(0) = 0, so Parseval holds only off 0: alpha^2 |A|^2
    |Lambda| <= sum_{r in Lambda} h^(r) = sum_x h(x) Lambda^v(x).  Hoelder
    (2k and q = 2k/(2k-1), |Lambda^v|_q <= N^(1/q) |Lambda|^(1/2)) and
    |h|_2k^2k <= E_2k(A) - N m^2k = |A|^(2k+1)(kappa - delta^(2k-1)), from
    (m e)^2k <= m^2k ((1+e)^2k - 1 - 2k e) at A o A = m(1+e), m = delta|A|,
    give |Lambda|^(1/2) <= alpha^-2 delta^(1/(2k)-1) (kappa -
    delta^(2k-1))^(1/(2k)); times |Lambda|^(1/2) <= alpha^-1 delta^(-1/2)
    (Parseval) that is the bound at k = 1.  At k >= 2 these steps give
    delta^(1/(2k)-3/2), and the stated delta^-1 is checked as it stands.
    Counting 0 cannot hold: for A = G the right side is 0, yet 0 is in R_alpha.
    """
    g = a.group
    delta = len(a) / g.order
    kappa = float(moments.energy_k(a, 2 * k)) / len(a) ** (2 * k + 1)
    inner = max(0.0, kappa - delta ** (2 * k - 1))
    rhs = alpha ** -3 / delta * inner ** (1 / (2 * k))
    lhs = len(spectrum.large_spectrum(a, alpha)) - 1   # large_spectrum always holds 0
    return _res("C9", {**_summary(a), "alpha": alpha, "k": k}, lhs, rhs, "<=",
                tolerance=REL_TOL)


def check_c10(a: GSet, k: int, primed: bool = False, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    delta = len(a) / a.group.order
    kap = lambda j: float(moments.energy_k(a, j)) / len(a) ** (j + 1)
    if primed:
        inner = max(0.0, kap(k) - delta * kap(k - 1))
    else:
        inner = max(0.0, kap(k) - delta ** (k - 1)) / k
    rhs = math.sqrt(inner) * len(a)
    lhs = float(np.abs(spectrum.dft(a)).ravel()[1:].max())   # entry 0 is xi = 0
    cid = "C10p" if primed else "C10"
    return _res(cid, {**_summary(a), "k": k}, lhs, rhs, ">=", tolerance=REL_TOL)


def check_c11(sets: dict, variant: str, m: int = 1, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    if variant == "tri1":
        w, x, y, z = sets["W"], sets["X"], sets["Y"], sets["Z"]
        lhs = len(w) * len(x) * len(setops.diffset(y, z))
        rhs = setops.delta_sumset([y, w, z], x, MINUS, caps)
        inputs = {"variant": variant, "sizes": [len(w), len(x), len(y), len(z)]}
    elif variant == "tri2":
        a1, a2, a3, b = sets["A1"], sets["A2"], sets["A3"], sets["B"]
        chain = [a1, a2, a3]
        lhs = setops.delta_sumset(chain, b, MINUS, caps)
        left = setops.delta_sumset(chain[:m], chain[m], MINUS, caps)
        right = setops.delta_sumset(chain[m:], b, MINUS, caps)
        rhs = left * right
        inputs = {"variant": variant, "m": m, "sizes": [len(s) for s in chain + [b]]}
    elif variant == "eq":
        a1, a2, x, z = sets["A1"], sets["A2"], sets["X"], sets["Z"]
        lhs = setops.delta_sumset([a1, a2, z], x, MINUS, caps)
        rhs = setops.delta_sumset([a1, a2, x], z, MINUS, caps)
        inputs = {"variant": variant, "sizes": [len(a1), len(a2), len(x), len(z)]}
        return _res("C11", inputs, lhs, rhs, "=")
    else:
        raise ValueError(f"unknown C11 variant {variant!r}")
    return _res("C11", inputs, lhs, rhs, "<=")


def check_c13(a: GSet, n: int, m: int, variant: str, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    d, s, size = (lambda j: setops.d_k(a, j, caps)), (lambda j: setops.s_k(a, j, caps)), len(a)
    if variant == "DS" and m < 2:
        raise ValueError("DS chain needs m >= 2")
    if variant == "DS2" and n < 2:
        raise ValueError("DS2 chain needs n >= 2")
    sides = {"D_lower": lambda: (d(n) * size ** m, d(n + m)),     # each (lhs, rhs) of lhs <= rhs
             "D_upper": lambda: (d(n + m), d(n) * d(m)),
             "S_lower": lambda: (s(n) * size ** m, s(n + m)),
             "S_upper": lambda: (s(n + m), s(n) * min(s(m), d(m))),
             "DS": lambda: (d(n) * size ** m, s(n + m)),
             "DS2": lambda: (d(n - 1) * size ** 2, s(n + 1))}
    if variant not in sides:
        raise ValueError(f"unknown C13 variant {variant!r}")
    lhs, rhs = sides[variant]()
    return _res("C13", {**_summary(a), "n": n, "m": m, "variant": variant}, lhs, rhs, "<=")


def check_c14(b: GSet, a: GSet, k: int, sign: str = MINUS, m: int | None = None,
              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    g = b.group
    n_amb = g.order
    ok, _ = setops.basis_depth_test(b, k, sign, caps)
    inputs = {**_summary(b, "B"), **_summary(a), "k": k, "sign": sign, "m": m}
    if not ok:
        return _res("C14", inputs, 0, 0, ">=", witness="not a basis of the requested depth")
    plus = len(setops.sumset(b, a))
    if m is None:
        lhs = plus ** (k + 1)
        rhs = len(a) * n_amb ** k
    else:
        if m < k:
            raise ValueError("the relaxed bound needs m >= k")
        lhs = plus ** (m + 1)
        rhs = len(b) ** (m - k) * len(a) * n_amb ** k
    return _res("C14", inputs, lhs, rhs, ">=")


def check_c15(sets: Sequence[GSet], caps: Caps = DEFAULT_CAPS) -> CheckResult:
    g = sets[0].group
    amb = full_group(g)
    lhs = setops.delta_sumset(list(sets), amb, MINUS, caps)
    rhs = g.order * setops.delta_sumset(list(sets[:-1]), sets[-1], MINUS, caps)
    return _res("C15", {"sizes": [len(s) for s in sets], "group": str(g)}, lhs, rhs, "=")


def check_c16(a: GSet, b0: GSet, c: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    lhs = len(a) * setops.delta_sumset([b0] * k, c, PLUS, caps)
    rhs = setops.delta_sumset([b0] * k, a, PLUS, caps) * len(setops.sumset(a, c))
    return _res("C16", {**_summary(a), **_summary(b0, "B"), **_summary(c, "C"), "k": k},
                lhs, rhs, "<=")


def check_c17(a: GSet, b: GSet | None = None, c: GSet | None = None,
              variant: str = "power", n: int = 1, m: int = 1, k: int = 1,
              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    inputs = {**_summary(a), "variant": variant, "n": n, "m": m, "k": k}
    if variant == "power":
        r, _ = setops.magnification(a, a, caps)
        lhs = len(setops.iterated(a, n, m))
        rhs, witness = r ** (n + m) * len(a), {"R": str(r)}
    elif variant == "sum3":
        r, x = setops.magnification(a, b, caps)
        lhs = len(setops.sumset(setops.sumset(b, c), x))
        rhs, witness = r * len(setops.sumset(c, x)), {"R": str(r), "X": len(x)}
    elif variant == "delta":
        r, x = setops.magnification_k(a, b, k, caps)
        cx = setops.sumset(c, x)
        lhs = setops.delta_sumset([b] * k, cx, PLUS, caps)
        rhs, witness = r * len(cx), {"R": str(r), "X": len(x)}
    else:
        raise ValueError(f"unknown C17 variant {variant!r}")
    return _res("C17", inputs, lhs, float(rhs), "<=", tolerance=REL_TOL, witness=witness)


def check_c18(a: GSet, b: GSet, k: int, variant: str = "exact",
              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    inputs = {**_summary(a), **_summary(b, "B"), "k": k, "variant": variant}
    if variant == "exact":
        bounds = eigen.magnification_lower_bounds(a, b, k)
        r, _ = setops.magnification_k(a, b, k, caps)
        return _res("C18", inputs, bounds["bound_eig"], float(r), "<=",
                    tolerance=REL_TOL, witness={"R_exact": str(r), **bounds})
    if variant == "sign":
        # (B o B) is symmetric, so Gram(-A, -B) is Gram(A, B) permuted: (-A).coords[i] = -a_p[i]
        pg = eigen.build_gram(a, b, k)
        p = np.argsort(row_keys(a.group, as_rows(a.group, -a.coords)))
        neg = eigen.build_gram(a.negate(), b.negate(), k)
        lhs = int((neg.gram != pg.gram[p][:, p]).sum())
        return _res("C18", inputs, lhs, 0, "=")
    raise ValueError(f"unknown C18 variant {variant!r}")


def check_c19(a: GSet, b: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    lhs = len(a) ** (2 * k) * len(b)
    rhs = len(setops.sumset(a, b)) ** k * moments.energy_k(a, k)
    return _res("C19", {**_summary(a), **_summary(b, "B"), "k": k}, lhs, rhs, "<=")


def check_c20(a: GSet, sign: str = MINUS, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    p_star = extract.popular_set(a)
    member = setops.slice_masks(a, p_star.coords)   # row s: the slice A_s
    mass = int(member.sum())
    whole = np.ones((1, len(a)), dtype=bool)   # the family {A}: |A -+ A_s| = |A_s -+ A|
    moved_total = int(setops.family_sumset_sizes(a, member, whole, sign).sum())
    e3 = moments.energy_k(a, 3)
    lhs = moved_total * e3
    rhs = mass ** 2 * len(a) ** 2  # eta^2 |A|^6 / E_3 with eta = mass/|A|^2
    return _res("C20", {**_summary(a), "sign": sign, "P": len(p_star)}, lhs, rhs, ">=")


def check_c21(a: GSet, l: int, variant: str = "diff", caps: Caps = DEFAULT_CAPS) -> CheckResult:
    e3 = moments.energy_k(a, 3)
    tl = moments.t_k(a, l)
    inputs = {**_summary(a), "l": l, "variant": variant}
    if variant == "diff":
        d = len(setops.diffset(a, a))
        lhs = len(a) ** (8 * l)
        rhs = 8 ** l * e3 ** l * tl * d ** (2 * l + 1)
    elif variant == "sum":
        s = len(setops.sumset(a, a))
        lhs = len(a) ** (9 * l)
        rhs = 8 ** l * e3 ** l * tl * s ** (3 * l + 1)
    elif variant == "sum2":
        s = len(setops.sumset(a, a))
        lhs = len(a) ** (20 * l)
        rhs = 32 ** l * e3 ** (3 * l) * tl * s ** (6 * l + 1)
    else:
        raise ValueError(f"unknown C21 variant {variant!r}")
    return _res("C21", inputs, lhs, rhs, "<=")


def check_c22(a: GSet, b: GSet, l: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    mass = sum(moments.correlate(a, a).values_at(b.coords).tolist())
    lhs = mass ** (4 * l)
    rhs = len(a) ** (6 * l - 4) * moments.energy_k(b, l) * moments.energy_k(a, l + 2)
    return _res("C22", {**_summary(a), **_summary(b, "B"), "l": l}, lhs, rhs, "<=")


def check_c24(a: GSet, alpha: float, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    f1 = slice_corr_sums(a, 1)
    points = np.array(list(f1), dtype=np.int64).reshape(-1, a.group.dim)
    pairs = list(zip(f1.values(), moments.correlate(a, a).values_at(points).tolist()))
    exact = float(alpha).is_integer()
    if exact:
        lhs = sum(v * c ** int(alpha) for v, c in pairs)
    else:
        lhs = float(sum(v * float(c) ** alpha for v, c in pairs))
    rhs = moments.energy_k(a, 2 + alpha)
    tol = 0.0 if exact else REL_TOL
    return _res("C24", {**_summary(a), "alpha": alpha}, lhs, rhs, "=", tolerance=tol)


# ---------------------------------------------------------------------------
# subgroup checks


def check_c25(p: int, t: int, k: int = 1, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    gamma = genset.mult_subgroup(p, t)
    rep = eigen.subgroup_eigencheck(gamma, k=k)
    passed = rep.max_at_trivial and rep.connected_ok   # subgroup_eigencheck raises at RESIDUAL_TOL
    return _res("C25", {"p": p, "t": t, "k": k}, rep.measured_max,
                rep.claimed_max, "=", tolerance=1e-8,
                passed=passed, witness={"residual": max(rep.residuals),
                                        "eigenvalues": rep.eigenvalues})


def check_c26(p: int, t: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    gamma = genset.mult_subgroup(p, t)
    q, q1, q2 = (genset.invariant_union(gamma, (i,)) for i in (0, 1, 2))
    lhs = sum(moments.correlate(q1, q2).values_at(q.coords).tolist())
    rhs = t ** (-1 / 3) * (len(q) * len(q1) * len(q2)) ** (2 / 3)
    return _res("C26", {"p": p, "t": t}, lhs, rhs, "<=", hard=False,
                passed=math.isfinite(_ratio(lhs, rhs)))


def check_c27(p: int, t: int, variant: str = "invariant", coset: int = 0,
              sub_frac: float = 1.0, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    gamma = genset.mult_subgroup(p, t)
    gamma_star = genset.invariant_union(gamma, (coset,))
    keep = max(1, int(len(gamma_star) * sub_frac))
    gamma_prime = GSet(gamma.group, gamma_star.coords[:keep])
    if variant == "pred":
        lhs = len(setops.sumset(gamma, gamma_prime))
        rhs = len(gamma_prime) * math.sqrt(t / max(1.0, math.log2(t)))
        return _res("C27", {"p": p, "t": t, "variant": variant}, lhs, rhs, ">=",
                    hard=False, passed=math.isfinite(_ratio(lhs, rhs)))
    q = genset.invariant_union(gamma, (0, 1))
    lhs = len(setops.sumset(q, gamma_prime)) * moments.energy_k_pair(gamma_star, q, 2)
    rhs = len(gamma_prime) * t * len(q) ** 2
    return _res("C27", {"p": p, "t": t, "variant": variant, "coset": coset},
                lhs, rhs, ">=")


def check_c28(x1: GSet, y: GSet, z1: GSet, w: GSet, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    lhs = len(setops.diffset(x1, y)) * len(setops.diffset(z1, w))
    left = setops.diffset(x1, w)
    right = setops.diffset(y, z1)
    rhs = setops.delta_sumset([left, right], setops.diffset(y, w), MINUS, caps)
    return _res("C28", {"sizes": [len(x1), len(y), len(z1), len(w)]}, lhs, rhs, "<=")


def check_c29(b: GSet, k: int, m: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    if not (1 <= m < k):
        raise ValueError("needs 1 <= m < k")
    plus_ok, _ = setops.basis_depth_test(b, k, PLUS, caps)
    inputs = {**_summary(b, "B"), "k": k, "m": m}
    if not plus_ok:
        return _res("C29", inputs, 0, 0, ">=", witness="not a plus-basis of depth k")
    minus_ok, wit = setops.basis_depth_test(b, m, MINUS, caps)
    return _res("C29", inputs, int(minus_ok), 1, ">=",
                witness=None if minus_ok else {"missing": [list(e) for e in wit]})


def cover_threshold(k: int, delta: float) -> int:
    """Smallest n at which a depth-k basis of density delta must cover G.

    Floored at 2 for delta < 1: the raw expression can dip below the true
    minimum for very dense bases, and at its <=2 regime delta > 0.71 forces
    2B = G by pigeonhole."""
    if delta >= 1.0:
        return 1
    if k < 2:
        raise ValueError("the covering threshold needs depth k >= 2")
    inner = math.log2(1.0 / delta) / math.log2((k + 1) / 2)
    if inner <= 0:
        return 2
    bound = 3 + (2 / math.log2(k + 1)) * math.log2(inner)
    return max(2, math.ceil(bound - 1e-9))


def check_c30(b: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    ok, _ = setops.basis_depth_test(b, k, MINUS, caps)
    inputs = {**_summary(b, "B"), "k": k}
    if not ok:
        return _res("C30", inputs, 0, 0, ">=", witness="not a basis of depth k")
    n_amb = b.group.order
    n0 = cover_threshold(k, len(b) / n_amb)
    # nb_cover's partial sums of B shifted to contain 0 grow, so n_star <= n0 gives |n0 B| = N
    n_star = extract.nb_cover(b, cap=max(n0, 8))
    passed = n_star is not None and n_star <= n0
    return _res("C30", inputs, float(n_star if n_star else math.inf), n0, "<=",
                passed=passed, witness={"threshold": n0, "n_star": n_star})


# ---------------------------------------------------------------------------
# pipeline conclusion checks


def check_c31(a: GSet, k: int = 4, trials: int = 200, seed: int = 1,
              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Almost periods (Croot-Sisask type): the size of the period set T that
    `extract.cs_period_search(A, A, k)` returns, every member re-checked
    against the exact 32|A|^3/k budget, against its claimed floor
    K|A|/(16 M) with M from E_(2k+2).  Soft: it passes when no member
    violated the budget, T is nonempty and the sampled approximation rate is
    at least 1/2 - 3 sigma."""
    rep = extract.cs_period_search(a, a, k, trials=trials, seed=seed)
    rate = rep.stages[0]["rate"]
    floor = 0.5 - rep.stages[0]["three_sigma"]
    passed = rep.ok and len(rep.outputs["T"]) > 0 and rate >= floor
    return _res("C31", {**_summary(a), "k": k, "trials": trials, "seed": seed},
                len(rep.outputs["T"]), rep.claimed or 0.0, ">=", hard=False,
                passed=passed, witness={"rate": rate, "ok": rep.ok})


def check_c32(a: GSet, pipeline: str = "bsg1", eps: float = 1.0,
              nm: tuple[int, int] = (1, 1), seed: int = 1,
              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Balog-Szemeredi-Gowers-type extraction driven by E_(2+eps) (`bsg1`:
    |A' - A'| for the robust core A') or by E_(3+eps) (`bsg2`: |nA' - mA'|
    for the pulled-back A'), against the pipeline's claimed bound.  Soft: it
    passes when A' is a nonempty subset of A and the implied constant is
    finite; the pipelines raise on a violated invariant."""
    if pipeline == "bsg1":
        rep = extract.bsg_extract(a, eps)
        implied = rep.stages[-1]["implied_constant"]
    else:
        rep = extract.bsg_extract_v2(a, eps, nm=[nm], seed=seed)
        implied = rep.stages[-1]["ratios"][0]["implied_constant"]
    a_prime = GSet(a.group, rep.outputs["A_prime"])
    passed = a_prime.issubset(a) and math.isfinite(implied) and len(a_prime) > 0
    return _res("C32", {**_summary(a), "pipeline": pipeline, "eps": eps, "nm": list(nm)},
                rep.measured or 0.0, rep.claimed or 1.0, "<=", hard=False,
                passed=passed, witness={"implied_constant": implied,
                                        "A_prime": len(a_prime)})


def check_c33(a: GSet, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Small-T_3 covering: how much of A the translates of the best slice
    B = A_s cover (`extract.small_t4_extract`), against the target
    |A| / M^(3/2) with M from T_3.  Soft: it passes when B is a subset of A
    and the coverage ratio is finite."""
    rep = extract.small_t4_extract(a)
    cover_ratio = rep.ratio
    b_set = GSet(a.group, rep.outputs["B"])
    passed = b_set.issubset(a) and math.isfinite(cover_ratio)
    return _res("C33", _summary(a), rep.measured or 0.0, rep.claimed or 1.0, ">=",
                hard=False, passed=passed,
                witness={"B": len(b_set), "R": len(rep.outputs["R"])})


def check_c34(a: GSet, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Energy dichotomy (Schoen-Shkredov): the largest E_2(C) /
    (|C|^3 / (K^(21/22) log^(4/11) K)), K = |A - A| / |A|, over the
    documented candidate family of sizes at least |A| / (K^(25/22) log K):
    A, D = A - A, the popular set P and the eight most popular A- and
    D-slices.  Every candidate is a subset of A or of D, so each base's
    candidates take their energies from one family count
    (`setops.family_energies`).  Soft: it passes when some candidate has a
    finite positive ratio."""
    d = setops.diffset(a, a)
    k_val = len(d) / len(a)
    logk = max(1.0, math.log2(max(2.0, k_val)))
    size_floor = len(a) / (k_val ** (25 / 22) * logk)
    bases = (a, d)
    # (name, base index, mask over the base's rows), in the family's order
    candidates = [("A", 0, np.ones(len(a), dtype=bool)), ("D", 1, np.ones(len(d), dtype=bool)),
                  ("P", 1, extract.popular_set(a).isin(d.coords))]
    for i, (name, base) in enumerate(zip("AD", bases)):
        # the top values, ties in lexicographic order of the point
        points, values = moments.correlate(base, base).support_rows()
        top_points = points[np.argsort(-values, kind="stable")[:8]]
        candidates += [(f"{name}_s{s}", i, row)
                       for s, row in zip(top_points.tolist(), setops.slice_masks(base, top_points))]
    sizes = [int(row.sum()) for _, _, row in candidates]
    kept = [j for j, size in enumerate(sizes) if size >= max(2, size_floor)]
    energies = {}
    for i, base in enumerate(bases):
        own = [j for j in kept if candidates[j][1] == i]
        if own:
            member = np.array([candidates[j][2] for j in own])
            energies.update(zip(own, setops.family_energies(base, member)))
    best_name, best_ratio, best_size = None, -1.0, 0
    for j in kept:
        denom = sizes[j] ** 3 / (k_val ** (21 / 22) * logk ** (4 / 11))
        ratio = float(energies[j]) / denom
        if ratio > best_ratio:
            best_name, best_ratio, best_size = candidates[j][0], ratio, sizes[j]
    passed = best_name is not None and math.isfinite(best_ratio) and best_ratio > 0
    return _res("C34", {**_summary(a), "K": k_val}, best_ratio, 1.0, ">=", hard=False,
                passed=passed, witness={"candidate": best_name, "size": best_size})


def check_c35(a: GSet, variant: str = "lcon", caps: Caps = DEFAULT_CAPS) -> CheckResult:
    if a.group.dim != 1 or a.group.is_cyclic:
        raise ValueError("sum-product reports need integer sets")
    n = len(a)
    inputs = {"size": n, "variant": variant}
    if variant == "lcon":
        m_val = len(moments.prodset(a, a)) / n
        levels = moments.level_sequence(a)
        scale = (m_val * max(1.0, math.log2(max(2.0, m_val)))) ** (2 / 3) * n
        worst = max(v * (r + 1) ** (1 / 3) / scale for r, v in enumerate(levels))
        return _res("C35", inputs, worst, 1.0, "<=", hard=False,
                    passed=math.isfinite(worst))
    if variant == "balog":
        if 0 in a:
            raise ValueError("balog report needs 0 not in A")
        quot = moments.quotset_size(a)
        m_val = float(moments.mult_energy_k(a, 3)) * quot ** 2 / n ** 6
        aa_plus_a = len(setops.sumset(moments.prodset(a, a), a))
        rhs = n * math.sqrt(quot) / math.sqrt(m_val)
        return _res("C35", inputs, aa_plus_a, rhs, ">=", hard=False,
                    passed=math.isfinite(_ratio(aa_plus_a, rhs)))
    if variant == "solymosi":
        d = len(setops.diffset(a, a))
        m_val = float(moments.energy_k(a, 3)) * d ** 2 / n ** 6
        prod = len(moments.prodset(a, setops.sumset(a, a)))
        lhs = prod * math.log2(max(2.0, n)) / n ** 2
        return _res("C35", {**inputs, "M": m_val}, lhs, 1.0, ">=", hard=False,
                    passed=math.isfinite(lhs) and lhs > 0)
    if variant == "sigma":
        d = len(setops.diffset(a, a))
        e2 = float(moments.energy_k(a, 2))
        lhs = d * n ** (285 / 8)
        rhs = e2 ** 15 / math.log2(max(2.0, n)) ** 7.5
        return _res("C35", inputs, lhs, rhs, ">=", hard=False,
                    passed=math.isfinite(_ratio(lhs, rhs)))
    raise ValueError(f"unknown C35 variant {variant!r}")


def check_c36(p: int, t: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    gamma = genset.mult_subgroup(p, t)
    inputs = {"p": p, "t": t, "has_minus_one": p - 1 in gamma}
    six = setops.iterated(gamma, 6, 0)
    covered = len(six) >= p - 1 and bool(six.isin(np.arange(1, p).reshape(-1, 1)).all())
    return _res("C36", inputs, int(covered), 1, ">=", hard=False, passed=True,
                witness={"covers": covered, "six_size": len(six)})


def check_c37(a: GSet, coeffs: Sequence[int], sign: str = MINUS,
              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    found = extract.find_configuration(a, coeffs, sign)
    side = setops.diffset(a, a) if sign == MINUS else setops.sumset(a, a)
    inputs = {**_summary(a), "coeffs": list(coeffs), "sign": sign}
    if found is None:
        return _res("C37", inputs, 0, 0, ">=", hard=False, witness="none")
    x, d = found
    points = as_rows(a.group, np.array(x) + np.multiply.outer(coeffs, d))
    valid = bool(side.isin(points).all() and any(d))
    return _res("C37", inputs, int(valid), 1, ">=", hard=False, passed=valid,
                witness={"x": list(x), "d": list(d)})


def check_c38(p: int, kmax: int = 3, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    qr = genset.quadratic_residues(p)
    depth = 0
    for k in range(1, kmax + 1):
        if p ** k > caps.tuples:
            break
        ok, _ = setops.basis_depth_test(qr, k, MINUS, caps)
        if not ok:
            break
        depth = k
    heuristic = max((k for k in range(1, kmax + 1) if k * 2 ** k < math.sqrt(p)), default=0)
    return _res("C38", {"p": p, "kmax": kmax}, depth, max(1, heuristic), ">=", hard=False,
                passed=depth >= heuristic, witness={"depth": depth, "heuristic": heuristic})


# ---------------------------------------------------------------------------
# identity-suite extras


def check_ek_slices(a: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    lhs = sum(slice_corr_sums(a, k - 1).values())
    rhs = moments.energy_k(a, k)
    return _res("EKS", {**_summary(a), "k": k}, lhs, rhs, "=")


# ---------------------------------------------------------------------------
# registry and suite runner


REGISTRY: dict[str, Callable[..., CheckResult]] = {
    "C1": check_c1, "C2": check_c2, "C3": check_c3, "C4": check_c4,
    "C5": check_c5, "C6": check_c6, "C7": check_c7, "C8": check_c8,
    "C9": check_c9, "C10": check_c10, "C10p": lambda **kw: check_c10(primed=True, **kw),
    "C11": check_c11, "C13": check_c13, "C14": check_c14, "C15": check_c15,
    "C16": check_c16, "C17": check_c17, "C18": check_c18, "C19": check_c19,
    "C20": check_c20, "C21": check_c21, "C22": check_c22, "C24": check_c24,
    "C25": check_c25, "C26": check_c26, "C27": check_c27, "C28": check_c28,
    "C29": check_c29, "C30": check_c30, "C31": check_c31, "C32": check_c32,
    "C33": check_c33, "C34": check_c34, "C35": check_c35, "C36": check_c36,
    "C37": check_c37, "C38": check_c38, "EKS": check_ek_slices,
}

def _registered(check_id: str) -> Callable[..., CheckResult]:
    fn = REGISTRY.get(check_id.replace("'", "p"))
    if fn is None:
        raise KeyError(f"unknown check id {check_id!r}")
    return fn


def run_check(check_id: str, inputs: dict, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Run one check on its parameters; every check takes `caps` as a keyword."""
    return _registered(check_id)(caps=caps, **inputs)


@dataclass
class Instance:
    kind: str                  # 'set', 'intset', 'subgroup'
    label: str
    a: GSet | None = None
    extra: dict = field(default_factory=dict)

    def derived(self, tag: str, size: int | None = None) -> GSet:
        """Deterministic companion set in the same ambient group."""
        rng = random.Random(f"{self.label}:{tag}")
        g = self.a.group
        size = size or max(2, len(self.a) // 2 + 1)
        # flat indices of the group, or of the box [0, span)^dim of a lattice
        shape = g.moduli if g.is_cyclic else (max(8, 3 * len(self.a)),) * g.dim
        flat = rng.sample(range(math.prod(shape)), min(size, math.prod(shape)))
        return GSet(g, np.column_stack(np.unravel_index(flat, shape)))

    @cached_property
    def grids(self) -> dict[str, list[dict]]:
        """Default parameter grids by check id (ids without one are absent),
        built on first use with the companion sets and kept."""
        a = self.a
        if self.kind == "subgroup":
            p, t = self.extra["p"], self.extra["t"]
            return {
                "C25": [{"p": p, "t": t, "k": 1}],
                "C26": [{"p": p, "t": t}],
                "C27": [{"p": p, "t": t, "variant": "invariant", "coset": 1},
                        {"p": p, "t": t, "variant": "pred"}],
                "C36": [{"p": p, "t": t}],
                "C38": [{"p": p, "kmax": 2}],
            }
        if self.kind == "intset":
            c35 = [{"a": a, "variant": "lcon"}, {"a": a, "variant": "solymosi"},
                   {"a": a, "variant": "sigma"}]
            if 0 not in a:
                c35.append({"a": a, "variant": "balog"})
            return {"C35": c35}
        if a is None or self.kind != "set":
            return {}
        small = self.derived("small", 5)
        small2 = self.derived("small2", 5)
        small3 = self.derived("small3", 4)
        b = self.derived("b")
        grids: dict[str, list[dict]] = {
            "C1": [{"a": a, "k": k} for k in (1, 2, 3)],
            "C2": [{"a": a, "k": k} for k in (1, 2)],
            "C3": [{"a": a, "k": k, "sign": s} for k in (1, 2) for s in (MINUS, PLUS)],
            "C4": [{"a": a, "k": k, "l": l} for k in range(1, 5) for l in range(1, 5)
                   if 2 <= k + l <= 5],
            "C5": [{"a": a, "b": b, "k": k} for k in (1, 2, 3)],
            "C6": [{"a": a, "k": k} for k in (1, 2, 3)],
            "C7": [{"sets": [a, b, small]}],
            "C11": ([{"sets": {"W": small, "X": small2, "Y": b, "Z": small3}, "variant": "tri1"}]
                    + [{"sets": {"A1": small, "A2": small2, "A3": small3, "B": b},
                        "variant": "tri2", "m": m} for m in (1, 2)]
                    + [{"sets": {"A1": small, "A2": small2, "X": small3, "Z": b},
                        "variant": "eq"}]),
            "C13": [{"a": a, "n": 1, "m": 1, "variant": v}
                    for v in ("D_lower", "D_upper", "S_lower", "S_upper")]
                   + [{"a": a, "n": 1, "m": 2, "variant": v}
                      for v in ("D_lower", "D_upper", "S_lower", "S_upper", "DS")]
                   + [{"a": a, "n": 2, "m": 1, "variant": v}
                      for v in ("D_lower", "D_upper", "S_lower", "S_upper", "DS2")],
            "C16": [{"a": small, "b0": small2, "c": small3, "k": k} for k in (1, 2)],
            "C19": [{"a": a, "b": b, "k": k} for k in (1, 2, 3)],
            "C20": [{"a": a, "sign": s} for s in (MINUS, PLUS)],
            "C21": [{"a": a, "l": l, "variant": v} for l in (2, 3)
                    for v in ("diff", "sum", "sum2")],
            "C22": [{"a": a, "b": b, "l": l} for l in (1, 2)],
            "C24": [{"a": a, "alpha": al} for al in (1.0, 2.0, 1.5)],
            "C28": [{"x1": small, "y": small2, "z1": small3, "w": b}],
            "EKS": [{"a": a, "k": k} for k in (2, 3, 4)],
        }
        sub = _subsample(a, 10)
        grids["C17"] = ([{"a": sub, "variant": "power", "n": n, "m": m}
                         for n, m in ((1, 1), (2, 1), (2, 2))]
                        + [{"a": sub, "b": small, "c": small2, "variant": "sum3"},
                           {"a": _subsample(a, 7), "b": small3, "c": small2,
                            "variant": "delta", "k": 2}])
        sub8 = _subsample(a, 8)
        grids["C18"] = ([{"a": a, "b": b, "k": k, "variant": "sign"} for k in (1, 2)]
                        + [{"a": sub8, "b": small, "k": k, "variant": "exact"} for k in (1, 2)])
        if a.group.is_cyclic:
            grids["C8"] = [{"a": a, "alpha": al, "k": k} for al in (0.3, 0.6) for k in (2, 3)]
            grids["C9"] = [{"a": a, "alpha": al, "k": k} for al in (0.3, 0.5, 0.75)
                           for k in (1, 2)]
            grids["C10"] = [{"a": a, "k": k} for k in (2, 3)]
            grids["C10p"] = [{"a": a, "k": k} for k in (2, 3)]
            grids["C15"] = [{"sets": [small, b]}, {"sets": [small, small2, small3]}]
            grids["C37"] = [{"a": a, "coeffs": (0, 1, 2), "sign": MINUS}]
            grids["C31"] = [{"a": a, "k": 3, "trials": 60, "seed": 11}]
            grids["C32"] = [{"a": a, "pipeline": "bsg1"}, {"a": a, "pipeline": "bsg2"}]
            grids["C33"] = [{"a": a}]
            grids["C34"] = [{"a": a}]
        if self.extra.get("basis_depth"):
            k = self.extra["basis_depth"]
            grids["C14"] = ([{"b": a, "a": small, "k": k, "sign": MINUS},
                             {"b": a, "a": small, "k": k, "sign": MINUS, "m": k + 1}]
                            + ([{"b": a, "a": small, "k": k, "sign": PLUS}]
                               if self.extra.get("plus_basis") else []))
            if k >= 2:
                grids["C29"] = [{"b": a, "k": k, "m": m} for m in range(1, k)]
                grids["C30"] = [{"b": a, "k": k}]
        return grids


def default_grid(check_id: str, inst: Instance) -> list[dict]:
    """Default parameter grid of a check over one suite instance."""
    return inst.grids.get(check_id.replace("'", "p"), [])


def _subsample(a: GSet, size: int) -> GSet:
    if len(a) <= size:
        return a
    rng = random.Random(f"sub:{len(a)}:{size}:{tuple(a.coords[0].tolist())}")
    keep = np.zeros(len(a), dtype=bool)
    keep[rng.sample(range(len(a)), size)] = True   # a sample of the rows takes these positions
    return a.subset(keep)


@dataclass
class SuiteReport:
    results: list[CheckResult] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    capped: int = 0   # how many of the errors a CapExceededError raised

    @property
    def hard_failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.hard and not r.passed]

    def summary(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for r in self.results:
            row = out.setdefault(r.check_id, {"instances": 0, "failures": 0, "max_ratio": 0.0})
            row["instances"] += 1
            row["failures"] += 0 if r.passed else 1
            if math.isfinite(r.ratio):
                row["max_ratio"] = max(row["max_ratio"], r.ratio)
        return out

    def to_json(self) -> str:
        """The text json.dumps({"results", "errors", "summary"}, indent=2,
        sort_keys=True, default=str) gives, with one string per result row
        (groups.dumps_json on the row's own fields at depth 2) and one join."""
        pieces = ['{\n  "errors": ' + groups.dumps_json(self.errors, 1) + ',\n  "results": [']
        sep = "\n    "
        for r in self.results:
            pieces.append(sep + groups.dumps_json(r.__dict__, 2))
            sep = ",\n    "
        pieces.append(("\n  ]" if self.results else "]")
                      + ',\n  "summary": ' + groups.dumps_json(self.summary(), 1) + "\n}")
        return "".join(pieces)

    def to_csv(self) -> str:
        lines = ["check_id,instances,failures,max_ratio"]
        for cid, row in sorted(self.summary().items()):
            lines.append(f"{cid},{row['instances']},{row['failures']},{row['max_ratio']}")
        return "\n".join(lines) + "\n"


def run_suite(instances: Sequence[Instance], check_ids: Sequence[str],
              caps: Caps = DEFAULT_CAPS) -> SuiteReport:
    """Each id's default grid on each instance; an unknown id raises KeyError first."""
    for cid in check_ids:
        _registered(cid)
    report = SuiteReport()
    for inst in instances:
        for cid in check_ids:
            try:
                grid = default_grid(cid, inst)
            except Exception as exc:  # grid construction must not kill the sweep
                report.errors.append({"check": cid, "instance": inst.label, "error": str(exc)})
                continue
            for params in grid:
                try:
                    result = run_check(cid, params, caps)
                    result.inputs["instance"] = inst.label
                    report.results.append(result)
                except setops.CapExceededError as exc:
                    report.errors.append({"check": cid, "instance": inst.label,
                                          "error": f"cap: {exc}"})
                    report.capped += 1
                except Exception as exc:
                    report.errors.append({"check": cid, "instance": inst.label,
                                          "error": str(exc)})
    return report


# ---------------------------------------------------------------------------
# standard corpora


def standard_corpus(seed: int = 2024, cyclic_count: int = 200,
                    lattice_count: int = 20) -> list[Instance]:
    """Random sets across Z/64, Z/128, Z/4xZ/8 plus 1-dimensional lattice
    sets, sizes up to 16; deterministic in the seed."""
    rng = random.Random(seed)
    ambients = [groups.cyclic(64), groups.cyclic(128), groups.cyclic(4, 8)]
    out: list[Instance] = []
    for i in range(cyclic_count):
        g = ambients[i % len(ambients)]
        size = rng.randint(3, 16)
        elems = rng.sample(range(g.order), size)
        a = GSet(g, np.column_stack(np.unravel_index(elems, g.moduli)))
        out.append(Instance("set", f"cyc{i}:{g}", a))
    for i in range(lattice_count):
        size = rng.randint(3, 16)
        a = GSet(groups.lattice(1), rng.sample(range(48), size))
        out.append(Instance("set", f"lat{i}", a))
    return out


def basis_instances() -> list[Instance]:
    """Dedicated dense instances whose basis depth is verified, for the
    basis-bound checks."""
    out = []
    qr13 = genset.quadratic_residues(13)
    out.append(Instance("set", "qr13", qr13, {"basis_depth": 1}))
    g8 = groups.cyclic(8)
    dense8 = GSet(g8, [0, 1, 2, 3, 4, 5, 6])
    out.append(Instance("set", "dense8", dense8, {"basis_depth": 2, "plus_basis": True}))
    g12 = groups.cyclic(12)
    dense12 = GSet(g12, [0, 1, 2, 3, 5, 6, 7, 8, 9, 11])
    out.append(Instance("set", "dense12", dense12, {"basis_depth": 2, "plus_basis": True}))
    return out


def subgroup_instances(p_max: int = 101) -> list[Instance]:
    out = []
    for p in (7, 13, 31, 43, 61, 101):
        if p > p_max:
            continue
        divisors = [t for t in range(2, p) if (p - 1) % t == 0 and t <= (p - 1) // 2]
        for t in divisors[:3]:
            gamma = genset.mult_subgroup(p, t)
            out.append(Instance("subgroup", f"G(p={p},t={t})", gamma, {"p": p, "t": t}))
    return out


def intset_instances() -> list[Instance]:
    out = []
    for n in (8, 16, 32, 64):
        a = GSet(groups.lattice(1), range(1, n + 1))
        out.append(Instance("intset", f"interval{n}", a))
        conv = genset.gen(genset.recipe("convex", n=min(n, 24)))
        out.append(Instance("intset", f"convex{n}", GSet(groups.lattice(1),
                                                         conv.coords + 1)))
    return out
