"""Constructive procedures: popular differences, the difference-set transfer
A - A_s <= D n (D+s), intersection/robust-core selection, both structured
subset extraction pipelines, small-T_3 covering, almost-period search, and
configuration / covering sweeps.

Everything runs on the sorted int64 rows of ``GSet.coords`` and on
``ConvTable`` arrays.  Two identities turn the L2 defects of the
almost-period search into one entry of a correlation each, with
(f o g)(x) = sum_y f(y) g(y + x):

* Shift defect.  For a finitely supported c (here c = A*B),
  sum_x (c(x) - c(x+t))^2 = 2((c o c)(0) - (c o c)(t)): expand the square,
  and sum_x c(x+t)^2 = sum_x c(x)^2 = (c o c)(0).  Off the window of a
  lattice table (c o c)(t) = 0, so one correlation serves every t, cyclic
  or lattice.

* Translated-sequence defect.  Let X be a sequence of k elements of G with
  multiplicity function mu_X, c = mu_X * B and d = A*B (integer tables).
  X approximates when ||c/k - d/|A|||_2^2 <= 2|B|/k, that is when
  sum_y (|A| c(y) - k d(y))^2 <= 2|A|^2|B|k.  Translating X by x translates
  c by x, so the defect of X + x is sum_y (|A| c(y-x) - k d(y))^2
  = |A|^2|c|^2 + k^2|d|^2 - 2|A|k sum_y c(y-x) d(y), and
  sum_y c(y-x) d(y) = sum_z c(z) d(z+x) = (c o d)(x).  So X + x approximates
  iff (c o d)(x) >= (|A|^2|c|^2 + k^2|d|^2 - 2|A|^2|B|k) / (2|A|k).  With
  c(y) = sum_i B(y - s_i), both terms are sums over the sequence:
  (c o d)(x) = sum_i (B o d)(s_i + x) and |c|^2 = sum_(i,j) (B o B)(s_i - s_j).
  Two correlations, B o d and B o B, taken once, decide every sequence and
  every x.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import groups, moments, setops
from .groups import Elem, InvariantError
from .gset import GSet, as_rows, full_group
from .moments import EnergyProfile


class ExtractionError(RuntimeError):
    pass


@dataclass
class ExtractionReport:
    pipeline: str
    profile: dict
    params: dict
    stages: list[dict] = field(default_factory=list)
    outputs: dict[str, list] = field(default_factory=dict)
    claimed: float | None = None
    measured: float | None = None
    ratio: float | None = None
    ok: bool = True
    notes: list[str] = field(default_factory=list)

    def add_stage(self, name: str, **detail) -> None:
        self.stages.append({"stage": name, **detail})

    def store_set(self, name: str, a: GSet) -> None:
        self.outputs[name] = [list(e) for e in a.elems]

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# popular differences and the difference-set transfer


def popular_set(a: GSet, threshold: Fraction | float | None = None,
                corr: moments.ConvTable | None = None) -> GSet:
    """P = {s : (A o A)(s) >= threshold}; default threshold |A|^2 / (2|A-A|).
    corr, when given, is the table A o A.

    With the default threshold the popular part keeps at least half the mass:
    sum_{s in P} (A o A)(s) >= |A|^2 / 2.
    """
    if not a:
        raise ValueError("popular set needs a nonempty A")
    points, values = (moments.correlate(a, a) if corr is None else corr).support_rows()
    default = threshold is None
    if default:
        threshold = Fraction(len(a) ** 2, 2 * len(values))  # |A - A| support points
    if isinstance(threshold, float):
        threshold = Fraction(threshold).limit_denominator(10 ** 12)
    keep = values >= math.ceil(threshold)   # counts are integers; no product is formed
    if default and 2 * int(values[keep].sum()) < len(a) ** 2:
        raise InvariantError("popular mass fell below |A|^2/2")
    return GSet(a.group, points[keep])


def katz_koester(a: GSet, s, sign: str = setops.MINUS) -> tuple[GSet, bool]:
    """A -+ A_s together with the verified containment inside D n (D +- s),
    where D = A -+ A.  The containment is unconditional; the flag records the
    explicit re-check."""
    s = as_rows(a.group, [s])[0]
    a_s = setops.stabilizer_slice(a, [s])
    if not a_s:
        return a_s, True
    op, t = (setops.diffset, s) if sign == setops.MINUS else (setops.sumset, -s)
    moved, d = op(a, a_s), op(a, a)
    window = d.intersect(d.translate(t))
    return moved, moved.issubset(window)


# ---------------------------------------------------------------------------
# intersection selection machinery


def _membership(family: Sequence[GSet], universe: GSet) -> tuple[np.ndarray, np.ndarray]:
    """(member, inter): the n x m table of u_j in S_i, and the n x n table
    of |S_i n S_j| from one float64 product, exact while m < 2^53."""
    if len(family) == 0 or len(universe) == 0:
        raise ValueError("need a nonempty family and universe")
    member = np.array([s.isin(universe.coords) for s in family], dtype=bool)
    if member.sum() != sum(len(s) for s in family):
        raise ValueError("family member leaves the universe")
    dense = member.astype(np.float64)
    return member, (dense @ dense.T).astype(np.int64)


def intersection_select(family: Sequence[GSet], universe: GSet, delta: float,
                        eta: float) -> tuple[list[int], Elem]:
    """Pick J = K_alpha = {i : alpha in S_i} for the first alpha in universe
    order with |K_alpha| >= delta n / sqrt(2) and pair density
    |{(i,j) in J^2 : |S_i n S_j| >= eta delta^2 m / 2}| >= (1 - eta)|J|^2.

    The pair threshold uses m = |universe| (the counting in the selection
    argument runs over the universe, not the index set)."""
    return _select(*_membership(family, universe), universe, delta, eta)


def _select(member: np.ndarray, inter: np.ndarray, universe: GSet, delta: float, eta: float):
    n, m = member.shape
    # sum_(i,j) |S_i n S_j| = sum over the columns alpha of |K_alpha|^2
    total_pairs = int((member.sum(axis=0) ** 2).sum())
    if total_pairs < delta * delta * m * n * n * (1 - 1e-12):
        raise ExtractionError(
            f"selection precondition fails: sum |S_i n S_j| = {total_pairs} "
            f"< delta^2 m n^2 = {delta * delta * m * n * n}")
    size_floor = delta * n / math.sqrt(2)
    pair_floor = eta * delta * delta * m / 2
    for a_idx in range(m):
        members = np.flatnonzero(member[:, a_idx])
        if len(members) < size_floor:
            continue
        good = int((inter[np.ix_(members, members)] >= pair_floor).sum())
        if good >= (1 - eta) * len(members) ** 2:
            return members.tolist(), universe.elems[a_idx]
    raise ExtractionError("no column of the membership table satisfies both selection bounds")


def robust_core(family: Sequence[GSet], universe: GSet, delta: float) -> list[int]:
    """Two-step-connected core J': every i, j in J' share, over the whole
    index set, at least 2^-2 delta n partners k with
    |S_i n S_k|, |S_j n S_k| >= 2^-4 delta^2 m.  Verified before returning."""
    member, inter = _membership(family, universe)
    n, m = member.shape
    j_set, _alpha = _select(member, inter, universe, delta, eta=1 / 8)
    strong = inter >= delta * delta * m / 16  # 2^-4 delta^2 m
    need = 0.75 * len(j_set)
    core = [i for i in j_set if strong[i, j_set].sum() >= need]
    if len(core) < delta * n / 32 * (1 - 1e-12):
        raise InvariantError("robust core fell below 2^-5 delta n")
    partner_floor = delta * n / 4
    # the partners shared by i and j: entry (i, j) of strong strong^T
    rows = strong[core].astype(np.float64)
    if (rows @ rows.T < partner_floor * (1 - 1e-12)).any():
        raise InvariantError("two-step connectivity failed on the core")
    return core


# ---------------------------------------------------------------------------
# structured-subset pipelines


def _popularity_family(a: GSet, corr: moments.ConvTable, e: int) -> np.ndarray:
    """|A| x |A| incidence matrix of 2|A|^2 (A o A)(x - y) >= e, rows x and
    columns y in the order of A, from one gather of corr = A o A."""
    n = len(a)
    diffs = (a.coords[:, None] - a.coords[None]).reshape(-1, a.group.dim)
    return corr.values_at(diffs).reshape(n, n) >= -(-e // (2 * n * n))   # integer ceiling


def bsg_extract(a: GSet, eps: float = 1.0) -> ExtractionReport:
    """Dense-popularity extraction: builds the popularity family
    S_a = {b in A : (A o A)(a - b) >= |A|/(2K)}, validates the mass lower
    bound forced by E_(2+eps), and returns the robust core as A'."""
    if not a:
        raise ValueError("extraction needs a nonempty set")
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    n = len(a)
    corr = moments.correlate(a, a)
    e2 = moments.energy_k(a, 2, corr)
    k_val = float(Fraction(n ** 3, e2))
    e2e = moments.energy_k(a, 2 + eps, corr)
    m_val = float(e2e) * k_val ** (1 + eps) / n ** (3 + eps)
    profile = EnergyProfile.from_set(a, ks=(2, 3), corr=corr)
    rep = ExtractionReport("bsg1", profile.as_dict(), {"eps": eps})
    rep.add_stage("normalize", K=k_val, M=m_val, E2=e2, E2_eps=float(e2e))

    g = a.group
    # S_a via the exact comparison 2|A|^2 (A o A)(a-b) >= E_2
    incidence = _popularity_family(a, corr, e2)
    fam = [GSet(g, a.coords[row]) for row in incidence]
    mass = int(incidence.sum())
    floor = n * n / (2 ** ((1 + eps) / eps) * m_val ** (1 / eps))
    if mass < floor * (1 - 1e-9):
        raise InvariantError(f"popularity mass {mass} fell below the forced bound {floor}")
    rep.add_stage("family", mass=mass, forced_floor=floor)

    delta = 2 ** (-(1 + eps) / eps) * m_val ** (-1 / eps)
    core = robust_core(fam, a, delta)
    a_prime = GSet(g, a.coords[core])
    rep.add_stage("core", delta=delta, size=len(a_prime))
    rep.store_set("A_prime", a_prime)

    diff = len(setops.diffset(a_prime, a_prime))
    claimed = (2.0 * m_val) ** (6 / eps) * k_val ** 4 * len(a_prime)
    rep.claimed = claimed
    rep.measured = float(diff)
    rep.ratio = diff / claimed
    rep.add_stage("conclusion", diff_size=diff,
                  implied_constant=diff / (k_val ** 4 * len(a_prime)))
    return rep


def bsg_extract_v2(a: GSet, eps: float = 1.0, nm: Sequence[tuple[int, int]] = ((1, 1),),
                   seed: int = 1) -> ExtractionReport:
    """Popular-difference extraction driven by E_(3+eps): popularizes the
    difference set, re-runs the selection machinery on it, and pulls the
    structure back into A through the best translate."""
    if not a:
        raise ValueError("extraction needs a nonempty set")
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    n = len(a)
    g = a.group
    corr = moments.correlate(a, a)
    e2 = moments.energy_k(a, 2, corr)
    k_val = float(Fraction(n ** 3, e2))
    e3e = moments.energy_k(a, 3 + eps, corr)
    m_val = float(e3e) * k_val ** (2 + eps) / n ** (4 + eps)
    profile = EnergyProfile.from_set(a, ks=(2, 3, 4), corr=corr)
    rep = ExtractionReport("bsg2", profile.as_dict(), {"eps": eps, "nm": list(map(list, nm)), "seed": seed})
    rep.add_stage("normalize", K=k_val, M=m_val, E2=e2, E3_eps=float(e3e))

    # popular differences at level |A|/(2K) = E_2/(2|A|^2)
    p_set = popular_set(a, Fraction(e2, 2 * n * n), corr)
    p_mass = int(corr.values_at(p_set.coords).sum())
    forced = (e2 / 2) ** ((2 + eps) / (1 + eps)) / float(e3e) ** (1 / (1 + eps))
    if p_mass < forced * (1 - 1e-9):
        raise InvariantError(f"popular mass {p_mass} fell below the forced bound {forced}")
    gamma = p_mass / n ** 2
    rep.add_stage("popular", size=len(p_set), mass=p_mass, forced_floor=forced, gamma=gamma)

    # sampled verification of the union inequality feeding E(P)
    rng = random.Random(seed)
    sample = list(p_set.elems)
    rng.shuffle(sample)
    checks = []
    p_corr = moments.correlate(p_set, p_set)
    for s in sample[:6]:
        s_row = as_rows(g, [s])
        a_s = setops.stabilizer_slice(a, s_row)
        # x in A_s puts x + s in A; with u = x - y (y in A), y lies in
        # S_x n S_(x+s) iff u and u + s are in P, so every such u is in P n (P - s)
        u = as_rows(g, (a_s.coords[:, None] - a.coords[None]).reshape(-1, g.dim))
        both = p_set.isin(u) & p_set.isin(as_rows(g, u + s_row))
        incidence = int(both.sum())
        union = GSet(g, u[both])
        contained = union.issubset(p_set.intersect(p_set.translate(-s_row[0])))
        e_pair = moments.energy_pair(a_s, a) if a_s else 1
        cs_ok = len(union) * e_pair >= incidence ** 2
        pp_ok = int(p_corr.values_at(s_row)[0]) >= len(union)   # (P o P)(s) = |P n (P - s)|
        checks.append({"s": list(s), "contained": contained, "cs_ok": cs_ok, "pp_ok": pp_ok,
                       "incidence": incidence})
        if not (contained and cs_ok and pp_ok):
            raise InvariantError(f"difference-set transfer failed at shift {s}")
    rep.add_stage("transfer_checks", samples=checks)

    # selection machinery on the popular set itself
    ep = moments.energy_k(p_set, 2, p_corr)
    kp = Fraction(len(p_set) ** 3, ep)
    p_n = len(p_set)
    incidence = _popularity_family(p_set, p_corr, ep)
    fam = [GSet(g, p_set.coords[row]) for row in incidence]
    # sum_(i,j) |S_i n S_j| counts, for each column, the ordered pairs of its rows
    pair_total = int((incidence.sum(axis=0) ** 2).sum())
    delta_p = math.sqrt(pair_total / (p_n ** 3))
    core = robust_core(fam, p_set, delta_p)
    p_prime = GSet(g, p_set.coords[core])
    rep.add_stage("difference_core", K_P=float(kp), delta=delta_p, size=len(p_prime))
    rep.store_set("P_prime", p_prime)

    # best translate pulls the structure back into A: (P' o A)(x) = |A n (P' + x)|,
    # and the first maximum in sorted order wins
    best_x, best_hit = moments.correlate(p_prime, a).argmax()
    a_prime = GSet(g, a.coords[p_prime.isin(as_rows(g, a.coords - best_x))])
    rep.add_stage("translate", x=list(best_x), overlap=best_hit)
    rep.store_set("A_prime", a_prime)

    beta = 6 * (3 + 4 * eps) / (eps * (1 + eps))
    ratios = []
    for n_i, m_i in nm:
        size = len(setops.iterated(a_prime, n_i, m_i))
        claimed = m_val ** (beta * (n_i + m_i)) * k_val * len(a_prime)
        ratios.append({"n": n_i, "m": m_i, "size": size, "claimed": claimed,
                       "implied_constant": size / (k_val * len(a_prime)),
                       "ratio": size / claimed})
    rep.add_stage("conclusion", ratios=ratios)
    rep.measured = ratios[0]["size"] if ratios else None
    rep.claimed = ratios[0]["claimed"] if ratios else None
    rep.ratio = ratios[0]["ratio"] if ratios else None
    return rep


def small_t4_extract(a: GSet) -> ExtractionReport:
    """Small-T_3 covering: locates a slice B = A_s with large E(A, B) and
    greedily covers A by translates of B."""
    if not a:
        raise ValueError("extraction needs a nonempty set")
    n = len(a)
    g = a.group
    corr = moments.correlate(a, a)
    k_val = np.count_nonzero(corr.array) / n   # |A - A| / |A|
    t3 = moments.t_k(a, 3)
    m_val = float(t3) * k_val ** 2 / n ** 5
    e3 = moments.energy_k(a, 3, corr)
    profile = EnergyProfile.from_set(a, ks=(2, 3), corr=corr)
    rep = ExtractionReport("smallT4", profile.as_dict(), {})
    rep.add_stage("normalize", K=k_val, M=m_val, T3=t3, gamma=float(e3) / n ** 4)

    points, values = corr.support_rows()
    best_s, best_beta, best_slice = None, -1.0, None
    # needs |A_s| > gamma |A| / 2 strictly: 2|A|^3 v > E_3, for integer v
    for s in points[values > e3 // (2 * n ** 3)]:
        a_s = setops.stabilizer_slice(a, [s])
        beta = moments.energy_pair(a, a_s) / (n * len(a_s) ** 2)
        if beta > best_beta:
            best_s, best_beta, best_slice = s, beta, a_s
    if best_slice is None:
        b = a
        rep.notes.append("no slice above the gamma floor; degenerate covering with B = A")
    else:
        b = best_slice
        rep.add_stage("slice", s=best_s.tolist(), beta=best_beta, size=len(b))
    rep.store_set("B", b)

    target = n / m_val ** 1.5
    threshold = moments.energy_pair(a, b) / (2 * n * len(b))
    remaining = a
    chosen: list[Elem] = []
    covered = 0
    while covered < target and len(chosen) < n:
        # (B o R)(r) = |(B + r) n R|; the first maximum in sorted order wins
        best_r, gain = moments.correlate(b, remaining).argmax()
        if gain < max(1.0, threshold):
            break
        chosen.append(best_r)
        remaining = GSet(g, remaining.coords[~b.translate(best_r).isin(remaining.coords)])
        covered = n - len(remaining)
    r_set = GSet(g, chosen or [(0,) * g.dim])
    coverage = len(a) - len(remaining) if chosen else len(a.intersect(b))
    rep.store_set("R", r_set)
    rep.add_stage("cover", coverage=coverage, target=target, translates=len(r_set),
                  eb_ratio=float(moments.energy_k(b, 2)) / (len(b) ** 3 / m_val ** 4.5))
    rep.claimed = target
    rep.measured = float(coverage)
    rep.ratio = coverage / target if target > 0 else float("inf")
    return rep


# ---------------------------------------------------------------------------
# almost periods


def _shift_defects(c: moments.ConvTable, shifts: np.ndarray) -> list[int]:
    """sum_x (c(x) - c(x+t))^2 for each row t of shifts, read off one
    correlation as 2((c o c)(0) - (c o c)(t)) (module docstring)."""
    cc = moments.correlate(c, c)
    at_zero = int(cc.values_at(np.zeros((1, c.group.dim), dtype=np.int64))[0])
    return [2 * (at_zero - v) for v in cc.values_at(shifts).tolist()]


def almost_period_check(a: GSet, b: GSet, t) -> int:
    """Exact squared L2 shift defect sum_x ((A*B)(x) - (A*B)(x+t))^2."""
    if a.group != b.group:
        raise groups.GroupError("almost-period operands live in different groups")
    return _shift_defects(moments.convolve(a, b), as_rows(a.group, [t]))[0]


def _approximation_floor(seq: np.ndarray, bb: moments.ConvTable, n: int, k: int,
                         nb: int, d_sq: int) -> int:
    """Least (c o d)(x) at which X + x approximates, for the sequence X of
    rows of seq, c = mu_X * B, bb = B o B and d_sq = |A*B|^2 (module
    docstring).  |c|^2 = sum_(i,j) (B o B)(s_i - s_j) <= k^2 |B| in int64."""
    c_sq = int(bb.values_at((seq[:, None] - seq[None]).reshape(-1, seq.shape[1])).sum())
    return -(-(n * n * (c_sq - 2 * nb * k) + k * k * d_sq) // (2 * n * k))   # integer ceiling


def _overlaps(seq: np.ndarray, bd: moments.ConvTable, points: np.ndarray) -> np.ndarray:
    """(c o d)(x) = sum_i (B o d)(s_i + x) for each row x of points, with
    bd = B o d; each sum is at most k |B| |A|."""
    moved = (points[None] + seq[:, None]).reshape(-1, seq.shape[1])
    return bd.values_at(moved).reshape(len(seq), len(points)).sum(axis=0)


def _difference_sizes(sets: Sequence[GSet]) -> np.ndarray:
    """m x m table of |S_i - S_j| for sets in one cyclic product.  The
    difference of x in S_i and y in S_j packs into the key (i m + j) N +
    rank(x - y), so S_i - S_j is the distinct keys of pair (i, j), counted
    by one sort per block of whole S_i of at most 2^22 keys (a single block
    at corpus sizes)."""
    g, m, sizes = sets[0].group, len(sets), [len(s) for s in sets]
    rows, starts = np.concatenate([s.coords for s in sets]), np.cumsum([0] + sizes)
    owner = np.repeat(np.arange(m), sizes)
    step = max(1, (1 << 22) // max(1, len(rows) * max(sizes)))   # slices per block
    counts = np.zeros(m * m, dtype=np.int64)
    for i in range(0, m, step):
        lo, hi = starts[i], starts[min(i + step, m)]
        diff = np.moveaxis((rows[lo:hi, None] - rows[None]) % g.moduli, -1, 0)
        keys = (owner[lo:hi, None] * m + owner[None]) * g.order + np.ravel_multi_index(tuple(diff), g.moduli)
        keys = np.sort(keys, axis=None)
        counts += np.bincount(keys[np.diff(keys, prepend=-1) != 0] // g.order, minlength=m * m)
    return counts.reshape(m, m)


def cs_period_search(a: GSet, b: GSet, k: int, trials: int = 200, seed: int = 1,
                     shift_samples: int = 24) -> ExtractionReport:
    """Randomized almost-period search with exact final validation.

    Samples k-element sequences from A, tracks the empirical approximation
    rate, samples shifts s with the slice sets A'_s of elements whose
    diagonal translate approximates, and returns T = A'_s0 - A'_t0 for the
    best sampled pair.  Every member of T is re-checked against the exact
    32|A|^2|B|/k budget; violators are reported, never silently dropped."""
    if a.group != b.group:
        raise groups.GroupError("operands live in different groups")
    if not a.group.is_cyclic:
        raise groups.GroupError("period search needs a finite ambient group")
    if k < 1:
        raise ValueError("k must be >= 1")
    g = a.group
    n, nb = len(a), len(b)
    rng = random.Random(seed)
    base = moments.convolve(a, b)
    d_sq = moments.energy_pair(a, b)
    bb, bd = moments.correlate(b, b), moments.correlate(b, base)
    origin = np.zeros((1, g.dim), dtype=np.int64)
    corr = moments.correlate(a, a)   # its support is A - A
    profile = EnergyProfile.from_set(a, ks=(2,), corr=corr)
    rep = ExtractionReport("cs", profile.as_dict(),
                           {"k": k, "trials": trials, "seed": seed})

    good: list[np.ndarray] = []
    for _ in range(trials):
        seq = as_rows(g, [rng.choice(a.elems) for _ in range(k)])
        # the defect of X itself: the identity at x = 0
        if _overlaps(seq, bd, origin)[0] >= _approximation_floor(seq, bb, n, k, nb, d_sq):
            good.append(seq)
    rate = len(good) / trials if trials else 0.0
    sigma = math.sqrt(0.25 / trials) if trials else 0.0
    rep.add_stage("sampling", trials=trials, hits=len(good), rate=rate, three_sigma=3 * sigma)
    if not good:
        raise ExtractionError(f"no approximating sample in {trials} trials")

    drawn: dict[bytes, np.ndarray] = {}   # distinct shift sequences in the order drawn
    for _ in range(shift_samples):
        seq = good[rng.randrange(len(good))]
        s = as_rows(g, seq - rng.choice(a.elems))
        drawn.setdefault(s.tobytes(), s)
    shifts = list(drawn.values())
    # A'_s: the x in A with every x + s_i in A whose translate X = s + x approximates
    sets = []
    for s in shifts:
        cand = setops.stabilizer_slice(a, s).coords
        floor = _approximation_floor(s, bb, n, k, nb, d_sq)
        sets.append(GSet(g, cand[_overlaps(s, bd, cand) >= floor]))
    sizes = _difference_sizes(sets)
    if not sizes.any():
        raise ExtractionError("all sampled shift slices were empty")
    i0, j0 = divmod(int(np.argmax(sizes)), len(sets))   # the first maximum in (i, j) order
    t_raw = setops.diffset(sets[i0], sets[j0])
    if not corr.values_at(t_raw.coords).all():
        raise InvariantError("periods must come from A - A")
    rep.add_stage("shifts", sampled=len(shifts), pair=[i0, j0],
                  shift_s0=shifts[i0].tolist(), shift_t0=shifts[j0].tolist(),
                  slice_sizes=[len(s) for s in sets])

    # every member of T against the 32|A|^2|B|/k budget, from one correlation of A*B
    budget = 32 * n * n * nb
    within = np.array([k * v <= budget for v in _shift_defects(base, t_raw.coords)], dtype=bool)
    t_set = GSet(g, t_raw.coords[within])
    violations = t_raw.coords[~within].tolist()
    rep.store_set("T", t_set)
    if violations:
        rep.ok = False
        rep.notes.append(f"{len(violations)} members exceeded the almost-period budget")
        rep.add_stage("violations", members=violations)

    k_doub = np.count_nonzero(corr.array) / n
    e_high = float(moments.energy_k(a, 2 * k + 2, corr))
    m_val = e_high * k_doub ** (2 * k + 1) / n ** (2 * k + 3)
    claimed = k_doub * n / (16 * m_val)
    rep.claimed = claimed
    rep.measured = float(len(t_set))
    rep.ratio = len(t_set) / claimed if claimed > 0 else float("inf")
    rep.add_stage("conclusion", size=len(t_set), claimed_floor=claimed, M=m_val, K=k_doub)
    return rep


# ---------------------------------------------------------------------------
# configuration search and covering number


def find_configuration(a: GSet, coeffs: Sequence[int], sign: str = setops.MINUS
                       ) -> tuple[Elem, Elem] | None:
    """First (x, d), d != 0, in lexicographic scan order with
    x + c_i d inside A -+ A for every i; None when no configuration exists."""
    g = a.group
    if not g.is_cyclic:
        raise groups.GroupError("configuration scan needs a finite group")
    coeffs = [int(c) for c in coeffs]
    if not coeffs or all(c == 0 for c in coeffs):
        raise ValueError("coefficients must not be all zero")
    target = setops.diffset(a, a) if sign == setops.MINUS else setops.sumset(a, a)
    member = target.indicator()
    mods = np.array(g.moduli, dtype=np.int64)
    points = full_group(g).coords   # lexicographic; row 0 is the zero element
    # c_i d for every d != 0, c_i reduced first so entries stay below n^2
    reduced = np.array([[c % m for m in g.moduli] for c in coeffs], dtype=np.int64)
    steps = reduced[:, None] * points[None, 1:] % mods   # |coeffs| x (N - 1) x dim
    for x in points:
        hit = member[tuple(np.moveaxis((steps + x) % mods, -1, 0))].all(axis=0)
        j = int(np.argmax(hit))
        if hit[j]:
            return tuple(x.tolist()), tuple(points[j + 1].tolist())
    return None


def nb_cover(b: GSet, cap: int = 64) -> int | None:
    """Smallest n <= cap with nB = G, else None.

    nB = G is translation invariant, so B is shifted to contain 0 first;
    the partial sums then grow monotonically and a fixpoint below G is
    conclusive."""
    g = b.group
    if not g.is_cyclic:
        raise groups.GroupError("covering number needs a finite group")
    if not b:
        return None
    b0 = GSet(g, b.coords - b.coords[0])
    n_amb = g.order
    current = b0
    for n in range(1, cap + 1):
        if len(current) == n_amb:
            return n
        nxt = setops.sumset(current, b0)
        if nxt == current:
            return None
        current = nxt
    return None
