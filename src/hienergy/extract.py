"""Constructive procedures: the reports' normalized energy profile
(`energy_profile`), popular differences, intersection/robust-core
selection, both structured subset extraction pipelines (the second checks
its difference-set transfer on sampled shifts), small-T_3 covering,
almost-period search, and configuration / covering sweeps.

Everything runs on the sorted int64 rows of ``GSet.coords`` and on
``ConvTable`` arrays.  Every integer matrix product is
`moments._exact_product` on an a priori bound of its partial sums, float64
BLAS below 2^53 and int64 below 2^63: m for the intersections |S_i n S_j|
of an n x m membership matrix, n for `robust_core`'s partner counts and
|A|^2 for the slice energies' m_s^T Q.  Two identities turn the L2 defects
of the almost-period search into one entry of a correlation each, a third
turns the small-T_3 slice scores into one gather, and two more let a
family of subsets or of shifts be read in one pass, with
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
  every x.  All trials are drawn before any is decided, so each sum is one
  gather for the whole batch, and the slices of all sampled shift
  sequences are one `setops.slice_masks` family.

* Slice energies.  For the small-T_3 covering, E(A, A_s) = sum over u, v
  in A_s of (A o A)(v - u): the pairs (a, u), (a', v) with a + u = a' + v
  are counted by a - a' = v - u.  With m_s the mask of A_s over the rows
  of A and Q[u, v] = (A o A)(a_v - a_u), one gather of the kept A o A,
  every candidate's energy is the exact integer m_s^T Q m_s <= |A|^3.

* Family energies.  For subsets B_i of one base set A, E_2(B_i) =
  sum_d r_i(d)^2 with r_i(d) the number of pairs (x, y) in B_i x B_i with
  a_x - a_y = d.  Give the |A|^2 differences ids once (`setops.pair_ids`);
  then r_i is one bincount of the ids of row i's pairs, and no B_i needs a
  set or a correlation of its own (`setops.family_energies`, which C34
  reads for every candidate inside A and inside A - A).

* Shared differences.  bsg2's transfer sample at a shift s reads u = x - y
  for x in A_s and y in A, and u + s.  The matrix u[x, y] = a_x - a_y does
  not depend on s, so every sampled shift reads the one matrix and its
  membership in P: P is searched once for u and once for the u + s of all
  shifts, and each |U_s| is a count of distinct ids of the incident u.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import groups, moments, setops
from .groups import Elem, InvariantError
from .gset import GSet, as_rows, full_group, row_keys, sum_rows

SHIFT_SAMPLES = 24   # the shift sequences cs_period_search draws from its good samples


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
        self.outputs[name] = a.coords.tolist()

    def to_json(self) -> str:
        return groups.dumps_json(self.__dict__)


def energy_profile(a: GSet, ks: Iterable[int]) -> dict:
    """Normalized invariants: kappa_k = E_k/|A|^(k+1), delta = |A|/N,
    K = |A-A|/|A| (the sum of the counts of the set's histogram of A o A),
    L = |A+A|/|A| (the nonzero count of A * A, one engine call kept on the set)."""
    if not a:
        raise ValueError("profile needs a nonempty set")
    n = len(a)
    return {
        "set_id": "",
        "size": n,
        "kappa": {str(k): float(moments.energy_k(a, k)) / n ** (k + 1) for k in sorted(map(int, ks))},
        "delta": n / a.group.order if a.group.is_cyclic else None,
        "K": moments._levels(a).total / n,
        "L": a.kept("|A+A|", lambda: int(np.count_nonzero(moments.convolve(a, a).values()))) / n,
    }


# ---------------------------------------------------------------------------
# popular differences


def popular_set(a: GSet, threshold: Fraction | float | None = None) -> GSet:
    """P = {s : (A o A)(s) >= threshold}; default threshold |A|^2 / (2|A-A|).

    With the default threshold the popular part keeps at least half the mass:
    sum_{s in P} (A o A)(s) >= |A|^2 / 2.
    """
    if not a:
        raise ValueError("popular set needs a nonempty A")
    points, values = moments.correlate(a, a).support_rows()
    default = threshold is None
    if default:
        threshold = Fraction(len(a) ** 2, 2 * len(values))  # |A - A| support points
    if isinstance(threshold, float):
        threshold = Fraction(threshold).limit_denominator(10 ** 12)
    keep = values >= math.ceil(threshold)   # counts are integers; no product is formed
    if default and 2 * int(values[keep].sum()) < len(a) ** 2:
        raise InvariantError("popular mass fell below |A|^2/2")
    return GSet(a.group, points[keep])


# ---------------------------------------------------------------------------
# intersection selection machinery


def _select(member: np.ndarray, inter: np.ndarray, delta: float,
            eta: float) -> tuple[list[int], int]:
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
            return members.tolist(), a_idx
    raise ExtractionError("no column of the membership table satisfies both selection bounds")


def robust_core(member: np.ndarray, delta: float) -> list[int]:
    """Two-step-connected core J' of the family given by the rows of an
    n x m membership matrix: every i, j in J' share, over the whole index
    set, at least 2^-2 delta n partners k with |S_i n S_k|, |S_j n S_k| >=
    2^-4 delta^2 m.  Verified before returning."""
    if member.ndim != 2 or member.dtype != bool or 0 in member.shape:
        raise ValueError("need a nonempty family and universe as a boolean matrix")
    n, m = member.shape
    inter = moments._exact_product(member, member.T, m)   # |S_i n S_j|
    j_set, _ = _select(member, inter, delta, eta=1 / 8)
    strong = inter >= delta * delta * m / 16  # 2^-4 delta^2 m
    # each member's strong partners inside J
    partners = strong[np.ix_(j_set, j_set)].sum(axis=1)
    core = np.array(j_set)[partners >= 0.75 * len(j_set)].tolist()
    if len(core) < delta * n / 32 * (1 - 1e-12):
        raise InvariantError("robust core fell below 2^-5 delta n")
    partner_floor = delta * n / 4
    # the partners shared by i and j: entry (i, j) of strong strong^T
    rows = strong[core]
    if (moments._exact_product(rows, rows.T, n) < partner_floor * (1 - 1e-12)).any():
        raise InvariantError("two-step connectivity failed on the core")
    return core


# ---------------------------------------------------------------------------
# structured-subset pipelines


def _popularity_family(a: GSet, e: int) -> np.ndarray:
    """|A| x |A| incidence matrix of 2|A|^2 (A o A)(x - y) >= e, rows x and
    columns y in the order of A, from one gather of A o A."""
    n = len(a)
    diffs = (a.coords[:, None] - a.coords[None]).reshape(-1, a.group.dim)
    corr = moments.correlate(a, a).values_at(diffs).reshape(n, n)
    return corr >= -(-e // (2 * n * n))   # integer ceiling


def bsg_extract(a: GSet, eps: float = 1.0) -> ExtractionReport:
    """Dense-popularity extraction: builds the popularity family
    S_a = {b in A : (A o A)(a - b) >= |A|/(2K)}, validates the mass lower
    bound forced by E_(2+eps), and returns the robust core as A'."""
    if not a:
        raise ValueError("extraction needs a nonempty set")
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    n = len(a)
    e2 = moments.energy_k(a, 2)
    k_val = float(Fraction(n ** 3, e2))
    e2e = moments.energy_k(a, 2 + eps)
    m_val = float(e2e) * k_val ** (1 + eps) / n ** (3 + eps)
    rep = ExtractionReport("bsg1", energy_profile(a, (2, 3)), {"eps": eps})
    rep.add_stage("normalize", K=k_val, M=m_val, E2=e2, E2_eps=float(e2e))

    g = a.group
    # S_a via the exact comparison 2|A|^2 (A o A)(a-b) >= E_2
    incidence = _popularity_family(a, e2)
    mass = int(incidence.sum())
    floor = n * n / (2 ** ((1 + eps) / eps) * m_val ** (1 / eps))
    if mass < floor * (1 - 1e-9):
        raise InvariantError(f"popularity mass {mass} fell below the forced bound {floor}")
    rep.add_stage("family", mass=mass, forced_floor=floor)

    delta = 2 ** (-(1 + eps) / eps) * m_val ** (-1 / eps)
    core = robust_core(incidence, delta)
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
    e2 = moments.energy_k(a, 2)
    k_val = float(Fraction(n ** 3, e2))
    e3e = moments.energy_k(a, 3 + eps)
    m_val = float(e3e) * k_val ** (2 + eps) / n ** (4 + eps)
    rep = ExtractionReport("bsg2", energy_profile(a, (2, 3, 4)),
                           {"eps": eps, "nm": list(map(list, nm)), "seed": seed})
    rep.add_stage("normalize", K=k_val, M=m_val, E2=e2, E3_eps=float(e3e))

    # popular differences at level |A|/(2K) = E_2/(2|A|^2)
    p_set = popular_set(a, Fraction(e2, 2 * n * n))
    p_mass = int(moments.correlate(a, a).values_at(p_set.coords).sum())
    forced = (e2 / 2) ** ((2 + eps) / (1 + eps)) / float(e3e) ** (1 / (1 + eps))
    if p_mass < forced * (1 - 1e-9):
        raise InvariantError(f"popular mass {p_mass} fell below the forced bound {forced}")
    gamma = p_mass / n ** 2
    rep.add_stage("popular", size=len(p_set), mass=p_mass, forced_floor=forced, gamma=gamma)

    # sampled verification of the union inequality feeding E(P)
    rng = random.Random(seed)
    order = list(range(len(p_set)))
    rng.shuffle(order)   # the permutation a shuffle of the elements takes
    checks = []
    for sample in _transfer_samples(a, p_set, p_set.coords[order[:6]]):
        checks.append(sample)
        if not (sample["contained"] and sample["cs_ok"] and sample["pp_ok"]):
            raise InvariantError(f"difference-set transfer failed at shift {sample['s']}")
    rep.add_stage("transfer_checks", samples=checks)

    # selection machinery on the popular set itself
    ep = moments.energy_k(p_set, 2)
    kp = Fraction(len(p_set) ** 3, ep)
    p_n = len(p_set)
    incidence = _popularity_family(p_set, ep)
    # sum_(i,j) |S_i n S_j| counts, for each column, the ordered pairs of its rows
    pair_total = int((incidence.sum(axis=0) ** 2).sum())
    delta_p = math.sqrt(pair_total / (p_n ** 3))
    core = robust_core(incidence, delta_p)
    p_prime = GSet(g, p_set.coords[core])
    rep.add_stage("difference_core", K_P=float(kp), delta=delta_p, size=len(p_prime))
    rep.store_set("P_prime", p_prime)

    # best translate pulls the structure back into A: (P' o A)(x) = |A n (P' + x)|,
    # and the first maximum in sorted order wins
    best_x, best_hit = moments.correlate(p_prime, a).argmax()
    a_prime = a.subset(p_prime.isin(as_rows(g, a.coords - best_x)))
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


def _transfer_samples(a: GSet, p_set: GSet, shifts: np.ndarray) -> list[dict]:
    """The difference-set transfer sample of each shift s, a row of an int64
    matrix, in order.  For x in A_s (so x + s is in A) and y in A, with
    u = x - y, y lies in S_x n S_(x+s) iff u and u + s are in P; such u make
    the union U_s, each u must lie in P_s = P n (P - s) (`contained`), and
    Cauchy-Schwarz gives |U_s| E(A_s, A) >= incidence^2 (`cs_ok`) and
    (P o P)(s) = |P_s| >= |U_s| (`pp_ok`).

    Every shift shares A's difference matrix u[x, y] = a_x - a_y, built for
    the x in some A_s: P is searched once for u, and once for the u + s of
    every x in every A_s, in blocks of whole shifts of at most 2^22 rows;
    the incident u get ids from one sort, so |U_s| is a count of distinct
    ids per shift (`setops.distinct_counts`); `contained` is one gather of
    the P_s masks at u's place in P; and E(A_s, A) for every s is one
    `_slice_energies` gather."""
    g, n, d = a.group, len(a), a.group.dim
    a_family, p_family = setops.slice_masks(a, shifts), setops.slice_masks(p_set, shifts)
    e_pairs = _slice_energies(a, a_family).tolist()
    rows = np.flatnonzero(a_family.any(axis=0))   # the x in some A_s
    u = sum_rows(g, a.coords[rows, None], a.coords[None], minus=True)   # row r n + y
    in_p = p_set.isin(u).reshape(len(rows), n)
    which, xs = np.nonzero(a_family[:, rows])   # (shift, x in A_s as an index of rows)
    sizes = a_family.sum(axis=1)
    ends = np.cumsum(sizes)
    moved_in = np.empty((len(xs), n), dtype=bool)
    lo = 0
    for i in range(len(shifts)):   # close a block before the next shift passes 2^22 rows
        if i + 1 == len(shifts) or (ends[i + 1] - lo) * n > setops._BLOCK:
            part = slice(lo, ends[i])
            moved = sum_rows(g, u.reshape(len(rows), n, d)[xs[part]], shifts[which[part]][:, None])
            moved_in[part] = p_set.isin(moved).reshape(-1, n)
            lo = ends[i]
    entry, ys = np.nonzero(in_p[xs] & moved_in)
    shift_of = which[entry]
    keys = row_keys(g, u)[xs[entry] * n + ys]   # the incident u
    values, ids = np.unique(keys, return_inverse=True)
    union = setops.distinct_counts(shift_of, ids, len(shifts), len(values))
    place = np.searchsorted(p_set.keys, values)[ids]
    contained = np.bincount(shift_of[~p_family[shift_of, place]], minlength=len(shifts)) == 0
    pp = moments.correlate(p_set, p_set).values_at(shifts).tolist()
    incidence = np.bincount(shift_of, minlength=len(shifts)).tolist()
    return [{"s": s, "contained": inside, "cs_ok": size * (e_pair if a_s else 1) >= hits ** 2,
             "pp_ok": p_s >= size, "incidence": hits}
            for s, inside, size, e_pair, a_s, p_s, hits in zip(
                shifts.tolist(), contained.tolist(), union.tolist(), e_pairs, sizes.tolist(), pp,
                incidence)]


def _slice_energies(a: GSet, member: np.ndarray) -> np.ndarray:
    """E(A, B_i) = m_i^T Q m_i (module docstring) for each row m_i of a
    boolean matrix over the rows of A, with Q gathered from the kept A o A
    in blocks of at most 2^22 entries."""
    n, d = len(a), a.group.dim
    corr = moments.correlate(a, a)
    energies = np.zeros(len(member), dtype=np.int64)
    step = max(1, setops._BLOCK // max(1, n))
    for lo in range(0, n, step):
        cols = a.coords[lo:lo + step]
        q = corr.values_at((cols[None] - a.coords[:, None]).reshape(-1, d)).reshape(n, len(cols))
        energies += (moments._exact_product(member, q, n * n) * member[:, lo:lo + step]).sum(axis=1)
    return energies


def small_t4_extract(a: GSet) -> ExtractionReport:
    """Small-T_3 covering: locates a slice B = A_s with large E(A, B) and
    greedily covers A by translates of B."""
    if not a:
        raise ValueError("extraction needs a nonempty set")
    n = len(a)
    g = a.group
    corr = moments.correlate(a, a)
    profile = energy_profile(a, (2, 3))
    k_val = profile["K"]   # |A - A| / |A|
    t3 = moments.t_k(a, 3)
    m_val = float(t3) * k_val ** 2 / n ** 5
    e3 = moments.energy_k(a, 3)
    rep = ExtractionReport("smallT4", profile, {})
    rep.add_stage("normalize", K=k_val, M=m_val, T3=t3, gamma=float(e3) / n ** 4)

    points, values = corr.support_rows()
    # needs |A_s| > gamma |A| / 2 strictly: 2|A|^3 v > E_3, for integer v; shift 0
    # always passes, (A o A)(0) = |A| > |A| / 2 >= E_3 // (2|A|^3), so B is a slice of A
    shifts = points[values > e3 // (2 * n ** 3)]
    member = setops.slice_masks(a, shifts)
    e_pairs = _slice_energies(a, member).tolist()   # E(A, A_s) per shift
    betas = [e / (n * m * m) for e, m in zip(e_pairs, member.sum(axis=1).tolist())]
    i = betas.index(max(betas))   # the first maximum in the order of the shifts
    b, e_ab = a.subset(member[i]), e_pairs[i]
    rep.add_stage("slice", s=shifts[i].tolist(), beta=betas[i], size=len(b))
    rep.store_set("B", b)

    target = n / m_val ** 1.5
    threshold = e_ab / (2 * n * len(b))
    remaining = a
    chosen: list[Elem] = []
    covered = 0
    while covered < target and len(chosen) < n:
        # (B o R)(r) = |(B + r) n R|; the first maximum in sorted order wins
        best_r, gain = moments.correlate(b, remaining).argmax()
        if gain < max(1.0, threshold):
            break
        chosen.append(best_r)
        remaining = remaining.subset(~b.translate(best_r).isin(remaining.coords))
        covered = n - len(remaining)
    r_set = GSet(g, chosen or [(0,) * g.dim])
    coverage = len(a) - len(remaining) if chosen else len(b)
    rep.store_set("R", r_set)
    rep.add_stage("cover", coverage=coverage, target=target, translates=len(r_set),
                  eb_ratio=float(moments.energy_k(b, 2)) / (len(b) ** 3 / m_val ** 4.5))
    rep.claimed = target
    rep.measured = float(coverage)
    rep.ratio = coverage / target if target > 0 else float("inf")
    return rep


# ---------------------------------------------------------------------------
# almost periods


def _shift_defects(cc: moments.ConvTable, shifts: np.ndarray) -> list[int]:
    """sum_x (c(x) - c(x+t))^2 for each row t of shifts, read off the
    correlation cc = c o c as 2((c o c)(0) - (c o c)(t)) (module docstring)."""
    at_zero = int(cc.values_at(np.zeros((1, cc.group.dim), dtype=np.int64))[0])
    return [2 * (at_zero - v) for v in cc.values_at(shifts).tolist()]


def almost_period_check(a: GSet, b: GSet, t) -> int:
    """Exact squared L2 shift defect sum_x ((A*B)(x) - (A*B)(x+t))^2."""
    if a.group != b.group:
        raise groups.GroupError("almost-period operands live in different groups")
    c = moments.convolve(a, b)
    return _shift_defects(moments.correlate(c, c), as_rows(a.group, [t]))[0]


def _approximation_floors(seqs: np.ndarray, bb: moments.ConvTable, n: int, nb: int,
                          d_sq: int) -> np.ndarray:
    """Least (c o d)(x) at which X + x approximates, for each sequence X of
    an m x k x dim stack, c = mu_X * B, bb = B o B and d_sq = |A*B|^2
    (module docstring).  |c|^2 = sum_(i,j) (B o B)(s_i - s_j) <= k^2 |B|
    comes from one gather for the whole stack; the floor is formed in int64
    while every numerator is bounded below 2^63 (d_sq <= |A|^2 |B|), else in
    Python ints."""
    m, k, d = seqs.shape
    c_sq = bb.values_at((seqs[:, :, None] - seqs[:, None]).reshape(-1, d)).reshape(m, k * k).sum(axis=1)
    if n * n * nb * k * (k + 2) + k * k * d_sq < 1 << 63:
        return -(-(n * n * (c_sq - 2 * nb * k) + k * k * d_sq) // (2 * n * k))   # ceiling
    return np.array([-(-(n * n * (c - 2 * nb * k) + k * k * d_sq) // (2 * n * k))
                     for c in c_sq.tolist()], dtype=np.int64)


def _overlaps(seqs: np.ndarray, bd: moments.ConvTable, points: np.ndarray) -> np.ndarray:
    """(c o d)(x) = sum_i (B o d)(s_i + x) for each sequence of an m x k x dim
    stack and its point x, row of an m x dim matrix, with bd = B o d; each
    sum is at most k |B| |A|."""
    m, k, d = seqs.shape
    return bd.values_at((seqs + points[:, None]).reshape(-1, d)).reshape(m, k).sum(axis=1)


def _draw_shifts(rng: random.Random, good: np.ndarray, a: GSet) -> np.ndarray:
    """The distinct shift sequences X - x, in the order first drawn, of
    SHIFT_SAMPLES draws of a sequence X from the m x k x dim stack `good`,
    each followed by a draw of x from A (randrange takes the one draw that
    choice takes), reduced by one `as_rows` for all draws."""
    picks = [(rng.randrange(len(good)), rng.randrange(len(a))) for _ in range(SHIFT_SAMPLES)]
    seqs, xs = np.array(picks, dtype=np.int64).T
    _, k, d = good.shape
    drawn = as_rows(a.group, (good[seqs] - a.coords[xs][:, None]).reshape(-1, d))
    drawn = drawn.reshape(len(picks), k, d)
    first: dict[bytes, int] = {}
    for i, row in enumerate(drawn):
        first.setdefault(row.tobytes(), i)
    return drawn[list(first.values())]


def cs_period_search(a: GSet, b: GSet, k: int, trials: int = 200,
                     seed: int = 1) -> ExtractionReport:
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
    # E(A, B) = sum_x (A*B)(x)^2, one square sum of the table; A*B's own
    # correlation waits for the budget step, its only reader, so the search
    # does not hold it
    d_sq = base.square_sum()
    bb, bd = moments.correlate(b, b), moments.correlate(b, base)
    corr = moments.correlate(a, a)   # its support is A - A
    profile = energy_profile(a, (2,))
    rep = ExtractionReport("cs", profile, {"k": k, "trials": trials, "seed": seed})

    # every trial's sequence first: randrange(n) takes the one draw choice over A would
    picks = np.array([rng.randrange(n) for _ in range(trials * k)], dtype=np.int64)
    seqs = a.coords[picks.reshape(trials, k)]
    # the defect of X itself: the identity at x = 0
    origins = np.zeros((trials, g.dim), dtype=np.int64)
    good = seqs[_overlaps(seqs, bd, origins) >= _approximation_floors(seqs, bb, n, nb, d_sq)]
    rate = len(good) / trials if trials else 0.0
    sigma = math.sqrt(0.25 / trials) if trials else 0.0
    rep.add_stage("sampling", trials=trials, hits=len(good), rate=rate, three_sigma=3 * sigma)
    if not len(good):
        raise ExtractionError(f"no approximating sample in {trials} trials")

    shifts = _draw_shifts(rng, good, a)
    # A'_s: the x in A with every x + s_i in A (the family of all shift rows,
    # ANDed per sequence) whose translate X = s + x approximates
    member = setops.slice_masks(a, shifts.reshape(-1, g.dim)).reshape(len(shifts), k, n).all(axis=1)
    seq_ids, xs = np.nonzero(member)
    floors = _approximation_floors(shifts, bb, n, nb, d_sq)
    member[seq_ids, xs] = _overlaps(shifts[seq_ids], bd, a.coords[xs]) >= floors[seq_ids]
    sizes = setops.family_sumset_sizes(a, member, member)   # |A'_s - A'_t| for every pair
    if not sizes.any():
        raise ExtractionError("all sampled shift slices were empty")
    i0, j0 = divmod(int(np.argmax(sizes)), len(member))   # the first maximum in (i, j) order
    t_raw = setops.diffset(a.subset(member[i0]), a.subset(member[j0]))
    if not corr.values_at(t_raw.coords).all():
        raise InvariantError("periods must come from A - A")
    rep.add_stage("shifts", sampled=len(shifts), pair=[i0, j0],
                  shift_s0=shifts[i0].tolist(), shift_t0=shifts[j0].tolist(),
                  slice_sizes=member.sum(axis=1).tolist())

    # every member of T against the 32|A|^2|B|/k budget, from one correlation of A*B
    budget = 32 * n * n * nb
    defects = _shift_defects(moments.correlate(base, base), t_raw.coords)
    within = np.array([k * v <= budget for v in defects], dtype=bool)
    t_set = t_raw.subset(within)
    violations = t_raw.coords[~within].tolist()
    rep.store_set("T", t_set)
    if violations:
        rep.ok = False
        rep.notes.append(f"{len(violations)} members exceeded the almost-period budget")
        rep.add_stage("violations", members=violations)

    k_doub = profile["K"]
    e_high = float(moments.energy_k(a, 2 * k + 2))
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
