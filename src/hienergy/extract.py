"""Constructive procedures: popular differences, the difference-set transfer
A - A_s <= D n (D+s), intersection/robust-core selection, both structured
subset extraction pipelines, small-T_3 covering, almost-period search, and
configuration / covering sweeps."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import groups, moments, setops
from .groups import Elem, GroupSpec, InvariantError
from .gset import GSet, as_rows
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


def popular_set(a: GSet, threshold: Fraction | float | None = None) -> GSet:
    """P = {s : (A o A)(s) >= threshold}; default threshold |A|^2 / (2|A-A|).

    With the default threshold the popular part keeps at least half the mass:
    sum_{s in P} (A o A)(s) >= |A|^2 / 2.
    """
    if not a:
        raise ValueError("popular set needs a nonempty A")
    corr = moments.correlate(a, a)
    default = threshold is None
    if default:
        d_size = corr.support_size()  # |A - A|
        threshold = Fraction(len(a) ** 2, 2 * d_size)
    if isinstance(threshold, float):
        threshold = Fraction(threshold).limit_denominator(10 ** 12)
    picked = []
    kept_mass = 0
    for elem, v in corr.support():
        if v >= threshold:
            picked.append(elem)
            kept_mass += v
    out = GSet(a.group, picked)
    if default and 2 * kept_mass < len(a) ** 2:
        raise InvariantError("popular mass fell below |A|^2/2")
    return out


def katz_koester(a: GSet, s, sign: str = setops.MINUS) -> tuple[GSet, bool]:
    """A -+ A_s together with the verified containment inside D n (D +- s),
    where D = A -+ A.  The containment is unconditional; the flag records the
    explicit re-check."""
    g = a.group
    s = groups.as_elem(g, s)
    a_s = setops.stabilizer_slice(a, [s])
    if not a_s:
        return a_s, True
    if sign == setops.MINUS:
        moved = setops.diffset(a, a_s)
        d = setops.diffset(a, a)
        window = d.intersect(d.translate(s))
    else:
        moved = setops.sumset(a, a_s)
        d = setops.sumset(a, a)
        window = d.intersect(d.translate(groups.op_neg(g, s)))
    return moved, moved.issubset(window)


# ---------------------------------------------------------------------------
# intersection selection machinery


def _family_masks(family: Sequence[GSet], universe: GSet) -> list[int]:
    pos = {e: i for i, e in enumerate(universe.elems)}
    masks = []
    for s in family:
        m = 0
        for e in s.elems:
            if e not in pos:
                raise ValueError("family member leaves the universe")
            m |= 1 << pos[e]
        masks.append(m)
    return masks


def intersection_select(family: Sequence[GSet], universe: GSet, delta: float,
                        eta: float) -> tuple[list[int], Elem]:
    """Pick J = K_alpha = {i : alpha in S_i} for the first alpha in universe
    order with |K_alpha| >= delta n / sqrt(2) and pair density
    |{(i,j) in J^2 : |S_i n S_j| >= eta delta^2 m / 2}| >= (1 - eta)|J|^2.

    The pair threshold uses m = |universe| (the counting in the selection
    argument runs over the universe, not the index set)."""
    n = len(family)
    m = len(universe)
    if n == 0 or m == 0:
        raise ValueError("need a nonempty family and universe")
    masks = _family_masks(family, universe)
    total_pairs = 0
    k_masks = [0] * m
    for i, mask in enumerate(masks):
        rem = mask
        while rem:
            low = rem & -rem
            k_masks[low.bit_length() - 1] |= 1 << i
            rem ^= low
    total_pairs = sum(km.bit_count() ** 2 for km in k_masks)
    if total_pairs < delta * delta * m * n * n * (1 - 1e-12):
        raise ExtractionError(
            f"selection precondition fails: sum |S_i n S_j| = {total_pairs} "
            f"< delta^2 m n^2 = {delta * delta * m * n * n}")
    size_floor = delta * n / math.sqrt(2)
    pair_floor = eta * delta * delta * m / 2
    for a_idx, km in enumerate(k_masks):
        members = [i for i in range(n) if km >> i & 1]
        if len(members) < size_floor:
            continue
        good = 0
        for i in members:
            for j in members:
                if (masks[i] & masks[j]).bit_count() >= pair_floor:
                    good += 1
        if good >= (1 - eta) * len(members) ** 2:
            return members, universe.elems[a_idx]
    raise ExtractionError("no column of the membership table satisfies both selection bounds")


def robust_core(family: Sequence[GSet], universe: GSet, delta: float) -> list[int]:
    """Two-step-connected core J': every i, j in J' share, over the whole
    index set, at least 2^-2 delta n partners k with
    |S_i n S_k|, |S_j n S_k| >= 2^-4 delta^2 m.  Verified before returning."""
    eta = 1 / 8
    n = len(family)
    m = len(universe)
    j_set, _alpha = intersection_select(family, universe, delta, eta)
    masks = _family_masks(family, universe)
    floor = delta * delta * m / 16  # 2^-4 delta^2 m
    v_rows = {i: {j for j in j_set if (masks[i] & masks[j]).bit_count() >= floor}
              for i in j_set}
    need = 0.75 * len(j_set)
    core = [i for i in j_set if len(v_rows[i]) >= need]
    if len(core) < delta * n / 32 * (1 - 1e-12):
        raise InvariantError("robust core fell below 2^-5 delta n")
    partner_floor = delta * n / 4
    strong = [set(j for j in range(n) if (masks[i] & masks[j]).bit_count() >= floor)
              for i in range(n)]
    for i in core:
        for j in core:
            if len(strong[i] & strong[j]) < partner_floor * (1 - 1e-12):
                raise InvariantError("two-step connectivity failed on the core")
    return core


# ---------------------------------------------------------------------------
# structured-subset pipelines


def _doubling_from_energy(a: GSet) -> tuple[int, Fraction]:
    e2 = moments.energy_k(a, 2)
    return e2, Fraction(len(a) ** 3, e2)


def bsg_extract(a: GSet, eps: float = 1.0) -> ExtractionReport:
    """Dense-popularity extraction: builds the popularity family
    S_a = {b in A : (A o A)(a - b) >= |A|/(2K)}, validates the mass lower
    bound forced by E_(2+eps), and returns the robust core as A'."""
    if not a:
        raise ValueError("extraction needs a nonempty set")
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    n = len(a)
    e2, k_inv = _doubling_from_energy(a)
    k_val = float(k_inv)
    e2e = moments.energy_k(a, 2 + eps)
    m_val = float(e2e) * k_val ** (1 + eps) / n ** (3 + eps)
    profile = EnergyProfile.from_set(a, ks=(2, 3))
    rep = ExtractionReport("bsg1", profile.as_dict(), {"eps": eps})
    rep.add_stage("normalize", K=k_val, M=m_val, E2=e2, E2_eps=float(e2e))

    corr = moments.correlate(a, a)
    g = a.group
    # S_a via the exact comparison 2|A|^2 (A o A)(a-b) >= E_2
    fam = []
    mass = 0
    for x in a.elems:
        members = [y for y in a.elems if 2 * n * n * corr.value(groups.op_sub(g, x, y)) >= e2]
        mass += len(members)
        fam.append(GSet(g, members))
    floor = n * n / (2 ** ((1 + eps) / eps) * m_val ** (1 / eps))
    if mass < floor * (1 - 1e-9):
        raise InvariantError(f"popularity mass {mass} fell below the forced bound {floor}")
    rep.add_stage("family", mass=mass, forced_floor=floor)

    delta = 2 ** (-(1 + eps) / eps) * m_val ** (-1 / eps)
    core = robust_core(fam, a, delta)
    a_prime = GSet(g, [a.elems[i] for i in core])
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
    e2, k_inv = _doubling_from_energy(a)
    k_val = float(k_inv)
    e3e = moments.energy_k(a, 3 + eps)
    m_val = float(e3e) * k_val ** (2 + eps) / n ** (4 + eps)
    profile = EnergyProfile.from_set(a, ks=(2, 3, 4))
    rep = ExtractionReport("bsg2", profile.as_dict(), {"eps": eps, "nm": list(map(list, nm)), "seed": seed})
    rep.add_stage("normalize", K=k_val, M=m_val, E2=e2, E3_eps=float(e3e))

    # popular differences at level |A|/(2K) = E_2/(2|A|^2)
    p_set = popular_set(a, Fraction(e2, 2 * n * n))
    corr = moments.correlate(a, a)
    p_mass = sum(corr.value(s) for s in p_set)
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
    s_fam = {x: GSet(g, [y for y in a.elems if groups.op_sub(g, x, y) in p_set.as_set])
             for x in a.elems}
    p_corr = moments.correlate(p_set, p_set)
    for s in sample[:6]:
        a_s = setops.stabilizer_slice(a, [s])
        union: set[Elem] = set()
        incidence = 0
        for x in a_s.elems:
            x_shift = groups.op_sub(g, x, s)
            both = s_fam[x].intersect(s_fam.get(x_shift, GSet(g, [])))
            incidence += len(both)
            union.update(groups.op_sub(g, x, b) for b in both.elems)
        window = p_set.intersect(p_set.translate(s))
        contained = all(u in window.as_set for u in union)
        e_pair = moments.energy_pair(a_s, a) if a_s else 1
        cs_ok = len(union) * e_pair >= incidence ** 2
        pp_ok = p_corr.value(s) >= len(union)
        checks.append({"s": list(s), "contained": contained, "cs_ok": cs_ok, "pp_ok": pp_ok})
        if not (contained and cs_ok and pp_ok):
            raise InvariantError(f"difference-set transfer failed at shift {s}")
    rep.add_stage("transfer_checks", samples=checks)

    # selection machinery on the popular set itself
    ep = moments.energy_k(p_set, 2)
    kp = Fraction(len(p_set) ** 3, ep)
    fam = []
    p_n = len(p_set)
    for q in p_set.elems:
        members = [r for r in p_set.elems
                   if 2 * p_n * p_n * p_corr.value(groups.op_sub(g, q, r)) >= ep]
        fam.append(GSet(g, members))
    pair_total = 0
    masks = _family_masks(fam, p_set)
    for mi in masks:
        for mj in masks:
            pair_total += (mi & mj).bit_count()
    delta_p = math.sqrt(pair_total / (p_n ** 3))
    core = robust_core(fam, p_set, delta_p)
    p_prime = GSet(g, [p_set.elems[i] for i in core])
    rep.add_stage("difference_core", K_P=float(kp), delta=delta_p, size=len(p_prime))
    rep.store_set("P_prime", p_prime)

    # best translate pulls the structure back into A
    best_x, best_hit = None, -1
    for x in sorted({groups.op_sub(g, x, q) for x in a.elems for q in p_prime.elems}):
        hit = sum(1 for e in a.elems if groups.op_sub(g, e, x) in p_prime.as_set)
        if hit > best_hit:
            best_x, best_hit = x, hit
    a_prime = GSet(g, [e for e in a.elems if groups.op_sub(g, e, best_x) in p_prime.as_set])
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
    d = setops.diffset(a, a)
    k_val = len(d) / n
    t3 = moments.t_k(a, 3)
    m_val = float(t3) * k_val ** 2 / n ** 5
    e3 = moments.energy_k(a, 3)
    profile = EnergyProfile.from_set(a, ks=(2, 3))
    rep = ExtractionReport("smallT4", profile.as_dict(), {})
    rep.add_stage("normalize", K=k_val, M=m_val, T3=t3, gamma=float(e3) / n ** 4)

    corr = moments.correlate(a, a)
    best_s, best_beta, best_slice = None, -1.0, None
    for s, v in sorted(corr.support()):
        if 2 * n ** 3 * v <= e3:  # needs |A_s| > gamma |A| / 2 strictly
            continue
        a_s = setops.stabilizer_slice(a, [s])
        beta = moments.energy_pair(a, a_s) / (n * len(a_s) ** 2)
        if beta > best_beta:
            best_s, best_beta, best_slice = s, beta, a_s
    if best_slice is None:
        b = a
        rep.notes.append("no slice above the gamma floor; degenerate covering with B = A")
    else:
        b = best_slice
        rep.add_stage("slice", s=list(best_s), beta=best_beta, size=len(b))
    rep.store_set("B", b)

    target = n / m_val ** 1.5
    threshold = moments.energy_pair(a, b) / (2 * n * len(b))
    remaining = a
    chosen: list[Elem] = []
    covered = 0
    while covered < target and len(chosen) < n:
        hits = moments.correlate(b, remaining)
        best_r, gain = None, 0
        for r, v in sorted(hits.support()):
            if v > gain:
                best_r, gain = r, v
        if best_r is None or gain < max(1.0, threshold):
            break
        chosen.append(best_r)
        shifted = b.translate(best_r)
        remaining = GSet(g, [e for e in remaining.elems if e not in shifted.as_set])
        covered = n - len(remaining)
    r_set = GSet(g, chosen) if chosen else GSet(g, [groups.zero(g)])
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


def almost_period_check(a: GSet, b: GSet, t) -> int:
    """Exact squared L2 shift defect sum_x ((A*B)(x) - (A*B)(x+t))^2."""
    if a.group != b.group:
        raise groups.GroupError("almost-period operands live in different groups")
    g = a.group
    t = groups.as_elem(g, t)
    table = moments.convolve(a, b)
    if g.is_cyclic:
        arr = table.array
        shifted = arr
        for ax, c in enumerate(t):
            shifted = np.roll(shifted, -c, axis=ax)
        return int(((arr - shifted) ** 2).sum(dtype=object))
    support = {elem for elem, _ in table.support()}
    points = support | {groups.op_sub(g, e, t) for e in support}
    return sum((table.value(x) - table.value(groups.op_add(g, x, t))) ** 2 for x in points)


def _sequence_conv(g: GroupSpec, seq: Sequence[Elem], b: GSet) -> moments.ConvTable:
    rows = as_rows(g, seq)
    lo = np.zeros(g.dim, dtype=np.int64) if g.is_cyclic else rows.min(axis=0)
    shape = g.moduli if g.is_cyclic else tuple(int(s) for s in rows.max(axis=0) - lo + 1)
    arr = np.zeros(shape, dtype=np.int64)
    np.add.at(arr, tuple((rows - lo).T), 1)   # multiplicities of the sequence
    table = moments.ConvTable(g, arr, tuple(int(v) for v in lo))
    return moments.convolve(table, moments.ConvTable.from_gset(b))


def _approximates(g: GroupSpec, seq: Sequence[Elem], a: GSet, b: GSet, k: int,
                  base: moments.ConvTable) -> bool:
    """Exact form of ||mu_X * B - A * B||_2^2 <= 2|A|^2|B|/k: the defect is
    sum (|A| c - k d)^2 / k^2 with integer tables c, d."""
    n = len(a)
    conv = _sequence_conv(g, seq, b)
    if g.is_cyclic:
        lhs = int((((n * conv.array) - k * base.array) ** 2).sum(dtype=object))
    else:
        pts = {e for e, _ in conv.support()} | {e for e, _ in base.support()}
        lhs = sum((n * conv.value(x) - k * base.value(x)) ** 2 for x in pts)
    return lhs <= 2 * n * n * len(b) * k


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
    n = len(a)
    rng = random.Random(seed)
    base = moments.convolve(a, b)
    profile = EnergyProfile.from_set(a, ks=(2,))
    rep = ExtractionReport("cs", profile.as_dict(),
                           {"k": k, "trials": trials, "seed": seed})

    good: list[tuple[Elem, ...]] = []
    hits = 0
    for _ in range(trials):
        seq = tuple(rng.choice(a.elems) for _ in range(k))
        if _approximates(g, seq, a, b, k, base):
            hits += 1
            good.append(seq)
    rate = hits / trials if trials else 0.0
    sigma = math.sqrt(0.25 / trials) if trials else 0.0
    rep.add_stage("sampling", trials=trials, hits=hits, rate=rate, three_sigma=3 * sigma)
    if not good:
        raise ExtractionError(f"no approximating sample in {trials} trials")

    shifts: list[tuple[Elem, ...]] = []
    seen: set[tuple[Elem, ...]] = set()
    for _ in range(shift_samples):
        seq = good[rng.randrange(len(good))]
        base_pt = rng.choice(a.elems)
        s = tuple(groups.op_sub(g, x, base_pt) for x in seq)
        if s not in seen:
            seen.add(s)
            shifts.append(s)
    slices: list[list[Elem]] = []
    for s in shifts:
        members = []
        for x in a.elems:
            moved = tuple(groups.op_add(g, si, x) for si in s)
            if all(m in a.as_set for m in moved) and _approximates(g, moved, a, b, k, base):
                members.append(x)
        slices.append(members)
    sets = [GSet(g, members) for members in slices]
    best = (-1, 0, 0)
    for i in range(len(shifts)):
        for j in range(len(shifts)):
            if not sets[i] or not sets[j]:
                continue
            size = len(setops.diffset(sets[i], sets[j]))
            if size > best[0]:
                best = (size, i, j)
    if best[0] < 0:
        raise ExtractionError("all sampled shift slices were empty")
    _, i0, j0 = best
    t_raw = setops.diffset(sets[i0], sets[j0])
    if not t_raw.issubset(setops.diffset(a, a)):
        raise InvariantError("periods must come from A - A")
    rep.add_stage("shifts", sampled=len(shifts), pair=[i0, j0],
                  shift_s0=[list(e) for e in shifts[i0]],
                  shift_t0=[list(e) for e in shifts[j0]],
                  slice_sizes=[len(s) for s in slices])

    budget = 32 * n * n * len(b)
    valid, violations = [], []
    for t in t_raw.elems:
        if k * almost_period_check(a, b, t) <= budget:
            valid.append(t)
        else:
            violations.append(list(t))
    t_set = GSet(g, valid)
    rep.store_set("T", t_set)
    if violations:
        rep.ok = False
        rep.notes.append(f"{len(violations)} members exceeded the almost-period budget")
        rep.add_stage("violations", members=violations)

    d = setops.diffset(a, a)
    k_doub = len(d) / n
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
    member = target.as_set
    zero_elem = groups.zero(g)
    for x in groups.enumerate_elements(g):
        for d in groups.enumerate_elements(g):
            if d == zero_elem:
                continue
            if all(groups.op_add(g, x, groups.op_scale(g, c, d)) in member for c in coeffs):
                return x, d
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
    base = b.elems[0]
    b0 = b.translate(groups.op_neg(g, base))
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
