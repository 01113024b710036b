import hashlib
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hienergy import checks, eigen, extract, genset, moments, setops
from hienergy.extract import (ExtractionError, _select, almost_period_check,
                              bsg_extract, bsg_extract_v2, cs_period_search,
                              find_configuration, nb_cover, popular_set, robust_core,
                              small_t4_extract)
from hienergy.groups import InvariantError, cyclic, lattice
from hienergy.gset import GSet, as_rows, full_group, zset


def rand_gset(rng, g, size):
    if g.is_cyclic:
        return GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(g.order), size)])
    if g.dim == 2:
        return GSet(g, [(v // 9 - 4, v % 9 - 4) for v in rng.sample(range(81), size)])
    return GSet(g, rng.sample(range(40), size))


def common(s, t):
    """|S n T|: the rows of S that T holds."""
    return int(t.isin(s.coords).sum())


def intersections(member):
    """The table of |S_i n S_j| for the rows of a membership matrix, as
    `robust_core` takes it."""
    return moments._exact_product(member, member.T, member.shape[1])


def member_of(fam, universe):
    """The membership matrix of a family of subsets over the universe rows."""
    return np.array([s.isin(universe.coords) for s in fam]).reshape(len(fam), len(universe))


def test_popular_set_examples():
    a = zset([0, 1, 3])
    p = popular_set(a)
    assert p == setops.diffset(a, a)
    g = cyclic(16)
    assert popular_set(full_group(g)) == full_group(g)
    sidon = zset([0, 1, 3, 7, 12, 20])  # all nonzero correlations equal 1
    p2 = popular_set(sidon)
    # threshold 36/(2*31) < 1, so every difference is popular here
    assert (0,) in set(p2.elems)
    # at a strictly higher threshold only the zero difference survives
    assert popular_set(sidon, 1.5) == zset([0])


def test_popular_mass_guarantee():
    rng = random.Random(3)
    for _ in range(20):
        g = rng.choice([cyclic(32), lattice(1)])
        a = rand_gset(rng, g, rng.randint(2, 10))
        p = popular_set(a)
        corr = moments.correlate(a, a)
        assert 2 * sum(corr.values_at(p.coords).tolist()) >= len(a) ** 2


def test_profile_reads_a_plus_a_off_one_engine_call(monkeypatch):
    # L = |A + A| / |A| is the nonzero count of A * A, kept on the set: no
    # pair sums are formed (setops.sumset is never called), and it equals
    # len(sumset(a, a)) and the oracle's |A + A|, on the direct path and
    # the FFT's (Z/4096 at 200 points)
    rng = random.Random(71)
    sets = [rand_gset(rng, g, 9) for g in (cyclic(13), cyclic(4, 8), lattice(1), lattice(2))]
    sets.append(GSet(cyclic(4096), rng.sample(range(4096), 200)))
    sumset, calls = setops.sumset, []
    monkeypatch.setattr(setops, "sumset", lambda *args: calls.append(args) or sumset(*args))
    got = [extract.energy_profile(a, (2,))["L"] for a in sets]
    assert calls == [] and [extract.energy_profile(a, (3,))["L"] for a in sets] == got
    for a, ratio in zip(sets, got):
        mods = a.group.moduli if a.group.is_cyclic else None
        size = len({oracles.add(mods, x, y) for x in a.elems for y in a.elems})
        assert ratio == len(sumset(a, a)) / len(a) == size / len(a)


def test_intersection_select_identical_family():
    fam = member_of([zset([0, 1, 2])] * 5, zset([0, 1, 2]))
    j, column = _select(fam, intersections(fam), 1.0, 1 / 8)
    assert j == [0, 1, 2, 3, 4] and column == 0   # the universe's first row, (0,)
    core = robust_core(fam, 1.0)
    assert core == [0, 1, 2, 3, 4]


def test_intersection_select_validates_precondition():
    # pairwise disjoint family: sum |S_i n S_j| = sum |S_i|, far below delta^2 m n^2
    fam = np.eye(3, dtype=bool)
    with pytest.raises(ExtractionError):
        _select(fam, intersections(fam), 0.9, 1 / 8)


def test_intersection_select_matches_exhaustive_alpha_sweep():
    rng = random.Random(7)
    a = zset([0, 1, 3])
    universe = setops.diffset(a, a)
    fam = []
    for x in a.elems:
        members = [s for s in universe.elems
                   if setops.slice_masks(a, [s]).any() and x in set(a.elems)]
        fam.append(GSet(a.group, members))
    n, m = len(fam), len(universe)
    total = sum(common(si, sj) for si in fam for sj in fam)
    delta = math.sqrt(total / (m * n * n))
    member = member_of(fam, universe)
    j, column = _select(member, intersections(member), delta, 1 / 8)
    alpha = tuple(universe.coords[column].tolist())
    # exhaustive sweep oracle: first alpha passing both bounds
    masks = [set(s.elems) for s in fam]
    floor = delta * n / math.sqrt(2)
    pair_floor = (1 / 8) * delta * delta * m / 2
    for cand in universe.elems:
        members = [i for i in range(n) if cand in masks[i]]
        if len(members) < floor:
            continue
        good = sum(1 for i in members for jj in members
                   if len(masks[i] & masks[jj]) >= pair_floor)
        if good >= (1 - 1 / 8) * len(members) ** 2:
            assert cand == alpha and members == j
            break


def test_membership_table_matches_per_member_search():
    rng = random.Random(19)
    for g in (cyclic(4, 8), lattice(2)):
        universe = rand_gset(rng, g, 14)
        fam = [GSet(g, rng.sample(universe.elems, rng.randint(0, 14))) for _ in range(9)]
        member = member_of(fam, universe)
        assert [universe.subset(row) for row in member] == fam
        inter = intersections(member)
        assert inter.tolist() == [[common(si, sj) for sj in fam] for si in fam]
        for bad in (member[:0], member[:, :0], member.astype(np.int64)):
            with pytest.raises(ValueError):
                robust_core(bad, 0.5)


def test_robust_core_postconditions_random():
    rng = random.Random(11)
    for trial in range(8):
        universe = zset(range(16))
        fam = [zset(rng.sample(range(16), rng.randint(10, 16))) for _ in range(16)]
        n, m = len(fam), len(universe)
        total = sum(common(si, sj) for si in fam for sj in fam)
        delta = math.sqrt(total / (m * n * n))
        core = robust_core(member_of(fam, universe), delta)
        assert len(core) >= delta * n / 32 * (1 - 1e-9)
        floor = delta * delta * m / 16
        for i in core:
            for j in core:
                partners = sum(1 for k in range(n)
                               if common(fam[i], fam[k]) >= floor
                               and common(fam[j], fam[k]) >= floor)
                assert partners >= delta * n / 4 * (1 - 1e-9)


def test_robust_core_matches_the_per_row_loop():
    # one block sum over J x J gives the core the per-member loop gave, in J's order
    rng = random.Random(13)
    for trial in range(12):
        m = rng.randint(8, 20)
        fam = [zset(rng.sample(range(m), rng.randint(m // 2, m))) for _ in range(rng.randint(4, 18))]
        member = member_of(fam, zset(range(m)))
        n = len(fam)
        delta = math.sqrt(int((member.sum(axis=0) ** 2).sum()) / (m * n * n))
        inter = intersections(member)
        j_set, _ = _select(member, inter, delta, eta=1 / 8)
        strong = inter >= delta * delta * m / 16
        want = [i for i in j_set if strong[i, j_set].sum() >= 0.75 * len(j_set)]
        assert robust_core(member, delta) == want


def test_robust_core_two_cluster_family():
    # two far-apart clusters: the core must stay inside one of them
    universe = zset(range(20))
    left = [zset(range(0, 10)) for _ in range(6)]
    right = [zset(range(10, 20)) for _ in range(6)]
    fam = left + right
    n, m = 12, 20
    total = sum(common(si, sj) for si in fam for sj in fam)
    delta = math.sqrt(total / (m * n * n))
    core = robust_core(member_of(fam, universe), delta)
    assert core and (all(i < 6 for i in core) or all(i >= 6 for i in core))


def test_bsg_extract_ap():
    ap = zset(range(16))
    rep = bsg_extract(ap, 1.0)
    a_prime = GSet(ap.group, [tuple(e) for e in rep.outputs["A_prime"]])
    assert a_prime.issubset(ap)
    assert len(a_prime) >= len(ap) / 4
    assert len(setops.diffset(a_prime, a_prime)) <= 8 * len(a_prime)
    assert math.isfinite(rep.ratio)
    # in the bounded-doubling regime the measured constant stays small
    assert rep.stages[-1]["implied_constant"] < 100


def test_bsg_pipelines_implied_constant_on_aps():
    for n in (8, 16, 24):
        ap = zset(range(n))
        r1 = bsg_extract(ap, 1.0)
        assert r1.stages[-1]["implied_constant"] < 100
        r2 = bsg_extract_v2(ap, 1.0, nm=[(1, 1)])
        assert r2.stages[-1]["ratios"][0]["implied_constant"] < 100


def test_bsg_extract_full_group():
    g = cyclic(16)
    rep = bsg_extract(full_group(g), 1.0)
    assert len(rep.outputs["A_prime"]) == 16
    assert rep.measured == 16  # A' - A' is the whole group


def test_bsg_extract_random_dense():
    rng = random.Random(7)
    g = cyclic(64)
    a = GSet(g, rng.sample(range(64), 32))
    rep = bsg_extract(a, 1.0)
    a_prime = GSet(g, [tuple(e) for e in rep.outputs["A_prime"]])
    assert a_prime.issubset(a) and len(a_prime) > 0
    assert rep.stages and rep.ratio is not None


def test_bsg_v2_ap_and_structure():
    ap = zset(range(16))
    rep = bsg_extract_v2(ap, 1.0, nm=[(1, 1), (2, 1)])
    a_prime = GSet(ap.group, [tuple(e) for e in rep.outputs["A_prime"]])
    assert a_prime.issubset(ap)
    assert len(a_prime) >= len(ap) / 4
    assert len(setops.diffset(a_prime, a_prime)) <= 8 * len(a_prime)
    ratios = rep.stages[-1]["ratios"]
    assert {(r["n"], r["m"]) for r in ratios} == {(1, 1), (2, 1)}
    assert all(math.isfinite(r["implied_constant"]) for r in ratios)


def test_bsg_v2_two_ap_union():
    a = zset(list(range(8)) + [1000 + i for i in range(8)])
    rep = bsg_extract_v2(a, 1.0)
    a_prime = GSet(a.group, [tuple(e) for e in rep.outputs["A_prime"]])
    assert a_prime.issubset(a) and len(a_prime) > 0


def test_bsg_v2_transfer_samples_are_not_vacuous():
    # for x in A_s = A n (A - s) the partner family is looked up at x + s, which lies in A,
    # so every sample has incidence #{(x, y) in A_s x A : x - y, x + s - y in P} > 0
    rng = random.Random(61)
    for a in (zset(range(16)), GSet(cyclic(64), rng.sample(range(64), 16))):
        n, mods = len(a), a.group.moduli or None
        xs = set(a.elems)
        e2 = oracles.oracle_energy_k(mods, xs, 2)
        p = set(popular_set(a, Fraction(e2, 2 * n * n)).elems)
        rep = bsg_extract_v2(a, 1.0)
        samples = next(s for s in rep.stages if s["stage"] == "transfer_checks")["samples"]
        assert samples
        for smp in samples:
            s = tuple(smp["s"])
            want = sum(1 for x in xs if oracles.add(mods, x, s) in xs for y in xs
                       if oracles.sub(mods, x, y) in p
                       and oracles.sub(mods, oracles.add(mods, x, s), y) in p)
            assert smp["incidence"] == want > 0
            assert smp["contained"] and smp["cs_ok"] and smp["pp_ok"]


def test_bsg_v2_transfer_energies_come_from_one_gather(monkeypatch):
    # E(A_s, A) for every sampled shift is one _slice_energies call, equal to
    # energy_k_pair on each built slice; no pair energy is built per shift
    rng = random.Random(67)
    for a in (zset(range(16)), GSet(cyclic(64), rng.sample(range(64), 16)),
              GSet(lattice(2), [(x, y) for x in range(4) for y in range(3)])):
        gathered, real = [], extract._slice_energies
        monkeypatch.setattr(extract, "_slice_energies",
                            lambda b, member: gathered.append((b, member)) or real(b, member))
        monkeypatch.setattr(moments, "energy_k_pair", None)
        rep = bsg_extract_v2(a, 1.0)
        monkeypatch.undo()
        assert len(gathered) == 1 and gathered[0][0] is a
        member = gathered[0][1]
        samples = next(s for s in rep.stages if s["stage"] == "transfer_checks")["samples"]
        assert len(member) == len(samples) > 0
        assert real(a, member).tolist() == [moments.energy_k_pair(a.subset(row), a, 2) for row in member]


def transfer_loop(a, p_set, shifts):
    """The transfer samples of a per-shift loop, each shift paying its own
    membership searches and union set: the reference for the batched pass."""
    g = a.group
    a_family, p_family = setops.slice_masks(a, shifts), setops.slice_masks(p_set, shifts)
    e_pairs = extract._slice_energies(a, a_family).tolist()
    samples = []
    for s, s_row, a_row, p_row, e_pair in zip(shifts.tolist(), shifts[:, None], a_family,
                                              p_family, e_pairs):
        a_s = a.subset(a_row)
        u = as_rows(g, (a_s.coords[:, None] - a.coords[None]).reshape(-1, g.dim))
        both = p_set.isin(u) & p_set.isin(as_rows(g, u + s_row))
        incidence = int(both.sum())
        union = GSet(g, u[both])
        contained = union.issubset(p_set.subset(p_row))
        cs_ok = len(union) * (e_pair if a_s else 1) >= incidence ** 2
        pp_ok = int(moments.correlate(p_set, p_set).values_at(s_row)[0]) >= len(union)
        samples.append({"s": s, "contained": contained, "cs_ok": cs_ok, "pp_ok": pp_ok,
                        "incidence": incidence})
    return samples


def same_samples(got, want):
    return got == want and all(type(x[key]) is type(y[key]) for x, y in zip(got, want) for key in x)


def test_bsg_v2_transfer_samples_match_the_per_shift_loop(monkeypatch):
    # the shared difference matrix gives the per-shift loop's samples, in order and
    # with its Python types: the pipeline's six shifts, every element of P, shifts
    # outside A - A (empty A_s) and repeats
    rng = random.Random(71)
    cases = [zset(range(16)), GSet(cyclic(64), rng.sample(range(64), 12)),
             GSet(cyclic(4, 8), [(x, y) for x in range(4) for y in range(8) if (x * y) % 3 == 1]),
             GSet(lattice(2), [(x, y) for x in range(4) for y in range(3)]), zset([0, 1, 5, 11])]
    for a in cases:
        n = len(a)
        p_set = popular_set(a, Fraction(moments.energy_k(a, 2), 2 * n * n))
        rep = bsg_extract_v2(a, 1.0)
        samples = next(s for s in rep.stages if s["stage"] == "transfer_checks")["samples"]
        shifts = as_rows(a.group, [tuple(smp["s"]) for smp in samples])
        assert same_samples(samples, transfer_loop(a, p_set, shifts))
        far = setops.diffset(a, a).coords.max(axis=0) + 1   # outside A - A on a lattice
        outside = [far] if not a.group.is_cyclic else [
            x for x in full_group(a.group).coords if x not in setops.diffset(a, a)][:2]
        shifts = np.concatenate([p_set.coords, p_set.coords[:2], np.array(outside).reshape(-1, a.group.dim)])
        got = extract._transfer_samples(a, p_set, shifts)
        assert same_samples(got, transfer_loop(a, p_set, shifts))
        assert outside and [smp["incidence"] for smp in got[-len(outside):]] == [0] * len(outside)
    # a failure planted at two shifts raises at the first of them, as the loop finds it
    a = GSet(cyclic(64), rng.sample(range(64), 14))
    real = extract._slice_energies
    monkeypatch.setattr(extract, "_slice_energies",
                        lambda b, member: real(b, member) * np.array([1, 1, 0, 1, 0, 1][:len(member)]))
    n = len(a)
    p_set = popular_set(a, Fraction(moments.energy_k(a, 2), 2 * n * n))
    order = list(range(len(p_set)))
    random.Random(1).shuffle(order)
    want = transfer_loop(a, p_set, p_set.coords[order[:6]])
    first = next(smp["s"] for smp in want if not (smp["contained"] and smp["cs_ok"] and smp["pp_ok"]))
    assert first == want[2]["s"]
    with pytest.raises(InvariantError, match=re.escape(f"transfer failed at shift {first}")):
        bsg_extract_v2(a, 1.0)


def draws_loop(rng, good, a):
    """The shift sequences of SHIFT_SAMPLES draws, one draw at a time: the
    reference for the batched draws."""
    drawn = {}
    for _ in range(extract.SHIFT_SAMPLES):
        seq = good[rng.randrange(len(good))]
        s = as_rows(a.group, seq - a.coords[rng.choice(range(len(a)))])
        drawn.setdefault(s.tobytes(), s)
    return np.stack(list(drawn.values()))


def test_cs_batched_draws_match_the_per_draw_loop():
    # the same shifts in the order first drawn, repeats dropped, and the generator left
    # in the same state; few good sequences over a small A force repeats
    rng = random.Random(73)
    for g, size, m, k in ((cyclic(16), 3, 1, 1), (cyclic(64), 10, 7, 3), (cyclic(4, 8), 6, 2, 2),
                          (cyclic(4, 8), 12, 40, 4)):
        a = rand_gset(rng, g, size)
        good = a.coords[np.array([[rng.randrange(size) for _ in range(k)] for _ in range(m)])]
        for seed in range(4):
            batched, looped = random.Random(seed), random.Random(seed)
            got = extract._draw_shifts(batched, good, a)
            want = draws_loop(looped, good, a)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert batched.getstate() == looped.getstate()
            if m <= 2:
                assert len(got) < extract.SHIFT_SAMPLES   # repeats were drawn and dropped


def test_find_configuration_matches_brute_force():
    rng = random.Random(43)
    outcomes = set()
    for g in (cyclic(4, 8), cyclic(9)):
        mods = g.moduli
        for _ in range(6):
            a = rand_gset(rng, g, rng.randint(1, 4))
            xs = set(a.elems)
            for coeffs in ((0, 1, 2), (1, -1, 3), (2, -5), (-3,)):
                for sign, op in (("-", oracles.sub), ("+", oracles.add)):
                    target = {op(mods, x, y) for x in xs for y in xs}
                    want = oracles.oracle_first_configuration(mods, target, coeffs)
                    assert find_configuration(a, coeffs, sign) == want
                    outcomes.add("none" if want is None else
                                 "zero x" if not any(want[0]) else "later x")
    assert outcomes == {"none", "zero x", "later x"}


def test_small_t4_examples():
    g = cyclic(16)
    rep = small_t4_extract(full_group(g))
    assert rep.outputs["R"] == [[0]]
    assert rep.measured == 16
    ap = zset(range(16))
    rep2 = small_t4_extract(ap)
    assert rep2.measured >= rep2.claimed  # coverage target reached on an AP
    rng = random.Random(13)
    a = GSet(cyclic(64), rng.sample(range(64), 16))
    rep3 = small_t4_extract(a)
    b = GSet(a.group, [tuple(e) for e in rep3.outputs["B"]])
    assert b.issubset(a)
    assert math.isfinite(rep3.ratio)


def test_small_t4_family_energies_and_choice_match_per_slice_loop():
    # every candidate's E(A, A_s) from one gather equals energy_k_pair on the built slice,
    # and the chosen slice is the first maximum of the per-slice beta loop
    rng = random.Random(37)
    for g in (cyclic(64), cyclic(4, 8), lattice(1), lattice(2)):
        for _ in range(6):
            a = rand_gset(rng, g, rng.randint(2, 14))
            n = len(a)
            points, values = moments.correlate(a, a).support_rows()
            shifts = points[values > moments.energy_k(a, 3) // (2 * n ** 3)]
            member = setops.slice_masks(a, shifts)
            energies = extract._slice_energies(a, member).tolist()
            slices = [a.subset(row) for row in member]
            assert energies == [moments.energy_k_pair(a, x, 2) for x in slices]
            best, best_beta = None, -1.0
            for s, x in zip(shifts.tolist(), slices):
                beta = moments.energy_k_pair(a, x, 2) / (n * len(x) ** 2)
                if beta > best_beta:
                    best, best_beta = (s, x), beta
            stage = next(st for st in small_t4_extract(a).stages if st["stage"] == "slice")
            assert (stage["s"], stage["beta"], stage["size"]) == (best[0], best_beta, len(best[1]))
    assert extract._slice_energies(zset([0, 1, 3]), np.zeros((0, 3), dtype=bool)).shape == (0,)


def test_small_t4_reads_the_chosen_slice_energy_off_its_row(monkeypatch):
    # E(A, B) of the chosen slice, the cover threshold's numerator, is its
    # row of the one slice-energy gather: no pair energy is built
    calls, real = [], moments.energy_k_pair
    monkeypatch.setattr(moments, "energy_k_pair", lambda *args: calls.append(args) or real(*args))
    rng = random.Random(151)
    for g in (cyclic(64), cyclic(4, 8), lattice(1), lattice(2)):
        for _ in range(4):
            rep = small_t4_extract(rand_gset(rng, g, rng.randint(1, 14)))
            assert any(st["stage"] == "slice" for st in rep.stages)
    assert calls == []


def test_every_integer_product_is_exact_within_its_callers_bound(monkeypatch):
    # robust_core's intersections and partner counts, the slice energies, the slice
    # correlation sums and the connected forms: each product equals the Python-int
    # product, and each caller's bound covers every sum_k |x_ik| |y_kj|
    real, seen = moments._exact_product, []

    def checked(x, y, bound):
        got = real(x, y, bound)
        xs, ys = (np.asarray(v, dtype=np.int64).astype(object) for v in (x, y))
        assert got.dtype == np.int64 and got.tolist() == (xs @ ys).tolist()
        assert (abs(xs) @ abs(ys)).max(initial=0) <= bound
        seen.append((sys._getframe(1).f_code.co_name, 0 in x.shape + y.shape))
        return got

    monkeypatch.setattr(moments, "_exact_product", checked)
    rng = random.Random(79)
    for _ in range(6):
        m = rng.randint(8, 20)
        fam = [zset(rng.sample(range(m), rng.randint(m // 2, m))) for _ in range(rng.randint(4, 18))]
        member = member_of(fam, zset(range(m)))
        n = len(fam)
        robust_core(member, math.sqrt(int((member.sum(axis=0) ** 2).sum()) / (m * n * n)))
    for g in (cyclic(64), cyclic(4, 8), lattice(1), lattice(2)):
        a = rand_gset(rng, g, rng.randint(2, 14))
        member = setops.slice_masks(a, setops.diffset(a, a).coords)
        want = [moments.energy_k_pair(a, a.subset(row), 2) for row in member]
        assert extract._slice_energies(a, member).tolist() == want
        assert extract._slice_energies(a, member[:0]).shape == (0,)
        checks._slice_corr_sums(a, 2)
    for p, t in [(13, 3), (31, 5), (61, 12)]:
        assert eigen.subgroup_eigencheck(genset.mult_subgroup(p, t)).connected_ok
    assert {name for name, _ in seen} == {"robust_core", "_slice_energies", "_slice_corr_sums",
                                          "subgroup_eigencheck"}
    assert ("_slice_energies", True) in seen
    assert sum(name == "robust_core" for name, _ in seen) == 12   # intersections and partner counts


def small_t4_digest(n: int) -> str:
    """sha256 of the smallT4 report of random:N=n,delta=0.05,seed=3, as the
    extract command writes it."""
    a = genset.gen(genset.parse_recipe(f"random:N={n},delta=0.05,seed=3"))
    return hashlib.sha256(small_t4_extract(a).to_json().encode()).hexdigest()


def test_small_t4_report_is_pinned_at_scale():
    # |A| = 395: slice energies of every candidate above the gamma floor, byte for byte
    assert small_t4_digest(8192) == "3f880be9cef17fb9bf2ad9abb5982682cb815a27953962d4e1c9bc8f318e0163"


@pytest.mark.slow
def test_small_t4_report_is_pinned_at_n_16384():
    # |A| = 813
    assert small_t4_digest(16384) == "445494250228d644df9b0bc324294d0ecb7f5ac972a9b6eb66617c8dfcbd9287"


def test_almost_period_examples():
    a7 = GSet(cyclic(7), [0, 1, 3])
    assert almost_period_check(a7, a7, 1) == 8
    assert almost_period_check(a7, a7, 0) == 0
    g = cyclic(12)
    assert almost_period_check(full_group(g), full_group(g), 5) == 0
    z = zset([0, 1, 3])
    assert almost_period_check(z, z, 0) == 0
    assert almost_period_check(z, z, 1) > 0


def test_almost_period_matches_oracle():
    # one correlation identity serves cyclic groups and lattices; t runs over
    # differences, zero, and points where (A*B) o (A*B) vanishes
    rng = random.Random(41)
    for g in (cyclic(12), cyclic(4, 8), lattice(1), lattice(2)):
        mods = g.moduli if g.is_cyclic else None
        off_support = 0
        for _ in range(6):
            a, b = (rand_gset(rng, g, rng.randint(1, 4)) for _ in range(2))
            xs, ys = set(a.elems), set(b.elems)
            c = oracles.sum_counts(mods, xs, ys)
            ts = [(0,) * g.dim, (5,) * g.dim, (-40,) * g.dim, (23, -17)[:g.dim]]
            ts += [oracles.sub(mods, x, y) for x, y in zip(sorted(xs), sorted(ys))]
            if g.is_cyclic:   # a t with ((A*B) o (A*B))(t) = 0, where there is one
                gaps = set(full_group(g).elems) - {oracles.sub(mods, u, v) for u in c for v in c}
                ts += sorted(gaps)[:1]
            for t in ts:
                got = almost_period_check(a, b, t)
                assert got == oracles.oracle_shift_defect(mods, xs, ys, t)
                off_support += got == 2 * oracles.oracle_energy_pair(mods, xs, ys)
        assert off_support >= 3


def test_cs_period_search_ap():
    g = cyclic(64)
    a = GSet(g, range(16))
    rep = cs_period_search(a, a, 4, trials=200, seed=1)
    t_set = rep.outputs["T"]
    assert len(t_set) > 0 and rep.ok
    budget = 32 * 16 * 16 * 16
    for t in t_set:
        assert 4 * almost_period_check(a, a, tuple(t)) <= budget
    rate = rep.stages[0]["rate"]
    assert rate >= 0.5 - rep.stages[0]["three_sigma"]


def test_cs_full_group_all_approximate():
    g = cyclic(16)
    a = full_group(g)
    rep = cs_period_search(a, a, 3, trials=50, seed=2)
    assert rep.stages[0]["rate"] == 1.0
    assert len(rep.outputs["T"]) == 16
    for t in rep.outputs["T"]:
        assert almost_period_check(a, a, tuple(t)) == 0


def test_cs_slices_match_per_x_definition():
    # A'_s = {x in A : x + s_i in A for all i, and s + x approximates}, element by element
    g16, g32 = cyclic(16), cyclic(32)
    interval = GSet(cyclic(64), range(12))
    cases = [(interval, interval, 3, 5),
             (GSet(g32, [9, 12, 19, 31]), GSet(g32, [0, 8, 9, 14, 15, 19, 21, 23]), 3, 39),
             (GSet(g16, [1, 2, 7, 10, 13, 14, 15]), GSet(g16, [4, 10, 14, 15]), 6, 96)]
    proper = 0
    for a, b, k, seed in cases:
        rep = cs_period_search(a, b, k, trials=40, seed=seed)
        st = next(s for s in rep.stages if s["stage"] == "shifts")
        mods, xs, ys = a.group.moduli, set(a.elems), set(b.elems)
        budget = 2 * len(xs) ** 2 * len(ys) * k
        for pos, shift in zip(st["pair"], (st["shift_s0"], st["shift_t0"])):
            shift = [tuple(e) for e in shift]
            inside = [x for x in sorted(xs) if all(oracles.add(mods, x, s) in xs for s in shift)]
            members = [x for x in inside if oracles.oracle_sequence_defect(
                mods, [oracles.add(mods, s, x) for s in shift], xs, ys, k) <= budget]
            assert len(members) == st["slice_sizes"][pos]
            proper += 0 < len(members) < len(inside)
    assert proper >= 1   # the defect test, not only the slice, decides some x


def test_cs_batched_sampling_matches_per_trial_loop():
    # the hits, and through the shift draws that read them the approximating sequences
    # themselves, equal a trial-by-trial loop drawing from A.elems with the oracle's defect
    g16, g32, g48 = cyclic(16), cyclic(32), cyclic(4, 8)
    cases = [(GSet(cyclic(64), range(12)), GSet(cyclic(64), range(12)), 3, 80, 5),
             (GSet(g32, [9, 12, 19, 31]), GSet(g32, [0, 8, 9, 14, 15, 19, 21, 23]), 3, 40, 39),
             (GSet(g16, [1, 2, 7, 10, 13, 14, 15]), GSet(g16, [4, 10, 14, 15]), 6, 30, 96),
             (GSet(g48, [(0, 1), (1, 3), (2, 2), (3, 7), (1, 0)]),
              GSet(g48, [(0, 0), (1, 1), (2, 5)]), 4, 60, 11),
             (GSet(g16, [0, 3, 5]), GSet(g16, [0, 8]), 1, 7, 2),
             # here some sequences sit exactly on the budget
             (GSet(cyclic(8), [2, 3, 4]), GSet(cyclic(8), [1, 6]), 3, 20, 117)]
    for a, b, k, trials, seed in cases:
        mods, xs, ys = a.group.moduli, set(a.elems), set(b.elems)
        budget = 2 * len(xs) ** 2 * len(ys) * k
        rng = random.Random(seed)
        good = []
        for _ in range(trials):
            seq = [rng.choice(a.elems) for _ in range(k)]
            if oracles.oracle_sequence_defect(mods, seq, xs, ys, k) <= budget:
                good.append(seq)
        rep = cs_period_search(a, b, k, trials=trials, seed=seed)
        assert rep.stages[0]["hits"] == len(good) > 0
        shifts = []
        for _ in range(24):
            seq, x = good[rng.randrange(len(good))], rng.choice(a.elems)
            shift = [oracles.sub(mods, e, x) for e in seq]
            if shift not in shifts:
                shifts.append(shift)
        st = next(s for s in rep.stages if s["stage"] == "shifts")
        assert st["sampled"] == len(shifts)
        i0, j0 = st["pair"]
        assert (st["shift_s0"], st["shift_t0"]) == ([list(e) for e in shifts[i0]],
                                                    [list(e) for e in shifts[j0]])
        sizes = [sum(all(oracles.add(mods, x, e) in xs for e in shift)
                     and oracles.oracle_sequence_defect(
                         mods, [oracles.add(mods, e, x) for e in shift], xs, ys, k) <= budget
                     for x in xs)
                 for shift in shifts]
        assert st["slice_sizes"] == sizes


def test_approximation_floors_in_int64_and_python_ints():
    # the ceiling of (n^2 (c - 2|B|k) + k^2 d_sq) / (2nk), in int64 below the bound and
    # in Python ints past it, equal to the formula term by term
    b = GSet(cyclic(32), [0, 3, 4, 9, 17])
    bb = moments.correlate(b, b)
    rng = np.random.default_rng(3)
    for k in (1, 3, 5):
        seqs = b.coords[rng.integers(0, 5, (40, k))]
        c_sq = [sum(oracles.corr_counts((32,), set(b.elems), set(b.elems)).get(
            oracles.sub((32,), tuple(y), tuple(x)), 0) for x in seq for y in seq) for seq in seqs.tolist()]
        for n, d_sq in ((7, 123), (3 << 29, 5 << 30), (1 << 40, (1 << 20) + 1)):
            wide = n * n * 5 * k * (k + 2) + k * k * d_sq >= 1 << 63
            want = [-(-(n * n * (c - 10 * k) + k * k * d_sq) // (2 * n * k)) for c in c_sq]
            got = extract._approximation_floors(seqs, bb, n, 5, d_sq)
            assert got.dtype == np.int64 and got.tolist() == want
            assert wide == (n > 7)


def test_cs_no_sample_error():
    g = cyclic(64)
    a = GSet(g, [0, 1, 2, 3])
    with pytest.raises(ExtractionError):
        cs_period_search(a, GSet(g, range(32)), 1, trials=0, seed=1)
    g48 = cyclic(4, 8)
    with pytest.raises(ExtractionError):
        cs_period_search(GSet(g48, [(0, 1), (2, 3)]), GSet(g48, [(1, 1)]), 3, trials=0, seed=4)


def test_find_configuration_examples():
    a = GSet(cyclic(7), [0, 1, 2])
    found = find_configuration(a, (0, 1, 2), "-")
    assert found is not None
    x, d = found
    diff = setops.diffset(a, a)
    assert d != (0,)
    for c in (0, 1, 2):
        assert oracles.add((7,), x, tuple(c * di for di in d)) in set(diff.elems)
    g = cyclic(9)
    assert find_configuration(full_group(g), (0, 5, 7), "-") == ((0,), (1,))
    assert find_configuration(GSet(cyclic(5), [0]), (0, 1), "-") is None
    with pytest.raises(ValueError):
        find_configuration(a, (0, 0), "-")


def test_nb_cover_examples():
    assert nb_cover(full_group(cyclic(9))) == 1
    assert nb_cover(GSet(cyclic(5), [0, 1])) == 4
    assert nb_cover(GSet(cyclic(8), [0, 2])) is None
    # translation invariance: {1, 2} covers like {0, 1}
    assert nb_cover(GSet(cyclic(5), [1, 2])) == 4


def test_report_json_round_trip():
    import json

    rep = bsg_extract(zset(range(8)), 1.0)
    parsed = json.loads(rep.to_json())
    assert parsed["pipeline"] == "bsg1"
    assert "A_prime" in parsed["outputs"]
    assert isinstance(parsed["stages"], list)
