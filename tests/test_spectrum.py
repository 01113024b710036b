import math
import random

import numpy as np
import pytest

import oracles
from hienergy import groups, moments
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, full_group, zset
from hienergy.setops import CapExceededError
from hienergy.spectrum import dft, dim_exact, dim_greedy, dissociated_test, large_spectrum


def rand_gset(rng, g, size):
    return GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(g.order), size)])


def test_dft_examples():
    a = GSet(cyclic(4), [0, 2])
    mags = np.abs(dft(a))
    assert np.allclose(mags, [2, 0, 2, 0])
    rng = random.Random(1)
    for n in (9, 16):
        g = cyclic(n)
        b = rand_gset(rng, g, 5)
        s = dft(b)
        assert s[0] == pytest.approx(len(b))
    g = cyclic(6)
    s = dft(full_group(g))
    assert abs(s[0]) == pytest.approx(6)
    assert np.abs(s.ravel()[1:]).max() < 1e-9
    with pytest.raises(groups.GroupError):
        dft(zset([0, 1]))


def test_dft_matches_character_sum():
    rng = random.Random(9)
    g = cyclic(3, 4)
    a = rand_gset(rng, g, 5)
    s = dft(a)
    for xi in oracles.enumerate_elements(g.moduli):
        direct = sum(oracles.character(g.moduli, xi, x) for x in a.elems)
        assert abs(s[xi] - direct) < 1e-9


def test_large_spectrum_examples():
    a = GSet(cyclic(4), [0, 2])
    assert large_spectrum(a, 0.9).elems == ((0,), (2,))
    assert large_spectrum(a, 0.05).elems == ((0,), (2,))
    g = cyclic(8)
    assert large_spectrum(full_group(g), 0.5).elems == ((0,),)
    with pytest.raises(ValueError):
        large_spectrum(a, 0.0)


def test_large_spectrum_trivial_bound():
    rng = random.Random(13)
    for g in (cyclic(64), cyclic(4, 8)):
        for _ in range(20):
            a = rand_gset(rng, g, rng.randint(4, 20))
            delta = len(a) / g.order
            mags = np.abs(dft(a))
            for alpha in (0.3, 0.6, 0.9):
                r = large_spectrum(a, alpha)
                assert (0,) * g.dim in set(r.elems)
                assert len(r) <= alpha ** -2 / delta * (1 + 1e-9)
                # reference: a loop over the dual in lexicographic order
                thresh = alpha * len(a) - 1e-9 * len(a)
                assert r.elems == tuple(xi for xi in oracles.enumerate_elements(g.moduli)
                                        if mags[xi] >= thresh)


def test_dissociated_examples():
    g8 = cyclic(8)
    assert dissociated_test(GSet(g8, [1, 2]))
    assert not dissociated_test(GSet(g8, [1, 2, 3]))
    assert dim_exact(GSet(g8, [1, 2, 3])) == 2
    assert dissociated_test(GSet(g8, []))
    assert dissociated_test(GSet(g8, [5]))
    assert not dissociated_test(GSet(g8, [0]))
    assert dissociated_test(GSet(g8, [4]))  # 2*4 = 0 needs a coefficient outside {-1,0,1}
    assert not dissociated_test(GSet(g8, [3, 5]))  # 3 + 5 = 0
    assert dim_greedy(GSet(g8, [1, 2, 3])) <= 2


def random_small_set(rng, g):
    """1-6 elements; in a cyclic group often with 0 or an element of order 2."""
    size = rng.randint(1, 6)
    if g.is_cyclic:
        pts = [oracles.from_flat(g.moduli, v) for v in rng.sample(range(g.order), min(size, g.order))]
        if rng.random() < 0.3:
            pts.append((0,) * g.dim)
        if rng.random() < 0.3:   # n_i / 2 in an even coordinate: an element of order 2
            pts.append(tuple(n // 2 if n % 2 == 0 and rng.random() < 0.7 else 0 for n in g.moduli))
        return GSet(g, pts)
    span = rng.choice([3, 10, 1000])
    pts = [tuple(rng.randint(-span, span) for _ in range(g.dim)) for _ in range(size)]
    if rng.random() < 0.3:
        pts.append((0,) * g.dim)
    return GSet(g, pts)


def test_dissociated_matches_brute_force():
    # the array meet-in-the-middle and the pruned search against eps
    # enumeration and every subset, on 1,000 seeded sets
    rng = random.Random(2024)
    ambients = [cyclic(8), cyclic(12), cyclic(16), cyclic(64), cyclic(1 << 20), cyclic(4, 8),
                lattice(1), lattice(2)]
    seen = {"zero": 0, "order2": 0, "not_dissociated": 0}
    for i in range(1000):
        g = ambients[i % len(ambients)]
        a = random_small_set(rng, g)
        mods = g.moduli if g.is_cyclic else None
        pts = list(a.elems)
        exact, greedy = oracles.dimensions(mods, pts)
        want = exact == len(pts)
        assert dissociated_test(a) == want, (g, pts)
        assert (dim_exact(a), dim_greedy(a)) == (exact, greedy), (g, pts)
        seen["zero"] += (0,) * g.dim in pts
        seen["order2"] += g.is_cyclic and any(x != (0,) * g.dim and oracles.add(mods, x, x) == (0,) * g.dim
                                              for x in pts)
        seen["not_dissociated"] += not want
    assert min(seen.values()) >= 100, seen


def test_signed_sums_that_could_leave_int64_raise():
    big = (1 << 62) - 1
    # two rows per half: a signed sum may reach 2 (2^62 - 1), past the bound
    for a in (zset([big, 1, 2, 3]), GSet(lattice(2), [(big, 0), (0, 1), (1, 1)])):
        with pytest.raises(CapExceededError):
            dissociated_test(a)
        with pytest.raises(CapExceededError):
            dim_exact(a)
    # one row per half stays in range
    assert dissociated_test(zset([big, -big + 1])) and dim_greedy(zset([big, 1])) == 2


def test_dim_greedy_never_exceeds_exact():
    rng = random.Random(19)
    for _ in range(15):
        g = cyclic(16)
        a = rand_gset(rng, g, rng.randint(1, 7))
        assert dim_greedy(a) <= dim_exact(a)


def test_spectrum_energy_example():
    # T_k of a dual subset is T_k of the plain set
    g8 = cyclic(8)
    assert moments.t_k(GSet(g8, [1, 2]), 2) == 6
    assert moments.t_k(GSet(g8, [0]), 2) == 1


def test_large_spectrum_energy_floor():
    # T_k(Lambda) >= delta alpha^(2k) |Lambda|^(2k) for Lambda <= R_alpha minus 0
    rng = random.Random(23)
    for _ in range(15):
        g = cyclic(rng.choice([32, 64]))
        a = rand_gset(rng, g, rng.randint(4, 16))
        delta = len(a) / g.order
        for alpha in (0.3, 0.5):
            r = large_spectrum(a, alpha)
            lam = GSet(g, [e for e in r.elems if e != (0,)])
            if not lam:
                continue
            for k in (2, 3):
                lhs = moments.t_k(lam, k)
                rhs = delta * alpha ** (2 * k) * len(lam) ** (2 * k)
                assert lhs >= rhs * (1 - 1e-9)


def test_spectral_moment_bounds():
    # |R_alpha| and max nonzero coefficient against the kappa normalizations
    rng = random.Random(29)
    for _ in range(15):
        g = cyclic(64)
        a = rand_gset(rng, g, rng.randint(4, 16))
        n, delta = len(a), len(a) / 64
        mags = np.abs(dft(a)).ravel().copy()
        mags[0] = 0.0
        top = mags.max()
        for k in (2, 3):
            kap_k = float(moments.energy_k(a, k)) / n ** (k + 1)
            kap_km1 = float(moments.energy_k(a, k - 1)) / n ** k
            assert top >= math.sqrt(max(0.0, kap_k - delta ** (k - 1)) / k) * n * (1 - 1e-9)
            assert top >= math.sqrt(max(0.0, kap_k - delta * kap_km1)) * n * (1 - 1e-9)
        for alpha in (0.3, 0.5, 0.75):
            for k in (1, 2):
                kap = float(moments.energy_k(a, 2 * k)) / n ** (2 * k + 1)
                bound = alpha ** -3 / delta * max(0.0, kap - delta ** (2 * k - 1)) ** (1 / (2 * k))
                # the bound controls the nonzero part of the spectrum
                r = large_spectrum(a, alpha)
                assert len(r) - 1 <= bound * (1 + 1e-9)


def test_zero_sum_dual_identity():
    rng = random.Random(31)
    for _ in range(5):
        g = cyclic(8)
        a = rand_gset(rng, g, rng.randint(2, 6))
        assert oracles.energy_via_spectrum(g.moduli, a.elems, 1) == pytest.approx(moments.energy_k(a, 2))
        assert oracles.energy_via_spectrum(g.moduli, a.elems, 2) == pytest.approx(moments.energy_k(a, 4))
