import math
import random

import numpy as np
import pytest

from hienergy import groups, moments, spectrum
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, full_group, zset
from hienergy.spectrum import (dft, dim_exact, dim_greedy, dissociated_test,
                               large_spectrum, spectrum_energy_t_k)


def rand_gset(rng, g, size):
    return GSet(g, [groups.from_flat(g, v) for v in rng.sample(range(g.order), size)])


def test_dft_examples():
    a = GSet(cyclic(4), [0, 2])
    mags = np.abs(dft(a).array)
    assert np.allclose(mags, [2, 0, 2, 0])
    rng = random.Random(1)
    for n in (9, 16):
        g = cyclic(n)
        b = rand_gset(rng, g, 5)
        s = dft(b)
        assert s.value((0,)) == pytest.approx(len(b))
    g = cyclic(6)
    s = dft(full_group(g))
    assert abs(s.value(0)) == pytest.approx(6)
    assert np.abs(s.array.ravel()[1:]).max() < 1e-9
    with pytest.raises(groups.GroupError):
        dft(zset([0, 1]))


def test_dft_matches_character_sum():
    rng = random.Random(9)
    g = cyclic(3, 4)
    a = rand_gset(rng, g, 5)
    s = dft(a)
    for xi in groups.enumerate_elements(g):
        direct = sum(groups.character(g, xi, x) for x in a.elems)
        assert abs(s.value(xi) - direct) < 1e-9


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
            mags = np.abs(dft(a).array)
            for alpha in (0.3, 0.6, 0.9):
                r = large_spectrum(a, alpha)
                assert (0,) * g.dim in r.as_set
                assert len(r) <= alpha ** -2 / delta * (1 + 1e-9)
                # reference: a loop over the dual in lexicographic order
                thresh = alpha * len(a) - 1e-9 * len(a)
                assert r.elems == tuple(xi for xi in groups.enumerate_elements(g)
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


def test_dissociated_matches_brute_force():
    import itertools
    rng = random.Random(17)
    for _ in range(25):
        g = cyclic(rng.choice([12, 16]))
        size = rng.randint(1, 5)
        a = rand_gset(rng, g, size)
        elems = list(a.elems)
        brute = True
        for eps in itertools.product((-1, 0, 1), repeat=len(elems)):
            if all(e == 0 for e in eps):
                continue
            acc = groups.zero(g)
            for e, lam in zip(eps, elems):
                acc = groups.op_add(g, acc, groups.op_scale(g, e, lam))
            if acc == groups.zero(g):
                brute = False
                break
        assert dissociated_test(a) == brute


def test_dim_greedy_never_exceeds_exact():
    rng = random.Random(19)
    for _ in range(15):
        g = cyclic(16)
        a = rand_gset(rng, g, rng.randint(1, 7))
        assert dim_greedy(a) <= dim_exact(a)


def test_spectrum_energy_example():
    g8 = cyclic(8)
    assert spectrum_energy_t_k(GSet(g8, [1, 2]), 2) == 6
    assert spectrum_energy_t_k(GSet(g8, [0]), 2) == 1


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
                lhs = spectrum_energy_t_k(lam, k)
                rhs = delta * alpha ** (2 * k) * len(lam) ** (2 * k)
                assert lhs >= rhs * (1 - 1e-9)


def test_spectral_moment_bounds():
    # |R_alpha| and max nonzero coefficient against the kappa normalizations
    rng = random.Random(29)
    for _ in range(15):
        g = cyclic(64)
        a = rand_gset(rng, g, rng.randint(4, 16))
        n, delta = len(a), len(a) / 64
        mags = np.abs(dft(a).array).ravel().copy()
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
        assert spectrum.energy_via_spectrum(a, 1) == pytest.approx(moments.energy_k(a, 2))
        assert spectrum.energy_via_spectrum(a, 2) == pytest.approx(moments.energy_k(a, 4))


def test_spectrum_csv():
    a = GSet(cyclic(4), [0, 2])
    csv = dft(a).to_csv()
    assert csv.splitlines()[0] == "xi,re,im,abs"
    assert len(csv.splitlines()) == 5
