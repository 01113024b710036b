import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
from hienergy import extract, groups, moments, setops
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, full_group, zset
from hienergy.moments import (ConvTable, EnergyProfile, convolve, correlate,
                              conv_power, energy_k, energy_k_pair, energy_pair,
                              level_sequence, mult_energy_k, prodset_size,
                              quotset_size, sigma_k, t_k)


def value(table, x):
    """The table's entry at one element, by a one-row gather."""
    return table.values_at(np.array([x], dtype=np.int64).reshape(1, -1))[0]


def support(table):
    """The nonzero entries as {coordinate tuple: value}."""
    points, values = table.support_rows()
    return dict(zip(map(tuple, points.tolist()), values.tolist()))


def rand_gset(rng, g, size):
    if g.is_cyclic:
        return GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(g.order), size)])
    return GSet(g, rng.sample(range(40), size))


def test_correlate_example():
    a = zset([0, 1, 3])
    t = correlate(a, a)
    assert value(t, 0) == 3
    for x in (1, -1, 2, -2, 3, -3):
        assert value(t, x) == 1
    assert t.total() == 9


def test_correlate_degenerate():
    single = zset([0])
    t = correlate(single, single)
    assert value(t, 0) == 1 and t.total() == 1
    g = cyclic(6)
    t2 = correlate(full_group(g), full_group(g))
    assert all(value(t2, x) == 6 for x in oracles.enumerate_elements(g.moduli))


def test_self_correlation_built_once_and_kept(monkeypatch):
    builds = []
    real = moments._conv

    def counted(tf, tg, corr=False, spectra=None):
        builds.append(corr)
        return real(tf, tg, corr, spectra)
    monkeypatch.setattr(moments, "_conv", counted)
    for a in (zset([0, 1, 3, 7, 8]), GSet(cyclic(4, 8), [(0, 1), (1, 3), (2, 2), (3, 7)])):
        builds.clear()
        energy_k(a, 2)
        energy_k(a, 3)
        level_sequence(a)
        EnergyProfile.from_set(a)
        extract.popular_set(a)
        assert builds.count(True) == 1
        kept = correlate(a, a)
        assert kept is correlate(a, a) and builds.count(True) == 1
        with pytest.raises(ValueError, match="read-only"):
            kept.array[0] = 0
        # an equal set built apart has its own table
        twin = GSet(a.group, a.coords)
        assert correlate(twin, twin) is not kept and builds.count(True) == 2


def test_energy_examples():
    a = zset([0, 1, 3])
    assert energy_k(a, 2) == 15
    assert energy_k(a, 3) == 33
    assert energy_k(a, 4) == 87
    assert energy_k(a, 1) == 9
    assert energy_k(zset([5]), 3) == 1
    g = cyclic(5)
    assert energy_k(full_group(g), 3) == 5 ** 4
    assert energy_k(zset([]), 2) == 0


def test_energy_matches_oracle():
    rng = random.Random(31)
    for _ in range(25):
        g = rng.choice([cyclic(16), cyclic(4, 4), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 8))
        mods = g.moduli if g.is_cyclic else None
        for k in (1, 2, 3):
            assert energy_k(a, k) == oracles.oracle_energy_k(mods, set(a.elems), k)


def test_energy_pair_examples():
    a = zset([0, 1])
    assert energy_k_pair(a, a, 3) == 10
    b = zset([0, 1, 3])
    assert energy_k_pair(b, b, 2) == energy_k(b, 2) == 15
    assert energy_k_pair(b, zset([]), 2) == 0
    assert energy_k_pair(b, b, 1) == len(b) ** 2


def test_energy_pair_matches_oracle():
    rng = random.Random(37)
    for _ in range(20):
        g = rng.choice([cyclic(12), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 6))
        b = rand_gset(rng, g, rng.randint(1, 6))
        mods = g.moduli if g.is_cyclic else None
        for k in (2, 3):
            assert energy_k_pair(a, b, k) == \
                oracles.oracle_energy_k_pair(mods, set(a.elems), set(b.elems), k)
        assert energy_pair(a, b) == oracles.oracle_energy_pair(mods, set(a.elems), set(b.elems))


def test_t_k_examples():
    a = zset([0, 1, 3])
    assert t_k(a, 2) == 15
    az4 = GSet(cyclic(4), [0, 2])
    assert t_k(az4, 2) == 8
    for k in (1, 2, 3, 4):
        assert t_k(az4, k) == 2 ** (2 * k - 1)


def test_sigma_k_examples():
    a = zset([0, 1, 3])
    d = setops.diffset(a, a)
    assert sigma_k(d, 2) == 7
    assert sigma_k(zset([0]), 5) == 1
    assert sigma_k(GSet(cyclic(8), []), 3) == sigma_k(zset([]), 2) == t_k(zset([]), 3) == 0


def test_t_sigma_match_oracle():
    # odd and even last axes: T_k's cross-check weighs the real half-spectrum
    rng = random.Random(41)
    for _ in range(30):
        g = rng.choice([cyclic(10), cyclic(9), cyclic(3, 5), cyclic(4, 6), cyclic(6, 3), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 5))
        mods = g.moduli if g.is_cyclic else None
        for k in (1, 2, 3):
            assert t_k(a, k) == oracles.oracle_t_k(mods, set(a.elems), k)
            assert sigma_k(a, k) == oracles.oracle_sigma_k(mods, set(a.elems), k)


def chain_oracle(a, kmax):
    """{("t" | "sigma", k): value} for k = 1..kmax, from the oracle's sum counts."""
    mods = a.group.moduli if a.group.is_cyclic else None
    want = {}
    for k in range(1, kmax + 1):
        counts = oracles.kronecker_sum_counts(mods, set(a.elems), k)
        want["t", k] = sum(c * c for c in counts.values())
        want["sigma", k] = counts.get((0,) * a.group.dim, 0)
    return want


def test_kept_chain_matches_oracle_in_any_order():
    rng = random.Random(47)
    box = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    requests = [(name, k) for name in ("t", "sigma") for k in range(1, 7)]
    for g in (cyclic(9), cyclic(10), cyclic(4, 8), lattice(1), lattice(2)):
        for trial in range(4):
            size = rng.randint(2, 7)
            a = rand_gset(rng, g, size) if g.is_cyclic or g.dim == 1 else GSet(g, rng.sample(box, size))
            want = chain_oracle(a, 6)
            # the first order asks sigma_1 of a fresh set; every order is asked twice
            order = [("sigma", 1)] + requests if trial == 0 else rng.sample(requests, len(requests))
            assert "chain" not in a._kept
            for name, k in order + order[::-1]:
                got = (t_k if name == "t" else sigma_k)(a, k)
                assert got == want[name, k], (g, a.elems, order, name, k)
            assert a.subset(np.ones(len(a), dtype=bool))._kept == {}


def test_chain_step_that_raises_keeps_the_last_good_level(monkeypatch):
    a = GSet(cyclic(4096), random.Random(91).sample(range(4096), 1500))
    want = chain_oracle(a, 5)
    assert t_k(a, 3) == want["t", 3]
    chain = a._kept["chain"]
    top = chain.top
    real = np.fft.irfftn

    def corrupt(*args):
        out = real(*args)
        out.flat[7] += 1
        return out
    monkeypatch.setattr(np.fft, "irfftn", corrupt)
    with pytest.raises(ArithmeticError, match="mass identity"):
        t_k(a, 5)
    assert chain.top is top and len(chain.t) == len(chain.sigma) == 3
    monkeypatch.setattr(np.fft, "irfftn", real)
    assert sigma_k(a, 4) == want["sigma", 4]
    assert t_k(a, 5) == want["t", 5] and sigma_k(a, 5) == want["sigma", 5]


def test_corrupted_kept_spectrum_trips_each_first_t_k_read():
    a = GSet(cyclic(4096), random.Random(92).sample(range(4096), 1500))
    want = chain_oracle(a, 7)
    assert t_k(a, 2) == want["t", 2]
    assert sigma_k(a, 7) == want["sigma", 7]   # builds levels 1..6, serves no T_k
    a._kept["chain"].spectrum()[:] *= 1.01
    assert t_k(a, 2) == want["t", 2]           # checked before the corruption
    for k in (1, 3, 4, 5, 6):
        for _ in range(2):
            with pytest.raises(groups.InvariantError, match="cross-check"):
                t_k(a, k)


def test_fractional_energy_monotone_chain():
    # kappa_k >= kappa_(k-1)^((k-1)/(k-2)) for k >= 3
    rng = random.Random(43)
    for _ in range(10):
        a = rand_gset(rng, cyclic(32), rng.randint(3, 10))
        prof = EnergyProfile.from_set(a, ks=(2, 3, 4, 5))
        for k in (4, 5):
            lo = prof.kappa[k - 1] ** ((k - 1) / (k - 2))
            assert prof.kappa[k] >= lo * (1 - 1e-9)


def test_level_sequence_examples():
    assert level_sequence(zset([0, 1, 3])) == [3, 1, 1, 1, 1, 1, 1]
    assert level_sequence(zset([4])) == [1]
    g = cyclic(5)
    assert level_sequence(full_group(g)) == [5] * 5
    rng = random.Random(29)
    a = GSet(cyclic(2048), rng.sample(range(2048), 300))   # the FFT path
    levels = level_sequence(a)
    assert all(type(v) is int for v in levels)
    want = oracles.corr_counts((2048,), set(a.elems), set(a.elems))
    assert levels == sorted(want.values(), reverse=True)


def test_mult_energy_examples():
    assert mult_energy_k([1, 2, 4], 2) == 19
    assert prodset_size([1, 2, 4]) == 5
    assert quotset_size([1, 2, 4]) == 5
    assert mult_energy_k([1], 3) == 1
    with pytest.raises(ValueError):
        mult_energy_k([0, 1], 2)


def test_mass_invariant():
    rng = random.Random(47)
    for _ in range(20):
        g = rng.choice([cyclic(20), cyclic(4, 4), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 8))
        b = rand_gset(rng, g, rng.randint(1, 8))
        assert correlate(a, b).total() == len(a) * len(b)
        assert convolve(a, b).total() == len(a) * len(b)
        assert (correlate(a, b).values() >= 0).all()


def test_fft_equals_direct_500_instances():
    rng = random.Random(53)
    worst = 0
    for i in range(500):
        n = rng.choice([1024, 1536, 2048])
        g = cyclic(n)
        a = GSet(g, rng.sample(range(n), rng.randint(2, 48)))
        b = GSet(g, rng.sample(range(n), rng.randint(2, 48)))
        fa = ConvTable.from_gset(a).array
        fb = ConvTable.from_gset(b).array
        fft = moments._fft(fa, fb, g.moduli)
        direct = moments._direct(fa, fb, g.moduli)
        assert fft is not None
        assert (fft == direct).all(), f"instance {i} diverged"


def test_fft_multidim_and_lattice_paths():
    rng = random.Random(59)
    g = cyclic(32, 32)  # order 1024 >= threshold
    a = GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(1024), 40)])
    b = GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(1024), 40)])
    fa, fb = ConvTable.from_gset(a).array, ConvTable.from_gset(b).array
    assert (moments._fft(fa, fb, g.moduli) ==
            moments._direct(fa, fb, g.moduli)).all()
    # lattice windows: shift far from the origin, exactness preserved
    z = lattice(1)
    a = GSet(z, [x + 1000 for x in rng.sample(range(100), 20)])
    b = GSet(z, [x - 2000 for x in rng.sample(range(100), 20)])
    t = convolve(a, b)
    mods = None
    want = {}
    for u in a.elems:
        for v in b.elems:
            s = (u[0] + v[0],)
            want[s] = want.get(s, 0) + 1
    assert support(t) == want


def oracle_correlate(mods, f, h):
    """(f o h)(x) = sum_y f(y) h(y + x): the oracle convolution of f reflected."""
    return oracles.kronecker_convolve(
        mods, {oracles.normalize(mods, tuple(-c for c in x)): v for x, v in f.items()}, h)


def weighted(rng, g, points, bits, span=None):
    """{point: value} with values below 2^bits (all 1 for bits 0), on points
    of a cyclic group or of the box [-span, span)^dim of a lattice."""
    if g.is_cyclic:
        pts = [oracles.from_flat(g.moduli, v) for v in rng.sample(range(g.order), points)]
    else:
        pts = list({tuple(rng.randrange(-span, span) for _ in range(g.dim)) for _ in range(points)})
    return {p: rng.randrange(1, 1 << bits) if bits else 1 for p in pts}


@pytest.mark.parametrize("g, points, span, cap, path", [
    (cyclic(16), 12, None, None, "_direct"),
    (cyclic(4, 4), 12, None, None, "_direct"),
    (cyclic(4096), 64, None, None, "_direct"),       # sparse: sqrt(N) points, 2^12 pairs
    (cyclic(1024), 160, None, None, "_fft"),         # cyclic FFT at the group size
    (cyclic(32, 64), 160, None, None, "_fft"),
    (cyclic(1000), 160, None, None, "_fft"),         # padded linear FFT, folded
    (cyclic(3, 5), 12, None, 0, "_fft"),             # forced: _DIRECT_MAX patched to 0
    (lattice(1), 40, 30, None, "_direct"),
    (lattice(1), 240, 3000, None, "_fft"),           # padded linear FFT on a window
    (lattice(1), 300, 150, None, "_fft"),            # dense Z set
    (lattice(2), 240, 20, None, "_fft"),
], ids=["Z16", "Z4xZ4", "Z4096-sparse", "Z1024", "Z32xZ64", "Z1000", "Z3xZ5-fft", "Z-direct",
        "Z-fft", "Z-dense", "Z2-fft"])
def test_correlate_matches_oracle_on_every_path(monkeypatch, g, points, span, cap, path):
    if cap is not None:
        monkeypatch.setattr(moments, "_DIRECT_MAX", cap)
    served = []
    for name in ("_direct", "_fft"):
        real = getattr(moments, name)
        monkeypatch.setattr(moments, name, lambda *args, _r=real, _n=name: served.append(_n) or _r(*args))
    rng = random.Random(83)
    mods = g.moduli if g.is_cyclic else None
    # 0/1, then entries to 2^40 that force a limb split, with either operand the wider
    for fbits, hbits in ((0, 0), (40, 3), (3, 40), (40, 40)):
        f, h = weighted(rng, g, points, fbits, span), weighted(rng, g, points, hbits, span)
        tf, th = table_of(g, f), table_of(g, h)
        assert support(correlate(tf, th)) == oracle_correlate(mods, f, h)
        assert support(correlate(th, tf)) == oracle_correlate(mods, h, f)
        assert support(correlate(tf, tf)) == oracle_correlate(mods, f, f)
    a, b = (GSet(g, list(weighted(rng, g, points, 0, span))) for _ in range(2))
    assert support(correlate(a, b)) == oracles.corr_counts(mods, set(a.elems), set(b.elems))
    assert support(correlate(a, a)) == oracles.corr_counts(mods, set(a.elems), set(a.elems))
    assert set(served) == {path}


def test_self_products_transform_once(monkeypatch):
    calls = []
    for name in ("rfftn", "irfftn"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _r=real, _n=name: calls.append(_n) or _r(*args))
    a = GSet(cyclic(4096), random.Random(89).sample(range(4096), 1500))
    for product in (correlate, convolve):
        calls.clear()
        product(a, a)
        assert calls == ["rfftn", "irfftn"]
    calls.clear()
    correlate(a, GSet(cyclic(4096), range(0, 400, 20)))
    assert calls == ["rfftn", "rfftn", "irfftn"]
    # a set's kept chain transforms A once (level 2 is a self-product) and each
    # new level's top once, and T_k's cross-check reuses A's spectrum; sigma_k
    # up to the top level, and repeated requests, read the kept levels
    a = GSet(cyclic(4096), random.Random(90).sample(range(4096), 1500))
    for moment, k, counts in ((t_k, 2, (1, 1)), (t_k, 3, (1, 1)), (t_k, 4, (1, 1)),
                              (sigma_k, 2, (0, 0)), (sigma_k, 3, (0, 0)), (sigma_k, 4, (0, 0)),
                              (t_k, 3, (0, 0)), (sigma_k, 5, (0, 0)), (t_k, 4, (0, 0))):
        calls.clear()
        moment(a, k)
        assert (calls.count("rfftn"), calls.count("irfftn")) == counts, (moment.__name__, k)


def test_single_limb_product_keeps_mass_check(monkeypatch):
    a = GSet(cyclic(4096), random.Random(97).sample(range(4096), 1500))
    b = GSet(cyclic(4096), random.Random(98).sample(range(4096), 900))
    assert moments._split((1500, 1), (1500, 1), 4096) == (None, None)
    real = np.fft.irfftn

    def corrupt(*args):
        out = real(*args)
        out.flat[7] += 1
        return out
    monkeypatch.setattr(np.fft, "irfftn", corrupt)
    for f, g in ((a, a), (a, b)):
        for product in (correlate, convolve):
            with pytest.raises(ArithmeticError, match="mass identity"):
                product(f, g)


def test_conv_power_chain_exact():
    a = GSet(cyclic(4), [0, 2])
    assert value(conv_power(a, 1), 0) == 1
    t3 = conv_power(a, 3)
    assert t3.total() == 8


def test_parseval_and_convolution_transform():
    rng = np.random.default_rng(61)
    g = cyclic(64)
    for _ in range(30):
        f = rng.integers(-5, 6, 64).astype(np.float64)
        h = rng.integers(-5, 6, 64).astype(np.float64)
        fh, hh = np.fft.fft(f), np.fft.fft(h)
        # Parseval
        assert math.isclose((f ** 2).sum(), (np.abs(fh) ** 2).sum() / 64, rel_tol=1e-9)
        # sum_y |sum_x f(x) h(y-x)|^2 = (1/N) sum |f^|^2 |h^|^2
        conv = np.fft.ifft(fh * hh).real
        lhs = (conv ** 2).sum()
        rhs = (np.abs(fh) ** 2 * np.abs(hh) ** 2).sum() / 64
        assert math.isclose(lhs, rhs, rel_tol=1e-9)


def test_slice_identity_micro_brute_force():
    # E_k(A) equals the slice sum enumerated over explicit tuples
    rng = random.Random(67)
    for _ in range(6):
        g = rng.choice([cyclic(10), lattice(1)])
        a = rand_gset(rng, g, rng.randint(2, 5))
        mods = g.moduli if g.is_cyclic else None
        for k in (2, 3):
            assert energy_k(a, k) == oracles.oracle_slice_energy(mods, set(a.elems), k)


def test_pair_slice_identity_micro_brute_force():
    rng = random.Random(71)
    for _ in range(4):
        a = rand_gset(rng, cyclic(8), rng.randint(2, 4))
        mods = (8,)
        for k, l in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            assert energy_k(a, k + l) == \
                oracles.oracle_pair_slice_sum(mods, set(a.elems), k, l)


def table_of(g, counts, dtype=np.int64):
    """ConvTable holding a {coordinate tuple: integer} dict."""
    if g.is_cyclic:
        arr, lo = np.zeros(g.moduli, dtype=dtype), (0,) * g.dim
    else:
        lo = tuple(min(p[i] for p in counts) for i in range(g.dim))
        hi = tuple(max(p[i] for p in counts) for i in range(g.dim))
        arr = np.zeros(tuple(h - l + 1 for l, h in zip(lo, hi)), dtype=dtype)
    for p, v in counts.items():
        arr[tuple(c - l for c, l in zip(p, lo))] = v
    return ConvTable(g, arr, None if g.is_cyclic else lo)


def roadmap_repro():
    rng = random.Random(5)
    return GSet(cyclic(16384), [x for x in range(16384) if rng.random() < 0.5])


def boundary_tables():
    """(group, f, g) whose entry bound B = |f|_1 |g|_inf sits at 2^62 - 1 and
    2^62, on the direct path, the cyclic FFT at the group size, the padded and
    folded FFT, and the lattice FFT."""
    cases = []
    for g in (cyclic(64), cyclic(1024), cyclic(1536), cyclic(32, 48), lattice(2)):
        one = (0,) * (g.dim - 1) + (1,)
        far = (3,) * g.dim if g.is_cyclic else (63,) * g.dim  # lattice windows 64x64
        for total in ((1 << 62) - 1, 1 << 62):
            x = total // 3
            f = {(0,) * g.dim: x, one: total - x, far: 0}
            h = {(0,) * g.dim: 1, one: 1, far: 1}
            cases.append((g, f, h))
    return cases


def test_sigma_t_wide_match_kronecker_oracle():
    # sigma_6 wrapped to a negative int64 and T_6 raised before tables could
    # widen; either may come first on a set's kept chain
    a = roadmap_repro()
    counts = oracles.kronecker_sum_counts((16384,), set(a.elems), 6)
    want = {sigma_k: counts[(0,)], t_k: sum(c * c for c in counts.values())}
    assert want[sigma_k] == 18392766791437006971
    for order in ((sigma_k, t_k), (t_k, sigma_k)):
        fresh = GSet(a.group, a.coords)
        for moment in order:
            assert moment(fresh, 6) == want[moment]


def test_entry_bound_boundaries_match_oracle():
    for g, f, h in boundary_tables():
        mods = g.moduli if g.is_cyclic else None
        t = convolve(table_of(g, f), table_of(g, h))
        want = oracles.kronecker_convolve(mods, f, h)
        assert support(t) == want
        wide = sum(f.values()) >= 1 << 62
        assert t.array.dtype == (object if wide else np.int64)
        assert max(want.values()) == sum(f.values())


def test_power_sum_matches_python_ints_on_every_branch():
    # near 2^10 with max <= 4 len: int64 to k = 5, the bincount loop at k = 6;
    # near 2^20: int64 at k = 2, the h 2^s + l split at k = 3, 4, the Python loop
    # beyond; near 2^37: the split at k = 2, the Python loop beyond
    rng = np.random.default_rng(101)
    for bits, n in ((10, 1024), (20, 1000), (37, 1000)):
        values = np.concatenate([(1 << bits) + rng.integers(-64, 64, n), [0, -5, (1 << bits) - 1]])
        top, n = int(values.max()), int((values > 0).sum())
        if bits == 10:
            assert top ** 6 * n >= 1 << 63 and top <= 4 * n
        for k in range(2, 7):
            assert moments._power_sum(values, k) == sum(int(v) ** k for v in values.tolist() if v > 0)


def test_limb_plan():
    # E_2 on Z/2^20 at density 1/2: two whole indicator operands, bound ~2^-26
    n, half = 1 << 20, (1 << 19, 1)
    assert moments._split(half, half, n) == (None, None)
    assert moments._percival(n) * 2 ** 19 < 2 ** -25
    # the step A^(*4) * A of sigma_6 on Z/16384: split A^(*4) into 2 limbs
    fn, gn = (8192 ** 4, 1 << 38), (8192, 1)
    bits, gbits = moments._split(fn, gn, 16384)
    assert gbits is None and 19 < bits < 38
    assert 4 ** bits * 16384 * gn[0] * gn[1] * (4 * moments._percival(16384)) ** 2 < 1
    # both operands too wide to keep either whole: both split
    big = (1 << 52, 1 << 40)
    bits, gbits = moments._split(big, big, 4096)
    assert bits == gbits and 0 < bits < 40
    assert (4 ** bits * 4096 * 4 * moments._percival(4096)) ** 2 < 1
    # a four-step runs the same m butterfly levels plus two twiddle multiplies
    # per transform, each by a table entry within _TWIDDLE_ERR
    e = 2.0 ** -53
    for size in (1 << 15, 1 << 20, 1 << 25):
        m = size.bit_length() - 1
        assert moments._percival(size, True) == math.expm1(
            6 * m * math.log1p(e) + (3 * (m + 2) + 1) * math.log1p(e * math.sqrt(5))
            + 6 * math.log1p(moments._TWIDDLE_ERR))
        assert moments._percival(size) < moments._percival(size, True) < 2 * moments._percival(size)
    assert moments._split(half, half, n, True) == (None, None)
    assert moments._percival(n, True) * 2 ** 19 < 2 ** -25
    # at the edge the extra levels cost a limb: two operands equal to L on all
    # of Z/2^20, with L just past the four-step's cap, stay whole under the plain bound
    lv = math.isqrt(math.isqrt(int(1 / (16 * moments._percival(n, True) ** 2)))) // 1024 + 1
    edge = (n * lv, lv)
    assert moments._split(edge, edge, n) == (None, None)
    bits, gbits = moments._split(edge, edge, n, True)
    assert gbits is None and (lv.bit_length() - 1) // bits == 1   # f in two limbs


def recording_twiddles(monkeypatch):
    """The lengths at which the four-step runs, one per transform."""
    seen = []
    real = moments._twiddles
    monkeypatch.setattr(moments, "_twiddles", lambda n: seen.append(n) or real(n))
    return seen


@pytest.mark.parametrize("g, points, span, bits, size, self_only", [
    (cyclic(1 << 15), 1 << 14, None, 0, 1 << 15, False),    # dense 0/1 at the group size
    (cyclic(1 << 15), 3000, None, 40, 1 << 15, False),      # entries to 2^40: a limb split
    (lattice(1), 3000, 12000, 0, 1 << 16, False),           # a window padded past 2^15
    (cyclic(20000), 5000, None, 0, 1 << 16, False),         # Z/N padded past 2^15, folded
    (cyclic(1 << 17), 1 << 16, None, 0, 1 << 17, True),     # dense 0/1, self-correlation
], ids=["Z2^15-dense", "Z2^15-limbs", "Z-window", "Z20000", "Z2^17-dense"])
def test_four_step_products_match_oracle(monkeypatch, g, points, span, bits, size, self_only):
    seen = recording_twiddles(monkeypatch)
    served = []
    for name in ("_direct", "_fft"):
        real = getattr(moments, name)
        monkeypatch.setattr(moments, name, lambda *args, _r=real, _n=name: served.append(_n) or _r(*args))
    rng = random.Random(size + bits)
    mods = g.moduli if g.is_cyclic else None
    f = weighted(rng, g, points, bits, span)
    tf = table_of(g, f)
    if self_only:
        assert support(correlate(tf, tf)) == oracle_correlate(mods, f, f)
    else:
        h = weighted(rng, g, points, bits, span)
        th = table_of(g, h)
        limbs = moments._split(moments._norms(tf.array), moments._norms(th.array), size, True)
        assert (limbs != (None, None)) == bool(bits)
        assert support(convolve(tf, th)) == oracles.kronecker_convolve(mods, f, h)
        assert support(correlate(tf, th)) == oracle_correlate(mods, f, h)
    assert set(served) == {"_fft"} and set(seen) == {size}


@pytest.mark.slow
def test_four_step_at_2_20_matches_oracle(monkeypatch):
    seen = recording_twiddles(monkeypatch)
    g = cyclic(1 << 20)
    a = GSet(g, random.Random(20).sample(range(1 << 20), 1 << 19))
    assert support(convolve(a, a)) == oracles.kronecker_convolve(g.moduli, {x: 1 for x in a.elems},
                                                                 {x: 1 for x in a.elems})
    assert set(seen) == {1 << 20}


def test_four_step_serves_only_long_one_dimensional_shapes(monkeypatch):
    shapes = ((1 << 14,), (1 << 15,), (1 << 20,), (3 << 14,), (128, 256), (1 << 15, 2))
    assert [moments._four_step(s) for s in shapes] == [False, True, True, False, False, False]
    seen = recording_twiddles(monkeypatch)
    rng = random.Random(95)
    box = [(x, y) for x in range(150) for y in range(150)]
    # FFT-path products just below the cut, and on shapes of 2^15 points and
    # more in two dimensions: Z/2^14, Z/128xZ/256, a Z window padded to 2^14,
    # a Z^2 window padded to 512x512
    for g, elems in ((cyclic(1 << 14), rng.sample(range(1 << 14), 1 << 13)),
                     (cyclic(128, 256), [oracles.from_flat((128, 256), v)
                                         for v in rng.sample(range(1 << 15), 1 << 14)]),
                     (lattice(1), rng.sample(range(8000), 4000)),
                     (lattice(2), rng.sample(box, 10000))):
        a, b = GSet(g, elems), GSet(g, elems[: len(elems) // 2])
        correlate(a, b)
        convolve(a, a)
        t_k(a, 2)
        assert seen == [], g
    # Z/2^15 and Z/(3 2^14), whose linear products are padded to 2^17
    for n, size in ((1 << 15, 1 << 15), (3 << 14, 1 << 17)):
        t_k(GSet(cyclic(n), rng.sample(range(n), n // 2)), 2)
        assert set(seen) == {size}
        seen.clear()


def test_four_step_twiddles_within_stated_accuracy():
    if np.finfo(np.longdouble).nmant <= 52:
        pytest.skip("needs an extended-precision long double for the reference")
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for m in (15, 16, 20, 21):
        n = 1 << m
        n1, hi, lo = moments._twiddles(n)
        n2, s, rows = n // n1, lo.shape[2], n1 // 2 + 1
        assert n1 == 1 << m // 2 and hi.shape == (rows, n2 // s, 1) and lo.shape == (rows, 1, s)
        assert hi.size + lo.size <= 3 * rows * math.isqrt(n2)   # no n/2-entry table
        k1 = np.arange(rows)[:, None, None]
        for table, e in ((hi, k1 * np.arange(0, n2, s)[None, :, None]),
                         (lo, k1 * np.arange(s)[None, None, :])):
            angle = -2 * pi * e.astype(np.longdouble) / n
            err = np.hypot((table.real - np.cos(angle)).astype(np.float64),
                           (table.imag - np.sin(angle)).astype(np.float64))
            assert err.max() <= moments._TWIDDLE_ERR


@pytest.mark.parametrize("n, size", [(4096, 1500), (1 << 15, 3000)])
def test_off_zero_corruption_trips_every_t_k(n, size):
    # |A|^(2k)/N, the zero frequency's share, would swamp a 1.01 scaling of
    # every other bin at k >= 3 if the check summed the whole spectrum
    a = GSet(cyclic(n), random.Random(93).sample(range(n), size))
    t2 = t_k(a, 2)
    sigma_k(a, 7)   # builds levels 1..6, serves no T_k
    spec = a._kept["chain"].spectrum()
    assert spec.ndim == (2 if n >= 1 << 15 else 1)   # the four-step layout
    zero = spec.flat[0]
    spec *= 1.01
    spec.flat[0] = zero
    assert t_k(a, 2) == t2   # checked before the corruption
    for k in (1, 3, 4, 5, 6):
        with pytest.raises(groups.InvariantError, match="cross-check"):
            t_k(a, k)


def test_fft_limb_products_exact():
    rng = random.Random(73)
    g = cyclic(4096)
    f = {(x,): rng.randrange(1 << 40) for x in range(4096)}
    h = {(x,): rng.randrange(1 << 38) for x in range(4096)}
    t = convolve(table_of(g, f), table_of(g, h))   # both operands split
    assert t.array.dtype == object
    assert support(t) == oracles.kronecker_convolve((4096,), f, h)
    # signed operands: the top limb carries the sign
    f = {(x,): rng.choice((-1, 1)) * rng.randrange(1 << 45) for x in rng.sample(range(4096), 60)}
    h = {(x,): rng.randrange(-3, 4) for x in rng.sample(range(4096), 60)}
    want = {}
    for (u,), v in f.items():
        for (w,), c in h.items():
            want[((u + w) % 4096,)] = want.get(((u + w) % 4096,), 0) + v * c
    t = convolve(table_of(g, f), table_of(g, h))
    assert support(t) == {x: v for x, v in want.items() if v}


def test_padded_folded_and_lattice_powers_match_oracle():
    rng = random.Random(79)
    box = [(x, y) for x in range(-20, 21) for y in range(-20, 21)]
    for g, elems in ((cyclic(1536), rng.sample(range(1536), 700)),
                     (cyclic(32, 48), [oracles.from_flat((32, 48), v)
                                       for v in rng.sample(range(1536), 700)]),
                     (lattice(2), rng.sample(box, 800))):
        a = GSet(g, elems)
        mods = g.moduli if g.is_cyclic else None
        counts = oracles.kronecker_sum_counts(mods, set(a.elems), 4)
        assert support(conv_power(a, 4)) == counts
        assert sigma_k(a, 4) == counts.get((0,) * g.dim, 0)
        assert t_k(a, 3) == sum(c * c for c in
                                oracles.kronecker_sum_counts(mods, set(a.elems), 3).values())


def test_wide_cases_emit_no_warning():
    a = roadmap_repro()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma_k(a, 6)
        t_k(a, 6)
        for g, f, h in boundary_tables():
            convolve(table_of(g, f), table_of(g, h))


def test_wide_tables_stay_exact(monkeypatch):
    s = 1 << 70
    wide = table_of(lattice(1), {(0,): 3 * s, (2,): s}, dtype=object)
    assert value(wide, 0) == 3 * s and value(wide, 1) == 0
    assert wide.total() == 4 * s
    assert support(wide) == {(0,): 3 * s, (2,): s}
    assert moments._power_sum(wide.values(), 3) == 28 * s ** 3
    narrow = moments.correlate

    def scaled(f, g):
        t = narrow(f, g)
        return ConvTable(t.group, t.array.astype(object) * s, t.offset)

    monkeypatch.setattr(moments, "correlate", scaled)
    a = zset([0, 1, 3])
    assert level_sequence(a) == [3 * s] + [s] * 6
    assert energy_k_pair(a, a, 3) == 33 * s ** 3
    assert energy_k(a, 4) == 87 * s ** 4


def test_table_csv_export():
    a = zset([0, 1, 3])
    csv = correlate(a, a).to_csv()
    assert csv.splitlines()[0] == "element,count"
    assert '"0",3' in csv


def test_correlation_mass_check_survives_optimize():
    # `python -O` strips `assert`; the invariant must still raise.  Each engine
    # path checks its product's mass, so the corruption goes into the direct
    # path's pair count
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from hienergy import moments",
        "from hienergy.gset import zset",
        "real = np.bincount",
        "def corrupt(*args, **kwargs):",
        "    out = real(*args, **kwargs)",
        "    out[0] += 1",
        "    return out",
        "np.bincount = corrupt",
        "if not sys.flags.optimize:",
        "    sys.exit('not running under -O')",
        "try:",
        "    moments.correlate(zset([0, 1, 3]), zset([0, 2]))",
        "except AssertionError as exc:",
        "    print(type(exc).__name__)",
    ])
    src = os.path.dirname(os.path.dirname(moments.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "InvariantError"
