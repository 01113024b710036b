import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter, namedtuple

import numpy as np
import pytest

import oracles
from hienergy import extract, groups, moments, setops
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, full_group, zset
from hienergy.extract import energy_profile
from hienergy.moments import (ConvTable, convolve, correlate, energy_k,
                              energy_k_pair, level_sequence, mult_energy_k,
                              prodset_size, quotset_size, sigma_k, t_k)


def value(table, x):
    """The table's entry at one element, by a one-row gather."""
    return table.values_at(np.array([x], dtype=np.int64).reshape(1, -1))[0]


def support(table):
    """The nonzero entries as {coordinate tuple: value}."""
    points, values = table.support_rows()
    return dict(zip(map(tuple, points.tolist()), values.tolist()))


def total(table):
    """The sum of a table's entries."""
    return moments._total(table.planes)


def cut_planes(values):
    """An integer array (Python ints allowed) as table planes: one int64
    plane where every entry fits, else the fewest R-bit planes whose top one
    holds its largest |entry|, the low ones in [0, 2^R), the top one the
    rest (negative for a negative entry, which a table refuses)."""
    values = np.asarray(values)
    if values.dtype != object:
        return values.astype(np.int64, copy=False)[None]
    lo, hi = int(values.min(initial=0)), int(values.max(initial=0))
    if -1 << 63 <= lo and hi < 1 << 63:
        return values.astype(np.int64)[None]
    r, d = moments._R, -(-max(hi, -lo).bit_length() // moments._R)
    return np.stack([values >> r * i & (1 << r) - 1 for i in range(d - 1)]
                    + [values >> r * (d - 1)]).astype(np.int64)


def table_at(g, values, offset=None):
    """The table of an integer array on its window at offset (0 on a cyclic group)."""
    return ConvTable.of_planes(g, cut_planes(values), offset)


def power(f, k):
    """The k-fold convolution power (k >= 2) of a set or table, by a convolve loop."""
    out = f
    for _ in range(k - 1):
        out = convolve(out, f)
    return out


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
    assert total(t) == 9


def test_correlate_degenerate():
    single = zset([0])
    t = correlate(single, single)
    assert value(t, 0) == 1 and total(t) == 1
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
        energy_profile(a, (2, 3, 4))
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
        assert energy_k_pair(a, b, 2) == oracles.oracle_energy_pair(mods, set(a.elems), set(b.elems))


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


def test_sigma_1_reads_the_keys_without_the_chain():
    # sigma_1(A) = [0 in A], by one search of the set's keys: a fresh set keeps
    # no chain and builds no indicator
    rng = random.Random(157)
    for g, points in ((cyclic(1 << 20), 1024), (cyclic(4, 8), 9), (lattice(1), 9), (lattice(2), 9)):
        zero = (0,) * g.dim
        for with_zero in (False, True):
            a = GSet(g, [p for p in weighted(rng, g, points, 0, 8) if p != zero] + [zero] * with_zero)
            mods = g.moduli if g.is_cyclic else None
            assert sigma_k(a, 1) == oracles.oracle_sigma_k(mods, set(a.elems), 1) == with_zero
            assert "chain" not in a._kept and "_dense" not in a.__dict__
            assert moments._chain(a).sigma == [with_zero]   # the chain records the same read


def test_chain_step_that_raises_keeps_the_last_good_level(monkeypatch):
    a = GSet(cyclic(4096), random.Random(91).sample(range(4096), 1500))
    want = chain_oracle(a, 5)
    assert t_k(a, 3) == want["t", 3]
    chain = a._kept["chain"]
    top = chain.top
    real = np.fft.irfft   # a one-axis shape below the four-step

    def corrupt(*args):
        out = real(*args)
        out.flat[7] += 1
        return out
    monkeypatch.setattr(np.fft, "irfft", corrupt)
    with pytest.raises(groups.InvariantError, match="mass identity"):
        t_k(a, 5)
    assert chain.top is top and len(chain.t) == len(chain.sigma) == 3
    monkeypatch.setattr(np.fft, "irfft", real)
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
        kappa = energy_profile(a, (2, 3, 4, 5))["kappa"]
        for k in (4, 5):
            lo = kappa[str(k - 1)] ** ((k - 1) / (k - 2))
            assert kappa[str(k)] >= lo * (1 - 1e-9)


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


def test_equal_levels_share_one_int():
    # levels above 256, past CPython's small-int cache, repeat: r(x) = r(-x)
    a = GSet(cyclic(1 << 16), list(range(512)) + random.Random(31).sample(range(512, 1 << 16), 100))
    levels = level_sequence(a)
    big = [v for v in levels if v > 256]
    assert len(big) > len(set(big))
    assert all(type(v) is int for v in levels)
    assert len({id(v) for v in levels}) == len(set(levels))
    want = oracles.corr_counts((1 << 16,), set(a.elems), set(a.elems))
    assert levels == sorted(want.values(), reverse=True)


def test_level_sequence_is_runs_that_read_as_the_sorted_list():
    # A o A of {0, 1, 3, 7} in Z: 4 at 0, 1 at each of the other 12 differences
    seq = level_sequence(zset([0, 1, 3, 7]))
    want = [4] + [1] * 12
    assert isinstance(seq, moments.LevelSequence) and len(seq) == 13
    assert [seq[i] for i in range(13)] == want
    assert (seq[0], seq[1], seq[-1], seq[-13]) == (4, 1, 1, 4)
    for i in (13, 100, -14):
        with pytest.raises(IndexError):
            seq[i]
    with pytest.raises(TypeError):
        seq[1.0]
    for sl in (slice(None), slice(0, 3), slice(5, 1, -1), slice(None, None, -3), slice(20, 30)):
        assert type(seq[sl]) is list and seq[sl] == want[sl]
    assert list(seq) == want and tuple(seq) == tuple(want)
    assert seq == want and want == seq and seq == tuple(want) and tuple(want) == seq
    assert seq == seq and seq == level_sequence(zset([0, 1, 3, 7]))
    assert not seq != want
    for i in (0, 5, 12):
        other = list(want)
        other[i] += 1
        assert seq != other and other != seq and seq != tuple(other)
    assert seq != want[:-1] and seq != want + [1] and seq != level_sequence(zset([0, 1, 3]))
    assert seq != [4, 1] and seq != "x" and seq != 4
    with pytest.raises(TypeError):
        hash(seq)
    # iteration repeats each level's one int object
    a = GSet(cyclic(1 << 16), list(range(512)) + random.Random(37).sample(range(512, 1 << 16), 100))
    seq = level_sequence(a)
    assert len({id(v) for v in seq}) == len(set(seq)) < len(seq) == moments._levels(a).total
    assert seq.count(seq[0]) == 1 and seq.index(seq[-1]) < len(seq)
    empty = level_sequence(GSet(cyclic(8), []))
    assert len(empty) == 0 and list(empty) == [] and empty == [] and empty[:] == []


def test_level_sequence_holds_its_distinct_levels_only():
    # the list it replaces held one pointer per difference: 8 |A - A| bytes
    a = fresh_set(16, 8, 53)
    energy_k(a, 2)   # the histogram is kept; only the sequence is measured
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seq = level_sequence(a)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < sys.getsizeof(list(seq)) / 8
    assert len(seq) == len(setops.diffset(a, a)) and list(seq) == sorted(list(seq), reverse=True)


def test_histogram_of_a_read_only_table_copies_a_block_at_most():
    # np.bincount copies a read-only input whole; counted in blocks, the
    # copy is one block
    values = np.random.default_rng(59).integers(0, 300, 1 << 18)
    values.flags.writeable = False
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        hist = moments._histogram(values)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * values.nbytes
    bins = np.bincount(values)
    assert hist.levels.tolist() == (np.flatnonzero(bins[1:]) + 1).tolist()
    assert hist.counts.tolist() == bins[hist.levels].tolist()
    # a later block with a larger top than the first, and one with a smaller
    for values in (np.arange(3 << 16) // 4, np.arange(3 << 16)[::-1] // 4, np.array([0, 7, 7])):
        levels, counts = moments._histogram(values)
        bins = np.bincount(values)
        assert levels.tolist() == (np.flatnonzero(bins[1:]) + 1).tolist()
        assert counts.tolist() == bins[levels].tolist()


def fresh_set(m, inv_density, seed):
    """A random set of Z/2^m with 2^m / inv_density elements, its indicator built."""
    n = 1 << m
    a = GSet(cyclic(n), np.random.default_rng(seed).choice(n, n // inv_density, replace=False)[:, None])
    a.indicator()
    return a


def traced_peak(call, a) -> float:
    """The traced peak of call(a) above the memory traced before it, in int64
    tables of the group: units of 8N bytes.  call first runs untraced on an
    equal set built apart, so the twiddle tables and FFT plans that a first
    transform at this size builds (about 0.4 of a table at 2^16) stay out."""
    call(GSet(a.group, a.coords))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call(a)
        return (tracemalloc.get_traced_memory()[1] - before) / (8 * a.group.order)
    finally:
        tracemalloc.stop()


SELF_CORRELATIONS = [(2, lambda a: correlate(a, a)), (8, lambda a: energy_k(a, 3))]


@pytest.mark.parametrize("inv_density, call", SELF_CORRELATIONS, ids=["correlate", "energy_k"])
def test_fresh_self_correlation_peaks_below_two_and_a_half_tables(inv_density, call):
    # one half-spectrum of 8N bytes, squared in its own buffer and dropped
    # before the inverse's floats are cast to the int64 table: about 2.2
    # tables, where a copied spectrum kept through the cast makes about 4
    assert traced_peak(call, fresh_set(18, inv_density, 18)) <= 2.5


@pytest.mark.slow
def test_fresh_self_correlation_peak_at_2_20():
    assert traced_peak(SELF_CORRELATIONS[0][1], fresh_set(20, 2, 20)) <= 2.5


@pytest.mark.parametrize("m", [16, 18])
@pytest.mark.parametrize("inv_density", [2, 64])
def test_fresh_chain_to_t3_peaks_below_four_and_a_half_tables(m, inv_density):
    # a step holds the kept base spectrum, the level below, the product
    # spectrum and the inverse's output, about 4.1 tables; the set's table is
    # its one-byte indicator, and T_3's digits are cut a block at a time
    assert traced_peak(lambda a: t_k(a, 3), fresh_set(m, inv_density, m + inv_density)) <= 4.5


def test_indicator_is_one_read_only_byte_per_element():
    n = 1 << 16
    a = GSet(cyclic(n), np.random.default_rng(16).choice(n, n // 2, replace=False)[:, None])
    peak = traced_peak(lambda s: s.indicator(), a)
    ind = a.indicator()
    assert ind.dtype == np.uint8 and ind.nbytes == n and not ind.flags.writeable
    assert peak <= 1 / 8 + 1 / 1024   # the plane and its array headers
    assert np.shares_memory(ConvTable.from_gset(a).planes, ind)   # the engine reads the same bytes


@pytest.mark.slow
@pytest.mark.parametrize("size", [1 << 10, 1 << 19])
def test_chain_to_t3_at_2_20_peaks_below_four_and_a_half_tables(size):
    # the indicator's build is counted: the set's is not built before the trace
    n = 1 << 20
    a = GSet(cyclic(n), np.random.default_rng(size).choice(n, size, replace=False)[:, None])
    assert traced_peak(lambda a: t_k(a, 3), a) <= 4.5


@pytest.mark.parametrize("k", [math.nan, math.inf, float("1e400"), 0, 0.5, -math.inf])
def test_energy_orders_outside_one_to_infinity_are_refused(k):
    a, b = zset([0, 1, 3]), zset([0, 2])
    with pytest.raises(ValueError, match="energy order"):
        moments.energy_k(a, k)
    with pytest.raises(ValueError, match="energy order"):
        moments.energy_k_pair(a, b, k)


def test_mult_energy_examples():
    assert mult_energy_k([1, 2, 4], 2) == 19
    assert prodset_size([1, 2, 4]) == 5
    assert quotset_size([1, 2, 4]) == 5
    assert mult_energy_k([1], 3) == 1
    with pytest.raises(ValueError):
        mult_energy_k([0, 1], 2)


def test_multiplicative_side_matches_the_oracle():
    rng = random.Random(83)
    for trial in range(24):
        n = rng.randint(1, 40)
        if trial % 4 == 3:   # a 1-D Z/N set, read as its residues
            a = GSet(cyclic(97), rng.sample(range(1, 97), n))
        else:
            a = zset(rng.sample([x for x in range(-60, 61) if x or trial % 2], n))
        xs = a.coords[:, 0].tolist()
        assert prodset_size(a) == prodset_size(xs) == oracles.oracle_prodset_size(xs)
        z = zset(xs)
        assert len(setops.sumset(moments.prodset(z, z), z)) == oracles.oracle_prod_plus_size(xs)
        assert len(moments.prodset(z, setops.sumset(z, z))) == oracles.oracle_prod_of_sums_size(xs)
        if 0 in xs:
            with pytest.raises(ValueError):
                quotset_size(a)
            continue
        assert quotset_size(a) == quotset_size(xs) == oracles.oracle_quotset_size(xs)
        for k in (2, 3, 4):
            assert mult_energy_k(a, k) == oracles.oracle_mult_energy_k(xs, k)


def test_multiplicative_bound():
    top = (1 << 30) - 1
    xs = [-top, -top + 1, -3, 2, top - 1, top]
    a = zset(xs)
    aa = moments.prodset(a, a)
    assert aa.coords[:, 0].tolist() == sorted({x * y for x in xs for y in xs})
    assert moments.prodset(a, a) is aa   # kept on A
    assert mult_energy_k(a, 2) == oracles.oracle_mult_energy_k(xs, 2)
    assert quotset_size(a) == oracles.oracle_quotset_size(xs)
    for bad in ([1, 1 << 30], [-(1 << 30), 5], zset([1 << 30])):
        for fn in (prodset_size, quotset_size, lambda s: mult_energy_k(s, 2)):
            with pytest.raises(ValueError):
                fn(bad)


def test_mass_invariant():
    rng = random.Random(47)
    for _ in range(20):
        g = rng.choice([cyclic(20), cyclic(4, 4), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 8))
        b = rand_gset(rng, g, rng.randint(1, 8))
        assert total(correlate(a, b)) == len(a) * len(b)
        assert total(convolve(a, b)) == len(a) * len(b)
        assert (correlate(a, b).values() >= 0).all()


def test_fft_equals_direct_500_instances():
    rng = random.Random(53)
    worst = 0
    for i in range(500):
        n = rng.choice([1024, 1536, 2048])
        g = cyclic(n)
        a = GSet(g, rng.sample(range(n), rng.randint(2, 48)))
        b = GSet(g, rng.sample(range(n), rng.randint(2, 48)))
        ta, tb = ConvTable.from_gset(a), ConvTable.from_gset(b)
        fft = moments._fft(ta, tb)
        direct = moments._direct(ta, tb)
        assert fft is not None
        assert (fft == direct).all(), f"instance {i} diverged"


def test_fft_multidim_and_lattice_paths():
    rng = random.Random(59)
    g = cyclic(32, 32)  # order 1024 >= threshold
    a = GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(1024), 40)])
    b = GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(1024), 40)])
    ta, tb = ConvTable.from_gset(a), ConvTable.from_gset(b)
    assert (moments._fft(ta, tb) == moments._direct(ta, tb)).all()
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


Served = namedtuple("Served", "path wide f g")


def record_paths(monkeypatch):
    """Route the engine's two paths through a recorder: the list it returns
    gets a Served per product, with the path, whether the product is wide
    (more than one plane, as its entry bound reaches 2^62) and the operand
    tables f and g the path read."""
    served = []
    for name in ("_direct", "_fft"):
        real = getattr(moments, name)

        def call(tf, tg, *rest, _r=real, _n=name):
            out = _r(tf, tg, *rest)
            served.append(Served(_n, len(out) > 1, tf, tg))
            return out
        monkeypatch.setattr(moments, name, call)
    return served


def record_calls(monkeypatch, *names):
    """Route the named engine functions through a recorder: the list it
    returns gets (name, args) per call."""
    calls = []
    for name in names:
        real = getattr(moments, name)
        monkeypatch.setattr(moments, name, lambda *args, _r=real, _n=name: calls.append((_n, args)) or _r(*args))
    return calls


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
    served = record_paths(monkeypatch)
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
    # the 40-bit passes make wide products, which only the FFT's limbs serve
    assert {s.path for s in served if not s.wide} == {path}
    assert {s.path for s in served if s.wide} == {"_fft"}


def test_self_products_transform_once(monkeypatch):
    # Z/4096 is one axis below the four-step: numpy's 1-D routines serve it
    calls = []
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _r=real, _n=name: calls.append(_n) or _r(*args))
    a = GSet(cyclic(4096), random.Random(89).sample(range(4096), 1500))
    for product in (correlate, convolve):
        calls.clear()
        product(a, a)
        assert calls == ["rfft", "irfft"]
    calls.clear()
    correlate(a, GSet(cyclic(4096), range(0, 400, 20)))
    assert calls == ["rfft", "rfft", "irfft"]
    # a set's kept chain transforms A once (level 2 is a self-product) and each
    # new level's top once, and T_k's cross-check reuses A's spectrum; sigma_k
    # up to the top level, and repeated requests, read the kept levels
    a = GSet(cyclic(4096), random.Random(90).sample(range(4096), 1500))
    for moment, k, counts in ((t_k, 2, (1, 1)), (t_k, 3, (1, 1)), (t_k, 4, (1, 1)),
                              (sigma_k, 2, (0, 0)), (sigma_k, 3, (0, 0)), (sigma_k, 4, (0, 0)),
                              (t_k, 3, (0, 0)), (sigma_k, 5, (0, 0)), (t_k, 4, (0, 0))):
        calls.clear()
        moment(a, k)
        assert calls == ["rfft"] * counts[0] + ["irfft"] * counts[1], (moment.__name__, k)


def test_single_limb_product_keeps_mass_check(monkeypatch):
    a = GSet(cyclic(4096), random.Random(97).sample(range(4096), 1500))
    b = GSet(cyclic(4096), random.Random(98).sample(range(4096), 900))
    assert moments._split((1500, 1), (1500, 1), 4096) == (None, None)
    real = np.fft.irfft   # a one-axis shape below the four-step

    def corrupt(*args):
        out = real(*args)
        out.flat[7] += 1
        return out
    monkeypatch.setattr(np.fft, "irfft", corrupt)
    for f, g in ((a, a), (a, b)):
        for product in (correlate, convolve):
            with pytest.raises(groups.InvariantError, match="mass identity"):
                product(f, g)


def test_conv_power_chain_exact():
    a = GSet(cyclic(4), [0, 2])
    assert value(moments._chain(a).top, 0) == 1
    t3 = moments._chain(a).extend(3).top
    assert total(t3) == 8


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
    return table_at(g, arr, None if g.is_cyclic else lo)


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


def test_moment_matches_python_ints_on_every_branch():
    # integer k, the power sums: exact on either side of (sum c) max^k = 2^63,
    # where the sum itself passes 2^63, kept with every order below; non-integer
    # k, `_moment`: Python floats summed in ascending level order, the same sum to the bit
    for k in range(1, 7):
        top = int(2 ** (60 / k)) + 1
        n = ((1 << 63) - 1) // top ** k
        for counts, wide in (([1, 1, n - 2], False), ([n], False), ([1, 1, n - 1], True), ([n + 1], True)):
            levels = [1, 2, top][-len(counts):]
            assert (sum(counts) * top ** k >= 1 << 63) == wide
            hist = moments._Histogram.of(np.array(levels, dtype=np.int64), np.array(counts, dtype=np.int64))
            got = hist.power_sum(k)
            assert type(got) is int and got == sum(c * v ** k for v, c in zip(levels, counts))
            assert hist.sums == [sum(c * v ** j for v, c in zip(levels, counts)) for j in range(k + 1)]
    values = np.random.default_rng(101).integers(0, 300, 5000)
    hist = moments._histogram(values)
    ascending = sorted(Counter(values[values > 0].tolist()).items())
    for k in (1.5, 2.5, 3.5, 7.25):
        want = float(sum(float(c) * float(v) ** k for v, c in ascending))
        assert moments._moment(hist, k) == want
    empty = moments._histogram(np.zeros(4, dtype=np.int64))
    assert empty.power_sum(3) == 0 and moments._moment(empty, 2.5) == 0.0
    # paired arrays, as E_k(A, B) passes (B o B, A o A) on A o A's support:
    # unsorted, with repeated levels, a zero level and a zero count
    for k in range(1, 7):
        top = int(2 ** (60 / k)) + 1
        n = ((1 << 63) - 1) // top ** k
        levels = [top, 0, 2, top, 3, 2]
        for rest, wide in ((n - 8, False), (n - 7, True)):
            counts = [rest - 1, 4, 3, 1, 0, 1]
            assert (sum(counts) * top ** k >= 1 << 63) == wide
            pair = moments._Histogram.of(np.array(levels, dtype=np.int64), np.array(counts, dtype=np.int64))
            got = pair.power_sum(k)
            assert type(got) is int and got == sum(c * v ** k for v, c in zip(levels, counts))
            assert pair.power_sum(0) == sum(counts)
    rng = np.random.default_rng(103)
    w, v = rng.integers(0, 40, 500), rng.integers(0, 9, 500)
    for k in (0.5, 1.5, 2.5):
        want = float(sum(float(c) * float(x) ** k for x, c in zip(w.tolist(), v.tolist())))
        assert moments._moment(moments._Histogram.of(w, v), k) == want


class _NoList(np.ndarray):
    """Levels whose Python-int loop raises: a read that succeeds took the int64 dot."""

    def tolist(self):
        raise AssertionError("took the Python-int loop")


def test_power_sums_bound_each_order_by_the_one_below():
    # a kept E_k is one int64 dot while top E_(k-1) < 2^63, which bounds sum c v^k
    # (v <= top) at least as near as total top^k and, for k > 2, top^(k-2) E_2; past
    # it, the halves of v^k or Python ints.  Levels {1, top}, one count at the top:
    # E_j = n + top^j, and top E_(k-1) is 2^63 - 1 at top = 127 (2^7 - 1 divides
    # 2^63 - 1), 2^63 at top = 128
    for k in range(2, 7):
        for top, bound, dot in ((127, (1 << 63) - 1, True), (128, 1 << 63, False)):
            n = bound // top - top ** (k - 1)
            levels, counts = np.array([1, top], dtype=np.int64), np.array([n, 1], dtype=np.int64)
            hist = moments._Histogram.of(levels, counts)
            assert hist.power_sum(2) == n + top * top
            assert hist.power_sum(k - 1) == n + top ** (k - 1) and top * hist.power_sum(k - 1) == bound
            assert hist.total * hist.top ** k >= 1 << 63   # the one-order bound takes Python ints on both
            want = n + top ** k
            assert hist.power_sum(k) == want and hist.sums == [n + top ** j for j in range(k + 1)]
            # every order below k is within its bound on both sides; past the bound at k,
            # the counts total above 2^31, so Python ints, not the halves
            probe = moments._Histogram.of(levels.view(_NoList), counts)
            if dot:
                assert probe.power_sum(k) == want
            else:
                with pytest.raises(AssertionError, match="Python-int loop"):
                    probe.power_sum(k)
                assert probe.sums == hist.sums[:k]
        # E_2 itself falls back past the dot where top E_1 reaches 2^63
        wide = moments._Histogram.of(np.array([1 << 31], dtype=np.int64), np.array([3], dtype=np.int64))
        assert wide.power_sum(2) == 3 << 62 and wide.power_sum(k) == 3 << 31 * k
    # E_6 of a symmetric set of Z/1024 (0 and half of the pairs {x, -x}): 2^64 by
    # total top^6, 60 bits by top E_5, and an int64 dot
    rng = np.random.default_rng(5)
    half = rng.choice(np.arange(1, 512), 255, replace=False)
    a = GSet(cyclic(1024), np.concatenate([[0], half, 1024 - half])[:, None])
    hist = moments._levels(a)
    assert hist.top * hist.power_sum(5) < 1 << 63 <= hist.total * hist.top ** 6
    want = sum(c * v ** 6 for v, c in zip(hist.levels.tolist(), hist.counts.tolist()))
    assert energy_k(a, 6) == want == oracles.oracle_energy_k((1024,), set(a.elems), 6)
    probe = moments._Histogram.of(hist.levels.view(_NoList), hist.counts)
    assert probe.power_sum(6) == want


def test_power_dot_takes_the_halves_of_powers_below_2_63():
    # past top E_(k-1), a kept E_k is two int64 dots over the 32-bit halves of v^k
    # while top^k < 2^63 and the counts total below 2^31, else Python ints; every
    # read equals the Python-int sum.  The probe is handed the orders below k, so
    # its read of E_k is the one dot that decides
    rng = np.random.default_rng(11)
    for k in range(2, 7):
        top = int(round((1 << 63) ** (1 / k)))
        top -= top ** k >= 1 << 63
        assert top ** k < 1 << 63 <= (top + 1) ** k
        for t, total, halves in ((top, (1 << 31) - 1, True), (top, 1 << 31, False),
                                 (top + 1, (1 << 31) - 1, False)):
            levels = np.unique(np.concatenate([rng.integers(1, t, 40), [t]])).astype(np.int64)
            counts = rng.multinomial(total - len(levels), np.full(len(levels), 1 / len(levels))) + 1
            hist = moments._Histogram.of(levels, counts.astype(np.int64))
            assert hist.total == total and hist.top == t
            want = sum(c * v ** k for v, c in zip(levels.tolist(), counts.tolist()))
            assert want >= 1 << 63 and hist.power_sum(k) == want
            assert hist.top * hist.power_sum(k - 1) >= 1 << 63
            probe = moments._Histogram.of(levels.view(_NoList), hist.counts)
            probe.sums[1:] = hist.sums[1:k]
            if halves:
                assert probe.power_sum(k) == want
            else:
                with pytest.raises(AssertionError, match="Python-int loop"):
                    probe.power_sum(k)
    # the high_moments reads that took the Python-int loop under total top^k: E_5 of a
    # symmetric set of Z/4096 (top E_4 2^64, sum 2^63) takes the halves, and E_6 of one
    # of Z^2 in [-18, 18]^2 (top E_5 60 bits, sum 59) one int64 dot
    half = rng.choice(np.arange(1, 2048), 1023, replace=False)
    cyc = GSet(cyclic(4096), np.concatenate([[0], half, 4096 - half])[:, None])
    pos = [(x, y) for x in range(-18, 19) for y in range(-18, 19) if (x, y) > (0, 0)]
    pick = [pos[i] for i in rng.choice(len(pos), 342, replace=False)]
    z2 = GSet(lattice(2), [(0, 0)] + pick + [(-x, -y) for x, y in pick])
    for a, k, dot in ((cyc, 5, False), (z2, 6, True)):
        hist = moments._levels(a)
        assert (hist.top * hist.power_sum(k - 1) < 1 << 63) == dot and hist.top ** k < 1 << 63
        want = sum(c * v ** k for v, c in zip(hist.levels.tolist(), hist.counts.tolist()))
        assert energy_k(a, k) == want
        probe = moments._Histogram.of(hist.levels.view(_NoList), hist.counts)
        assert probe.power_sum(k) == want


def test_kept_power_sums_equal_python_ints_on_random_histograms():
    # levels up to 2^10, 2^20, 2^40 and 2^62, read in a random order of 0..8: every
    # kept E_j is the Python-int sum, whichever of the three paths served it
    rng = np.random.default_rng(17)
    for bits in (10, 20, 40, 62):
        for _ in range(4):
            size = int(rng.integers(1, 60))
            levels = np.unique(rng.integers(0, 1 << bits, size, dtype=np.int64))
            counts = rng.integers(0, 1 << int(rng.integers(1, 40)), len(levels), dtype=np.int64)
            hist = moments._Histogram.of(levels, counts)
            for k in rng.permutation(9).tolist():
                assert hist.power_sum(k) == sum(c * v ** k for v, c in zip(levels.tolist(), counts.tolist()))
            assert len(hist.sums) == 9


class _CountedList(np.ndarray):
    """Levels that count the walks of the Python-int loop over them."""

    walks = 0

    def tolist(self):
        type(self).walks += 1
        return super().tolist()


def test_power_sums_past_int64_fill_in_one_walk():
    # from the first order whose bound sends it to Python ints, every order up
    # to the one read is filled in one walk over the levels, and every sum is
    # the Python-int sum, across the edges top^k = 2^63 and total = 2^31
    rng = np.random.default_rng(23)
    for k in range(2, 7):
        top = int(round((1 << 63) ** (1 / k)))
        top -= top ** k >= 1 << 63
        for t, total in ((top, (1 << 31) - 1), (top, 1 << 31), (top + 1, (1 << 31) - 1), (top + 1, 1 << 31)):
            levels = np.unique(np.concatenate([rng.integers(1, t, 40), [t]])).astype(np.int64)
            counts = rng.multinomial(total - len(levels), np.full(len(levels), 1 / len(levels))) + 1
            hist = moments._Histogram.of(levels.view(_CountedList), counts.astype(np.int64))
            _CountedList.walks = 0
            assert hist.power_sum(8) == sum(c * v ** 8 for v, c in zip(levels.tolist(), counts.tolist()))
            assert hist.sums == [sum(c * v ** j for v, c in zip(levels.tolist(), counts.tolist()))
                                 for j in range(9)]
            assert _CountedList.walks == 1   # orders 0..8 cannot all fit int64
    # a symmetric set of Z/16384 of the high_moments kind: E_5 and E_6 both pass
    # top^j >= 2^63, and a first read of E_6 walks its levels once
    half = rng.choice(np.arange(1, 8192), 4096, replace=False)
    a = GSet(cyclic(16384), np.concatenate([[0], half, 16384 - half])[:, None])
    kept = moments._levels(a)
    assert kept.top ** 4 < 1 << 63 <= kept.top ** 5 and kept.top * kept.power_sum(4) >= 1 << 63
    hist = moments._Histogram.of(kept.levels.view(_CountedList), kept.counts)
    _CountedList.walks = 0
    want = sum(c * v ** 6 for v, c in zip(kept.levels.tolist(), kept.counts.tolist()))
    assert hist.power_sum(6) == want == energy_k(a, 6) and _CountedList.walks == 1
    assert hist.sums == kept.sums


def test_kept_power_sums_take_one_dot_per_order(monkeypatch):
    # E_2..E_6 of one set read in any order: one _power_dot per order 1..6, none on a
    # repeated read; a histogram built per call fills every order up to the one asked
    calls = []
    real = moments._power_dot
    monkeypatch.setattr(moments, "_power_dot", lambda hist, k, bound: calls.append(k) or real(hist, k, bound))
    rng = random.Random(19)
    for g, pool in ((cyclic(64), range(64)), (lattice(1), range(-30, 30)),
                    (lattice(2), [(x, y) for x in range(-4, 5) for y in range(-4, 5)])):
        mods = g.moduli if g.is_cyclic else None
        for order in ([2, 3, 4, 5, 6], [6, 5, 4, 3, 2], rng.sample(range(2, 7), 5)):
            a = GSet(g, rng.sample(list(pool), 20))
            calls.clear()
            got = [energy_k(a, k) for k in order]
            assert got == [oracles.oracle_energy_k(mods, set(a.elems), k) for k in order]
            assert sorted(calls) == [1, 2, 3, 4, 5, 6]
            calls.clear()
            assert [energy_k(a, k) for k in order] == got and energy_k(a, 2.5) > 0 and calls == []
            for k in order:
                energy_k_pair(a, a, k)
            assert calls == [j for k in order for j in range(1, k)]
    calls.clear()
    moments.mult_energy_k([1, 2, 3, 4, 6], 3)
    moments.mult_energy_k([1, 2, 3, 4, 6], 3)
    assert calls == [1, 2, 3, 1, 2, 3]


def test_family_energies_pick_the_path_by_the_pair_budget(monkeypatch):
    # the id count serves while |A|^2 and the partial rows' sum |B_i|^2 stay within the
    # pair budget (patched down to 20^2), energy_k of each partial row past either; a
    # full row reads E_2(A) off the kept A o A on both sides, and a family of full rows
    # alone builds no ids
    monkeypatch.setattr(setops, "_BLOCK", 400)
    builds, subsets = [], []
    real_ids, real_energy = setops.pair_ids, moments.energy_k
    monkeypatch.setattr(setops, "pair_ids", lambda a, sign: builds.append(len(a)) or real_ids(a, sign))
    monkeypatch.setattr(moments, "energy_k", lambda a, k: subsets.append(len(a)) or real_energy(a, k))
    rng = np.random.default_rng(13)
    for g in (cyclic(64), lattice(2)):
        for n, sizes, counted in ((20, [10, 10, 10, 10], True), (20, [10, 10, 10, 10, 1], False),
                                  (21, [2], False), (20, [], False)):
            elems = rng.choice(64 if g.is_cyclic else 81, n, replace=False)
            a = GSet(g, elems[:, None] if g.is_cyclic else np.column_stack([elems // 9, elems % 9]))
            member = np.array([rng.permutation(n) < s for s in sizes + [n, n]])
            builds.clear()
            subsets.clear()
            mods = g.moduli if g.is_cyclic else None
            want = [oracles.oracle_energy_k(mods, set(a.subset(row).elems), 2) for row in member]
            assert setops.family_energies(a, member) == want
            assert builds == ([n] if counted else [])
            assert subsets == ([] if counted else sizes)


BOUNDARY_VALUES = [0, 1, -1, 5, -7, (1 << 31) - 1, 1 << 31, 3037000499, 3037000500, (1 << 32) - 1,
                   (1 << 62) - 1, 1 << 62, -(1 << 62), (1 << 63) - 1, -(1 << 63), 1 << 63,
                   (1 << 63) + 1, -(1 << 63) - 1, (1 << 64) - 1, 1 << 64, -(1 << 64) - 3,
                   3 ** 60, -(5 ** 40), 1 << 100]


MAGNITUDES = [abs(v) for v in BOUNDARY_VALUES]
NARROW = [v for v in MAGNITUDES if v < 1 << 63]


def test_planes_round_trip_python_ints():
    # int64 where every entry fits (2^62 - 1, 2^62, 2^63 - 1 included), else
    # R-bit planes, each in [0, 2^R); every reader hands out the same Python ints
    for values in (NARROW, MAGNITUDES):
        g = cyclic(len(values))
        t = table_at(g, np.array(values, dtype=object))
        wide = not all(v < 1 << 63 for v in values)
        assert (len(t.planes) > 1) == wide and t.planes.dtype == np.int64
        if wide:
            assert ((t.planes >= 0) & (t.planes < 1 << moments._R)).all()
        assert t.array.tolist() == values and t.values().tolist() == values
        assert all(type(v) is int for v in t.array.tolist())
        points = np.arange(len(values)).reshape(-1, 1)
        assert t.values_at(points).tolist() == values
        assert moments._total(t._gather(points[::-1])) == sum(values)
        assert total(t) == sum(values)
        assert support(t) == {(x,): v for x, v in enumerate(values) if v}
        assert t.argmax() == ((values.index(max(values)),), max(values))
        nnz, (mass, linf) = t.facts()
        assert (nnz, mass) == (sum(1 for v in values if v), sum(values))
        assert max(values) <= linf if wide else linf == max(values)
        assert t.square_sum() == sum(v * v for v in values)
        # a product with the unit at 0 hands the same values back, in either order
        unit = table_of(g, {(0,): 1})
        assert convolve(t, unit).array.tolist() == values
        assert convolve(unit, t).array.tolist() == values
    one = table_at(cyclic(len(NARROW)), np.array(NARROW, dtype=object))
    assert one.array.dtype == np.int64 and np.shares_memory(one.array, one.planes)   # no copy


def test_limbs_and_digits_cut_straight_from_planes():
    # three planes whose values (-3, 5, 2^40, -2^70) are read whole where they
    # fit, and as limbs of any width, signed on top, reaching the sign bits
    # of planes the last digit does not start in
    values = [-3, 5, 1 << 40, -(1 << 70)]
    x = cut_planes(np.array(values, dtype=object))
    assert len(x) == 3 and x.dtype == np.int64
    assert moments._limbs(x[:, :3], None, 1 << 40)[0].tolist() == [-3.0, 5.0, 2.0 ** 40]
    for bits in (1, 7, 13, 31, 32, 33, 50):
        limbs = moments._limbs(x, bits, 1 << 70)
        assert all(limb.dtype == np.float64 for limb in limbs)
        assert [sum(int(limb[i]) << bits * j for j, limb in enumerate(limbs))
                for i in range(4)] == values
        assert all(((0 <= limb) & (limb < 2 ** bits)).all() for limb in limbs[:-1])
    for width, count in ((8, 1), (20, 2), (40, 1)):   # small values, every plane signs the last digit
        d = moments._digits(x[:, :2], width, count)
        assert [sum(int(dj[i]) << width * j for j, dj in enumerate(d)) for i in range(2)] == [-3, 5]


def test_square_sums_at_the_boundaries():
    # one int64 dot below max^2 len < 2^63, digit dots from there on; planes too
    rng = np.random.default_rng(103)
    for top in (3037000499, 3037000500, (1 << 62) - 1, 1 << 62, (1 << 63) - 1):
        for n in (1, 2, 1000):
            values = np.minimum(top - rng.integers(0, 3, n), top).astype(np.int64)
            values[0] = top
            assert moments._square_sum(values[None], top) == sum(int(v) ** 2 for v in values.tolist())
    nonneg = [v for v in BOUNDARY_VALUES if v >= 0]
    for values in (nonneg, nonneg * 50):
        planes = cut_planes(np.array(values, dtype=object))
        assert moments._square_sum(planes, max(values)) == sum(v * v for v in values)


def test_square_sum_of_a_sets_one_byte_table_is_its_size(monkeypatch):
    # a uint8 dot of a 300-element set's table wraps modulo 256, to 44; its
    # square sum is its nonzero count, with no dot taken
    dots = []
    monkeypatch.setattr(moments, "_square_sum", lambda *args: dots.append(args))
    for a in (GSet(cyclic(1024), random.Random(107).sample(range(1024), 300)), zset(range(0, 900, 3))):
        t = ConvTable.from_gset(a)
        assert t.planes.dtype == np.uint8
        if a.group.is_cyclic:
            assert int(np.dot(t.array, t.array)) == 44
        assert t.square_sum() == moments.as_table(a).square_sum() == 300 and dots == []
    monkeypatch.undo()
    a = GSet(cyclic(1024), random.Random(108).sample(range(1024), 300))
    assert correlate(a, a).square_sum() == energy_k(a, 2) == oracles.oracle_energy_k((1024,), set(a.elems), 2)


def test_exact_product_takes_float64_only_below_2_53():
    # 2^53 + 1 rounds to 2^53 in float64, so a product of that value, bounded by
    # it, comes back exact only if the bound sends it to int64; a bound of 2^63 raises
    x = np.array([[1 << 53, 1]], dtype=np.int64)
    y = np.ones((2, 1), dtype=np.int64)
    assert (x.astype(np.float64) @ y.astype(np.float64))[0, 0] == 1 << 53
    for bound in ((1 << 53) + 1, (1 << 63) - 1):
        got = moments._exact_product(x, y, bound)
        assert got.dtype == np.int64 and got.tolist() == [[(1 << 53) + 1]]
    for bound in (1 << 63, 1 << 70):
        with pytest.raises(OverflowError):
            moments._exact_product(x, y, bound)
    # signed and boolean operands, a matrix against its own transpose either way
    # round and against the transpose of its first row, empty shapes among them,
    # on both paths
    rng = np.random.default_rng(109)
    for m, k, n in ((3, 4, 5), (1, 7, 1), (0, 3, 2), (2, 0, 3), (3, 2, 0)):
        signed = rng.integers(-9, 10, size=(m, k)), rng.integers(-9, 10, size=(k, n))
        flags = rng.random((m, k)) < 0.5, rng.random((k, n)) < 0.5
        mine = flags[0], flags[0].T
        cases = (signed, 81 * k), (flags, k), (mine, k), (mine[::-1], m), ((mine[0], mine[0][:1].T), k)
        for (a, b), top in cases:
            want = (a.astype(np.int64).astype(object) @ b.astype(np.int64).astype(object)).tolist()
            for bound in (top, (1 << 53) - 1, 1 << 53, (1 << 63) - 1):
                got = moments._exact_product(a, b, bound)
                assert got.dtype == np.int64 and got.shape == (len(a), b.shape[1]) and got.tolist() == want


def wide_chains():
    """Sets whose chains cross 2^62 within a few levels: in Z/64, whose narrow
    levels take the direct path, the four-step (Z/2^15), and windows of Z
    and Z^2."""
    rng = random.Random(107)
    box = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    return [GSet(cyclic(64), rng.sample(range(64), 40)),
            GSet(cyclic(1 << 15), rng.sample(range(1 << 15), 1 << 13)),
            GSet(lattice(1), rng.sample(range(-200, 200), 300)),
            GSet(lattice(2), rng.sample(box, 60))]


@pytest.mark.parametrize("index", range(4), ids=["Z64-direct", "Z2^15-four-step", "Z", "Z2"])
def test_wide_chains_match_the_oracle(monkeypatch, index):
    # every level up to the first past 2^63, and one more on a wide operand
    a = wide_chains()[index]
    served = record_paths(monkeypatch)
    mods = a.group.moduli if a.group.is_cyclic else None
    zero = (0,) * a.group.dim
    counts, top, wide = {x: 1 for x in a.elems}, 1, 0
    while wide < 2:
        counts = oracles.kronecker_convolve(mods, counts, {x: 1 for x in a.elems})
        top += 1
        wide += max(counts.values()) >= 1 << 63
        assert t_k(a, top) == sum(c * c for c in counts.values()), top
        assert sigma_k(a, top) == counts.get(zero, 0), top
    assert sigma_k(GSet(a.group, a.coords), top + 1) == \
        oracles.kronecker_convolve(mods, counts, {x: 1 for x in a.elems}).get(zero, 0)
    top_level = moments._chain(a).extend(top).top
    assert len(top_level.planes) > 1 and max(counts.values()) >= 1 << 62
    assert support(top_level) == counts
    assert {s.path for s in served if s.wide} == {"_fft"}
    if index == 0:
        assert {s.path for s in served if not s.wide} == {"_direct"}


def test_wide_products_match_python_ints():
    # wide planes on both paths: entries past 2^63 against a small g, and
    # against g itself
    rng = random.Random(109)
    for g, points in ((cyclic(64), 20), (cyclic(1024), 1024), (lattice(1), 300)):
        box = range(g.order) if g.is_cyclic else range(-400, 400)
        f = {(x,): rng.randrange(1 << 90) for x in rng.sample(box, points)}
        h = {(x,): rng.randrange(4) or 1 for x in rng.sample(box, points)}
        for u, w in ((f, h), (f, f)):
            want = {}
            for (x,), v in u.items():
                for (y,), c in w.items():
                    z = ((x + y) % g.order,) if g.is_cyclic else (x + y,)
                    want[z] = want.get(z, 0) + v * c
            got = convolve(table_of(g, u, dtype=object), table_of(g, w, dtype=object))
            assert support(got) == {z: v for z, v in want.items() if v}
            assert total(got) == sum(u.values()) * sum(w.values())


def pair_sums(mods, f, h, corr=False):
    """(f * h)(x), or (f o h)(x) with corr, in Python ints over all pairs of
    support points; zeros dropped."""
    want = {}
    for x, v in f.items():
        for y, c in h.items():
            z = oracles.sub(mods, y, x) if corr else oracles.add(mods, x, y)
            want[z] = want.get(z, 0) + v * c
    return {z: v for z, v in want.items() if v}


def test_wide_products_with_few_pairs_take_the_fft(monkeypatch):
    # a product whose entry bound reaches 2^62 goes to the FFT's limbs however
    # few its support pairs: operands of one plane (entries below 2^63) and
    # of several, convolutions, correlations (the FFT conjugates every limb
    # of f) and the chains behind T_k and sigma_k
    served = record_paths(monkeypatch)
    rng = random.Random(149)
    for g in (cyclic(64), cyclic(4, 8), lattice(1), lattice(2)):
        mods = g.moduli if g.is_cyclic else None
        for fbits, hbits in ((40, 30), (50, 50), (90, 3), (70, 70)):
            f, h = (weighted(rng, g, points, bits, 6) for points, bits in ((5, fbits), (4, hbits)))
            tf, th = table_of(g, f, dtype=object), table_of(g, h, dtype=object)
            assert [len(t.planes) > 1 for t in (tf, th)] == [fbits > 63, hbits > 63]
            served.clear()
            for u, w, tu, tw in ((f, h, tf, th), (h, f, th, tf), (f, f, tf, tf)):
                assert support(convolve(tu, tw)) == pair_sums(mods, u, w), (g, fbits)
                assert support(correlate(tu, tw)) == pair_sums(mods, u, w, corr=True), (g, fbits)
            assert served and all(s.path == "_fft" and s.wide for s in served), (g, fbits)
        # chains of a few points, walked to the first level past 2^63 and one more
        a = GSet(g, list(weighted(rng, g, 5, 0, 3)))
        served.clear()
        counts, top, wide = {x: 1 for x in a.elems}, 1, 0
        while wide < 2:
            counts = oracles.kronecker_convolve(mods, counts, {x: 1 for x in a.elems})
            top += 1
            wide += max(counts.values()) >= 1 << 63
            assert t_k(a, top) == sum(c * c for c in counts.values()), (g, top)
            assert sigma_k(a, top) == counts.get((0,) * g.dim, 0), (g, top)
        assert any(s.wide for s in served)
        assert all(s.path == "_fft" for s in served if s.wide), g


def test_small_entries_on_wide_planes_are_read_whole(monkeypatch):
    # p has entries in {0, 2^32} on two planes, as an a priori bound past 2^62
    # can leave them: plane 0 holds only the low digits (all 0).  A product
    # of p with a unit or a small 0/1 table fits one plane; it must read p
    # through both planes, on the direct path (Z/64) and the FFT's one-limb
    # path (Z/1024), as a convolution and as a correlation
    rng = random.Random(113)
    splits = []
    real_split = moments._split
    monkeypatch.setattr(moments, "_split", lambda *a: splits.append(real_split(*a)) or splits[-1])
    served = record_paths(monkeypatch)
    for n, path in ((2, "_direct"), (64, "_direct"), (1024, "_fft")):
        g = cyclic(n)
        top = np.array([rng.randrange(2) for _ in range(n)], dtype=np.int64)
        top[0] = 1
        def brute(f, w, corr=False):   # Python ints
            want = {}
            for (x,), c in f.items():
                for (y,), d in w.items():
                    z = ((y - x) % n,) if corr else ((x + y) % n,)
                    want[z] = want.get(z, 0) + c * d
            return {z: c for z, c in want.items() if c}

        p = ConvTable.of_planes(g, np.stack([np.zeros(n, dtype=np.int64), top]))
        want_p = {(x,): 1 << 32 for x in np.flatnonzero(top).tolist()}
        assert len(p.planes) == 2 and not p.planes[0].any() and support(p) == want_p
        unit = {(0,): 1}
        h = {(x,): 1 for x in rng.sample(range(n), max(1, n // 2))}
        for w in (unit, h):
            for corr in (False, True):
                served.clear()
                got = convolve(p, table_of(g, w), corr=corr)
                assert len(got.planes) == 1
                assert support(got) == brute(want_p, w, corr), (n, corr, len(w))
                if w is h:
                    assert [s.path for s in served] == [path]
                    assert path == "_direct" or splits[-1] == (None, None)


def test_largest_int64_entry_times_two():
    # the largest int64 entry, 2^63 - 1: its mass 2^63 + 4 passes int64, and
    # its products with 2 and 3 take two planes
    g, top = cyclic(4), (1 << 63) - 1
    t = table_at(g, np.array([top, 0, 5, 0], dtype=np.int64))
    assert len(t.planes) == 1
    assert t.facts()[1] == (5 + top, top)
    got = convolve(t, table_of(g, {(0,): 2}))
    assert got.array.tolist() == [2 * top, 0, 10, 0]
    got = convolve(t, table_of(g, {(1,): 2, (2,): 3}))
    assert got.array.tolist() == [15, 2 * top, 3 * top, 10]
    assert total(got) == (5 + top) * 5


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


def scan_split(fn, gn, size, four_step=False):
    """The limb widths by a scan over b = 1..63 against the float cap: the
    reference for `_split`'s bit arithmetic."""
    if fn[1] < gn[1]:
        return scan_split(gn, fn, size, four_step)[::-1]
    cap = 1 / (16 * moments._percival(size, four_step) ** 2)
    whole_g = gn[0] * gn[1]
    if fn[0] * fn[1] * whole_g < cap:
        return None, None
    bits = max((b for b in range(1, 64) if 4 ** b * whole_g * size < cap), default=0)
    if bits:
        return bits, None
    bits = max(b for b in range(1, 64) if 4 ** b * size < math.sqrt(cap))
    return bits, bits


def test_split_by_bit_arithmetic_matches_the_scan():
    # sizes 2^4..2^22, four-step on and off, operand maxima of 1 to 62 bits
    # with masses up to size max; and products that sit one below and at
    # each integer threshold
    rng = random.Random(139)
    for m in range(4, 23):
        size = 1 << m
        for four_step in (False, True):
            facts = []
            for b in range(1, 63):
                linf = rng.randrange(1 << b - 1, 1 << b)
                facts.append((linf * rng.randrange(1, size + 1), linf))
            cases = [(f, g) for f in facts for g in rng.sample(facts, 3)]
            whole, limb = moments._limb_caps(size, four_step)
            for w in (whole - 1, whole):   # fn[0] fn[1] |g|_1 |g|_inf against the cap
                cases.append(((w, 1), (1, 1)))
            for b in (1, 7, 20, 35):       # 4^b size |g|_1 |g|_inf against the cap
                g1 = (whole - 1) // (4 ** b * size)
                for g in (g1, g1 + 1):
                    if g:
                        cases.append(((1 << 62, 1 << 62), (g, 1)))
            for f, g in cases:
                assert moments._split(f, g, size, four_step) == scan_split(f, g, size, four_step), (m, f, g)


@pytest.mark.parametrize("g, points, span, bits, size, self_only", [
    (cyclic(1 << 15), 1 << 14, None, 0, 1 << 15, False),    # dense 0/1 at the group size
    (cyclic(1 << 15), 3000, None, 40, 1 << 15, False),      # entries to 2^40: a limb split
    (lattice(1), 3000, 12000, 0, 1 << 16, False),           # a window padded past 2^15
    (cyclic(20000), 5000, None, 0, 1 << 16, False),         # Z/N padded past 2^15, folded
    (cyclic(1 << 17), 1 << 16, None, 0, 1 << 17, True),     # dense 0/1, self-correlation
], ids=["Z2^15-dense", "Z2^15-limbs", "Z-window", "Z20000", "Z2^17-dense"])
def test_four_step_products_match_oracle(monkeypatch, g, points, span, bits, size, self_only):
    seen = record_calls(monkeypatch, "_twiddles")
    served = record_paths(monkeypatch)
    rng = random.Random(size + bits)
    mods = g.moduli if g.is_cyclic else None
    f = weighted(rng, g, points, bits, span)
    tf = table_of(g, f)
    if self_only:
        assert support(correlate(tf, tf)) == oracle_correlate(mods, f, f)
    else:
        h = weighted(rng, g, points, bits, span)
        th = table_of(g, h)
        limbs = moments._split(tf.facts()[1], th.facts()[1], size, True)
        assert (limbs != (None, None)) == bool(bits)
        assert support(convolve(tf, th)) == oracles.kronecker_convolve(mods, f, h)
        assert support(correlate(tf, th)) == oracle_correlate(mods, f, h)
    assert {s.path for s in served} == {"_fft"} and {length for _, (length,) in seen} == {size}


@pytest.mark.slow
def test_four_step_at_2_20_matches_oracle(monkeypatch):
    seen = record_calls(monkeypatch, "_twiddles")
    g = cyclic(1 << 20)
    a = GSet(g, random.Random(20).sample(range(1 << 20), 1 << 19))
    assert support(convolve(a, a)) == oracles.kronecker_convolve(g.moduli, {x: 1 for x in a.elems},
                                                                 {x: 1 for x in a.elems})
    assert {length for _, (length,) in seen} == {1 << 20}


def levels_oracle(r):
    """(levels ascending, counts) of the positive values of a {x: count} dict."""
    found = sorted(Counter(v for v in r.values() if v).items())
    return [v for v, _ in found], [c for _, c in found]


@pytest.mark.parametrize("g, elems, layout", [
    (cyclic(1 << 15), random.Random(1).sample(range(1 << 15), 2000), (128, 256)),
    (cyclic(1 << 16), random.Random(2).sample(range(1 << 16), 3000), (256, 256)),
    (cyclic(20000), random.Random(3).sample(range(20000), 2000), (256, 256)),   # padded, rolled, folded
    (lattice(1), random.Random(4).sample(range(-4500, 4500), 600), (128, 256)),  # window of 17,9xx cells
], ids=["Z2^15", "Z2^16", "Z20000", "Z-window"])
def test_even_inverse_matches_the_oracle(monkeypatch, g, elems, layout):
    # A o A of a set at a four-step shape inverts its real power spectrum on
    # the columns j2 <= n2/2 and mirrors the rest
    seen = record_calls(monkeypatch, "_mirror")
    a = GSet(g, elems)
    ones = {x: 1 for x in a.elems}
    r = oracle_correlate(g.moduli if g.is_cyclic else None, ones, ones)
    assert support(correlate(a, a)) == r
    assert [x.shape for _, (x,) in seen] == [layout]
    for k in range(2, 7):
        assert energy_k(a, k) == sum(v ** k for v in r.values())
    hist = moments._levels(a)
    assert (hist.levels.tolist(), hist.counts.tolist()) == levels_oracle(r)
    assert level_sequence(a) == sorted(r.values(), reverse=True)


def interval_energy(n, k):
    """E_k of an interval of n integers: sum over |d| < n of (n - |d|)^k."""
    return sum((n - abs(d)) ** k for d in range(1 - n, n))


@pytest.mark.parametrize("m, n, step", [(15, 600, 64), (16, 600, 64)])
def test_even_inverse_meets_closed_forms(monkeypatch, m, n, step):
    # an interval of n in Z/2^m has E_k = sum_(|d|<n) (n - |d|)^k, a subgroup
    # H has E_k = |H|^(k+1)
    seen = record_calls(monkeypatch, "_mirror")
    interval, subgroup = GSet(cyclic(1 << m), range(n)), GSet(cyclic(1 << m), range(0, 1 << m, step))
    for k in range(2, 7):
        assert energy_k(interval, k) == interval_energy(n, k)
        assert energy_k(subgroup, k) == len(subgroup) ** (k + 1)
    assert len(seen) == 2


@pytest.mark.slow
def test_even_inverse_meets_closed_forms_at_2_20(monkeypatch):
    seen = record_calls(monkeypatch, "_mirror")
    g = cyclic(1 << 20)
    interval, subgroup = GSet(g, range(5000)), GSet(g, range(0, 1 << 20, 256))
    for k in range(2, 7):
        assert energy_k(interval, k) == interval_energy(5000, k)
        assert energy_k(subgroup, k) == 4096 ** (k + 1)
    assert [x.shape for _, (x,) in seen] == [(1024, 1024)] * 2


@pytest.mark.parametrize("g, elems", [
    (cyclic(999), random.Random(5).sample(range(999), 60)),           # x and N - x pair; 0 alone
    (cyclic(1000), [0, 500] + random.Random(6).sample(range(1, 500), 40)),   # N/2 alone, nonzero
    (cyclic(1 << 15), [0, 1 << 14] + random.Random(7).sample(range(1, 1 << 14), 1500)),
    (lattice(1), random.Random(8).sample(range(-300, 300), 50)),      # an odd window: a centre cell
    (lattice(2), [(0, 0), (1, 2), (3, 1), (-2, 5)]),                  # counted whole
    (cyclic(4, 6), [(0, 0), (1, 3), (2, 5), (3, 3)]),
])
def test_half_histogram_counts_every_entry(g, elems):
    a = GSet(g, elems)
    ones = {x: 1 for x in a.elems}
    r = oracle_correlate(g.moduli if g.is_cyclic else None, ones, ones)
    hist = moments._levels(a)
    assert (hist.levels.tolist(), hist.counts.tolist()) == levels_oracle(r)
    assert hist.total == len(r) == len(setops.diffset(a, a))


def test_a_mis_mirrored_even_inverse_breaks_the_mass_identity(monkeypatch):
    def shifted(x):   # every mirrored column read one column off
        half = x.shape[1] // 2
        x[:, half + 1:] = x[::-1, half:1:-1]
    monkeypatch.setattr(moments, "_mirror", shifted)
    for n in (1 << 15, 1 << 16):
        a = GSet(cyclic(n), random.Random(n).sample(range(n), n // 8))
        with pytest.raises(groups.InvariantError, match="mass identity"):
            correlate(a, a)


def test_four_step_serves_only_long_one_dimensional_shapes(monkeypatch):
    shapes = ((1 << 14,), (1 << 15,), (1 << 20,), (3 << 14,), (128, 256), (1 << 15, 2))
    assert [moments._four_step(s) for s in shapes] == [False, True, True, False, False, False]
    seen = record_calls(monkeypatch, "_twiddles")
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
        assert {length for _, (length,) in seen} == {size}
        seen.clear()


def test_four_step_twiddles_within_stated_accuracy():
    if np.finfo(np.longdouble).nmant <= 52:
        pytest.skip("needs an extended-precision long double for the reference")
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for m in (15, 16, 20, 21):
        n = 1 << m
        n1, hi, lo = moments._twiddles(n)
        n2, half, t = n // n1, n1 // 2, len(lo)
        assert n1 == 1 << m // 2 and hi.shape == (half // t + 1, n2) and lo.shape == (t, n2)
        assert len(hi) + len(lo) <= 3 * math.isqrt(n1)   # rows of n2 points, no n/2-entry table
        j2 = np.arange(n2)[None, :]
        for table, e in ((hi, np.arange(0, half + 1, t)[:, None] * j2), (lo, np.arange(t)[:, None] * j2)):
            assert e.max() < n // 2
            angle = -2 * pi * e.astype(np.longdouble) / n
            err = np.hypot((table.real - np.cos(angle)).astype(np.float64),
                           (table.imag - np.sin(angle)).astype(np.float64))
            assert err.max() <= moments._TWIDDLE_ERR
        # every row k1 <= n1/2 is multiplied by w^(k1 j2): by two entries, or one for k1 = n1/2
        c = np.ones((half + 1, n2), dtype=np.complex128)
        moments._twiddle(c, hi, lo)
        angle = -2 * pi * (np.arange(half + 1)[:, None] * j2).astype(np.longdouble) / n
        err = np.hypot((c.real - np.cos(angle)).astype(np.float64), (c.imag - np.sin(angle)).astype(np.float64))
        assert err.max() <= 2 * moments._TWIDDLE_ERR + 2 ** -52


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


@pytest.mark.parametrize("n", [64, 1 << 16])
@pytest.mark.parametrize("k", [2, 3, 6])
def test_t_k_moved_past_the_tolerance_trips_the_cross_check(n, k):
    # |A^|^(2k) is taken as |A^|^2 times itself: a T_k off by 10^-4 of itself
    # still fails, and the true T_k still passes
    a = GSet(cyclic(n), random.Random(n + k).sample(range(n), max(16, n // 64)))
    chain = moments._chain(a).extend(k)
    good = chain.t[k - 1]
    chain.t[k - 1] = good + max(1, good // 10 ** 4)
    with pytest.raises(groups.InvariantError, match="cross-check"):
        t_k(a, k)
    chain.t[k - 1] = good
    assert t_k(a, k) == good


def test_t_k_past_the_float_range():
    # T_110 of the 32 even residues of Z/64 is 32^219 > 1e329: the cross-check
    # compares scaled sums, so neither side overflows a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert t_k(GSet(cyclic(64), range(0, 64, 2)), 110) == 32 ** 219
        a = GSet(cyclic(64), random.Random(5).sample(range(64), 20))
        level = [int(x in a) for x in range(64)]
        for _ in range(119):   # the 120-fold convolution power, in Python ints
            level = [sum(level[(x - y) % 64] for y in a.coords[:, 0].tolist()) for x in range(64)]
        assert t_k(a, 120) == sum(v * v for v in level)
    sigma_k(a, 131)   # builds levels 1..130
    spec = a._kept["chain"].spectrum()
    zero = spec.flat[0]
    spec *= 1.01
    spec.flat[0] = zero
    for k in (121, 130):
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
    # sparse operands, one with entries to 2^45: its top limb is the rest
    f = {(x,): rng.randrange(1 << 45) for x in rng.sample(range(4096), 60)}
    h = {(x,): rng.randrange(4) for x in rng.sample(range(4096), 60)}
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
        assert support(power(a, 4)) == counts
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
    assert total(wide) == 4 * s
    assert support(wide) == {(0,): 3 * s, (2,): s}
    narrow = moments.correlate

    def scaled(f, g):
        t = narrow(f, g)
        return table_at(t.group, t.array.astype(object) * s, t.offset)

    monkeypatch.setattr(moments, "correlate", scaled)
    a = zset([0, 1, 3])
    assert energy_k_pair(a, a, 3) == 33 * s ** 3


def test_histogram_refuses_wide_and_negative_tables():
    # A o A of a set has entries in [0, |A|], so its histogram is one short
    # bincount; a table outside that range fails loudly, not silently wrong
    levels, counts = moments._histogram(np.array([0, 2, 5, 2, 0, 1]))
    assert levels.tolist() == [1, 2, 5] and counts.tolist() == [1, 2, 1]
    wide = table_of(lattice(1), {(0,): 3 << 70, (2,): 1 << 70}, dtype=object)
    with pytest.raises(TypeError):
        moments._histogram(wide.values())
    with pytest.raises(ValueError, match="negative"):
        moments._histogram(np.array([0, 2, -1, 2]))


def test_kept_histogram_carries_its_total_and_top():
    # the count total is |A - A| and the top level max (A o A) = |A|, taken
    # once when the histogram is built; the summary cannot be rebound
    rng = random.Random(137)
    for a in (zset([0, 1, 3]), GSet(cyclic(2048), rng.sample(range(2048), 300)),
              GSet(lattice(2), [(0, 0), (1, 2), (3, 1), (-2, 5)])):
        h = moments._levels(a)
        assert (h.total, h.top) == (int(h.counts.sum()), int(h.levels.max())) == (
            len(setops.diffset(a, a)), len(a))
        assert moments._levels(a) is h
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.total = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.levels = h.levels.copy()
        assert not h.levels.flags.writeable and not h.counts.flags.writeable
    empty = moments._histogram(np.zeros(3, dtype=np.int64))
    assert (empty.total, empty.top) == (0, 0)


def fresh_facts(t):
    """A table's nonzero count, sum and maximum, derived from its values now
    in Python ints; for D >= 2 planes the maximum is the bound read off the
    top plane, which holds every value."""
    values = np.asarray(t.array, dtype=object).ravel().tolist()
    top = int(t.planes[-1].max())
    linf = top if len(t.planes) == 1 else (top + 1 << moments._R * (len(t.planes) - 1)) - 1
    assert max(values) <= linf
    return sum(1 for v in values if v), (sum(values), linf)


# A row of the engine-path table: the product convolve(f, g, corr=corr), g
# None for f itself, or for power > 1 the power f^(*power) by a convolve
# loop, whose every engine call `_conv` must send to `path`.  A word of the
# name from BRANCHES says which branch of that path the row must take.
EnginePath = namedtuple("EnginePath", "name path f g corr power", defaults=(None, False, 1))


def engine_paths():
    """The engine-path table: one row per branch of the engine's two paths,
    on fresh operands, since a set keeps what is built from it."""
    rng = random.Random(127)
    z64, z1000, z1024, z4096, z15 = cyclic(64), cyclic(1000), cyclic(1024), cyclic(4096), cyclic(1 << 15)
    ones = lambda g, points, span=None: GSet(g, list(weighted(rng, g, points, 0, span)))
    heavy = lambda g, points, bits: table_of(g, weighted(rng, g, points, bits))
    wide = {p: rng.randrange(1 << 64, 1 << 66) for p in weighted(rng, z1024, 300, 0)}
    return [EnginePath(*row) for row in [
        ("direct 0/1", "_direct", ones(z64, 10), ones(z64, 12)),
        ("direct weighted", "_direct", heavy(z64, 10, 20), ones(z64, 12), True),
        ("direct sparse", "_direct", table_of(z64, {(0,): 3, (5,): 7}), ones(z64, 12)),
        ("wide few pairs", "_fft", table_of(z64, {(0,): 1 << 70, (5,): 3}, dtype=object), ones(z64, 12)),
        ("FFT one limb", "_fft", ones(z1024, 300), ones(z1024, 300)),
        ("FFT weighted", "_fft", heavy(z1024, 300, 20), ones(z1024, 300)),
        ("FFT correlation", "_fft", ones(z1024, 300), heavy(z1024, 300, 20), True),
        ("FFT self-product", "_fft", ones(z1024, 300), None, True),
        ("FFT limbs", "_fft", heavy(z4096, 3000, 40), ones(z4096, 3000)),
        ("FFT limbs on both operands", "_fft", heavy(z4096, 3000, 40), heavy(z4096, 3000, 38)),
        ("padded and folded Z/N", "_fft", ones(z1000, 400), ones(z1000, 300), True),
        ("four-step", "_fft", ones(z15, 1000), ones(z15, 900)),
        ("four-step correlation", "_fft", ones(z15, 1000), ones(z15, 900), True),
        ("four-step self-product", "_fft", ones(z15, 1000)),
        ("even inverse", "_fft", ones(z15, 1000), None, True),
        ("lattice window", "_fft", ones(lattice(2), 240, 20), None, False, 3),
        ("1-D lattice window", "_fft", ones(lattice(1), 300, 700), ones(lattice(1), 400, 700)),
        ("lattice direct power", "_direct", ones(lattice(1), 40, 30), None, False, 3),
        ("lattice direct", "_direct", ones(lattice(1), 40, 30), ones(lattice(1), 30, 30), True),
        ("wide planes", "_fft", table_of(z1024, wide, dtype=object), ones(z1024, 300)),
        ("wide product", "_fft", heavy(z1024, 300, 55), ones(z1024, 300)),
        ("empty set", "_direct", GSet(z64, []), ones(z64, 5)),
        ("empty lattice set", "_direct", ones(lattice(2), 9, 5), GSet(lattice(2), []), True),
    ]]


def run_path(row):
    """The row's product."""
    g = row.f if row.g is None else row.g
    return power(row.f, row.power) if row.power > 1 else convolve(row.f, g, corr=row.corr)


BRANCHES = {   # a word of a row's name: whether the row's calls and products took that branch
    "limbs": lambda calls, served: any(n == "_limbs" and args[1] is not None for n, args in calls),
    "four-step": lambda calls, served: any(n == "_twiddles" for n, _ in calls),
    "even inverse": lambda calls, served: any(n == "_mirror" for n, _ in calls),
    "folded": lambda calls, served: any(n == "_fold" for n, _ in calls),
    "lattice window": lambda calls, served: any(s.path == "_fft" and not s.f.group.is_cyclic for s in served),
    "wide planes": lambda calls, served: any(len(t.planes) > 1 for s in served for t in (s.f, s.g)),
    "empty": lambda calls, served: any(not t.planes.any() for s in served for t in (s.f, s.g)),
}


def branch_misses(monkeypatch, rows):
    """What a table of engine paths gets wrong: a row some of whose products
    take another path than its own, or that misses a branch its name names,
    and a branch of BRANCHES that no row names."""
    served = record_paths(monkeypatch)
    calls = record_calls(monkeypatch, "_limbs", "_twiddles", "_mirror", "_fold")
    misses = []
    for row in rows:
        served.clear()
        calls.clear()
        run_path(row)
        if {s.path for s in served} != {row.path}:
            misses.append(f"{row.name}: served by {sorted({s.path for s in served})}, not {row.path}")
        misses += [f"{row.name}: no {word}" for word, took in BRANCHES.items()
                   if word in row.name and not took(calls, served)]
    return misses + [f"no row for {word}" for word in BRANCHES if not any(word in row.name for row in rows)]


def test_every_engine_path_row_takes_the_path_and_branch_it_names(monkeypatch):
    # the table is right: each row's products take its path and the branch
    # its name names, and each branch has a row.  Planted rows with the
    # wrong path or a branch they do not take fail, and so does a table
    # with no row for a branch
    assert branch_misses(monkeypatch, engine_paths()) == []
    by_name = {row.name: row for row in engine_paths()}
    planted = [by_name["four-step"]._replace(path="_direct"),
               by_name["FFT one limb"]._replace(name="FFT limbs, planted"),
               by_name["direct 0/1"]._replace(name="direct 0/1, even inverse")]
    assert branch_misses(monkeypatch, planted) == [
        "four-step: served by ['_fft'], not _direct", "FFT limbs, planted: no limbs",
        "direct 0/1, even inverse: no even inverse",
        "no row for folded", "no row for lattice window", "no row for wide planes", "no row for empty"]


def test_carried_facts_equal_the_planes_on_every_path(monkeypatch):
    # every operand an engine path reads carries facts equal to a fresh
    # derivation from its planes, and so does every product
    served = record_paths(monkeypatch)
    for row in engine_paths():
        served.clear()
        out = run_path(row)
        assert served and {s.path for s in served} == {row.path}, row.name
        if row.name == "wide planes":
            assert len(served[0].f.planes) == 3
        for t in [t for s in served for t in (s.f, s.g)]:
            assert t._facts is not None and t.facts() == fresh_facts(t), row.name
        assert out.facts() == fresh_facts(out), row.name
    # a set's table is born with (|A|, (|A|, 1)), the empty set's with zeros
    rng = random.Random(127)
    for g in (cyclic(64), cyclic(4, 8), lattice(1), lattice(2)):
        for a in (GSet(g, list(weighted(rng, g, 9, 0, 5))), GSet(g, [])):
            t = ConvTable.from_gset(a)
            assert t._facts == fresh_facts(t) == (len(a), (len(a), min(len(a), 1)))


def int64_copy(a):
    """An int64 copy of a set's table, with facts derived from the copy."""
    t = ConvTable.from_gset(a)
    return table_at(a.group, t.array.astype(np.int64), t.offset)


def test_narrow_set_plane_reads_as_its_int64_copy_on_every_path(monkeypatch):
    # a set's table is one read-only uint8 plane; on every engine path a set
    # operand and an int64 copy of its table give the same int64 planes,
    # offset and facts, and so do the plane's other readers
    served = record_paths(monkeypatch)
    for row in engine_paths():
        tf, tg = (int64_copy(x) if isinstance(x, GSet) else x for x in (row.f, row.g))
        if row.name == "FFT limbs":
            assert moments._split(tf.facts()[1], tg.facts()[1], 4096) != (None, None)
        served.clear()
        got = run_path(row)
        assert {s.path for s in served} == {row.path}, row.name
        want = run_path(row._replace(f=tf, g=tg))
        assert got.planes.dtype == want.planes.dtype == np.int64, row.name
        assert np.array_equal(got.planes, want.planes) and got.offset == want.offset, row.name
        assert got.facts() == want.facts(), row.name
    rng = random.Random(139)
    ones = lambda g, points, span=None: GSet(g, list(weighted(rng, g, points, 0, span)))
    # the plane's own readers: whole and limb digits, the values, the zero cell,
    # the gather behind sigma_2 (read from level 1)
    for a in (ones(cyclic(1000), 400), ones(cyclic(4, 8), 9), ones(lattice(1), 40, 30), ones(lattice(2), 60, 6)):
        t, c = ConvTable.from_gset(a), int64_copy(a)
        assert t.planes.dtype == np.uint8 and not t.planes.flags.writeable and t.facts() == c.facts()
        assert np.array_equal(t.array, c.array) and t.offset == c.offset
        for bits in (None, 1, 7, 30):
            assert all(np.array_equal(x, y) for x, y in zip(moments._limbs(t.planes, bits, 1),
                                                            moments._limbs(c.planes, bits, 1), strict=True))
        assert [d.tolist() for d in moments._digits(t.planes, 2, 1)] == [c.planes[0].tolist()]
        assert moments._at_zero(t) == moments._at_zero(c) == int(a.isin(np.zeros((1, a.group.dim),
                                                                                     dtype=np.int64))[0])
        points = -a.coords
        assert np.array_equal(t._gather(points), c._gather(points))
        mods = a.group.moduli if a.group.is_cyclic else None
        assert sigma_k(a, 2) == moments._total(c._gather(points)) == oracles.oracle_sigma_k(
            mods, set(a.elems), 2)


def test_chain_steps_derive_each_table_fact_once(monkeypatch):
    # a step to level j derives the facts of level j's table alone, in two
    # passes, a nonzero count and a maximum: its mass is the one the step
    # checked, the base's facts are known from the set and the level below's
    # were derived with its T_(j-1).  A wide level (Z/2^15 at j = 6: entries
    # up to (2^14)^5) takes its maximum off the top plane and counts its
    # nonzeros on its planes' support; the limb plan is built once per
    # transform size
    passes, plans = [], record_calls(monkeypatch, "_percival")
    for name in ("count_nonzero", "max"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, *rest, _r=real, _n=name, **kw:
                            passes.append((_n, x)) or _r(x, *rest, **kw))
    moments._limb_caps.cache_clear()
    rng = random.Random(131)
    for n in (1024, 1024, 4096, 1 << 15):
        a = GSet(cyclic(n), rng.sample(range(n), n // 2))
        chain = moments._chain(a)
        for k in range(2, 7):
            passes.clear()
            assert t_k(a, k) == chain.t[k - 1]
            one_plane = len(chain.top.planes) == 1
            assert one_plane == (k < 6 or n < 1 << 15)
            assert sorted(name for name, _ in passes) == ["count_nonzero", "max"], (n, k)
            # (a wide level's nonzeros are counted on its planes' support, a fresh array)
            assert all(np.shares_memory(x, chain.top.planes) for name, x in passes
                       if one_plane or name == "max"), (n, k)
    assert [args for _, args in plans] == [(1024, False), (4096, False), (1 << 15, True)]


@pytest.mark.parametrize("g, fpoints, gpoints, span, shape", [
    (cyclic(1024), 300, 500, None, (1024,)),        # at the group size
    (cyclic(1000), 300, 400, None, (2048,)),        # the linear product padded, then folded
    (lattice(1), 300, 400, 700, (4096,)),           # a window of about 1,400 cells, padded
    (cyclic(32, 64), 300, 400, None, (32, 64)),     # two axes: rfftn and irfftn as before
], ids=["Z1024", "Z1000", "Z-window", "Z32xZ64"])
def test_one_axis_transforms_equal_rfftn_bit_for_bit(monkeypatch, g, fpoints, gpoints, span, shape):
    calls = []
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _r=real, _n=name, **kw:
                            calls.append(_n) or _r(*args, **kw))
    rng = random.Random(149)
    tf, tg = (table_of(g, weighted(rng, g, n, bits, span)) for n, bits in ((fpoints, 0), (gpoints, 20)))
    assert moments._shape(tf.planes.shape[1:], tg.planes.shape[1:], moments._moduli(tf)) == shape
    axes = tuple(range(len(shape)))
    one, many = ("rfft", "irfft") if len(shape) == 1 else ("rfftn", "irfftn")
    x, y = (moments._limbs(t.planes, None, t.facts()[1][1])[0] for t in (tf, tg))
    spectra = []
    for v in (x, y):
        calls.clear()
        got = moments._rfft(v, shape)
        assert calls == [one]
        want = np.fft.rfftn(v, shape, axes)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        spectra.append(got)
    for c in (spectra[0] * spectra[1], np.conjugate(spectra[0]) * spectra[1], spectra[1]):
        calls.clear()
        got = moments._irfft(c, shape)
        assert calls == [many]
        want = np.fft.irfftn(c, shape, axes)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_products_take_their_facts_from_the_checked_mass(monkeypatch):
    # every product, on every engine path, is born with the mass its path
    # checked and reads only its nonzero count and maximum, no sum of its
    # planes; its facts equal a fresh count, sum and maximum of its values.
    # The rows with a product of more than one plane:
    planes = {"wide few pairs": 3, "FFT limbs on both operands": 3, "wide planes": 3, "wide product": 2}
    sums, served = record_calls(monkeypatch, "_total"), record_paths(monkeypatch)
    mirrors = record_calls(monkeypatch, "_mirror")
    for row in engine_paths():
        served.clear()
        mirrors.clear()
        out = run_path(row)
        assert served[-1].path == row.path and len(out.planes) == planes.get(row.name, 1), row.name
        assert bool(mirrors) == (row.name == "even inverse"), row.name
        if row.name == "FFT limbs":
            assert moments._split(row.f.facts()[1], (3000, 1), 4096) != (None, None)
        assert out._mass is not None, row.name
        sums.clear()
        facts = out.facts()
        assert sums == [], row.name
        assert facts == fresh_facts(out), row.name


def test_a_z1024_chain_to_t6_builds_every_table_with_its_mass(monkeypatch):
    # the benchmark's small-table regime: every table of a Z/1024 chain of
    # density 1/2 is born with its mass or, the set's, its facts, so no
    # table sums its planes for them (sigma_7 gathers the top level at -A)
    built = []
    real = ConvTable.of_planes.__func__
    monkeypatch.setattr(ConvTable, "of_planes", classmethod(
        lambda cls, *args, **kw: built.append(len(args) > 3 or kw.keys() & {"mass", "facts"})
        or real(cls, *args, **kw)))
    g = cyclic(1024)
    a = GSet(g, random.Random(157).sample(range(1024), 512))
    ts, sigmas = [t_k(a, k) for k in range(2, 7)], [sigma_k(a, k) for k in range(2, 8)]
    assert len(built) == 6 and all(built)   # the set's table and levels 2..6
    counts = ones = {x: 1 for x in a.elems}
    for k in range(2, 8):
        counts = oracles.kronecker_convolve(g.moduli, counts, ones)
        assert sigmas[k - 2] == counts.get((0,), 0)
        assert k == 7 or ts[k - 2] == sum(c * c for c in counts.values())


def test_a_negative_entry_is_refused_by_name_at_first_use():
    # a table is a count: one built with a negative entry, on one plane or
    # several, on a cyclic group or a lattice window, is built as it is and
    # raises ValueError naming its most negative entry and that entry's
    # point at its first engine use
    z8 = cyclic(8)
    a = GSet(z8, [0, 3])
    cases = [
        (table_at(z8, np.array([0, 4, 0, -7, 0, -2, 0, 0])), "-7 at (3,)", lambda t: convolve(t, a)),
        (table_of(z8, {(1,): 1 << 70, (6,): -(1 << 64)}, dtype=object), f"{-(1 << 64)} at (6,)",
         lambda t: correlate(a, t)),
        (table_of(lattice(2), {(-2, 5): 2, (1, 3): -1}), "-1 at (1, 3)", lambda t: t.square_sum()),
        (table_of(lattice(1), {(-4,): 3, (9,): -(1 << 63)}), f"{-(1 << 63)} at (9,)", lambda t: convolve(t, t)),
    ]
    for t, named, use in cases:
        with pytest.raises(ValueError, match=re.escape(f"table entry {named} is negative")):
            use(t)


def test_total_past_2_63_sums_its_digits_a_block_at_a_time(monkeypatch):
    # a one-plane table of 2^18 entries near 2^50, whose bound size max x
    # passes 2^63: its two R-bit digits are cut _BLOCK entries at a time, so
    # the sum holds no digit array of the table's size; it equals the Python
    # int sum.  Below 2^63 it stays one int64 sum
    x = np.random.default_rng(163).integers(1 << 49, 1 << 50, size=(1, 1 << 18))
    want = sum(x[0].tolist())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = moments._total(x)
        peak = (tracemalloc.get_traced_memory()[1] - before) / x.nbytes
    finally:
        tracemalloc.stop()
    assert got == want and x.size * int(x.max()) >= 1 << 63
    assert peak <= 0.5
    cuts = record_calls(monkeypatch, "_digits")
    assert moments._total(x, want) == want
    assert [args[0].shape for _, args in cuts] == [(1, moments._BLOCK)] * (x.size // moments._BLOCK)
    cuts.clear()
    small = x >> 20
    assert moments._total(small) == sum(small[0].tolist()) and cuts == []


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


def tight_and_own(t):
    """Whether a table's window has a nonzero entry on every face and its
    planes own their memory: no view into a larger (padded) buffer."""
    nonzero = moments._support(t.planes)
    faces = all(np.take(nonzero, end, axis=axis).any() for axis in range(nonzero.ndim) for end in (0, -1))
    root = t.planes
    while isinstance(root.base, np.ndarray):
        root = root.base
    return faces and root.nbytes == t.planes.nbytes


def test_lattice_products_keep_tight_windows(monkeypatch):
    # a set's window is its bounding box, and a product of two tight
    # nonnegative windows is tight: convolve and correlate of two sets, A o A
    # and every chain level to T_6 in Z, Z^2 and Z^3, on the direct path and
    # the FFT's with one limb and with several, each hold a nonzero entry on
    # every face and own their planes
    served, limbs = record_paths(monkeypatch), record_calls(monkeypatch, "_limbs")
    rng = random.Random(149)
    for dim, small, large in ((1, (12, 20), (2000, 3000)), (2, (12, 6), (2000, 30)), (3, (10, 3), (700, 5))):
        g, kinds = lattice(dim), set()
        for points, span in (small, large):
            a, b = (GSet(g, list(weighted(rng, g, points, 0, span))) for _ in range(2))
            chain = moments._chain(a)
            products = [lambda: convolve(a, b), lambda: correlate(a, b), lambda: correlate(a, a)]
            products += [lambda j=j: chain.extend(j).top for j in range(2, 7)]
            for product in products:
                served.clear()
                limbs.clear()
                t = product()
                assert tight_and_own(t), (dim, points, len(kinds))
                split = any(bits is not None for _, (x, bits, linf) in limbs)
                kinds.add("direct" if any(s.path == "_direct" for s in served) else "FFT limbs" if split else "FFT")
            assert tight_and_own(ConvTable.from_gset(a))
        assert kinds == {"direct", "FFT", "FFT limbs"}, dim


def test_products_with_zero_faces_read_as_the_oracle():
    # lattice tables of small weights padded with zero faces: the product's
    # window is the linear product's, zero faces kept, and every reader
    # gives the oracle's values
    rng = random.Random(151)
    for dim in (1, 2, 3):
        g = lattice(dim)
        for corr in (False, True):
            f, h = ({p: rng.choice((1, 2, 3)) for p in weighted(rng, g, 12, 0, 3)} for _ in range(2))
            padded = [table_at(g, np.pad(u.array, 1), tuple(o - 1 for o in u.offset))
                      for u in (table_of(g, f), table_of(g, h))]
            t = convolve(*padded, corr=corr)
            want = pair_sums(None, f, h, corr)
            assert not tight_and_own(t)   # the operands' zero faces carry over
            assert support(t) == want
            points = np.array(list(want) + [(0,) * dim, (40,) * dim], dtype=np.int64)
            assert t.values_at(points).tolist() == [want.get(tuple(p), 0) for p in points.tolist()]
            assert t.square_sum() == sum(v * v for v in want.values())


def test_integer_moments_read_the_power_sums():
    # E_k(A, B) for k = 1..6 and E^x_k(A) for k = 2..6 equal the oracles, read
    # through one histogram's power sums, which also hold a weighted histogram
    # whose sums pass 2^63, on the int64 dot, the halves and Python ints alike
    rng = random.Random(157)
    for g in (cyclic(64), lattice(1), lattice(2)):
        mods = g.moduli if g.is_cyclic else None
        for _ in range(3):
            a, b = (rand_gset(rng, g, rng.randint(1, 9)) if g.dim == 1
                    else GSet(g, list(weighted(rng, g, rng.randint(1, 9), 0, 4))) for _ in range(2))
            for k in range(1, 7):
                assert energy_k_pair(a, b, k) == oracles.oracle_energy_k_pair(mods, set(a.elems),
                                                                              set(b.elems), k)
    for xs in ([1, 2, 3, 4, 6], [-5, -1, 2, 3, 10, 15, 30], rng.sample(range(1, 200), 25)):
        for k in range(2, 7):
            assert mult_energy_k(xs, k) == oracles.oracle_mult_energy_k(xs, k)
    levels = np.array([0, 1, 7, 1000, 1 << 20, 3 << 19], dtype=np.int64)
    counts = np.array([5, 1 << 20, 3, 1 << 25, 1 << 30, 7], dtype=np.int64)
    hist = moments._Histogram.of(levels, counts)
    sums = [hist.power_sum(k) for k in range(7)]
    assert sums == [sum(c * v ** k for v, c in zip(levels.tolist(), counts.tolist())) for k in range(7)]
    # E_1 one dot; E_2, E_3 past 2^63 on the halves (counts total < 2^31, top^3 < 2^63); E_4.. ints
    assert sums[1] < 1 << 63 <= sums[2] and hist.total < 1 << 31 and hist.top ** 3 < 1 << 63 <= hist.top ** 4
