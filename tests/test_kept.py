"""The per-set memo `GSet.kept`: kept values equal the brute-force oracles,
a second call builds nothing, caps still refuse a kept value, partner sets
key by value, new sets start empty, kept arrays and mappings are read-only,
and a build that raises keeps nothing."""

import gc
import random
import types
import weakref
from collections import Counter

import numpy as np
import pytest

import oracles
from hienergy import checks, eigen, moments, setops
from hienergy.groups import InvariantError, cyclic, lattice
from hienergy.gset import GSet
from hienergy.setops import CapExceededError, Caps

GROUPS = (cyclic(13), cyclic(4, 8), lattice(1), lattice(2))


def rand_gset(rng, g, size):
    if g.is_cyclic:
        return GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(g.order), size)])
    if g.dim == 2:
        return GSet(g, [(v // 9 - 4, v % 9 - 4) for v in rng.sample(range(81), size)])
    return GSet(g, rng.sample(range(-20, 20), size))


def mods_of(g):
    return g.moduli if g.is_cyclic else None


def gram_oracle(mods, a, b, k):
    """Gram(y, y') = (B o B)(y' - y)^k over the sorted elements of A."""
    cb = oracles.corr_counts(mods, b, b)
    return [[cb.get(oracles.sub(mods, y2, y1), 0) ** k for y2 in sorted(a)] for y1 in sorted(a)]


def counting(monkeypatch):
    """Count the builds of every kept object that has a build of its own."""
    counts = Counter()
    for mod, name in ((setops, "_translate_grid"), (setops, "_magnification_search"),
                      (eigen, "_gram"), (checks, "_slice_corr_sums"),
                      (moments, "_energy_k_pair")):
        def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return counts


def test_kept_values_match_the_oracles():
    rng = random.Random(61)
    for g in GROUPS:
        mods = mods_of(g)
        for _ in range(3):
            a, b = rand_gset(rng, g, rng.randint(4, 6)), rand_gset(rng, g, rng.randint(2, 4))
            aset, bset = set(a.elems), set(b.elems)
            for _ in range(2):   # built, then read back
                for k in (1, 2):
                    assert setops.d_k(a, k) == oracles.oracle_d_k(mods, aset, k)
                    assert setops.s_k(a, k) == oracles.oracle_s_k(mods, aset, k)
                    r, z = setops.magnification_k(a, b, k)
                    assert r == oracles.oracle_magnification(mods, aset, bset, k)[0]
                    zset = set(z.elems)
                    assert z.issubset(a) and r * len(zset) == len(
                        oracles.oracle_delta_sumset(mods, [bset] * k, zset, "+"))
                    pg = eigen.build_gram(a, b, k)
                    assert pg.gram.tolist() == gram_oracle(mods, aset, bset, k)
                    assert pg.frobenius_sq == oracles.oracle_energy_k_pair(mods, aset, bset, 2 * k + 1)
                for k in (1, 2, 3, 4):
                    assert moments.energy_k_pair(a, b, k) == oracles.oracle_energy_k_pair(
                        mods, aset, bset, k)
                assert setops.magnification(a, b) == setops.magnification_k(a, b, 1)
                assert set(setops.sumset(a, a).elems) == {oracles.add(mods, x, y) for x in aset for y in aset}
                assert set(setops.diffset(a, a).elems) == {oracles.sub(mods, x, y) for x in aset for y in aset}


def test_pair_sums_past_int64_in_python_ints():
    # A o A entries up to 40 at k = 13: 40^13 > 2^63
    a = GSet(cyclic(64), range(40))
    want = oracles.oracle_energy_k_pair((64,), set(a.elems), set(a.elems), 13)
    assert want >= 1 << 63 and moments.energy_k_pair(a, a, 13) == want
    # Gram entries up to 40^10 < 2^63, their squares past it
    y = GSet(cyclic(64), [0, 1, 5])
    pg = eigen.build_gram(y, a, 10)
    assert pg.gram.tolist() == gram_oracle((64,), set(y.elems), set(a.elems), 10)
    assert pg.frobenius_sq == oracles.oracle_energy_k_pair((64,), set(y.elems), set(a.elems), 21)
    assert moments.energy_k_pair(a, a, 13.0) == want
    assert moments.energy_k_pair(a, a, 2.5) == pytest.approx(
        sum(v * float(v) ** 1.5 for v in oracles.corr_counts((64,), set(a.elems), set(a.elems)).values()))


def test_second_call_builds_nothing(monkeypatch):
    counts = counting(monkeypatch)
    for g in GROUPS:
        rng = random.Random(str(g))
        a, b = rand_gset(rng, g, 6), rand_gset(rng, g, 3)
        calls = [lambda: setops.d_k(a, 2), lambda: setops.s_k(a, 2),
                 lambda: setops.magnification_k(a, b, 2), lambda: setops.magnification(a, a),
                 lambda: eigen.build_gram(a, b, 2), lambda: checks.slice_corr_sums(a, 2),
                 lambda: moments.energy_k_pair(a, b, 3), lambda: setops.sumset(a, a),
                 lambda: setops.diffset(a, a)]
        first = [call() for call in calls]
        built = counts.copy()
        assert built["_translate_grid"] == 4 and built["_magnification_search"] == 2
        assert built["_gram"] == 1 and built["_slice_corr_sums"] == 1
        second = [call() for call in calls]
        assert counts == built
        assert all(x is y for x, y in zip(first, second))
        counts.clear()


def test_kept_values_still_refused_under_smaller_caps(monkeypatch):
    a, b = GSet(cyclic(64), range(0, 36, 3)), GSet(cyclic(64), [0, 5, 9])
    d2, s2 = setops.d_k(a, 2), setops.s_k(a, 2)
    r = setops.magnification_k(a, b, 2)
    pg = eigen.build_gram(a, b, 1)
    small = Caps(tuples=100, subsets=4, gram=3)
    for call in (lambda: setops.d_k(a, 2, small), lambda: setops.s_k(a, 2, small),
                 lambda: setops.magnification_k(a, b, 2, small),
                 lambda: setops.magnification_k(a, b, 2, Caps(tuples=100)),
                 lambda: eigen.build_gram(a, b, 1, small)):
        with pytest.raises(CapExceededError):
            call()
    # the CLI's --cap-tuples and --cap-subsets set the default caps in place
    monkeypatch.setattr(setops.DEFAULT_CAPS, "tuples", 100)
    with pytest.raises(CapExceededError):
        setops.d_k(a, 2)
    with pytest.raises(CapExceededError):
        setops.s_k(a, 2)
    monkeypatch.setattr(setops.DEFAULT_CAPS, "tuples", 10_000_000)
    monkeypatch.setattr(setops.DEFAULT_CAPS, "subsets", 4)
    with pytest.raises(CapExceededError):
        setops.magnification(a, b)
    monkeypatch.undo()
    assert (setops.d_k(a, 2), setops.s_k(a, 2)) == (d2, s2)
    assert setops.magnification_k(a, b, 2) is r and eigen.build_gram(a, b, 1) is pg


def test_partners_key_by_value(monkeypatch):
    counts = counting(monkeypatch)
    g = cyclic(4, 8)
    rng = random.Random(62)
    a, b, c = rand_gset(rng, g, 6), rand_gset(rng, g, 3), rand_gset(rng, g, 3)
    twin = GSet(g, b.coords)
    assert twin is not b and twin == b and c != b
    mods, aset = mods_of(g), set(a.elems)
    for k in (1, 2):
        assert setops.magnification_k(a, twin, k) is setops.magnification_k(a, b, k)
        assert eigen.build_gram(a, twin, k) is eigen.build_gram(a, b, k)
        assert moments.energy_k_pair(a, twin, k + 1) == moments.energy_k_pair(a, b, k + 1)
    assert counts["_magnification_search"] == 2 and counts["_gram"] == 2
    assert len([key for key in a._kept if isinstance(key, tuple) and key[0] == "R"]) == 2
    for k in (1, 2):
        r, _ = setops.magnification_k(a, c, k)
        assert r == oracles.oracle_magnification(mods, aset, set(c.elems), k)[0]
        assert eigen.build_gram(a, c, k).gram.tolist() == gram_oracle(mods, aset, set(c.elems), k)
        assert moments.energy_k_pair(a, c, k + 1) == oracles.oracle_energy_k_pair(
            mods, aset, set(c.elems), k + 1)
    assert counts["_magnification_search"] == 4 and counts["_gram"] == 4


def test_self_partners_free_the_set_without_the_collector():
    # a kept key or value naming its own set would keep the set alive until
    # the cyclic collector ran; a partner equal to the set keys as "self"
    g = cyclic(64)
    a = GSet(g, [0, 1, 5, 12, 33])
    twin = GSet(g, a.coords)
    r = setops.magnification(a, a)
    assert setops.magnification(a, twin) is r
    e3 = moments.energy_k_pair(a, a, 3)
    assert e3 == moments.energy_k(a, 3) == moments.energy_k_pair(a, twin, 3)
    pg = eigen.build_gram(a, a, 2)
    assert eigen.build_gram(a, twin, 2) is pg and pg.b_size == len(a)
    eigen.singular_spectrum(pg)
    moments.t_k(a, 3)
    setops.d_k(a, 2)
    assert {("R", "self", 1), ("Epair", "self", 3), ("gram", "self", 2)} <= a._kept.keys()
    ref = weakref.ref(a)
    gc.disable()
    try:
        del a
        assert ref() is None
    finally:
        gc.enable()


def test_new_sets_start_with_an_empty_memo():
    for g in GROUPS:
        a = rand_gset(random.Random(63), g, 6)
        setops.d_k(a, 2)
        moments.t_k(a, 3)
        moments.correlate(a, a)
        checks.slice_corr_sums(a, 1)
        assert {"AoA", "chain", ("D", 2), ("F", 1)} <= a._kept.keys()
        assert a.subset(np.ones(len(a), dtype=bool))._kept == {}
        assert a.negate()._kept == {} and GSet(g, a.coords)._kept == {}
        assert a.translate(a.elems[0])._kept == {}
        assert not hasattr(a, "_self_corr") and not hasattr(a, "_chain")


def test_kept_arrays_and_mappings_are_read_only():
    a, b = GSet(cyclic(4, 8), [(0, 1), (1, 3), (2, 2), (3, 7)]), GSet(cyclic(4, 8), [(0, 0), (1, 1)])
    pg = eigen.build_gram(a, b, 2)
    assert not pg.gram.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pg.gram[0, 0] = 0
    f = checks.slice_corr_sums(a, 2)
    assert isinstance(f, types.MappingProxyType)
    with pytest.raises(TypeError):
        f[(0, 0)] = 0
    assert checks.slice_corr_sums(GSet(cyclic(8), []), 1) == {}


def test_build_that_raises_keeps_nothing(monkeypatch):
    a = GSet(cyclic(16), [0, 1, 3, 7, 8])
    b = GSet(cyclic(16), [0, 2, 5])

    def fail():
        raise RuntimeError("build failed")
    with pytest.raises(RuntimeError):
        a.kept("x", fail)
    assert "x" not in a._kept and a.kept("x", lambda: 5) == 5 and a.kept("x", fail) == 5
    real_search = setops._magnification_search
    monkeypatch.setattr(setops, "_magnification_search", lambda grid: fail())
    with pytest.raises(RuntimeError):
        setops.magnification_k(a, b, 1)
    assert ("R", b, 1) not in a._kept
    monkeypatch.setattr(setops, "_magnification_search", real_search)
    mods = (16,)
    want = oracles.oracle_magnification(mods, set(a.elems), set(b.elems), 1)[0]
    assert setops.magnification_k(a, b, 1)[0] == want
    # a Gram whose Frobenius check trips is not kept either
    real_pair = moments.energy_k_pair
    monkeypatch.setattr(moments, "energy_k_pair", lambda a, b, k: real_pair(a, b, k) + 1)
    with pytest.raises(InvariantError, match="Frobenius"):
        eigen.build_gram(a, b, 1)
    assert ("gram", b, 1) not in a._kept
    monkeypatch.setattr(moments, "energy_k_pair", real_pair)
    assert eigen.build_gram(a, b, 1).gram.tolist() == gram_oracle(mods, set(a.elems), set(b.elems), 1)


def test_suite_pass_builds_each_object_once_per_set(monkeypatch):
    # the corpus of `hienergy suite --standard --count 30`; before the memo
    # the same pass made 2,556 / 252 / 540 / 864 of these builds
    counts = counting(monkeypatch)
    instances = (checks.standard_corpus(seed=2024, cyclic_count=30, lattice_count=3)
                 + checks.basis_instances() + checks.subgroup_instances()
                 + checks.intset_instances())
    report = checks.run_suite(instances, sorted(checks.REGISTRY))
    assert len(report.results) == 3896 and not report.errors
    assert (counts["_translate_grid"], counts["_magnification_search"],
            counts["_gram"], counts["_slice_corr_sums"]) == (1250, 170, 252, 144)
