"""The per-set memo `GSet.kept`: kept values equal the brute-force oracles,
a second call builds nothing, caps still refuse a kept value, partner sets
key by value, new sets start empty, kept arrays and mappings are read-only,
and a build that raises keeps nothing.  A Gram is kept nowhere: each call
builds its own, equal to the oracle's."""

import gc
import math
import random
import re
import types
import weakref
from collections import Counter

import numpy as np
import pytest

import oracles
from hienergy import checks, eigen, extract, genset, moments, setops, spectrum
from hienergy.groups import InvariantError, cyclic, lattice
from hienergy.gset import GSet, zset
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
    """Count the builds of every kept object that has a build of its own,
    and every engine call (`moments._conv`)."""
    counts = Counter()
    for mod, name in ((setops, "_translate_grid"), (setops, "_magnification_search"),
                      (eigen, "_gram"), (checks, "_slice_corr_sums"),
                      (moments, "_histogram"), (spectrum, "_dft"), (moments, "_conv")):
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
                 lambda: checks.slice_corr_sums(a, 2),
                 lambda: setops.sumset(a, a), lambda: setops.diffset(a, a)]
        if g.is_cyclic:
            calls.append(lambda: spectrum.dft(a))
        first = [call() for call in calls]
        pg = eigen.build_gram(a, b, 2)
        e3 = moments.energy_k_pair(a, b, 3)
        built = counts.copy()
        assert built["_translate_grid"] == 4 and built["_magnification_search"] == 2
        assert built["_gram"] == 1 and built["_slice_corr_sums"] == 1
        assert built["_dft"] == g.is_cyclic
        second = [call() for call in calls]
        # E_k(A, B) is a moment taken on every call over the two kept tables
        assert moments.energy_k_pair(a, b, 3) == e3
        assert counts == built
        assert all(x is y for x, y in zip(first, second))
        # a Gram is kept nowhere: a second call builds its own, equal to the first
        assert eigen.build_gram(a, b, 2).gram.tolist() == pg.gram.tolist() == gram_oracle(
            mods_of(g), set(a.elems), set(b.elems), 2)
        assert counts["_gram"] == 2
        # every E_k, the level sequence and |A - A| read one kept histogram
        moments.energy_k(a, 2)
        assert counts["_histogram"] == built["_histogram"] + 1
        built = counts.copy()
        moments.energy_k(a, 3)
        moments.energy_k(a, 2.5)
        moments.level_sequence(a)
        extract.energy_profile(a, (2, 3, 4))
        built["_conv"] += 1   # |A + A|: the nonzero count of one A * A, kept
        assert counts == built
        extract.energy_profile(a, (2, 3))
        assert counts == built
        counts.clear()


def test_kept_values_still_refused_under_smaller_caps(monkeypatch):
    a, b = GSet(cyclic(64), range(0, 36, 3)), GSet(cyclic(64), [0, 5, 9])
    d2, s2 = setops.d_k(a, 2), setops.s_k(a, 2)
    r = setops.magnification_k(a, b, 2)
    pg = eigen.build_gram(a, b, 1)
    small = Caps(tuples=100, subsets=4)
    monkeypatch.setattr(eigen, "GRAM_CAP", 3)
    # one cap below the work each, the others at their defaults, as the
    # CLI's --cap-tuples and --cap-subsets build them
    for call in (lambda: setops.d_k(a, 2, small), lambda: setops.s_k(a, 2, small),
                 lambda: setops.magnification_k(a, b, 2, small),
                 lambda: setops.magnification_k(a, b, 2, Caps(tuples=100)),
                 lambda: eigen.build_gram(a, b, 1),
                 lambda: setops.d_k(a, 2, Caps(tuples=100)),
                 lambda: setops.s_k(a, 2, Caps(tuples=100)),
                 lambda: setops.magnification(a, b, Caps(subsets=4))):
        with pytest.raises(CapExceededError):
            call()
    assert (setops.d_k(a, 2), setops.s_k(a, 2)) == (d2, s2)
    assert setops.magnification_k(a, b, 2) is r
    monkeypatch.undo()
    assert eigen.build_gram(a, b, 1).gram.tolist() == pg.gram.tolist() == gram_oracle(
        (64,), set(a.elems), set(b.elems), 1)


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
        assert eigen.build_gram(a, twin, k).gram.tolist() == eigen.build_gram(a, b, k).gram.tolist() \
            == gram_oracle(mods, aset, set(b.elems), k)
        assert moments.energy_k_pair(a, twin, k + 1) == moments.energy_k_pair(a, b, k + 1)
    # a Gram is kept nowhere: each call above built its own
    assert counts["_magnification_search"] == 2 and counts["_gram"] == 4
    assert len([key for key in a._kept if isinstance(key, tuple) and key[0] == "R"]) == 2
    for k in (1, 2):
        r, _ = setops.magnification_k(a, c, k)
        assert r == oracles.oracle_magnification(mods, aset, set(c.elems), k)[0]
        assert eigen.build_gram(a, c, k).gram.tolist() == gram_oracle(mods, aset, set(c.elems), k)
        assert moments.energy_k_pair(a, c, k + 1) == oracles.oracle_energy_k_pair(
            mods, aset, set(c.elems), k + 1)
    assert counts["_magnification_search"] == 4 and counts["_gram"] == 6


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
    assert eigen.build_gram(a, twin, 2).gram.tolist() == pg.gram.tolist() == gram_oracle(
        (64,), set(a.elems), set(a.elems), 2) and pg.b_size == len(a)
    eigen.singular_spectrum(pg)
    moments.t_k(a, 3)
    setops.d_k(a, 2)
    assert ("R", "self", 1) in a._kept
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
    moments.energy_k(a, 2)
    for arr in (*a._kept["levels"], spectrum.dft(a)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


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
    # a Gram whose Frobenius check trips leaves nothing behind: the next call builds its own
    counts = counting(monkeypatch)
    real_pair = moments.energy_k_pair
    monkeypatch.setattr(moments, "energy_k_pair", lambda a, b, k: real_pair(a, b, k) + 1)
    with pytest.raises(InvariantError, match="Frobenius"):
        eigen.build_gram(a, b, 1)
    assert counts["_gram"] == 1
    monkeypatch.setattr(moments, "energy_k_pair", real_pair)
    assert eigen.build_gram(a, b, 1).gram.tolist() == gram_oracle(mods, set(a.elems), set(b.elems), 1)
    assert counts["_gram"] == 2


def test_subgroup_eigencheck_against_itself_builds_one_gram(monkeypatch):
    # at k = 1 the character matrix of Gamma against itself, or an equal set,
    # is the Gram of (Gamma, Gamma, 1) that the connected forms read
    counts = counting(monkeypatch)
    gamma = genset.mult_subgroup(13, 4)
    for base, k, grams in ((gamma, 1, 1), (GSet(gamma.group, gamma.coords), 1, 1), (gamma, 2, 2),
                           (None, 1, 1)):
        counts.clear()
        assert eigen.subgroup_eigencheck(gamma, k=k, base_set=base).connected_ok
        assert counts["_gram"] == grams, (base, k)


def test_suite_pass_builds_each_object_once_per_set(monkeypatch):
    # the corpus of `hienergy suite --standard --count 30`; before the memo
    # the same pass made 2,556 / 252 / 540 / 864 of these builds
    counts = counting(monkeypatch)
    instances = (checks.standard_corpus(seed=2024, cyclic_count=30, lattice_count=3)
                 + checks.basis_instances() + checks.subgroup_instances()
                 + checks.intset_instances())
    report = checks.run_suite(instances, sorted(checks.REGISTRY))
    assert len(report.results) == 3572 and not report.errors
    assert (counts["_translate_grid"], counts["_magnification_search"],
            counts["_gram"], counts["_slice_corr_sums"]) == (1250, 170, 233, 144)
    # one A o A histogram for each of the 218 sets that read E_k, the level
    # sequence or |A - A|, and one of the quotient counts per E^x_3 (8); C34's
    # 521 candidate sets built one each before their E_2 came from family counts
    assert counts["_histogram"] == 218 + 8
    # one spectrum for each of the 33 sets that C8, C9, C10 and C10p read;
    # before it was kept, the pass made 462 transforms
    assert counts["_dft"] == 33


def test_extraction_checks_read_their_families_in_fixed_passes(monkeypatch):
    # C34 on a fresh cyclic set makes its two engine calls, A o A and D o D, whatever
    # its candidate count (each candidate made its own before); bsg2's transfer pass
    # searches sets a fixed number of times whatever its shift count; C31's shift
    # draws reduce their rows in one as_rows call
    counts = counting(monkeypatch)
    rng = random.Random(83)
    for g, size in ((cyclic(13), 4), (cyclic(64), 9), (cyclic(128), 15), (cyclic(4, 8), 12)):
        a = rand_gset(rng, g, size)
        counts.clear()
        assert checks.run_check("C34", {"a": a}).passed
        assert counts["_conv"] == 2
    a = rand_gset(rng, cyclic(64), 12)
    p_set = extract.popular_set(a)
    searches, real_isin = [], GSet.isin
    monkeypatch.setattr(GSet, "isin", lambda self, rows: searches.append(len(rows)) or real_isin(self, rows))
    per_count = set()
    for m in (1, 2, 6, 12, len(p_set)):
        searches.clear()
        assert len(extract._transfer_samples(a, p_set, p_set.coords[:m])) == m
        per_count.add(len(searches))
    assert per_count == {4}   # both slice families, u and the shifted u
    reduced, real_rows = [], extract.as_rows
    monkeypatch.setattr(extract, "as_rows", lambda g, rows: reduced.append(len(rows)) or real_rows(g, rows))
    good = a.coords[np.array([[0, 1, 2], [3, 4, 5]])]
    shifts = extract._draw_shifts(random.Random(5), good, a)
    assert reduced == [extract.SHIFT_SAMPLES * 3] and 0 < len(shifts) <= extract.SHIFT_SAMPLES


def test_suite_pass_builds_the_cosets_once_per_subgroup(monkeypatch):
    # each C26 and C27 call makes its own Gamma; C26 built the cosets 3 times, C27 twice
    built, real = [], genset._cosets
    monkeypatch.setattr(genset, "_cosets", lambda gamma: built.append(gamma) or real(gamma))
    report = checks.run_suite(checks.subgroup_instances(), ["C25", "C26", "C27"])
    assert not report.errors
    calls = sum(r.check_id in ("C26", "C27") for r in report.results)
    assert len(built) == calls == len({id(gamma) for gamma in built}) > 0


def test_balog_builds_the_quotient_counts_once(monkeypatch):
    # |A/A| and E^x_3(A) both read r_{A/A}; before it was kept, C35 balog built it twice
    built, real = [], moments._quotient_counts
    monkeypatch.setattr(moments, "_quotient_counts", lambda xs: built.append(xs) or real(xs))
    a = GSet(lattice(1), range(1, 17))
    r = checks.run_check("C35", {"a": a, "variant": "balog"})
    assert r.passed and len(built) == 1
    counts = moments.quotient_counts(a)
    assert len(built) == 1 and not counts.flags.writeable
    assert moments.quotset_size(a) == len(counts) == oracles.oracle_quotset_size(a.coords[:, 0].tolist())


def test_caps_are_frozen():
    caps = Caps(tuples=100)
    with pytest.raises(AttributeError):
        caps.tuples = 10
    with pytest.raises(AttributeError):
        setops.DEFAULT_CAPS.subsets = 4
    assert caps == Caps(tuples=100) and setops.DEFAULT_CAPS == Caps()


# Each reader of an integer-only order: its least order and a call on fresh
# sets A, B (integer sets, 0 not in A) and a subgroup Gamma.
ORDERED = {
    "t_k": (1, lambda a, b, gamma, k: moments.t_k(a, k)),
    "sigma_k": (1, lambda a, b, gamma, k: moments.sigma_k(a, k)),
    "mult_energy_k": (2, lambda a, b, gamma, k: moments.mult_energy_k(a, k)),
    "d_k": (1, lambda a, b, gamma, k: setops.d_k(a, k)),
    "s_k": (1, lambda a, b, gamma, k: setops.s_k(a, k)),
    "magnification_k": (1, lambda a, b, gamma, k: setops.magnification_k(a, b, k)),
    "build_gram": (1, lambda a, b, gamma, k: eigen.build_gram(a, b, k).gram.tolist()),
    "subgroup_eigencheck": (1, lambda a, b, gamma, k: eigen.subgroup_eigencheck(gamma, k)),
}


@pytest.mark.parametrize("name", sorted(ORDERED))
def test_orders_are_checked_before_any_work(name, monkeypatch):
    least, call = ORDERED[name]
    fresh = lambda: (zset([1, 2, 5, 7, 8]), zset([1, 3, 4]), genset.mult_subgroup(13, 4))
    for k in (least - 1, least - 0.5, least + 0.5, 2.5, "2", None, math.nan, math.inf):
        counts = counting(monkeypatch)
        sets = fresh()
        with pytest.raises(ValueError, match=re.escape(f"got {k!r}")):
            call(*sets, k)
        assert not counts and not any(s._kept for s in sets), k   # no chain level, no table
        monkeypatch.undo()
    # an integral float is its int: the same value, an int64 Gram
    for k in (least, least + 1):
        assert call(*fresh(), float(k)) == call(*fresh(), k)
    assert eigen.build_gram(zset([1, 2]), zset([1, 3]), 2.0).gram.dtype == np.int64
