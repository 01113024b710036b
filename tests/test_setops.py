import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hienergy import groups, setops
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, full_group, zset
from hienergy.setops import (CapExceededError, Caps, MINUS, PLUS, basis_depth_test,
                             delta_sumset, diffset, d_k, greedy_completion, iterated,
                             magnification, magnification_k, restricted_sum, s_k,
                             stabilizer_slice, sumset)


def rand_gset(rng, g, size):
    if g.is_cyclic:
        return GSet(g, [groups.from_flat(g, v) for v in rng.sample(range(g.order), size)])
    return GSet(g, rng.sample(range(40), size))


def test_sumset_examples():
    a = zset([0, 1, 3])
    assert sorted(e[0] for e in sumset(a, a)) == [0, 1, 2, 3, 4, 6]
    assert sumset(zset([0]), a) == a
    g2 = cyclic(2)
    assert sumset(full_group(g2), GSet(g2, [1])) == full_group(g2)


def test_iterated_examples():
    a = zset([0, 1, 3])
    assert len(iterated(a, 1, 1)) == 7
    assert iterated(a, 1, 0) == a
    assert iterated(GSet(cyclic(5), [0, 1]), 4, 0) == full_group(cyclic(5))
    with pytest.raises(ValueError):
        iterated(a, 0, 0)


def test_stabilizer_slice_examples():
    a = zset([0, 1, 3])
    assert stabilizer_slice(a, [1]).elems == ((0,),)
    assert stabilizer_slice(a, []) == a
    assert len(stabilizer_slice(a, [1, 2])) == 0


def test_slice_matches_oracle():
    rng = random.Random(5)
    for _ in range(30):
        g = cyclic(16)
        a = rand_gset(rng, g, 6)
        s = [groups.from_flat(g, rng.randrange(16)) for _ in range(rng.randint(0, 3))]
        got = {e for e in stabilizer_slice(a, s)}
        want = oracles.oracle_slice(g.moduli, set(a.elems), s)
        assert got == want


def test_delta_sumset_examples():
    a = zset([0, 1, 3])
    assert len(delta_sumset([a, a], a, MINUS)) == 25
    assert len(delta_sumset([a, a], a, PLUS)) == 24
    assert len(delta_sumset([a], a, MINUS)) == 7


def test_delta_sumset_against_oracle():
    rng = random.Random(11)
    for _ in range(25):
        g = rng.choice([cyclic(12), cyclic(3, 4), lattice(1)])
        k = rng.randint(1, 3)
        sets = [rand_gset(rng, g, rng.randint(1, 4)) for _ in range(k)]
        b = rand_gset(rng, g, rng.randint(1, 4))
        sign = rng.choice([MINUS, PLUS])
        t = delta_sumset(sets, b, sign)
        want = oracles.oracle_delta_sumset(g.moduli if g.is_cyclic else None,
                                           [set(s.elems) for s in sets], set(b.elems), sign)
        assert len(t) == len(want)
        assert set(t) == want  # decode round-trip


def test_delta_sumset_k1_agrees_with_diffset_sumset():
    rng = random.Random(2)
    for i in range(100):
        g = rng.choice([cyclic(32), cyclic(4, 8), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 8))
        b = rand_gset(rng, g, rng.randint(1, 8))
        t_minus = delta_sumset([a], b, MINUS)
        t_plus = delta_sumset([a], b, PLUS)
        assert len(t_minus) == len(diffset(a, b))
        assert len(t_plus) == len(sumset(a, b))


def test_tupleset_membership_and_decode():
    a = zset([0, 1, 3])
    t = delta_sumset([a, a], a, MINUS)
    assert ((0,), (0,)) in t
    assert (((0,), (0,)),) != None and (((7,), (0,))) not in t
    listed = set(t)
    assert len(listed) == len(t)


def test_restricted_sum():
    a = zset([0, 1, 3])
    full_edges = [(x, y) for x in a.elems for y in a.elems]
    assert restricted_sum(a, a, full_edges) == diffset(a, a)
    assert len(restricted_sum(a, a, [])) == 0
    got = restricted_sum(a, a, [((1,), (0,)), ((3,), (1,))])
    assert got == zset([1, 2])
    with pytest.raises(ValueError):
        restricted_sum(a, a, [((7,), (0,))])


def test_greedy_completion():
    g6 = cyclic(6)
    a = GSet(g6, [0, 1])
    x = greedy_completion(a)
    assert sumset(a, x) == full_group(g6)
    assert len(x) <= 3
    assert greedy_completion(full_group(g6)) == GSet(g6, [0])
    single = greedy_completion(GSet(g6, [4]))
    assert len(single) == 6 and sumset(GSet(g6, [4]), single) == full_group(g6)
    # a product group: translates must be taken coordinatewise, not on flat ranks
    g48 = cyclic(4, 8)
    b = GSet(g48, [(0, 1), (1, 0), (2, 5)])
    assert sumset(b, greedy_completion(b)) == full_group(g48)


def test_basis_depth_examples():
    g5 = cyclic(5)
    assert basis_depth_test(full_group(g5), 3, MINUS)[0] is True
    qr13 = GSet(cyclic(13), [1, 3, 4, 9, 10, 12])
    assert basis_depth_test(qr13, 1, MINUS)[0] is True
    ok, witness = basis_depth_test(GSet(g5, [0, 1]), 1, MINUS)
    assert not ok and witness == ((2,),)


def test_basis_depth_matches_membership_definition():
    rng = random.Random(3)
    for _ in range(20):
        g = cyclic(rng.choice([5, 6, 7]))
        b = rand_gset(rng, g, rng.randint(2, g.order))
        for sign in (MINUS, PLUS):
            ok, witness = basis_depth_test(b, 2, sign)
            # explicit membership sweep
            holes = []
            for x1 in groups.enumerate_elements(g):
                for x2 in groups.enumerate_elements(g):
                    if sign == MINUS:
                        hit = any(all(groups.op_add(g, z, xi) in b.as_set for xi in (x1, x2))
                                  and z in b.as_set for z in groups.enumerate_elements(g))
                    else:
                        hit = any(all(groups.op_sub(g, xi, z) in b.as_set for xi in (x1, x2))
                                  and z in b.as_set for z in groups.enumerate_elements(g))
                    if not hit:
                        holes.append((x1, x2))
            assert ok == (not holes)
            if holes:
                assert witness == holes[0]


def test_dense_set_is_deep_basis():
    # any set with |B| > (1 - 1/(k+1)) N has depth k
    g = cyclic(8)
    b = GSet(g, [0, 1, 2, 3, 4, 5, 6])
    assert basis_depth_test(b, 2, MINUS)[0]
    assert basis_depth_test(b, 2, PLUS)[0]


def test_magnification_examples():
    a = zset([0, 1, 3])
    r, z = magnification(a, a)
    assert r == 2 and z == a
    r2, _ = magnification(zset([0, 1]), zset([0, 1]))
    assert r2 == Fraction(3, 2)
    g5 = cyclic(5)
    r3, _ = magnification(full_group(g5), full_group(g5))
    assert r3 == 1
    with pytest.raises(ValueError):
        magnification(zset([]), a)
    with pytest.raises(CapExceededError):
        magnification(zset(range(25)), a)


def test_magnification_k_examples():
    a = zset([0, 1])
    r, _ = magnification_k(a, a, 2)
    assert r == Fraction(7, 2)
    r1, _ = magnification_k(a, a, 1)
    assert r1 == magnification(a, a)[0]
    single = zset([5])
    rs, _ = magnification_k(single, a, 3)
    assert rs == len(a) ** 3


def test_magnification_matches_oracle():
    rng = random.Random(7)
    for _ in range(12):
        g = rng.choice([cyclic(16), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 5))
        b = rand_gset(rng, g, rng.randint(1, 5))
        r, z = magnification(a, b)
        want, _ = oracles.oracle_magnification(g.moduli if g.is_cyclic else None,
                                               set(a.elems), set(b.elems))
        assert r == want
        plus = sumset(b, z)
        assert Fraction(len(plus), len(z)) == r


def test_petridis_iterated_bound():
    rng = random.Random(13)
    for _ in range(10):
        g = rng.choice([cyclic(24), lattice(1)])
        a = rand_gset(rng, g, rng.randint(2, 7))
        r, _ = magnification(a, a)
        for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            assert len(iterated(a, n, m)) <= r ** (n + m) * len(a)


def test_ds_chain_properties():
    rng = random.Random(17)
    for _ in range(10):
        g = rng.choice([cyclic(32), lattice(1)])
        a = rand_gset(rng, g, rng.randint(2, 6))
        size = len(a)
        d1, d2, d3 = d_k(a, 1), d_k(a, 2), d_k(a, 3)
        s1, s2, s3 = s_k(a, 1), s_k(a, 2), s_k(a, 3)
        assert d1 * size <= d2 <= d1 * d1
        assert d2 * size <= d3 <= d2 * d1
        assert s1 * size <= s2 <= s1 * min(s1, d1)
        assert s2 * size <= s3 <= s2 * min(s1, d1)
        assert d1 * size ** 2 <= s3  # D_n |A|^m <= S_(n+m), n = 1, m = 2
        assert d1 * size ** 2 <= s3  # D_(n-1) |A|^2 <= S_(n+1), n = 2


def test_g_bases_identity_and_swap():
    rng = random.Random(19)
    for _ in range(8):
        g = cyclic(rng.choice([6, 8, 10]))
        a1 = rand_gset(rng, g, rng.randint(1, 4))
        a2 = rand_gset(rng, g, rng.randint(1, 4))
        amb = full_group(g)
        lhs = len(delta_sumset([a1, a2], amb, MINUS))
        rhs = g.order * len(delta_sumset([a1], a2, MINUS))
        assert lhs == rhs
        # coordinate swap |Y x Z - D(X)| = |Y x X - D(Z)|
        x = rand_gset(rng, g, rng.randint(1, 4))
        z = rand_gset(rng, g, rng.randint(1, 4))
        assert len(delta_sumset([a1, z], x, MINUS)) == len(delta_sumset([a1, x], z, MINUS))


def test_integer_sumset_lower_bound():
    rng = random.Random(23)
    for _ in range(20):
        p = rand_gset(rng, lattice(1), rng.randint(1, 8))
        q = rand_gset(rng, lattice(1), rng.randint(1, 8))
        assert len(sumset(p, q)) >= len(p) + len(q) - 1


@given(st.sets(st.integers(0, 30), min_size=1, max_size=6),
       st.sets(st.integers(0, 30), min_size=1, max_size=6))
@settings(max_examples=40)
def test_sumset_size_bounds_property(xs, ys):
    a, b = zset(xs), zset(ys)
    s = sumset(a, b)
    assert len(s) >= max(len(a), len(b))
    assert len(s) >= len(a) + len(b) - 1
    assert len(s) <= len(a) * len(b)


def test_cap_guard_on_tuple_space():
    a = zset(range(12))
    with pytest.raises(CapExceededError):
        delta_sumset([a] * 4, a, MINUS, Caps(tuples=1000))
