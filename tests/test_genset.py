import numpy as np
import pytest

import oracles
from hienergy import checks, genset, groups
from hienergy.genset import (RecipeError, gen, is_prime, mult_subgroup, parse_recipe,
                             primitive_root, quadratic_residues, recipe)
from hienergy.gset import GSet


def test_qr_examples():
    qr = quadratic_residues(13)
    assert [e[0] for e in qr.elems] == [1, 3, 4, 9, 10, 12]
    for p in (7, 11, 13, 29, 101):
        assert len(quadratic_residues(p)) == (p - 1) // 2
    with pytest.raises(RecipeError):
        quadratic_residues(15)
    with pytest.raises(RecipeError):
        quadratic_residues(2)


def test_subgroup_examples():
    gamma = mult_subgroup(13, 3)
    assert [e[0] for e in gamma.elems] == [1, 3, 9]
    with pytest.raises(RecipeError):
        mult_subgroup(13, 5)
    with pytest.raises(RecipeError):
        mult_subgroup(12, 2)


def test_subgroup_is_closed_with_exact_order():
    for p, t in [(7, 3), (13, 4), (31, 6), (61, 12), (101, 25)]:
        gamma = mult_subgroup(p, t)
        assert len(gamma) == t
        members = {e[0] for e in gamma.elems}
        assert all((x * y) % p in members for x in members for y in members)


def test_primitive_roots():
    assert primitive_root(13) == 2
    assert primitive_root(7) == 3
    for p in (5, 11, 31, 101):
        g = primitive_root(p)
        assert len({pow(g, i, p) for i in range(p - 1)}) == p - 1
    assert is_prime(101) and not is_prime(91)


def test_convex_generator():
    a = gen(recipe("convex", n=4))
    assert [e[0] for e in a.elems] == [0, 1, 3, 6]
    assert oracles.is_convex([e[0] for e in a.elems])
    jittered = gen(recipe("convex", n=10, jitter=3, seed=5))
    assert oracles.is_convex([e[0] for e in jittered.elems])
    assert gen(recipe("convex", n=10, jitter=3, seed=5)) == jittered


def test_sidon_generator():
    a = gen(recipe("sidon", n=6))
    xs = [e[0] for e in a.elems]
    assert xs == [0, 1, 3, 7, 12, 20]
    diffs = [y - x for x in xs for y in xs if y > x]
    assert len(diffs) == len(set(diffs))


def test_random_density_determinism():
    r = parse_recipe("random:N=256,delta=0.1,seed=7")
    a = gen(r)
    assert a == gen(r)
    assert a.group.order == 256
    assert len(a) > 0
    different = gen(parse_recipe("random:N=256,delta=0.1,seed=8"))
    assert different != a


def test_interval_and_ap():
    a = gen(parse_recipe("interval:n=16"))
    assert len(a) == 16 and not a.group.is_cyclic
    b = gen(parse_recipe("interval:n=5,N=64"))
    assert b.group.order == 64
    ap = gen(parse_recipe("ap:base=1,gens=3;10,lens=3;2"))
    assert {e[0] for e in ap.elems} == {1, 4, 7, 11, 14, 17}


def test_recipe_literal_round_trip():
    for text, built in [("qr:p=13", recipe("qr", p=13)),
                        ("subgroup:p=13,t=3", recipe("subgroup", t=3, p=13)),
                        ("random:N=256,delta=0.1,seed=7", recipe("random", seed=7, N=256, delta=0.1)),
                        ("ap:base=0,gens=3;5,lens=4;2", recipe("ap", base=0, gens=(3, 5), lens=(4, 2)))]:
        assert parse_recipe(text) == built
        assert gen(parse_recipe(text)) == gen(built)
    with pytest.raises(RecipeError):
        gen(parse_recipe("warp:x=1"))


def test_cosets_partition():
    gamma = mult_subgroup(13, 3)
    cosets = genset.subgroup_cosets(gamma)
    assert len(cosets) == 4
    seen = set()
    for c in cosets:
        assert len(c) == 3
        seen |= set(c.tolist())
    assert seen == set(range(1, 13))
    q = genset.invariant_union(gamma, (0, 2))
    members = {e[0] for e in q.elems}
    assert all((3 * x) % 13 in members for x in members)


def test_cosets_match_the_walk_oracle():
    for inst in checks.subgroup_instances():
        gamma, p = inst.a, inst.extra["p"]
        cosets = genset.subgroup_cosets(gamma)
        assert cosets.dtype == np.int64 and not cosets.flags.writeable
        assert cosets.tolist() == oracles.oracle_subgroup_cosets(p, gamma.coords[:, 0].tolist())
        assert genset.subgroup_cosets(gamma) is cosets   # kept on Gamma
        picks = (1, 0, 5)
        want = sorted({x for i in picks for x in cosets[i % len(cosets)].tolist()})
        assert genset.invariant_union(gamma, picks).coords[:, 0].tolist() == want


def test_cosets_refuse_a_non_subgroup():
    for bad in (GSet(groups.cyclic(13), [1, 2, 4]),   # not closed
                GSet(groups.cyclic(13), []),
                GSet(groups.cyclic(12), [1, 5]),       # 12 is not prime
                GSet(groups.cyclic(3, 5), [(1, 1)]),
                GSet(groups.lattice(1), [1])):
        with pytest.raises(ValueError):
            genset.subgroup_cosets(bad)


def test_subgroup_check_matches_the_closure_oracle():
    # every subset of Z/p holding 1, p <= 13: accepted exactly when closed and free of 0
    for p in (2, 3, 5, 7, 11, 13):
        rest = list(range(p))
        rest.remove(1)
        for mask in range(1 << len(rest)):
            members = [1] + [x for i, x in enumerate(rest) if mask >> i & 1]
            gamma = GSet(groups.cyclic(p), members)
            if 0 in members:
                with pytest.raises(ValueError, match="contain 1 and avoid 0"):
                    genset.multiplicative_order_elements(gamma)
            elif oracles.oracle_is_mult_closed(p, members):
                assert genset.multiplicative_order_elements(gamma) == (p, len(members))
            else:
                with pytest.raises(ValueError, match="not multiplicatively closed"):
                    genset.multiplicative_order_elements(gamma)
