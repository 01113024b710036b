import itertools
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hienergy import moments, setops
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, full_group, zset
from hienergy.setops import (CapExceededError, Caps, MINUS, PLUS, basis_depth_test,
                             delta_sumset, diffset, d_k, distinct_counts, iterated,
                             family_sumset_sizes, magnification, magnification_k, pair_ids, s_k,
                             slice_masks, sumset)


def stabilizer_slice(a, s):
    """A_s = A n (A - s_1) n ... n (A - s_j), the AND of the slice family's rows."""
    return a.subset(slice_masks(a, s).all(axis=0))


def rand_gset(rng, g, size):
    if g.is_cyclic:
        return GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(g.order), size)])
    if g.dim == 2:
        return GSet(g, [(v // 9 - 4, v % 9 - 4) for v in rng.sample(range(81), size)])
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
        s = [oracles.from_flat(g.moduli, rng.randrange(16)) for _ in range(rng.randint(0, 3))]
        got = {e for e in stabilizer_slice(a, s)}
        want = oracles.oracle_slice(g.moduli, set(a.elems), s)
        assert got == want
    for g in (cyclic(16), lattice(2)):
        empty = GSet(g, [])
        assert len(stabilizer_slice(empty, [])) == 0
        assert len(stabilizer_slice(empty, [(1,) * g.dim, (0,) * g.dim])) == 0
    z2 = lattice(2)
    nonempty = 0
    for _ in range(30):
        a = rand_gset(rng, z2, rng.randint(1, 30))
        s = [(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(rng.randint(0, 3))]
        got = set(stabilizer_slice(a, s).elems)
        assert got == oracles.oracle_slice(None, set(a.elems), s)
        nonempty += bool(got) and len(got) < len(a)
    assert nonempty >= 5   # proper, nonempty slices occur, so the comparison has teeth


def test_slice_masks_rows_match_oracle():
    # M[i, j] = 1_A(a_j + s_i); repeated and unreduced shifts, empty shifts and an empty A
    rng = random.Random(29)
    for g in (cyclic(16), cyclic(4, 8), lattice(1), lattice(2)):
        mods = g.moduli if g.is_cyclic else None
        proper = 0
        for _ in range(12):
            a = rand_gset(rng, g, rng.randint(1, 9))
            diffs = list(diffset(a, a).elems)
            shifts = rng.sample(diffs, min(4, len(diffs))) + [diffs[0], diffs[0]]
            if g.is_cyclic:   # the same shifts, unreduced
                shifts += [tuple(c + 3 * m for c, m in zip(s, g.moduli)) for s in shifts[:2]]
            else:
                shifts.append(tuple(rng.randrange(-50, 50) for _ in range(g.dim)))
            member = slice_masks(a, shifts)
            assert member.shape == (len(shifts), len(a)) and member.dtype == bool
            for s, row in zip(shifts, member):
                want = oracles.oracle_slice(mods, set(a.elems), [s])
                assert {e for e, m in zip(a.elems, row) if m} == want
                proper += 0 < len(want) < len(a)
            if g.is_cyclic:   # an unreduced shift gives the row of its reduction
                assert (member[-2] == member[0]).all() and (member[-1] == member[1]).all()
        assert proper >= 5
        a = rand_gset(rng, g, 5)
        assert slice_masks(a, []).shape == (0, 5)
        empty = GSet(g, [])
        assert slice_masks(empty, [(1,) * g.dim, (0,) * g.dim]).shape == (2, 0)
        assert slice_masks(empty, []).shape == (0, 0)


def test_family_sumset_sizes_match_pairwise_sumsets():
    # C20's counts |A - A_s| and |A + A_s| for every s in the popular set P* (the family
    # {A} on the right), and the pair table of |B_i -+ C_j|, with empty and repeated rows
    from hienergy.extract import popular_set
    rng = random.Random(31)
    for g in (cyclic(16), cyclic(4, 8), lattice(1), lattice(2)):
        for _ in range(10):
            a = rand_gset(rng, g, rng.randint(1, 12))
            member = slice_masks(a, popular_set(a).coords)
            member = np.concatenate([member, member[:1], np.zeros((1, len(a)), dtype=bool)])
            whole = np.ones((1, len(a)), dtype=bool)
            right = np.array([rng.random() < 0.5 for _ in range(3 * len(a))]).reshape(3, len(a))
            slices = [a.subset(row) for row in member]
            for sign, op in ((MINUS, diffset), (PLUS, sumset)):
                assert (family_sumset_sizes(a, member, whole, sign)[:, 0].tolist()
                        == [len(op(a, x)) for x in slices])
                want = [[len(op(x, a.subset(row))) for row in right] for x in slices]
                assert family_sumset_sizes(a, member, right, sign).tolist() == want
    empty = GSet(cyclic(8), [])
    assert family_sumset_sizes(empty, np.zeros((3, 0), dtype=bool),
                               np.zeros((2, 0), dtype=bool)).tolist() == [[0, 0]] * 3
    a = zset([0, 1, 3])
    assert family_sumset_sizes(a, np.ones((2, 3), dtype=bool), np.zeros((0, 3), dtype=bool)).shape == (2, 0)


def test_family_sumset_sizes_build_ids_over_the_selected_rows(monkeypatch):
    # a family of a few rows of a 12-element set hands pair_ids only the rows some
    # B_i or C_j selects, and the sizes are the pairwise sumsets'; a family of whole
    # rows, as C20's, still hands it every row
    received, real = [], setops.pair_ids
    monkeypatch.setattr(setops, "pair_ids", lambda a, sign=MINUS: received.append(len(a)) or real(a, sign))
    rng = random.Random(53)
    left = np.zeros((2, 12), dtype=bool)
    left[0, [1, 4]] = left[1, 4] = True
    right = np.zeros((3, 12), dtype=bool)
    right[0, 7] = right[2, [4, 9]] = True
    whole = np.ones((1, 12), dtype=bool)
    for g in (cyclic(64), cyclic(4, 8), lattice(1), lattice(2)):
        a = rand_gset(rng, g, 12)
        for sign, op in ((MINUS, diffset), (PLUS, sumset)):
            received.clear()
            want = [[len(op(a.subset(x), a.subset(y))) for y in right] for x in left]
            assert family_sumset_sizes(a, left, right, sign).tolist() == want
            assert (family_sumset_sizes(a, left, whole, sign)[:, 0].tolist()
                    == [len(op(a.subset(x), a)) for x in left])
            assert received == [4, 12]


def test_family_sumset_sizes_take_the_set_itself_when_every_row_is_used(monkeypatch):
    # a family that uses every row builds no subset and selects no columns; its sizes
    # equal the pairwise sumsets' on Z/N, Z/4xZ/8, Z and Z^2, and a family that leaves
    # a row out still takes one subset
    subsets, real = [], GSet.subset
    monkeypatch.setattr(GSet, "subset", lambda self, mask: subsets.append(int(mask.sum())) or real(self, mask))
    rng = random.Random(59)
    for g in (cyclic(64), cyclic(4, 8), lattice(1), lattice(2)):
        a = rand_gset(rng, g, 10)
        member = np.array([[rng.random() < 0.5 for _ in range(10)] for _ in range(5)] + [[True] * 10])
        rows = [real(a, x) for x in member]
        for sign, op in ((MINUS, diffset), (PLUS, sumset)):
            want = [[len(op(x, y)) for y in rows] for x in rows]
            subsets.clear()
            assert family_sumset_sizes(a, member, member, sign).tolist() == want
            assert family_sumset_sizes(a, member[:5], member[-1:], sign).tolist() == [r[-1:] for r in want[:5]]
            assert subsets == []
            some = member.copy()
            some[:, -1] = False   # the last row of A in no family row
            rows_some = [real(a, x) for x in some]
            assert (family_sumset_sizes(a, some, some, sign).tolist()
                    == [[len(op(x, y)) for y in rows_some] for x in rows_some])
            assert subsets == [9]


def test_pair_ids_name_equal_values_alike():
    # flat ranks in a cyclic product of at most |A|^2 elements, compact ids from a sort
    # elsewhere (Z/128 and Z/8192 with |A| = 9, and the lattices); either way equal ids
    # exactly for equal values a_x -+ a_y, below a bound of at most |A|^2
    rng = random.Random(37)
    for g in (cyclic(13), cyclic(4, 8), cyclic(81), cyclic(128), cyclic(8192), lattice(1), lattice(2)):
        a = rand_gset(rng, g, 9)
        mods = g.moduli if g.is_cyclic else None
        for sign, op in ((MINUS, oracles.sub), (PLUS, oracles.add)):
            ids, bound = pair_ids(a, sign)
            assert ids.shape == (9, 9) and ids.dtype == np.int64
            assert 0 <= ids.min() and ids.max() < bound <= 81
            assert (bound == g.order) == (g.is_cyclic and g.order <= 81)
            values = [[op(mods, x, y) for y in a.elems] for x in a.elems]
            pairs = [(i, j) for i in range(9) for j in range(9)]
            for p, q in itertools.combinations(pairs, 2):
                assert (ids[p] == ids[q]) == (values[p[0]][p[1]] == values[q[0]][q[1]])
    assert pair_ids(GSet(cyclic(8), []))[0].shape == (0, 0)


def test_distinct_counts_take_the_table_or_the_sort_by_size():
    # the table where count x width is within the key count, the sort past it: the same
    # counts either way, against a Python set per row, with repeated, absent and empty
    # rows; a width of 2^40 over three keys allocates no table
    rng = random.Random(47)
    for count, width, size in ((3, 4, 40), (3, 4, 12), (3, 4, 11), (5, 1000, 30), (4, 7, 0)):
        rows = np.array([rng.randrange(count - 1) for _ in range(size)], dtype=np.int64)
        ids = np.array([rng.randrange(width) for _ in range(size)], dtype=np.int64)
        want = [len({i for r, i in zip(rows.tolist(), ids.tolist()) if r == row})
                for row in range(count)]
        got = distinct_counts(rows, ids, count, width)
        assert got.tolist() == want and want[-1] == 0 and got.dtype == np.int64
    big = distinct_counts(np.array([0, 2, 2]), np.array([5, 1 << 39, 5]), 3, 1 << 40)
    assert big.tolist() == [1, 0, 2]


def test_family_energies_match_the_oracle():
    # every row's E_2 is the brute-force E_2 of the subset it selects, through the
    # id count: random, empty, one-element, full and repeated rows, on both kinds of ids
    rng = random.Random(43)
    for g in (cyclic(13), cyclic(4, 8), cyclic(8192), lattice(1), lattice(2)):
        mods = g.moduli if g.is_cyclic else None
        for size in (1, 2, 7, 12):
            a = rand_gset(rng, g, size)
            rows = [[rng.random() < 0.5 for _ in range(size)] for _ in range(4)]
            j = rng.randrange(size)
            one = [i == j for i in range(size)]
            rows += [[False] * size, one, [True] * size, rows[0], one]
            member = np.array(rows, dtype=bool).reshape(len(rows), size)
            want = [oracles.oracle_energy_k(mods, set(a.subset(row).elems), 2) for row in member]
            assert want[4:7] == [0, 1, oracles.oracle_energy_k(mods, set(a.elems), 2)]
            assert setops.family_energies(a, member) == want
    assert setops.family_energies(GSet(cyclic(8), []), np.zeros((2, 0), dtype=bool)) == [0, 0]


def test_slice_family_blocks_give_the_unblocked_results(monkeypatch):
    # blocks of a few entries force many blocks, some of a single row
    from hienergy import extract
    rng = random.Random(41)
    for g in (cyclic(4, 8), lattice(2)):
        a = rand_gset(rng, g, 11)
        shifts = diffset(a, a).coords
        member = slice_masks(a, shifts)
        sizes = family_sumset_sizes(a, member, member, PLUS)
        energies = extract._slice_energies(a, member)
        monkeypatch.setattr(setops, "_BLOCK", 5)
        assert (slice_masks(a, shifts) == member).all()
        assert (family_sumset_sizes(a, member, member, PLUS) == sizes).all()
        assert (extract._slice_energies(a, member) == energies).all()
        monkeypatch.undo()


def test_row_algebra_matches_brute_force():
    # flat ranks do not add in a product group, so Z/4xZ/8 separates row sums from rank sums
    rng = random.Random(17)
    for g in [cyclic(4, 8), lattice(2)]:
        mods = g.moduli if g.is_cyclic else None
        for _ in range(10):
            pts = [(rng.randrange(-9, 9), rng.randrange(-9, 9)) for _ in range(rng.randint(1, 7))]
            qts = [(rng.randrange(-9, 9), rng.randrange(-9, 9)) for _ in range(rng.randint(1, 7))]
            a, b = GSet(g, pts), GSet(g, qts)
            xs, ys = set(a.elems), set(b.elems)
            assert set(sumset(a, b).elems) == {oracles.add(mods, x, y) for x in xs for y in ys}
            assert set(diffset(a, b).elems) == {oracles.sub(mods, x, y) for x in xs for y in ys}
            s = [oracles.sub(mods, y, x) for x, y in zip(sorted(xs), sorted(ys))][:2]
            assert set(stabilizer_slice(a, s).elems) == oracles.oracle_slice(mods, xs, s)


def test_delta_sumset_examples():
    a = zset([0, 1, 3])
    assert delta_sumset([a, a], a, MINUS) == 25
    assert delta_sumset([a, a], a, PLUS) == 24
    assert delta_sumset([a], a, MINUS) == 7


def test_delta_sumset_against_oracle():
    rng = random.Random(11)
    for _ in range(25):
        g = rng.choice([cyclic(12), cyclic(3, 4), lattice(1), lattice(2)])
        k = rng.randint(1, 3)
        sets = [rand_gset(rng, g, rng.randint(1, 4)) for _ in range(k)]
        b = rand_gset(rng, g, rng.randint(1, 4))
        sign = rng.choice([MINUS, PLUS])
        want = oracles.oracle_delta_sumset(g.moduli if g.is_cyclic else None,
                                           [set(s.elems) for s in sets], set(b.elems), sign)
        assert delta_sumset(sets, b, sign) == len(want)


def ravel_reference_grid(sets, c, sign):
    """The |C| x prod |A_i| grid of A_1 x ... x A_k -+ Delta(C), each tuple
    raveled whole by np.ravel_multi_index: coordinates reduced mod the
    moduli in a cyclic group, else taken relative to the box of each A_i -+ C."""
    g, d = c.group, c.group.dim
    shift = -c.coords if sign == MINUS else c.coords
    rels = [a.coords[None] + shift[:, None] for a in sets]   # |C| x |A_i| x d
    if g.is_cyclic:
        rels = [r % g.moduli for r in rels]
        offsets, radices = [np.zeros(d, dtype=np.int64)] * len(sets), list(g.moduli) * len(sets)
    else:
        offsets = [r.reshape(-1, d).min(axis=0) for r in rels]
        radices = [int(v) for r, lo in zip(rels, offsets) for v in r.reshape(-1, d).max(axis=0) - lo + 1]
    grid = []
    for j in range(len(c)):
        cols = [np.concatenate([r[j, x] - lo for r, x, lo in zip(rels, xs, offsets)])
                for xs in itertools.product(*(range(len(a)) for a in sets))]
        grid.append(np.ravel_multi_index(np.array(cols).T, radices))
    return np.array(grid).reshape(len(c), -1)


def test_translate_grid_matches_the_raveled_reference():
    rng = random.Random(61)
    for g in (cyclic(64), cyclic(4, 8), lattice(1), lattice(2)):
        for k in (1, 2, 3):
            for sign in (MINUS, PLUS):
                for _ in range(3):
                    sets = [rand_gset(rng, g, rng.randint(1, 5)) for _ in range(k)]
                    c = rand_gset(rng, g, rng.randint(1, 5))
                    got = setops._translate_grid(sets, c, sign, Caps())
                    assert got.dtype == np.int64
                    assert np.array_equal(got, ravel_reference_grid(sets, c, sign))
    far = GSet(lattice(2), [(0, 0), (1 << 40, 1 << 40)])
    with pytest.raises(CapExceededError, match="62 bits"):
        setops._translate_grid([far], far, MINUS, Caps())


def test_dk_sk_slice_identity():
    # D_k(A) = sum over s in (A-A)^(k-1) of |A - A_s| and S_k(A) = sum_s |A + A_s|: the
    # right sides run through stabilizer_slice and diffset/sumset, the left through the kernel
    rng = random.Random(23)
    for g in (cyclic(12), cyclic(3, 4), lattice(1)):
        for _ in range(8):
            a = rand_gset(rng, g, rng.randint(1, 6))
            diffs = diffset(a, a).elems
            for k in (1, 2, 3):
                slices = [stabilizer_slice(a, s) for s in itertools.product(diffs, repeat=k - 1)]
                assert d_k(a, k) == sum(len(diffset(a, x)) for x in slices)
                assert s_k(a, k) == sum(len(sumset(a, x)) for x in slices)


def test_delta_sumset_k1_agrees_with_diffset_sumset():
    rng = random.Random(2)
    for i in range(100):
        g = rng.choice([cyclic(32), cyclic(4, 8), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 8))
        b = rand_gset(rng, g, rng.randint(1, 8))
        assert delta_sumset([a], b, MINUS) == len(diffset(a, b))
        assert delta_sumset([a], b, PLUS) == len(sumset(a, b))


def test_basis_depth_examples():
    g5 = cyclic(5)
    assert basis_depth_test(full_group(g5), 3, MINUS)[0] is True
    qr13 = GSet(cyclic(13), [1, 3, 4, 9, 10, 12])
    assert basis_depth_test(qr13, 1, MINUS)[0] is True
    ok, witness = basis_depth_test(GSet(g5, [0, 1]), 1, MINUS)
    assert not ok and witness == ((2,),)


def test_basis_depth_matches_membership_definition():
    # the products put the slot layout of a multi-dimensional witness under the oracle
    rng = random.Random(3)
    products = [cyclic(2, 3), cyclic(2, 4), cyclic(3, 3)]
    for i in range(60):
        g = cyclic(rng.choice([5, 6, 7])) if i < 20 else products[i % 3]
        b = rand_gset(rng, g, rng.randint(2, g.order))
        for sign in (MINUS, PLUS):
            ok, witness = basis_depth_test(b, 2, sign)
            # explicit membership sweep
            holes, mods, members = [], g.moduli, set(b.elems)
            elems = list(oracles.enumerate_elements(mods))
            for x1 in elems:
                for x2 in elems:
                    if sign == MINUS:
                        hit = any(all(oracles.add(mods, z, xi) in members for xi in (x1, x2))
                                  and z in members for z in elems)
                    else:
                        hit = any(all(oracles.sub(mods, xi, z) in members for xi in (x1, x2))
                                  and z in members for z in elems)
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
    for g in (cyclic(16), cyclic(4, 8), lattice(1), lattice(2)):
        mods = g.moduli if g.is_cyclic else None
        for _ in range(6):
            a = rand_gset(rng, g, rng.randint(1, 8))
            b = rand_gset(rng, g, rng.randint(1, 5))
            assert magnification(a, b) == magnification_k(a, b, 1)
            for k in (1, 2):
                r, z = magnification_k(a, b, k)
                want, _ = oracles.oracle_magnification(mods, a.elems, b.elems, k)
                assert r == want
                # the witness attains the ratio
                plus = {tuple(oracles.add(mods, x, y) for x in xs)
                        for xs in itertools.product(b.elems, repeat=k) for y in z.elems}
                assert z and z.issubset(a) and Fraction(len(plus), len(z)) == r


def whole_bound_search(grid):
    """The magnification search pruning a node's supersets against all
    n_elems rows rather than the rows still reachable from it, with the
    number of calls of its `rec`."""
    n_elems = len(grid)
    rows = [set(r) for r in grid.tolist()]
    best, calls = [0, 0, ()], []

    def rec(start, size, union, chosen):
        calls.append(1)
        for j in range(start, n_elems):
            union2 = union | rows[j]
            count = len(union2)
            chosen.append(j)
            if best[1] == 0 or count * best[1] < best[0] * (size + 1):
                best[:] = [count, size + 1, tuple(chosen)]
            if count * best[1] < best[0] * n_elems:
                rec(j + 1, size + 1, union2, chosen)
            chosen.pop()

    rec(0, 0, set(), [])
    return (Fraction(best[0], best[1]), best[2]), len(calls)


def counted_search(grid):
    """setops._magnification_search(grid) and the number of calls of its `rec`."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rec" and frame.f_code.co_filename == setops.__file__:
            calls.append(1)
    sys.setprofile(profile)
    try:
        found = setops._magnification_search(grid)
    finally:
        sys.setprofile(None)
    return found, len(calls)


def test_magnification_prunes_by_the_reachable_size():
    # each node's supersets reach at most size + n_elems - j elements: the
    # bound prunes more than one over all n_elems, and finds the same
    # ratio and witness as the whole-size bound and the oracle's ratio
    rng = random.Random(67)
    fewer = 0
    for g in (cyclic(32), cyclic(4, 8), lattice(1), lattice(2)):
        mods = g.moduli if g.is_cyclic else None
        for _ in range(8):
            a = rand_gset(rng, g, rng.randint(1, 10))
            b = rand_gset(rng, g, rng.randint(1, 4))
            for k in (1, 2):
                grid = setops._translate_grid([b] * k, a, PLUS, Caps())
                (ratio, chosen), calls = counted_search(grid)
                found, whole_calls = whole_bound_search(grid)
                assert (ratio, chosen) == found and calls <= whole_calls
                assert ratio == oracles.oracle_magnification(mods, a.elems, b.elems, k)[0]
                fewer += calls < whole_calls
    assert fewer > 0


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
        lhs = delta_sumset([a1, a2], amb, MINUS)
        rhs = g.order * delta_sumset([a1], a2, MINUS)
        assert lhs == rhs
        # coordinate swap |Y x Z - D(X)| = |Y x X - D(Z)|
        x = rand_gset(rng, g, rng.randint(1, 4))
        z = rand_gset(rng, g, rng.randint(1, 4))
        assert delta_sumset([a1, z], x, MINUS) == delta_sumset([a1, x], z, MINUS)


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
