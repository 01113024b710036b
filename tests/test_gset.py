import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hienergy import groups
from hienergy.gset import GSet, SetFileError, as_rows, dumps_set, loads_set, row_keys, sum_rows, zset
from hienergy.groups import cyclic, lattice


def test_normalization_and_order():
    a = GSet(cyclic(5), [7, 3, 3, -1])
    assert a.elems == ((2,), (3,), (4,))
    assert 7 in a and (2,) in a and 0 not in a


def test_int_elements_wrap_to_tuples():
    a = zset([3, 1, 0])
    assert a.elems == ((0,), (1,), (3,))
    assert len(a) == 3


def test_as_rows_reduces_only_out_of_range_rows():
    g = cyclic(4, 8, 8192)
    rows = np.array([[3, 7, 8191], [0, 0, 5000], [1, 2, 3]], dtype=np.int64)
    assert as_rows(g, rows) is rows   # every column below its own modulus
    for bad in ([[4, 0, 0]], [[0, 8, 0]], [[0, 0, 8192]], [[0, -1, 0]]):
        out = as_rows(g, np.array(bad, dtype=np.int64))
        assert out.tolist() == [[c % n for c, n in zip(bad[0], g.moduli)]]


def test_flat_lists_read_as_asarray_reads_them(monkeypatch):
    # a list that starts with a Python int takes one np.fromiter, with
    # np.asarray's values and errors; rows and other lists take np.asarray
    read = []
    real = np.fromiter
    monkeypatch.setattr(np, "fromiter", lambda *args: read.append(args[0]) or real(*args))
    z, z7 = lattice(1), cyclic(7)
    for elems, fromiter in (([5, -3, 1 << 62, -(1 << 62) + 1], True), ([True, False, True], True),
                            ([4, np.int64(9), 2.5, "6"], True), ([2.7, -1.5, 3.0], False),
                            (["12", " -4 ", "0"], False), ([], False)):
        want = np.asarray(elems, dtype=np.int64).reshape(-1, 1)
        read.clear()
        got = as_rows(z, elems)
        assert got.dtype == np.int64 and np.array_equal(got, want) and read == [elems] * fromiter, elems
        assert np.array_equal(as_rows(z7, elems), want % 7)
    for bad in ([1 << 63], [3, None], [None], [1, "x"], [1, float("nan")], [1, (2,)]):
        with pytest.raises(groups.GroupError, match="integer coordinates"):
            as_rows(z, bad)
        with pytest.raises((OverflowError, TypeError, ValueError)):
            np.asarray(bad, dtype=np.int64)
    rows = [(1, 2), [3, -4], np.array([5, 6])]
    read.clear()
    assert as_rows(lattice(2), rows).tolist() == [[1, 2], [3, -4], [5, 6]] and read == []
    assert as_rows(z, [[7], [8]]).tolist() == [[7], [8]]


def test_sum_rows_match_as_rows_on_reduced_rows():
    # sums and differences of reduced rows, outer (x_i -+ y_j at row i len(y) + j) and
    # paired, reduce as as_rows reduces them, extremes 0 and m - 1 included; a lattice
    # sum is the plain sum, unreduced
    rng = np.random.default_rng(23)
    for g in (cyclic(13), cyclic(4, 8), cyclic(2, 3, 8192), cyclic(1 << 40)):
        mods = np.array(g.moduli, dtype=np.int64)
        x = np.concatenate([rng.integers(0, mods, (30, g.dim)), [mods - 1, mods * 0]])
        y = np.concatenate([rng.integers(0, mods, (20, g.dim)), [mods * 0, mods - 1]])
        for minus in (False, True):
            raw = x[:, None] - y[None] if minus else x[:, None] + y[None]
            got = sum_rows(g, x[:, None], y[None], minus)
            assert got.shape == (32 * 22, g.dim) and got.dtype == np.int64
            assert np.array_equal(got, as_rows(g, raw.reshape(-1, g.dim)))
            assert ((got >= 0) & (got < mods)).all()
            paired = sum_rows(g, x[:22], y, minus)
            assert np.array_equal(paired, as_rows(g, (x[:22] - y if minus else x[:22] + y)))
    for g in (lattice(1), lattice(2)):
        x = rng.integers(-(1 << 61), 1 << 61, (9, g.dim))
        y = rng.integers(-(1 << 61), 1 << 61, (7, g.dim))
        for minus in (False, True):
            raw = x[:, None] - y[None] if minus else x[:, None] + y[None]
            assert np.array_equal(sum_rows(g, x[:, None], y[None], minus), raw.reshape(-1, g.dim))


def test_group_mismatch_rejected():
    a = zset([0, 1])
    b = GSet(cyclic(4), [0, 1])
    with pytest.raises(groups.GroupError):
        a.issubset(b)


def test_file_round_trip_bit_exact(tmp_path):
    for a in [zset([0, 1, 3]), GSet(cyclic(4, 2), [(0, 1), (3, 0)]),
              GSet(lattice(2), [(-1, 5), (2, -3)])]:
        text = dumps_set(a)
        assert dumps_set(loads_set(text)) == text
        path = tmp_path / "s.txt"
        path.write_text(text)
        assert loads_set(path.read_text()) == a


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SetFileError) as exc:
        loads_set("group: Z/8\n1\nbananas\n")
    assert exc.value.line == 3
    with pytest.raises(SetFileError) as exc:
        loads_set("elements: none\n")
    assert exc.value.line == 1


def test_indicator_and_flat_indices():
    a = GSet(cyclic(4, 2), [(0, 1), (3, 0)])
    ind = a.indicator()
    assert ind.shape == (4, 2)
    assert ind.sum() == 2 and ind[0, 1] == 1 and ind[3, 0] == 1
    assert list(a.flat_indices()) == [1, 6]


def test_stored_rows_match_sorted_tuples():
    pts = [(3, -1), (-2, 5), (3, -1), (-2, -7), (0, 0), (-5, 4)]
    a = GSet(lattice(2), pts)
    assert a.elems == tuple(sorted(set(pts)))
    assert a.coords.shape == (5, 2) and a.coords.dtype == np.int64
    assert type(a.elems[0][0]) is int  # reprs of elements seed derived samples
    assert GSet(cyclic(4, 8), [(5, -1), (1, 7)]).elems == ((1, 7),)


def test_one_dimensional_sets_sort_negatives_and_drop_duplicates():
    # 1-D sets are built by a plain sort, lattice or cyclic
    a = zset([7, -3, 0, -3, 12, 7, -40, 0])
    assert a.elems == ((-40,), (-3,), (0,), (7,), (12,))
    assert a.coords.shape == (5, 1) and a.coords.flags.writeable is False
    assert zset(np.array([5, 5, -5])) == zset([-5, 5])
    assert GSet(cyclic(10), [-1, 9, 19, -11, 3]).elems == ((3,), (9,))
    assert len(zset([])) == 0 and zset([]).coords.shape == (0, 1)


def test_array_input_matches_list_input():
    rows = [(3, -1), (-2, 5), (3, -1)]
    assert GSet(lattice(2), np.array(rows, dtype=np.int64)) == GSet(lattice(2), rows)
    assert GSet(cyclic(12), np.array([13, -1, 5])) == GSet(cyclic(12), [13, -1, 5])
    assert len(GSet(lattice(3), np.zeros((0, 3), dtype=np.int64))) == 0
    # a list, tuple, range or array goes to NumPy as it is, a generator through one list
    r = range(-3, 70, 7)
    for g in (cyclic(64), lattice(1)):
        sets = [GSet(g, form) for form in (list(r), tuple(r), r, (x for x in r), np.array(r, dtype=np.int64))]
        want = sorted({x % 64 for x in r}) if g.is_cyclic else list(r)
        assert all(s == sets[0] for s in sets) and sets[0].coords[:, 0].tolist() == want
    sets = [GSet(lattice(2), form) for form in (rows, tuple(rows), iter(rows))]
    assert all(s == GSet(lattice(2), np.array(rows, dtype=np.int64)) for s in sets)


def test_repeats_and_distinct_elements_give_one_read_only_set():
    # without repeats the sorted keys are kept as they are, not compressed
    for g, elems in ((cyclic(64), [9, 70, 3, 41]), (lattice(1), [5, -8, 13, 0]),
                     (cyclic(4, 6), [(1, 5), (3, 0), (0, 2)]), (lattice(2), [(3, -1), (-2, 5), (0, 0)])):
        given = np.array(elems, dtype=np.int64)
        plain, repeated = GSet(g, given), GSet(g, elems + elems[::2])
        assert plain.keys.tolist() == repeated.keys.tolist()
        assert plain.coords.tolist() == repeated.coords.tolist()
        for s in (plain, repeated):
            assert not s.keys.flags.writeable and not s.coords.flags.writeable
        assert given.flags.writeable and given.tolist() == np.array(elems).tolist()   # the input is not taken


def test_coordinates_that_could_wrap_are_rejected():
    for c in (1 << 62, -(1 << 62), 1 << 70):
        with pytest.raises(groups.GroupError):
            zset([0, c])
    with pytest.raises(groups.GroupError):
        GSet(lattice(2), [(1, 2, 3)])
    big = zset([(1 << 62) - 1, -(1 << 62) + 1])
    with pytest.raises(groups.GroupError):
        big.translate(1)


def test_array_algebra_matches_tuple_algebra():
    for g, pts, qts in [(cyclic(4, 8), [(0, 1), (3, 7), (2, 2)], [(3, 7), (1, 1)]),
                        (lattice(2), [(0, -1), (-3, 7), (2, 2)], [(-3, 7), (1, 1)])]:
        mods = g.moduli if g.is_cyclic else None
        a, b = GSet(g, pts), GSet(g, qts)
        t = (1, 5)
        assert set(a.translate(t).elems) == {oracles.add(mods, x, t) for x in pts}
        assert set(a.negate().elems) == {oracles.sub(mods, (0, 0), x) for x in pts}
        common = a.subset(b.isin(a.coords))
        assert set(common.elems) == set(pts) & set(qts)
        assert set(GSet(g, np.concatenate([a.coords, b.coords])).elems) == set(pts) | set(qts)
        assert common.issubset(a) and not a.issubset(b)
        assert hash(a) == hash(GSet(g, a.coords)) and a != b


def test_subset_selects_rows_without_a_rebuild():
    for a in [GSet(cyclic(4, 8), [(0, 1), (3, 7), (2, 2), (1, 5)]), zset([-4, 0, 9, 11]),
              GSet(lattice(2), [(0, -1), (-3, 7), (2, 2)])]:
        mask = np.arange(len(a)) % 2 == 0
        sub = a.subset(mask)
        assert sub == GSet(a.group, a.coords[mask]) and sub.group == a.group
        assert not sub.coords.flags.writeable and sub._kept == {}
        assert vars(sub).keys() == vars(GSet(a.group, a.coords[mask])).keys()
        assert a.subset(np.zeros(len(a), dtype=bool)) == GSet(a.group, [])
        assert a.subset(np.ones(len(a), dtype=bool)) == a
        for bad in (np.arange(len(a)) % 2, np.ones(len(a) + 1, dtype=bool)):
            with pytest.raises(ValueError):
                a.subset(bad)
    empty = GSet(cyclic(8), [])
    assert len(empty.subset(np.zeros(0, dtype=bool))) == 0


# --- the one element key --------------------------------------------------

KEY_GROUPS = st.one_of(st.sampled_from([cyclic(4, 8), cyclic(3, 5, 7), cyclic(512, 512),
                                        lattice(1), lattice(2)]),
                       st.integers(2, 1 << 40).map(cyclic))
BIG = (1 << 62) - 1


@st.composite
def group_and_rows(draw):
    """A group and up to 40 rows of it, reduced in a cyclic product; lattice
    coordinates mix small values (ties in the leading column) with ones up to 2^62."""
    g = draw(KEY_GROUPS)
    if g.is_cyclic:
        cols = [st.integers(0, n - 1) for n in g.moduli]
    else:
        cols = [st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))] * g.dim
    rows = draw(st.lists(st.tuples(*cols), max_size=40))
    return g, rows + draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else rows


def as_matrix(g, rows):
    return np.array(rows, dtype=np.int64).reshape(-1, g.dim)


@settings(max_examples=150, deadline=None)
@given(group_and_rows())
def test_key_order_is_lexicographic_order(case):
    g, rows = case
    mat = as_matrix(g, rows)
    keys = row_keys(g, mat)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(mat.T[::-1]))
    same = (mat[:, None] == mat[None]).all(axis=2)
    assert np.array_equal(keys[:, None] == keys[None], same)


@settings(max_examples=150, deadline=None)
@given(group_and_rows(), st.lists(st.integers(-(1 << 41), 1 << 41), min_size=0, max_size=3))
def test_gset_rows_and_membership_match_python_sets(case, shift):
    g, rows = case
    mods = g.moduli if g.is_cyclic else None
    a = GSet(g, rows)
    assert a.elems == tuple(sorted(set(rows)))
    assert not a.keys.flags.writeable and np.array_equal(a.keys, row_keys(g, a.coords))
    if g.dim == 1 and len(a):
        assert np.shares_memory(a.keys, a.coords)   # a view: no second copy
    # probes: the rows themselves and shifted rows, reduced in a cyclic product
    delta = tuple((shift + [0] * g.dim)[:g.dim])
    if not g.is_cyclic:
        delta = tuple(c % 7 for c in delta)   # stay inside (-2^62, 2^62)
    else:   # the same elements given off their residues build the same set
        for wrap in ([d % 5 - 2 for d in delta], [1] + [0] * (g.dim - 1)):
            assert GSet(g, [tuple(c + n * w for c, n, w in zip(r, mods, wrap)) for r in rows]) == a
    probes = rows + [oracles.add(mods, r, delta) if mods else tuple(x - d for x, d in zip(r, delta))
                     for r in rows]
    probes = [p for p in probes if all(abs(c) <= BIG for c in p)]
    assert a.isin(as_matrix(g, probes)).tolist() == [p in set(rows) for p in probes]


@settings(max_examples=150, deadline=None)
@given(group_and_rows())
def test_flat_indices_are_row_major_ranks_without_the_indicator(case):
    g, rows = case
    if not g.is_cyclic:
        with pytest.raises(groups.GroupError):
            GSet(g, rows).flat_indices()
        return
    a = GSet(g, rows)
    strides = [math.prod(g.moduli[j + 1:]) for j in range(g.dim)]
    ranks = sorted({sum(c * s for c, s in zip(r, strides)) for r in rows})
    assert a.flat_indices().tolist() == ranks
    assert "_dense" not in vars(a)   # the ranks are the kept keys, not the indicator's
    if g.order <= 1 << 20:
        assert np.flatnonzero(a.indicator()).tolist() == ranks


def test_keys_follow_subset_translate_and_union():
    g = cyclic(4, 8)
    a = GSet(g, [(3, 1), (0, 7), (1, 0), (0, 2), (3, 1)])
    assert a.keys.tolist() == [2, 7, 8, 25]
    assert a.subset(np.array([True, False, True, True])).keys.tolist() == [2, 8, 25]
    assert a.translate((1, 1)).keys.tolist() == [2, 8, 11, 17]
    assert GSet(g, np.concatenate([a.coords, a.negate().coords])).elems == tuple(sorted(
        {tuple(r) for r in a.coords.tolist()} | {((-x) % 4, (-y) % 8) for x, y in a.coords.tolist()}))


def test_order_bound_on_cyclic_products():
    with pytest.raises(groups.GroupError, match="2\\^62"):
        cyclic(1 << 31, 1 << 31)
    with pytest.raises(groups.GroupError):
        groups.parse_group(f"Z/{1 << 62}")
    g = cyclic(1 << 61)
    a = GSet(g, [(1 << 61) - 1, -1, 5])
    assert a.flat_indices().tolist() == [5, (1 << 61) - 1]
    assert cyclic((1 << 31) - 1, 1 << 31).order < 1 << 62
