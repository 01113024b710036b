import numpy as np
import pytest

import oracles
from hienergy import groups
from hienergy.gset import GSet, SetFileError, dumps_set, loads_set, zset
from hienergy.groups import cyclic, lattice


def test_normalization_and_order():
    a = GSet(cyclic(5), [7, 3, 3, -1])
    assert a.elems == ((2,), (3,), (4,))
    assert 7 in a and (2,) in a and 0 not in a


def test_int_elements_wrap_to_tuples():
    a = zset([3, 1, 0])
    assert a.elems == ((0,), (1,), (3,))
    assert len(a) == 3


def test_group_mismatch_rejected():
    a = zset([0, 1])
    b = GSet(cyclic(4), [0, 1])
    with pytest.raises(groups.GroupError):
        a.intersect(b)


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
        assert set(a.intersect(b).elems) == set(pts) & set(qts)
        assert set(a.union(b).elems) == set(pts) | set(qts)
        assert a.intersect(b).issubset(a) and not a.issubset(b)
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
