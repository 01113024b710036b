import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hienergy import checks, eigen, genset, groups, moments, setops
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, full_group, zset
from hienergy.eigen import (build_gram, magnification_lower_bounds, singular_spectrum,
                            subgroup_eigencheck)
from oracles import jacobi_eigenvalues


def rand_gset(rng, g, size):
    if g.is_cyclic:
        return GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(g.order), size)])
    return GSet(g, rng.sample(range(40), size))


def test_gram_examples():
    b = zset([0, 1])
    pg = build_gram(b, b, 1)
    assert pg.gram.tolist() == [[2, 1], [1, 2]]
    single = zset([4])
    assert build_gram(single, single, 1).gram.tolist() == [[1]]
    assert int(np.trace(pg.gram)) == 4


def test_gram_entries_match_brute_force():
    for g, pts, qts in [(cyclic(4, 8), [(0, 1), (3, 7), (2, 2)], [(3, 7), (1, 1), (0, 6)]),
                        (lattice(2), [(0, -1), (-3, 7), (2, 2)], [(-3, 7), (1, 1), (0, 6)])]:
        mods = g.moduli if g.is_cyclic else None
        a, b = GSet(g, pts), GSet(g, qts)
        shifted = {y: {oracles.sub(mods, x, y) for x in b.elems} for y in a.elems}
        want = [[len(shifted[y] & shifted[z]) ** 2 for z in a.elems] for y in a.elems]
        assert build_gram(a, b, 2).gram.tolist() == want


def test_gram_entries_stop_at_int64():
    b = zset([0, 1])
    assert build_gram(b, b, 62).gram.tolist() == [[1 << 62, 1], [1, 1 << 62]]
    with pytest.raises(OverflowError):
        build_gram(b, b, 63)   # |B|^k = 2^63 would wrap


def test_singular_spectrum_examples():
    b = zset([0, 1])
    lam2 = singular_spectrum(build_gram(b, b, 1))
    assert np.allclose(lam2, [3, 1])
    assert float((lam2 ** 2).sum()) == pytest.approx(10)
    want = oracles.oracle_gram_2x2_eigs(2, 1, 2)
    assert lam2[0] == pytest.approx(want[0]) and lam2[1] == pytest.approx(want[1])
    single = zset([4])
    assert np.allclose(singular_spectrum(build_gram(single, single, 2)), [1])


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        m = rng.standard_normal((n, n)) * 10 ** rng.integers(0, 3)
        s = (m + m.T) / 2
        lam = jacobi_eigenvalues(s)
        ref = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.abs(lam - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_gram_invariants_random():
    rng = random.Random(7)
    for _ in range(20):
        g = rng.choice([cyclic(24), lattice(1)])
        a = rand_gset(rng, g, rng.randint(1, 12))
        b = rand_gset(rng, g, rng.randint(1, 8))
        for k in (1, 2, 3):
            pg = build_gram(a, b, k)
            lam2 = singular_spectrum(pg)
            assert round(float(lam2.sum())) == len(a) * len(b) ** k
            frob = float(moments.energy_k_pair(a, b, 2 * k + 1))
            assert math.isclose(float((lam2 ** 2).sum()), frob, rel_tol=1e-8)
            # sign invariance
            lam2n = singular_spectrum(build_gram(a.negate(), b.negate(), k))
            assert np.abs(lam2 - lam2n).max() <= 1e-10 * max(1.0, lam2[0])


def test_lambda1_floor():
    rng = random.Random(11)
    for _ in range(15):
        a = rand_gset(rng, cyclic(20), rng.randint(2, 8))
        b = rand_gset(rng, cyclic(20), rng.randint(2, 6))
        for k in (1, 2):
            lam2 = singular_spectrum(build_gram(a, b, k))
            floor = float(moments.energy_k_pair(a, b, k + 1)) / len(a)
            assert lam2[0] >= floor * (1 - 1e-9)


def test_magnification_bounds_examples():
    b = zset([0, 1])
    bounds = magnification_lower_bounds(b, b, 1)
    assert bounds["bound_eig"] == pytest.approx(4 / 3)
    assert bounds["bound_energy"] == pytest.approx(4 / math.sqrt(10))
    r, _ = setops.magnification(b, b)
    assert bounds["bound_eig"] <= float(r)
    k2 = magnification_lower_bounds(b, b, 2)
    assert k2["bound_energy"] == pytest.approx(16 / math.sqrt(34))
    r2, _ = setops.magnification_k(b, b, 2)
    assert k2["bound_eig"] <= float(r2) + 1e-9
    g = cyclic(6)
    full = full_group(g)
    fb = magnification_lower_bounds(full, full, 1)
    assert fb["bound_eig"] == pytest.approx(1.0)


def test_bounds_below_exact_magnification():
    rng = random.Random(13)
    for _ in range(10):
        g = rng.choice([cyclic(16), lattice(1)])
        a = rand_gset(rng, g, rng.randint(2, 6))
        b = rand_gset(rng, g, rng.randint(2, 5))
        for k in (1, 2):
            bounds = magnification_lower_bounds(a, b, k)
            r, _ = setops.magnification_k(a, b, k)
            assert bounds["bound_eig"] <= float(r) * (1 + 1e-9)
            assert bounds["bound_energy"] <= bounds["bound_eig"] * (1 + 1e-9)


# The float operator f -> psi . (phi^c^ * f) is an oracle (tests/oracles.py):
# the package's restricted operator on a subgroup is the integer pattern Gram.


def test_operator_identity_and_bilinear_form():
    rng = np.random.default_rng(19)
    n = 8
    # phi with phi^c^ = delta_0 makes T the identity: phi == 1/N constant
    phi = np.full(n, 1.0 / n, dtype=np.complex128)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = oracles.operator_apply((n,), phi, np.ones(n), f)
    assert np.abs(out - f).max() < 1e-9
    for _ in range(20):
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        e_idx = sorted(rng.choice(n, size=5, replace=False).tolist())
        u = np.zeros(n, dtype=np.complex128)
        v = np.zeros(n, dtype=np.complex128)
        u[e_idx] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v[e_idx] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert oracles.bilinear_residual((n,), phi, e_idx, u, v) < 1e-8


def test_operator_matrix_symmetric_for_symmetric_real_phi():
    rng = np.random.default_rng(23)
    half = rng.standard_normal(7)
    phi = np.zeros(12)
    phi[0] = half[0]
    for i in range(1, 7):
        phi[i] = half[i]
        phi[-i] = half[i]
    mat = oracles.restricted_matrix((12,), phi.astype(np.complex128), [0, 2, 5, 7])
    assert np.abs(mat - mat.T.conj()).max() < 1e-9


def test_restricted_matrix_is_the_operator_on_e_in_every_product():
    # entry (i, j) is the kernel at x_i - x_j: on Z/4xZ/6 a difference of
    # row-major ranks mod 24 is not the rank of the difference
    rng = np.random.default_rng(3)
    for mods in ((12,), (4, 6), (2, 3, 4)):
        n = math.prod(mods)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        idx = np.flatnonzero(rng.random(mods) < 0.4)
        f = np.zeros(n, dtype=np.complex128)
        f[idx] = rng.standard_normal(len(idx))
        mat = oracles.restricted_matrix(mods, phi, idx)
        assert np.abs(mat @ f[idx] - oracles.operator_apply(mods, phi, np.ones(n), f)[idx]).max() < 1e-9


def test_subgroup_eigencheck_13():
    gamma = genset.mult_subgroup(13, 3)
    rep = subgroup_eigencheck(gamma)
    assert rep.t == 3 and len(rep.eigenvalues) == 3
    assert max(rep.residuals) < 1e-8
    assert rep.max_at_trivial and rep.connected_ok
    rep2 = subgroup_eigencheck(gamma, base_set=gamma, k=1)
    assert rep2.claimed_ratio == pytest.approx(1.0, abs=1e-9)
    trivial = subgroup_eigencheck(genset.mult_subgroup(13, 1))
    assert trivial.t == 1 and len(trivial.eigenvalues) == 1


def test_subgroup_eigencheck_rejects_bad_inputs():
    with pytest.raises(ValueError):
        subgroup_eigencheck(GSet(cyclic(13), [1, 2]))  # not closed
    with pytest.raises(ValueError):
        subgroup_eigencheck(GSet(cyclic(12), [1, 5]))  # 12 not prime
    gamma = genset.mult_subgroup(13, 3)
    with pytest.raises(ValueError):
        subgroup_eigencheck(gamma, base_set=GSet(cyclic(13), [1, 2]))  # not invariant


def test_subgroup_characters_are_multiplicative_on_sorted_elements():
    for p, t in [(13, 4), (31, 6), (101, 20)]:
        gamma = genset.mult_subgroup(p, t)
        h = pow(genset.primitive_root(p), (p - 1) // t, p)
        chars = eigen.subgroup_characters(p, t, h)
        elems = gamma.coords[:, 0].tolist()
        at = {x: j for j, x in enumerate(elems)}
        assert chars.shape == (t, t) and np.abs(chars[0] - 1).max() == 0
        for x in elems:
            for y in elems:
                assert np.abs(chars[:, at[x * y % p]] - chars[:, at[x]] * chars[:, at[y]]).max() < 1e-12
        assert np.abs(chars @ chars.conj().T - t * np.eye(t)).max() < 1e-9


def test_c25_top_eigenvalue_is_exact_on_every_subgroup():
    # the restricted matrix is the integer Gram: the trivial character's
    # Rayleigh quotient sums its entries, E_2(Gamma) exactly
    report = checks.run_suite(checks.subgroup_instances(), ["C25"])
    rows = [r for r in report.results if r.check_id == "C25"]
    assert len(rows) == 17 and not report.errors
    assert all(r.passed and r.lhs == r.rhs for r in rows)


def test_subgroup_eigencheck_without_a_base_set_takes_gamma():
    # one operator: with no base set the restricted matrix is the Gram of (Gamma, Gamma, k)
    for p, t in [(13, 3), (31, 5), (61, 12)]:
        gamma = genset.mult_subgroup(p, t)
        for k in (1, 2):
            rep = subgroup_eigencheck(gamma, k=k)
            assert rep == subgroup_eigencheck(gamma, k=k, base_set=gamma)
            assert rep.measured_max == pytest.approx(rep.claimed_max, rel=1e-9)
            assert rep.claimed_max == moments.energy_k(gamma, k + 1) / t


def test_connected_forms_are_decided_in_integers(monkeypatch):
    # a Gram that is not positive semidefinite fails the exact comparison
    gamma = genset.mult_subgroup(31, 5)
    real = eigen._gram

    def negated(a, b, k):
        pg = real(a, b, k)
        return eigen.PatternGram(pg.k, pg.b_size, -pg.gram, pg.frobenius_sq)

    assert subgroup_eigencheck(gamma).connected_ok
    monkeypatch.setattr(eigen, "_gram", negated)
    assert not subgroup_eigencheck(gamma).connected_ok


def test_subgroup_eigencheck_refuses_a_base_set_in_another_group():
    gamma = genset.mult_subgroup(13, 3)
    for b in (GSet(cyclic(7), [1, 2]), zset([1, 3, 9]), GSet(cyclic(26), [1, 3, 9])):
        with pytest.raises(groups.GroupError):
            subgroup_eigencheck(gamma, base_set=b)


def test_gram_diagonal_is_checked_entry_by_entry(monkeypatch):
    # +1 on one diagonal entry and -1 on another keep the trace; the entrywise
    # check of the diagonal raises before the Frobenius norm is read
    real = moments.ConvTable.values_at

    def planted(self, points):
        out = real(self, points).copy()
        n = math.isqrt(len(points))
        out[0] += 1
        out[n + 1] -= 1
        return out

    monkeypatch.setattr(moments.ConvTable, "values_at", planted)
    a = zset([0, 1, 3])
    with pytest.raises(groups.InvariantError, match="Gram diagonal"):
        build_gram(a, a, 1)


def test_residual_at_the_tolerance_raises(monkeypatch):
    # check_c25's verdict leaves the residual out: subgroup_eigencheck raises
    # once the largest residual reaches eigen.RESIDUAL_TOL, and C25 with it
    gamma = genset.mult_subgroup(61, 12)
    top = max(subgroup_eigencheck(gamma, base_set=gamma).residuals)
    assert 0 < top < eigen.RESIDUAL_TOL
    monkeypatch.setattr(eigen, "RESIDUAL_TOL", float(np.nextafter(top, math.inf)))
    assert max(subgroup_eigencheck(gamma, base_set=gamma).residuals) == top
    assert checks.check_c25(61, 12).passed
    monkeypatch.setattr(eigen, "RESIDUAL_TOL", top)
    with pytest.raises(groups.InvariantError, match="residual"):
        subgroup_eigencheck(gamma, base_set=gamma)
    with pytest.raises(groups.InvariantError, match="residual"):
        checks.check_c25(61, 12)


def test_subgroup_equality_of_lambda1():
    # for invariant data the top eigenvalue is exactly E_2(Gamma, Q)/|Gamma|
    for p, t in [(13, 3), (13, 4), (31, 5)]:
        gamma = genset.mult_subgroup(p, t)
        q = genset.invariant_union(gamma, (0, 1))
        pg = build_gram(gamma, q, 1)
        lam2 = singular_spectrum(pg)
        expect = float(moments.energy_k_pair(gamma, q, 2)) / t
        assert lam2[0] == pytest.approx(expect, rel=1e-9)


def _c18_grams():
    """The distinct (A, B, k) of the C18 grids over the standard suite corpus."""
    instances = (checks.standard_corpus(seed=2024, cyclic_count=30, lattice_count=3)
                 + checks.basis_instances() + checks.intset_instances())
    seen = {}
    for inst in instances:
        for p in checks.default_grid("C18", inst):
            seen[(p["a"], p["b"], p["k"])] = None
    return list(seen)


def test_singular_spectrum_matches_jacobi_oracle():
    grams = _c18_grams()
    assert len(grams) >= 100
    for a, b, k in grams:
        pg = build_gram(a, b, k)
        lam2 = singular_spectrum(pg)
        ref = jacobi_eigenvalues(pg.gram.astype(np.float64))
        assert np.abs(lam2 - ref).max() <= 1e-12 * ref[0]


def _sign_cases():
    return [(cyclic(4, 8), [(0, 1), (3, 7), (2, 2), (1, 5)], [(3, 7), (1, 1), (0, 6)]),
            (lattice(2), [(0, -1), (-3, 7), (2, 2), (5, 0)], [(-3, 7), (1, 1), (0, 6)])]


def test_c18_sign_is_an_exact_permutation(monkeypatch):
    for g, pts, qts in _sign_cases():
        a, b = GSet(g, pts), GSet(g, qts)
        for k in (1, 2):
            res = checks.check_c18(a, b, k, variant="sign")
            assert res.passed and res.lhs == 0
    real = eigen.build_gram
    built = []

    def swap_in_negated(a, b, k, *rest):
        pg = real(a, b, k, *rest)
        built.append(pg)
        if len(built) % 2 == 0:   # the second build is the Gram of (-A, -B)
            gram = pg.gram.copy()
            gram[0, 0], gram[0, 1] = gram[0, 1], gram[0, 0]
            pg.gram = gram
        return pg

    monkeypatch.setattr(eigen, "build_gram", swap_in_negated)
    for g, pts, qts in _sign_cases():
        res = checks.check_c18(GSet(g, pts), GSet(g, qts), 1, variant="sign")
        assert not res.passed and res.lhs == 2


def test_c18_builds_and_solves_per_variant(monkeypatch):
    counts = {"build": 0, "solve": 0}
    real_build, real_solve = eigen.build_gram, np.linalg.eigvalsh

    def build(*args, **kwargs):
        counts["build"] += 1
        return real_build(*args, **kwargs)

    def solve(*args, **kwargs):
        counts["solve"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(eigen, "build_gram", build)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    a, b = zset([0, 1, 3, 7]), zset([0, 2, 3])
    want = {"exact": (1, 1), "sign": (2, 0)}
    for variant, (builds, solves) in want.items():
        counts.update(build=0, solve=0)
        assert checks.check_c18(a, b, 2, variant=variant).passed
        assert (counts["build"], counts["solve"]) == (builds, solves), variant


# Where the deleted C18 rows `trace`, `frobenius` and `order` went: each of
# their guarantees raises in eigen, and C18 `exact` is a verdict that can fail.


def _spectrum_pair():
    return GSet(cyclic(64), [0, 1, 3, 7, 12, 20, 33]), GSet(cyclic(64), [0, 2, 3, 9, 17])


def test_spectrum_rechecks_the_trace(monkeypatch):
    a, b = _spectrum_pair()
    pg = build_gram(a, b, 2)
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: real(m) * (1 + 2e-8))
    with pytest.raises(groups.InvariantError, match="lambda\\^2"):
        singular_spectrum(pg)


def test_spectrum_rechecks_the_frobenius_norm(monkeypatch):
    # the top eigenvalue gains what the second loses: sum lambda^2 stays, sum lambda^4 grows
    a, b = _spectrum_pair()
    pg = build_gram(a, b, 2)
    real = np.linalg.eigvalsh

    def moved(m):
        mu = real(m).copy()   # ascending
        d = mu[-2] / 2
        mu[-1] += d
        mu[-2] -= d
        return mu

    assert real(pg.gram.astype(np.float64))[-2] > 0
    monkeypatch.setattr(np.linalg, "eigvalsh", moved)
    with pytest.raises(groups.InvariantError, match="lambda\\^4"):
        singular_spectrum(pg)


def test_bounds_refuse_a_top_eigenvalue_past_the_frobenius_norm(monkeypatch):
    # lambda_1^2 <= sqrt(sum lambda^4) = sqrt(E_(2k+1)(A, B)); at equality the bounds agree
    a, b = _spectrum_pair()
    root = math.sqrt(build_gram(a, b, 2).frobenius_sq)
    real = eigen.singular_spectrum

    def top_at(top):
        monkeypatch.setattr(eigen, "singular_spectrum",
                            lambda pg: np.concatenate(([top], real(pg)[1:])))

    top_at(root)
    bounds = magnification_lower_bounds(a, b, 2)
    assert bounds["bound_eig"] == bounds["bound_energy"]
    top_at(root * (1 + 1e-6))
    with pytest.raises(groups.InvariantError, match="eigenvalue bound"):
        magnification_lower_bounds(a, b, 2)


def test_c18_exact_can_fail(monkeypatch):
    a, b = _spectrum_pair()
    assert checks.check_c18(a, b, 1).passed
    bound = magnification_lower_bounds(a, b, 1)["bound_eig"]
    real = setops.magnification_k
    monkeypatch.setattr(setops, "magnification_k",
                        lambda a, b, k, caps: (Fraction(bound) / 2, real(a, b, k, caps)[1]))
    res = checks.check_c18(a, b, 1)
    assert res.passed is False and res.lhs == bound and res.rhs == bound / 2
