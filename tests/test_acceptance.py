"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
import warnings

import numpy as np
import pytest

import oracles
from hienergy import checks, eigen, extract, genset, groups, moments, setops, spectrum
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, full_group, zset

CORPUS = checks.standard_corpus(seed=2024, cyclic_count=200, lattice_count=20)


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_identity_suite():
    t0 = time.time()
    rep = checks.run_suite(CORPUS, ["C4", "C5", "C15", "EKS"])
    eq_fail = grams = 0
    for inst in CORPUS:
        for k in (1, 2, 3):   # each build decides the diagonal and Frobenius identities, or raises
            eigen.build_gram(inst.a, inst.derived("b"), k)
            grams += 1
        r = checks.run_check("C11", {"sets": {"A1": inst.derived("small", 5),
                                              "A2": inst.derived("small2", 5),
                                              "X": inst.derived("small3", 4),
                                              "Z": inst.derived("b")},
                             "variant": "eq"})
        eq_fail += 0 if r.passed else 1
    elapsed = time.time() - t0
    n_res = len(rep.results) + len(CORPUS) + 2 * grams
    ok = (not rep.hard_failures and not rep.errors and eq_fail == 0 and elapsed < 60)
    _line("criterion 1 (identity suite)",
          ok, f"{n_res} exact identities ({grams} Grams) over {len(CORPUS)} sets, "
              f"{len(rep.hard_failures) + eq_fail} failures, {elapsed:.1f}s (< 60s)")


def test_criterion_2_inequality_suite():
    ids = ["C1", "C2", "C3", "C6", "C7", "C11", "C13", "C14", "C15", "C16", "C17",
           "C18", "C19", "C20", "C21", "C22", "C24", "C28", "C29", "C30"]
    t0 = time.time()
    rep = checks.run_suite(CORPUS + checks.basis_instances(), ids)
    elapsed = time.time() - t0
    ok = not rep.hard_failures and not rep.errors and elapsed < 300
    _line("criterion 2 (unconditional inequalities)",
          ok, f"{len(rep.results)} instances, {len(rep.hard_failures)} failures, "
              f"{len(rep.errors)} errors, {elapsed:.1f}s (< 5min)")


def test_criterion_3_pinned_values():
    a = zset([0, 1, 3])
    mods = None
    aset = {(0,), (1,), (3,)}
    d = setops.diffset(a, a)
    pins = [
        ("E_2", moments.energy_k(a, 2), oracles.oracle_energy_k(mods, aset, 2), 15),
        ("E_3", moments.energy_k(a, 3), oracles.oracle_energy_k(mods, aset, 3), 33),
        ("T_2", moments.t_k(a, 2), oracles.oracle_t_k(mods, aset, 2), 15),
        ("sigma_2(A-A)", moments.sigma_k(d, 2),
         oracles.oracle_sigma_k(mods, set(d.elems), 2), 7),
        ("D_2", setops.d_k(a, 2), oracles.oracle_d_k(mods, aset, 2), 25),
        ("S_2", setops.s_k(a, 2), oracles.oracle_s_k(mods, aset, 2), 24),
    ]
    ok = all(got == want == frozen for _, got, want, frozen in pins)
    r, _ = setops.magnification(a, a)
    r_oracle, _ = oracles.oracle_magnification(mods, aset, aset)
    ok &= r == r_oracle == 2
    b = zset([0, 1])
    lam2 = eigen.singular_spectrum(eigen.build_gram(b, b, 1))
    hi, lo = oracles.oracle_gram_2x2_eigs(2, 1, 2)
    ok &= np.allclose(lam2, [3, 1]) and math.isclose(hi, 3) and math.isclose(lo, 1)
    ok &= math.isclose(float((lam2 ** 2).sum()), 10, rel_tol=1e-12)
    _line("criterion 3 (pinned values vs oracles)", ok,
          "E2=15 E3=33 T2=15 sigma2=7 D2=25 S2=24 R=2 lambda^2=[3,1] sum lambda^4=10")


def test_criterion_4_fourier_eigen_tolerances():
    g = cyclic(256)
    rng = np.random.default_rng(4040)
    worst_parseval = 0.0
    worst_bilinear = 0.0
    for _ in range(100):
        f = rng.integers(-6, 7, 256).astype(np.float64)
        fh = np.fft.fft(f)
        lhs = float((f ** 2).sum())
        rhs = float((np.abs(fh) ** 2).sum()) / 256
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / max(1.0, abs(lhs)))
        phi = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        idx = sorted(int(i) for i in rng.choice(256, size=12, replace=False))
        u = np.zeros(256, dtype=np.complex128)
        v = np.zeros(256, dtype=np.complex128)
        u[idx] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v[idx] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        worst_bilinear = max(worst_bilinear, oracles.bilinear_residual(g.moduli, phi, idx, u, v))
    ok = worst_parseval < 1e-8 and worst_bilinear < 1e-8
    _line("criterion 4 (Fourier/operator residuals)", ok,
          f"Parseval {worst_parseval:.2e}, bilinear {worst_bilinear:.2e} over 100 runs in Z/256")


def test_criterion_5_subgroup_checks():
    gamma = genset.mult_subgroup(13, 3)
    assert [e[0] for e in gamma.elems] == [1, 3, 9]
    rep = eigen.subgroup_eigencheck(gamma)
    eig_ok = (len(rep.residuals) == 3 and max(rep.residuals) < 1e-8
              and rep.max_at_trivial and rep.connected_ok)
    qr_ok = setops.basis_depth_test(genset.quadratic_residues(13), 1, setops.MINUS)[0]
    six_hits = []
    for p in (7, 11, 13, 17, 29, 31, 41, 61, 101):
        for t in [t for t in range(2, p) if (p - 1) % t == 0]:
            sub = genset.mult_subgroup(p, t)
            if (p - 1) not in {e[0] for e in sub.elems}:
                continue
            r = checks.run_check("C36", {"p": p, "t": t})
            if r.witness["covers"]:
                six_hits.append((p, t))
    ok = eig_ok and qr_ok and bool(six_hits)
    _line("criterion 5 (subgroup checks)", ok,
          f"3 eigenfunctions (res {max(rep.residuals):.1e}), QR13 depth-1, "
          f"6*Gamma covers for {len(six_hits)} subgroups e.g. {six_hits[:3]}")


def test_criterion_6_extraction_pipelines():
    ap = zset(range(16))
    r1 = extract.bsg_extract(ap, 1.0)
    a1 = GSet(ap.group, [tuple(e) for e in r1.outputs["A_prime"]])
    ok1 = (a1.issubset(ap) and len(a1) >= 4
           and len(setops.diffset(a1, a1)) <= 8 * len(a1))
    r2 = extract.bsg_extract_v2(ap, 1.0)
    a2 = GSet(ap.group, [tuple(e) for e in r2.outputs["A_prime"]])
    ok2 = (a2.issubset(ap) and len(a2) >= 4
           and len(setops.diffset(a2, a2)) <= 8 * len(a2))
    g64 = cyclic(64)
    a64 = GSet(g64, range(16))
    r3 = extract.cs_period_search(a64, a64, 4, trials=200, seed=1)
    budget = 32 * 16 * 16 * 16
    t_set = r3.outputs["T"]
    ok3 = (r3.ok and len(t_set) > 0
           and all(4 * extract.almost_period_check(a64, a64, tuple(t)) <= budget
                   for t in t_set))
    ok = ok1 and ok2 and ok3
    _line("criterion 6 (extraction pipelines)", ok,
          f"bsg1 |A'|={len(a1)} diff={len(setops.diffset(a1, a1))}, "
          f"bsg2 |A'|={len(a2)}, cs |T|={len(t_set)} all within 32|A|^2|B|/k")


def _spread(ratios):
    return max(ratios) / min(ratios)


def test_criterion_7_ratio_sweeps():
    details = []
    ok = True

    sub_fams = [(13, 4), (31, 6), (61, 12), (101, 20)]
    for cid, params in [("C26", {}), ("C27", {"variant": "pred"})]:
        ratios = [checks.run_check(cid, {"p": p, "t": t, **params}).ratio
                  for p, t in sub_fams]
        fin = all(math.isfinite(r) and r > 0 for r in ratios)
        ok &= fin and _spread(ratios) <= 4
        details.append(f"{cid} spread {_spread(ratios):.2f}")

    depth_ratios = []
    for p in (13, 31, 61, 101):
        r = checks.run_check("C38", {"p": p, "kmax": 2})
        ok &= r.passed
        depth_ratios.append(max(1, r.witness["depth"]) / max(1, r.witness["heuristic"]))
    ok &= _spread(depth_ratios) <= 4
    details.append(f"C38 spread {_spread(depth_ratios):.2f}")

    for cid, key, extra in [("C32", "implied_constant", {"pipeline": "bsg1"}),
                            ("C33", None, {}), ("C34", None, {})]:
        ratios = []
        for n in (8, 16, 32):
            a = GSet(cyclic(4 * n), range(n))
            r = checks.run_check(cid, {"a": a, **extra})
            ratios.append(r.witness[key] if key else r.ratio)
        fin = all(math.isfinite(x) and x > 0 for x in ratios)
        ok &= fin and _spread(ratios) <= 4
        details.append(f"{cid} spread {_spread(ratios):.2f}")

    for variant, family in [("lcon", "interval"), ("balog", "interval"),
                            ("solymosi", "interval"), ("sigma", "convex")]:
        ratios = []
        for n in (8, 16, 32, 64) if family == "interval" else (8, 16, 24, 32):
            if family == "interval":
                a = zset(range(1, n + 1))
            else:
                conv = genset.gen(genset.recipe("convex", n=n))
                a = zset([e[0] + 1 for e in conv.elems])
            res = checks.run_check("C35", {"a": a, "variant": variant})
            ok &= res.passed
            ratios.append(res.ratio)
        fin = all(math.isfinite(r) and r > 0 for r in ratios)
        monotone = all(x <= y for x, y in zip(ratios, ratios[1:])) or \
            all(x >= y for x, y in zip(ratios, ratios[1:]))
        ok &= fin and (monotone or _spread(ratios) <= 4)
        details.append(f"C35:{variant} {'monotone' if monotone else 'bounded'}")

    _line("criterion 7 (ratio sweeps)", ok, "; ".join(details))


def test_criterion_8_performance():
    rng = random.Random(99)
    g = cyclic(65536)
    elems = [x for x in range(65536) if rng.random() < 0.5]
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a silent FFT fallback would be too slow
        e2 = moments.energy_k(GSet(g, elems), 2)   # timed with the set's construction
    elapsed = time.time() - t0
    fft_ok = elapsed < 2.0 and e2 > 0
    g4k = cyclic(4096)
    spot_ok = True
    for seed in (1, 2):
        r = random.Random(seed)
        x = GSet(g4k, [v for v in range(4096) if r.random() < 0.5])
        y = GSet(g4k, [v for v in range(4096) if r.random() < 0.5])
        tx, ty = moments.ConvTable.from_gset(x), moments.ConvTable.from_gset(y)
        fft = moments._fft(tx, ty)
        direct = moments._direct(tx, ty)
        spot_ok &= fft is not None and bool((fft == direct).all())
        # the engine's correlation against direct pair sums on the reflected table
        reflected = moments.ConvTable.of_planes(   # index -i mod 4096
            g4k, np.roll(tx.array[::-1], 1).astype(np.int64)[None])
        spot_ok &= bool((moments.correlate(x, y).array == moments._direct(reflected, ty)).all())
    ok = fft_ok and spot_ok
    _line("criterion 8 (performance)", ok,
          f"GSet + E_2 on Z/65536 density 1/2 in {elapsed:.3f}s (< 2s), "
          f"FFT == direct on Z/4096 spot checks: {spot_ok}")
