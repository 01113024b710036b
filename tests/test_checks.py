import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from hienergy import checks, genset, moments, setops
from hienergy.checks import Instance, run_check, run_suite
from hienergy.groups import cyclic, lattice
from hienergy.gset import GSet, zset


def test_registry_spot_values():
    a = zset([0, 1, 3])
    r = run_check("C1", {"a": a, "k": 2})
    assert (r.lhs, r.rhs, r.passed) == (81, 105, True)
    r = run_check("C4", {"a": a, "k": 1, "l": 2})
    assert r.lhs == r.rhs == 33 and r.passed
    g2 = cyclic(2)
    r = run_check("C15", {"sets": [GSet(g2, [0, 1]), GSet(g2, [0, 1])]})
    assert r.lhs == r.rhs == 4 and r.passed


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        run_check("C999", {})


def test_suite_refuses_unknown_ids_before_running(monkeypatch):
    ran = []
    monkeypatch.setattr(checks, "run_check", lambda *args: ran.append(args))
    insts = checks.standard_corpus(seed=3, cyclic_count=1, lattice_count=0)
    for ids in (["C1", "C99"], ["EIGTR"]):
        with pytest.raises(KeyError, match=f"unknown check id {ids[-1]!r}"):
            run_suite(insts, ids)
    assert ran == []


def test_every_id_reports_under_its_own_id():
    # an alias whose rows carry another id hides them in that id's summary line
    insts = (checks.standard_corpus(seed=7, cyclic_count=3, lattice_count=1)
             + checks.basis_instances()[1:2] + checks.subgroup_instances(p_max=7)
             + checks.intset_instances()[:1])
    for cid in sorted(checks.REGISTRY):
        rep = run_suite(insts, [cid])
        assert rep.results and not rep.errors, cid
        assert {r.check_id for r in rep.results} == {cid}, cid
        # the JSON report writes every witness as it is: none is a set
        assert all(r.witness is None or type(r.witness) in (str, dict) for r in rep.results), cid


def test_prime_alias():
    a = GSet(cyclic(64), range(12))
    r = run_check("C10'", {"a": a, "k": 2})
    assert r.check_id == "C10p"


def test_c14_vacuous_and_real():
    sparse = GSet(cyclic(32), [0, 5])
    aux = GSet(cyclic(32), [0, 1, 7])
    r = run_check("C14", {"b": sparse, "a": aux, "k": 1})
    assert r.passed and r.witness == "not a basis of the requested depth"
    qr13 = genset.quadratic_residues(13)
    probe = GSet(cyclic(13), [0, 2, 5])
    r2 = run_check("C14", {"b": qr13, "a": probe, "k": 1})
    assert r2.passed and r2.witness is None
    r3 = run_check("C14", {"b": qr13, "a": probe, "k": 1, "m": 2})
    assert r3.passed


def test_c9_counts_the_nonzero_large_spectrum():
    # on dense8 only the zero frequency is large, and the right side is 0.46 < 1
    dense8 = GSet(cyclic(8), [0, 1, 2, 3, 4, 5, 6])
    r = run_check("C9", {"a": dense8, "alpha": 0.5, "k": 1})
    assert r.lhs == 0 and r.passed
    # the subgroup 8Z/64 has the 7 nonzero multiples of 8 as its large spectrum
    sub = GSet(cyclic(64), range(0, 64, 8))
    for k in (1, 2):
        r = run_check("C9", {"a": sub, "alpha": 0.75, "k": k})
        assert r.lhs == 7 and r.passed and r.lhs > 0.35 * r.rhs


def test_c29_c30_on_dense_basis():
    g = cyclic(8)
    dense = GSet(g, [0, 1, 2, 3, 4, 5, 6])
    r = run_check("C29", {"b": dense, "k": 2, "m": 1})
    assert r.passed
    r30 = run_check("C30", {"b": dense, "k": 2})
    assert r30.passed and r30.witness["n_star"] <= r30.witness["threshold"]


def test_cover_threshold_edges():
    assert checks.cover_threshold(2, 1.0) == 1
    assert checks.cover_threshold(2, 7 / 8) == 2
    assert checks.cover_threshold(2, 33 / 67) >= 3


def test_subgroup_checks():
    r = run_check("C25", {"p": 13, "t": 3})
    assert r.passed
    r26 = run_check("C26", {"p": 13, "t": 3})
    assert not r26.hard and math.isfinite(r26.ratio)
    r27 = run_check("C27", {"p": 13, "t": 3, "variant": "invariant", "coset": 1})
    assert r27.passed and r27.hard
    r27p = run_check("C27", {"p": 31, "t": 5, "variant": "pred"})
    assert math.isfinite(r27p.ratio)


def test_subgroup_invariant_bound_up_to_101():
    # |Q + G'| >= |G'| |Gamma| |Q|^2 / E_2(Gamma_*, Q) on every instance
    for p, t in [(7, 3), (13, 4), (31, 6), (61, 12), (101, 20), (101, 10)]:
        for coset in (0, 1):
            for frac in (1.0, 0.6):
                r = run_check("C27", {"p": p, "t": t, "variant": "invariant",
                                      "coset": coset, "sub_frac": frac})
                assert r.passed, (p, t, coset, frac)


def test_c36_sweep_finds_success():
    hits = []
    for p in (7, 11, 13, 17, 29, 31, 41, 61, 101):
        for t in [t for t in range(2, p) if (p - 1) % t == 0]:
            gamma = genset.mult_subgroup(p, t)
            if (p - 1) not in {e[0] for e in gamma.elems}:
                continue  # needs -1 in the subgroup
            r = run_check("C36", {"p": p, "t": t})
            if r.witness["covers"]:
                hits.append((p, t))
    assert hits, "no subgroup with a six-fold sumset covering the punctured field"


def test_c37_c38():
    a = GSet(cyclic(7), [0, 1, 2])
    r = run_check("C37", {"a": a, "coeffs": (0, 1, 2), "sign": "-"})
    assert r.passed and r.witness["d"] != [0]
    r38 = run_check("C38", {"p": 13, "kmax": 2})
    assert r38.witness["depth"] >= 1


def test_pipeline_checks_smoke():
    ap = GSet(cyclic(64), range(16))
    r31 = run_check("C31", {"a": ap, "k": 4, "trials": 100, "seed": 1})
    assert r31.passed
    r32 = run_check("C32", {"a": ap, "pipeline": "bsg1"})
    assert r32.passed
    r33 = run_check("C33", {"a": ap})
    assert r33.passed
    r34 = run_check("C34", {"a": ap})
    assert r34.passed


def test_c22_c24_gathers_match_pointwise_loops():
    # reference: per-point loops over one-row gathers, in slice_corr_sums' key order
    def value(table, x):
        return table.values_at(np.array([x], dtype=np.int64))[0]

    rng = random.Random(41)
    for g in (cyclic(64), cyclic(4, 8), lattice(1)):
        for _ in range(4):
            a, b = (GSet(g, [oracles.from_flat(g.moduli, v) for v in rng.sample(range(32), n)])
                    if g.is_cyclic else GSet(g, rng.sample(range(40), n)) for n in (9, 6))
            corr = moments.correlate(a, a)
            mass = sum(value(corr, x) for x in b)
            assert run_check("C22", {"a": a, "b": b, "l": 2}).lhs == float(mass ** 8)
            f1 = checks.slice_corr_sums(a, 1)
            want = sum(v * value(corr, x) ** 2 for x, v in f1.items())
            assert run_check("C24", {"a": a, "alpha": 2.0}).lhs == float(want)
            want = float(sum(v * float(value(corr, x)) ** 1.5 for x, v in f1.items()))
            assert run_check("C24", {"a": a, "alpha": 1.5}).lhs == want


def test_c35_variants():
    a = zset(range(1, 17))
    for variant in ("lcon", "balog", "solymosi", "sigma"):
        r = run_check("C35", {"a": a, "variant": variant})
        assert not r.hard and math.isfinite(r.ratio) and r.passed


def test_suite_isolates_errors():
    bad = Instance("set", "bad", GSet(cyclic(4), []))  # empty set: magnification raises
    good = Instance("set", "good", GSet(cyclic(16), [0, 1, 5, 7]))
    rep = run_suite([bad, good], ["C17", "C1"])
    assert any(r.passed and r.inputs.get("instance") == "good" for r in rep.results)
    assert any(e["instance"] == "bad" for e in rep.errors)


def test_instance_builds_companions_and_grids_once(monkeypatch):
    calls = []
    real = Instance.derived
    monkeypatch.setattr(Instance, "derived",
                        lambda self, *args: calls.append(self.label) or real(self, *args))
    insts = (checks.standard_corpus(seed=7, cyclic_count=3, lattice_count=1)
             + checks.basis_instances()[1:2] + checks.subgroup_instances(p_max=7)
             + checks.intset_instances()[:1])
    rep = run_suite(insts, sorted(checks.REGISTRY))
    assert rep.results and not rep.hard_failures
    for inst in insts:
        assert calls.count(inst.label) <= 4
        fresh = Instance(inst.kind, inst.label, inst.a, inst.extra)
        for cid in checks.REGISTRY:
            assert checks.default_grid(cid, inst) == checks.default_grid(cid, fresh)
    inst = insts[0]
    c1, c5 = checks.default_grid("C1", inst), checks.default_grid("C5", inst)
    c22 = checks.default_grid("C22", inst)
    assert c1[0]["a"] is c5[0]["a"] and c5[0]["b"] is c22[0]["b"]


def test_suite_report_formats():
    insts = checks.standard_corpus(seed=3, cyclic_count=2, lattice_count=1)
    rep = run_suite(insts, ["C1", "C4"])
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "check_id,instances,failures,max_ratio"
    parsed = json.loads(rep.to_json())
    assert set(parsed) == {"results", "errors", "summary"}
    assert parsed["summary"]["C4"]["failures"] == 0


def _stdlib_report(rep) -> str:
    return json.dumps({"results": [dict(r.__dict__) for r in rep.results], "errors": rep.errors,
                       "summary": rep.summary()}, indent=2, sort_keys=True, default=str)


def test_suite_report_json_is_the_stdlib_text():
    # one string per row at depth 2, joined once, gives the bytes json.dumps gave,
    # with rows, errors and the summary each empty or not
    insts = checks.standard_corpus(seed=3, cyclic_count=2, lattice_count=1)
    rep = run_suite(insts, ["C1", "C4", "C18"])
    assert rep.results and rep.to_json() == _stdlib_report(rep)
    rep.errors.append({"check": "C1", "instance": "x", "error": "cap: \u00e9"})
    assert rep.to_json() == _stdlib_report(rep)
    for part in (checks.SuiteReport(errors=rep.errors), checks.SuiteReport(results=rep.results[:1]),
                 checks.SuiteReport()):
        assert part.to_json() == _stdlib_report(part)


def test_suite_report_json_peaks_near_its_length():
    # the standard suite's report: the rows' strings and one join, at most 2.5 times
    # the text (json.dumps over copied rows peaked at 8.2 times)
    instances = (checks.standard_corpus(seed=2024, cyclic_count=30, lattice_count=3)
                 + checks.basis_instances() + checks.subgroup_instances()
                 + checks.intset_instances())
    rep = run_suite(instances, sorted(checks.REGISTRY))
    assert len(rep.results) == 3572
    tracemalloc.start()
    try:
        text = rep.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.isascii() and peak <= 2.5 * len(text)
    # the bytes of `hienergy suite --standard --count 30 --report`
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "6cd7a6a705cab1b6a157534dee1346f6aece0deda2669452f233f22f7c4045b3")


def test_standard_corpus_deterministic():
    a = checks.standard_corpus(seed=5, cyclic_count=4, lattice_count=2)
    b = checks.standard_corpus(seed=5, cyclic_count=4, lattice_count=2)
    assert [i.a.elems for i in a] == [[*i.a.elems] and i.a.elems for i in b]
    assert {str(i.a.group) for i in a} >= {"Z/64", "Z/128"}


def test_slice_family_checks_report_is_pinned():
    # the report of the checks that read slice families (C20, C34, small-T4, the CS
    # search, the BSG transfer checks), pinned by digest so that a rewrite of how the
    # family is read must reproduce it byte for byte
    insts = checks.standard_corpus(seed=2024, cyclic_count=4, lattice_count=2)
    rep = run_suite(insts, ["C20", "C31", "C32", "C33", "C34"])
    assert len(rep.results) == 32 and not rep.errors
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "bca2e2d6401144892ca80ace2e9afa6a30f9fe8706d2b6fd6566197eec3f00f4"


def test_companion_sets_are_pinned():
    # the suite's sets, companions and subsamples, drawn as flat indices and row
    # positions, pinned by digest to the sets the per-tuple draws gave
    h = hashlib.sha256()
    insts = checks.standard_corpus(seed=7, cyclic_count=12, lattice_count=3)
    insts.append(Instance("set", "z2", GSet(lattice(2), [(i, i * i % 11 - 5) for i in range(14)])))
    for inst in insts:
        h.update(inst.label.encode())
        family = [inst.a] + [inst.derived(tag) for tag in ("small", "small2", "small3", "b")]
        family += [checks._subsample(inst.a, size) for size in (3, 7, 8, 10)]
        for s in family:
            h.update(str(s.group).encode() + s.coords.tobytes() + b"|")
    assert h.hexdigest() == "6ab66b465f9dfc11565bea3ddf7405bf0b512650b6e9d8ed7bcc6c2d6e6d342f"


def test_c11_eq_tuples_is_an_unknown_variant():
    # C11 states its identity on sets (tri1, tri2, eq); the tuple-set form
    # is not a variant, and is refused as any unknown one is, before any work
    g = cyclic(13)
    x, z = GSet(g, range(5)), GSet(g, range(3))
    sets = {"Yt": [(i, j) for i in range(4) for j in range(2)], "X": x, "Z": z}
    with pytest.raises(ValueError, match="unknown C11 variant 'eq_tuples'"):
        run_check("C11", {"sets": sets, "variant": "eq_tuples"})
