import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import oracles
from hienergy import checks, cli, extract, genset, moments, setops, spectrum
from hienergy.groups import cyclic
from hienergy.gset import GSet, loads_set, read_set, write_set, zset


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_examples(tmp_path, capsys):
    path = tmp_path / "a.txt"
    write_set(zset([0, 1, 3]), path)
    code, out, _ = run_cli(capsys, "compute", "Ek", "--k", "2", "--set", str(path))
    assert code == 0 and out.strip() == "E_2(A) = 15"
    code, out, _ = run_cli(capsys, "compute", "Ek", "--k", "1", "--set", str(path))
    assert code == 0 and "= 9" in out
    code, out, _ = run_cli(capsys, "compute", "mag", "--set", str(path), "--b", str(path))
    assert code == 0 and "R_B[A] = 2" in out


def test_compute_json_and_csv(tmp_path, capsys):
    path = tmp_path / "a.txt"
    write_set(zset([0, 1, 3]), path)
    code, out, _ = run_cli(capsys, "compute", "levels", "--set", str(path), "--json")
    assert code == 0
    assert json.loads(out)["value"] == [3, 1, 1, 1, 1, 1, 1]
    qr = tmp_path / "qr.txt"
    code, out, _ = run_cli(capsys, "gen", "qr:p=13", "--out", str(qr))
    assert code == 0
    code, out, _ = run_cli(capsys, "compute", "spectrum", "--set", str(qr), "--csv")
    assert code == 0 and out.splitlines()[0] == "xi,re,im,abs"
    rows = list(csv.reader(out.strip().splitlines()[1:]))
    assert len(rows) == 13 and all(len(row) == 4 for row in rows)
    values = [[float(field) for field in row] for row in rows]   # plain numbers, no numpy reprs
    assert values[0] == [0.0, 6.0, 0.0, 6.0]   # |QR_13| = 6 at xi = 0


def test_gen_compute_round_trip_matches_in_process(tmp_path, capsys):
    recipe = "random:N=64,delta=0.25,seed=9"
    path = tmp_path / "r.txt"
    code, _, _ = run_cli(capsys, "gen", recipe, "--out", str(path))
    assert code == 0
    a_file = read_set(path)
    a_mem = genset.gen(genset.parse_recipe(recipe))
    assert a_file == a_mem
    code, out, _ = run_cli(capsys, "compute", "Tk", "--k", "2", "--set", str(path))
    assert code == 0
    assert int(out.strip().rsplit(" ", 1)[1]) == moments.t_k(a_mem, 2)


K_RECIPE = "random:N=32,delta=0.3,seed=1"


@pytest.mark.parametrize("quantity", ["Tk", "sigmak", "Dk", "Sk", "magk", "multE"])
def test_compute_refuses_a_non_integer_k(capsys, quantity):
    code, out, err = run_cli(capsys, "compute", quantity, "--k", "2.5", "--recipe", K_RECIPE)
    assert code == cli.USAGE_EXIT and out == "" and "integer --k" in err


@pytest.mark.parametrize("quantity", ["Ek", "Tk", "sigmak", "Dk", "Sk", "magk", "multE"])
def test_compute_passes_k_zero_to_the_library(tmp_path, capsys, quantity):
    path = tmp_path / "a.txt"
    write_set(zset([1, 2, 3, 5, 8]), path)   # no 0: multE's quotient set exists
    code, out, err = run_cli(capsys, "compute", quantity, "--k", "0", "--set", str(path))
    assert code == cli.USAGE_EXIT and out == "" and err.startswith("error: ") and ">= " in err


@pytest.mark.parametrize("k", ["nan", "inf", "1e400"])
def test_compute_ek_refuses_a_non_finite_k(capsys, k):
    code, out, err = run_cli(capsys, "compute", "Ek", "--recipe", "interval:n=5,N=16", "--k", k)
    assert code == cli.USAGE_EXIT and out == "" and err.startswith("error: energy order")


def test_compute_multe_refuses_elements_past_the_bound(tmp_path, capsys):
    path = tmp_path / "a.txt"
    write_set(zset([1, 2, 1 << 30]), path)
    code, out, err = run_cli(capsys, "compute", "multE", "--set", str(path))
    assert code == cli.USAGE_EXIT and out == "" and "2^30" in err


def test_refused_allocation_is_one_error_line(monkeypatch, capsys):
    # a difference set of 2^15 elements asks for an 8 GiB pair matrix
    def refuse(a, b):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")
    monkeypatch.setattr(setops, "diffset", refuse)
    code, out, err = run_cli(capsys, "compute", "Ek", "--recipe", K_RECIPE, "--pre", "diff")
    assert code == cli.FAIL_EXIT and out == ""
    assert err == "error: Unable to allocate 8.00 GiB for an array\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--checks", "C1", "--set", "{tmp}/missing.txt"),
    ("suite", "--set", "{tmp}"),                                   # a directory
    ("compute", "Ek", "--recipe", "interval:n=5", "--b", "{tmp}/missing.txt"),
    ("gen", "interval:n=4", "--out", "{tmp}/missing/x.txt"),
])
def test_a_path_the_os_refuses_is_one_error_line(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == cli.USAGE_EXIT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


def test_an_os_error_without_a_path_is_not_a_usage_error(monkeypatch, capsys):
    def closed(*args):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(cli, "cmd_gen", closed)
    with pytest.raises(BrokenPipeError):
        cli.main(["gen", "interval:n=4"])


def test_compute_spectrum_csv(tmp_path, capsys):
    path = tmp_path / "a.txt"
    write_set(GSet(cyclic(4), [0, 2]), path)
    code, out, _ = run_cli(capsys, "compute", "spectrum", "--set", str(path), "--csv")
    assert code == 0 and out.splitlines()[0] == "xi,re,im,abs"
    assert len(out.strip().splitlines()) == 5
    # one line per dual element in lexicographic order, plain float fields
    b = GSet(cyclic(2, 3), [(0, 1), (1, 2)])
    write_set(b, path)
    code, out, _ = run_cli(capsys, "compute", "spectrum", "--set", str(path), "--csv")
    lines, table = out.strip().splitlines()[1:], spectrum.dft(b)
    for xi, line in zip(oracles.enumerate_elements((2, 3)), lines):
        head, re_, im, mag = line.split("\",")[0], *line.split("\",")[1].split(",")
        assert head == '"' + ",".join(map(str, xi))
        assert complex(float(re_), float(im)) == table[xi] and float(mag) == abs(table[xi])
    assert code == 0 and len(lines) == 6
    # a lattice set is refused by the transform itself
    write_set(zset([0, 1]), path)
    code, out, err = run_cli(capsys, "compute", "spectrum", "--set", str(path), "--csv")
    assert (code, out, err) == (cli.USAGE_EXIT, "", "error: the DFT needs a finite cyclic product\n")


def test_compute_levels_and_spectrum_bodies_byte_for_byte(tmp_path, capsys):
    # one body, ending in one newline, on stdout and in --out alike; the JSON
    # carries the values once, with no CSV text beside them
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_set(zset([0, 1, 3]), a)
    write_set(GSet(cyclic(4), [0, 2]), b)
    want = {
        ("levels", a, "--csv"): "rank,value\n1,3\n2,1\n3,1\n4,1\n5,1\n6,1\n7,1\n",
        ("levels", a, "--json"): ('{\n  "group": "Z",\n  "quantity": "levels",\n  "set_size": 3,\n'
                                  '  "value": [\n' + ",\n".join(["    3"] + ["    1"] * 6) + "\n  ]\n}\n"),
        ("spectrum", b, "--csv"): ('xi,re,im,abs\n"0",2.0,0.0,2.0\n"1",0.0,0.0,0.0\n'
                                   '"2",2.0,0.0,2.0\n"3",0.0,0.0,0.0\n'),
        ("spectrum", b, "--json"): ('{\n  "group": "Z/4",\n  "quantity": "spectrum",\n  "set_size": 2,\n'
                                    '  "values": [\n' + ",\n".join(
                                        f'    [\n      "({x},)",\n      {v}\n    ]'
                                        for x, v in enumerate((2.0, 0.0, 2.0, 0.0))) + "\n  ]\n}\n"),
    }
    for (quantity, path, flag), body in want.items():
        assert run_cli(capsys, "compute", quantity, "--set", str(path), flag) == (0, body, "")
        out = tmp_path / "out.txt"
        assert run_cli(capsys, "compute", quantity, "--set", str(path), flag, "--out", str(out)) == (
            0, f"{out}\n", "")
        assert out.read_text(encoding="utf-8") == body
    # the empty set's level sequence is the header alone
    empty = tmp_path / "e.txt"
    write_set(GSet(cyclic(4), []), empty)
    assert run_cli(capsys, "compute", "levels", "--set", str(empty), "--csv") == (0, "rank,value\n", "")


def test_compute_k_defaults_only_when_absent(capsys):
    a = genset.gen(genset.parse_recipe(K_RECIPE))
    for quantity, line in (("Tk", f"T_2(A) = {moments.t_k(a, 2)}"),
                           ("sigmak", f"sigma_2(A) = {moments.sigma_k(a, 2)}"),
                           ("Dk", f"D_2(A) = {setops.d_k(a, 2)}")):
        assert run_cli(capsys, "compute", quantity, "--recipe", K_RECIPE) == (0, line + "\n", "")
    code, out, _ = run_cli(capsys, "compute", "magk", "--recipe", K_RECIPE)
    assert code == 0 and out.startswith(f"R^(1)_B[A] = {setops.magnification_k(a, a, 1)[0]} ")
    code, out, _ = run_cli(capsys, "compute", "Tk", "--k", "3.0", "--recipe", K_RECIPE)
    assert (code, out) == (0, f"T_3(A) = {moments.t_k(a, 3)}\n")
    code, out, _ = run_cli(capsys, "compute", "Ek", "--k", "2.5", "--recipe", K_RECIPE)
    assert code == 0 and out.startswith("E_2.5(A) = ")
    code, out, _ = run_cli(capsys, "compute", "spectrum", "--k", "2.5", "--recipe", K_RECIPE)
    assert code == 0 and out.startswith("xi,re,im,abs")   # a quantity without k ignores it


def test_verify_exit_codes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "C1,C4",
                           "--recipe", "random:N=64,delta=0.25,seed=1")
    assert code == 0 and "C4" in out
    code, _, err = run_cli(capsys, "verify", "--checks", "C15", "--recipe", "qr:p=13")
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "--checks", "NOPE", "--recipe", "qr:p=13")
    assert code == 2 and "unknown check id" in err


def test_verify_every_check_on_a_z2_set(tmp_path, capsys):
    # the companion sets of a Z^2 instance are points of Z^2, not integers
    path = tmp_path / "z2.txt"
    path.write_text("group: Z^2\n0,0\n1,0\n0,1\n2,3\n-1,2\n3,-2\n")
    code, out, err = run_cli(capsys, "verify", "--checks", ",".join(sorted(checks.REGISTRY)),
                             "--set", str(path))
    assert code == 0 and err == ""
    rows = {line.split(",")[0]: line.split(",")[2] for line in out.splitlines()[1:]}
    assert {"C5", "C20", "C21"} <= rows.keys() and set(rows.values()) == {"0"}


def test_verify_report_files(tmp_path, capsys):
    report = tmp_path / "rep.json"
    summary = tmp_path / "rep.csv"
    code, out, _ = run_cli(capsys, "verify", "--checks", "C1",
                           "--recipe", "random:N=64,delta=0.2,seed=3",
                           "--report", str(report), "--csv", str(summary))
    assert code == 0
    parsed = json.loads(report.read_text())
    assert parsed["summary"]["C1"]["failures"] == 0
    assert summary.read_text().startswith("check_id,")


def test_verify_renders_the_csv_summary_once(tmp_path, capsys, monkeypatch):
    rendered, real = [], checks.SuiteReport.to_csv
    monkeypatch.setattr(checks.SuiteReport, "to_csv", lambda rep: rendered.append(rep) or real(rep))
    summary = tmp_path / "rep.csv"
    code, out, _ = run_cli(capsys, "verify", "--checks", "C1,C4",
                           "--recipe", "random:N=64,delta=0.2,seed=3", "--csv", str(summary))
    assert code == 0 and len(rendered) == 1
    assert out == summary.read_text() == real(rendered[0])


def test_extract_cli(tmp_path, capsys):
    ap = tmp_path / "ap.txt"
    run_cli(capsys, "gen", "interval:n=16,N=64", "--out", str(ap))
    out_file = tmp_path / "cs.json"
    code, out, _ = run_cli(capsys, "extract", "cs", "--set", str(ap), "--b", str(ap),
                           "--k", "4", "--trials", "100", "--seed", "1",
                           "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["pipeline"] == "cs" and len(rep["outputs"]["T"]) > 0
    code, out, _ = run_cli(capsys, "extract", "config", "--set", str(ap), "--c", "0,1,2")
    assert code == 0 and out.strip().startswith("x=")
    code, out, _ = run_cli(capsys, "extract", "cover", "--set", str(ap))
    assert code == 0 and out.strip().isdigit()


def test_extract_bsg_cli(tmp_path, capsys):
    ap = tmp_path / "ap16.txt"
    write_set(zset(range(16)), ap)
    out_file = tmp_path / "bsg2.json"
    code, out, _ = run_cli(capsys, "extract", "bsg2", "--set", str(ap), "--eps", "1",
                           "--nm", "1,1", "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["stages"][-1]["ratios"][0]["implied_constant"] > 0


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compute", "Ek")
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("group: Z/8\nbananas\n")
    code, _, err = run_cli(capsys, "compute", "Ek", "--set", str(bad))
    assert code == 2 and "line 2" in err


def test_cap_exit_code(tmp_path, capsys):
    big = tmp_path / "big.txt"
    write_set(zset(range(25)), big)
    code, _, err = run_cli(capsys, "compute", "mag", "--set", str(big), "--b", str(big))
    assert code == 3 and "cap" in err.lower()


def test_suite_exit_code_counts_caps_not_their_text(capsys, monkeypatch):
    # a real cap exits 3, each one counted on the report; an error whose text starts
    # with "cap" but is no CapExceededError exits 1
    args = ("verify", "--checks", "C5", "--recipe", "random:N=64,delta=0.25,seed=1")
    code, out, err = run_cli(capsys, *args, "--cap-tuples", "1")
    assert code == cli.CAP_EXIT and "'error': 'cap: tuple work" in err
    report = checks.run_suite([checks.Instance("set", "s", zset(range(6)))], ["C5"], setops.Caps(tuples=1))
    assert report.capped == len(report.errors) > 0

    def not_a_cap(cid, params, caps):
        raise ValueError("cap: no cap")

    monkeypatch.setattr(checks, "run_check", not_a_cap)
    code, out, err = run_cli(capsys, *args)
    assert code == cli.FAIL_EXIT and "'error': 'cap: no cap'" in err


@pytest.mark.parametrize("pipeline, extra", [
    ("cs", ["--k", "3", "--trials", "80", "--seed", "5"]),
    ("bsg2", ["--nm", "1,1", "--nm", "2,1", "--seed", "3"]),
    ("smallT4", []),
    ("config", ["--c", "1,-2,5", "--sign", "+"]),
], ids=["cs", "bsg2", "smallT4", "config"])
def test_byte_identical_reruns(tmp_path, capsys, pipeline, extra):
    # the report file where the pipeline writes one, and stdout for every pipeline
    out = tmp_path / "r.json"
    args = ["extract", pipeline, "--recipe", "interval:n=12,N=64", *extra, "--out", str(out)]
    runs = []
    for _ in range(2):
        code, stdout, _ = run_cli(capsys, *args)
        assert code == 0 and stdout
        runs.append((stdout, out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    assert (runs[0][1] is None) == (pipeline == "config")


def test_extract_offers_no_cap_flags(capsys):
    # no extraction pipeline reaches a capped call, so a cap flag there is an unknown argument
    for flag in ("--cap-tuples", "--cap-subsets"):
        code, out, err = run_cli(capsys, "extract", "smallT4", "--recipe", "interval:n=12,N=64",
                                 flag, "1")
        assert (code, out) == (2, "") and f"unrecognized arguments: {flag} 1" in err


def test_suite_cli(capsys):
    code, out, _ = run_cli(capsys, "suite", "--checks", "C1,C13",
                           "--recipe", "random:N=64,delta=0.2,seed=2")
    assert code == 0 and out.startswith("check_id,")


def test_suite_cap_errors_exit_nonzero(capsys):
    code, out, err = run_cli(capsys, "suite", "--checks", "C18",
                             "--recipe", "random:N=2048,delta=0.6,seed=1")
    assert code == 3 and "cap" in err
    assert out.startswith("check_id,")


@pytest.mark.parametrize("argv", [
    ["compute", "mag", "--recipe", "interval:n=5,N=64", "--cap-subsets", "0"],
    ["compute", "Dk", "--recipe", "interval:n=5,N=64", "--cap-tuples", "-5"],
    ["verify", "--checks", "C13", "--recipe", "interval:n=5,N=64", "--cap-tuples", "0"],
    ["suite", "--checks", "C17", "--recipe", "interval:n=5,N=64", "--cap-subsets", "-1"],
    ["suite", "--checks", "C17", "--recipe", "interval:n=5,N=64", "--cap-subsets", "two"],
], ids=["compute-subsets-0", "compute-tuples-neg", "verify-tuples-0", "suite-subsets-neg",
        "suite-subsets-text"])
def test_cap_flags_refuse_values_below_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "--cap-" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_suite_count_refuses_values_below_one(capsys, count):
    code, out, err = run_cli(capsys, "suite", "--standard", "--checks", "C1", "--count", count)
    assert code == 2 and out == "" and f"--count: must be at least 1, got {count}" in err


@pytest.mark.parametrize("argv", [
    ["extract", "cs", "--recipe", "interval:n=12,N=64", "--k", "0"],
    ["extract", "cover", "--recipe", "interval:n=12,N=64", "--cap", "0"],
    ["extract", "cover", "--recipe", "interval:n=12,N=64", "--cap", "-1"],
    ["extract", "cs", "--recipe", "interval:n=12,N=64", "--trials", "0"],
], ids=["cs-k-0", "cover-cap-0", "cover-cap-neg", "cs-trials-0"])
def test_extract_flags_refuse_values_below_one(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "r.json"))
    assert code == 2 and out == "" and f"{argv[-2]}: must be at least 1" in err
    assert not (tmp_path / "r.json").exists()


def test_extraction_error_is_one_line_and_exit_1(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise extract.ExtractionError("no approximating sample in 1 trials")
    monkeypatch.setattr(extract, "cs_period_search", fail)
    code, out, err = run_cli(capsys, "extract", "cs", "--recipe", "interval:n=12,N=64")
    assert (code, out, err) == (1, "", "error: no approximating sample in 1 trials\n")


def test_suite_refuses_unknown_check_ids_as_verify_does(capsys):
    for command in ("suite", "verify"):
        code, out, err = run_cli(capsys, command, "--checks", "C13,C99",
                                 "--recipe", "interval:n=5,N=64")
        assert (code, out, err) == (2, "", "unknown check id 'C99'\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--checks", ",", "--recipe", "interval:n=5,N=64"],
    ["suite", "--standard", "--checks", " , "],
], ids=["verify-comma", "suite-blank-ids"])
def test_checks_flag_without_ids_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (cli.USAGE_EXIT, "", "no check ids in --checks\n")


@pytest.mark.parametrize("command", ["suite", "verify"])
def test_cap_flags_reach_the_checks(capsys, command):
    recipe = ["--recipe", "interval:n=12,N=64"]
    code, out, err = run_cli(capsys, command, "--checks", "C13", *recipe, "--cap-tuples", "1000")
    assert code == 3 and out == "check_id,instances,failures,max_ratio\n"
    assert err.count("cap: tuple work") == 14
    code, out, err = run_cli(capsys, command, "--checks", "C17", *recipe, "--cap-subsets", "5")
    assert code == 3 and err.count("exceeds subset cap 5") == 5
    # the same process without the flags: the default caps again
    code, out, err = run_cli(capsys, command, "--checks", "C13,C17", *recipe)
    assert (code, err) == (0, "")
    assert [row.split(",")[:3] for row in out.splitlines()[1:]] == [["C13", "14", "0"],
                                                                    ["C17", "5", "0"]]


def test_cap_flags_do_not_leak_into_later_calls(capsys):
    before = vars(setops.DEFAULT_CAPS).copy()
    code, _, err = run_cli(capsys, "compute", "Dk", "--recipe", "interval:n=12,N=64",
                           "--k", "3", "--cap-tuples", "100")
    assert code == 3 and "cap 100" in err
    assert vars(setops.DEFAULT_CAPS) == before
    code, _, err = run_cli(capsys, "suite", "--checks", "C13", "--recipe", "interval:n=12,N=64")
    assert code == 0, err


def test_module_entry_point_runs_the_cli():
    # a checkout reaches the CLI as `python -m hienergy` with src/ on the path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-m", "hienergy", "compute", "Ek", "--k", "2",
                          "--recipe", "interval:n=5"], capture_output=True, text=True, env=env,
                         timeout=120)
    assert (run.returncode, run.stdout.strip()) == (0, "E_2(A) = 85")


def test_caps_fields_are_exactly_the_cap_flags():
    # a field of Caps is a bound the CLI sets: one --cap-* flag each, on every
    # command that takes one, and no flag without a field
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    fields = {f"--cap-{f.name}" for f in dataclasses.fields(setops.Caps)}
    capped = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--cap-")}
              for name, p in sub.choices.items()}
    assert capped == {"compute": fields, "gen": set(), "verify": fields, "extract": set(),
                      "suite": fields}


def test_c25_on_a_subgroup_above_the_gram_cap(capsys):
    # t = 600 > eigen.GRAM_CAP: the character matrix is dense in t, so the
    # subgroup's own Gram is not under the cap
    code, out, _ = run_cli(capsys, "verify", "--subgroup", "1201,600", "--checks", "C25")
    assert code == 0 and out == "check_id,instances,failures,max_ratio\nC25,1,0,1.0\n"
