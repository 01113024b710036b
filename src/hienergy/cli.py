"""Command-line front end.

Exit codes: 0 ok, 1 hard-check or extraction failure or a refused
allocation, 2 usage error or a path the OS refuses (a set file, --b, --out,
--report or --csv), 3 cap exceeded.
All commands are deterministic for fixed inputs and seeds.  `main` builds
one frozen `Caps` from the --cap-* flags and hands it to the command, which
passes it down to every capped call: no command changes a module global.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, extract, genset, groups, moments, setops, spectrum
from .gset import GSet, SetFileError, dumps_set, full_group, read_set, write_set
from .setops import CapExceededError, Caps

USAGE_EXIT = 2
CAP_EXIT = 3
FAIL_EXIT = 1
# the order k without --k; only E_k takes a non-integer k
DEFAULT_K = {"Ek": 2, "Tk": 2, "sigmak": 2, "Dk": 2, "Sk": 2, "magk": 1, "multE": 2}


def _load_sets(args) -> list[GSet]:
    return ([read_set(path) for path in args.set or []]
            + [genset.gen(genset.parse_recipe(rec)) for rec in args.recipe or []])


def _positive(text: str) -> int:
    """The type of the flags that take an integer of at least 1: --cap-*,
    extract's --k, --trials and --cap, and suite's --count."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write(path: str, body: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)


def _emit(args, payload: dict, text_lines: list[str], table: str | None = None) -> None:
    """One body, ending in one newline, to stdout or to --out (then the path
    is printed): the payload under --json, the CSV table under --csv where
    the quantity has one, else the text lines."""
    if getattr(args, "json", False):
        body = groups.dumps_json(payload) + "\n"
    elif getattr(args, "csv", False) and table is not None:
        body = table
    else:
        body = "\n".join(text_lines) + "\n"
    if getattr(args, "out", None):
        _write(args.out, body)
        print(args.out)
    else:
        sys.stdout.write(body)


def cmd_compute(args, caps: Caps) -> int:
    sets = _load_sets(args)
    if not sets:
        print("compute needs --set or --recipe", file=sys.stderr)
        return USAGE_EXIT
    a = sets[0]
    b = read_set(args.b) if args.b else (sets[1] if len(sets) > 1 else a)
    if args.pre == "diff":
        a = setops.diffset(a, a)
    elif args.pre == "sum":
        a = setops.sumset(a, a)
    q = args.quantity
    k = DEFAULT_K.get(q) if args.k is None else args.k
    if k is not None and float(k).is_integer():
        k = int(k)
    elif q in DEFAULT_K and q != "Ek":
        print(f"{q} needs an integer --k, got {k}", file=sys.stderr)
        return USAGE_EXIT
    payload: dict = {"quantity": q, "set_size": len(a), "group": str(a.group)}
    lines: list[str] = []
    table = None   # the CSV text of spectrum and levels
    if q in ("Ek", "Tk", "sigmak", "Dk", "Sk"):
        name, fn = {"Ek": ("E", moments.energy_k), "Tk": ("T", moments.t_k),
                    "sigmak": ("sigma", moments.sigma_k), "Dk": ("D", setops.d_k),
                    "Sk": ("S", setops.s_k)}[q]
        v = fn(a, k, caps) if q in ("Dk", "Sk") else fn(a, k)
        payload["value"] = v
        lines = [f"{name}_{k}(A) = {v}"]
    elif q == "spectrum":
        arr = spectrum.dft(a)   # first: it refuses a lattice set in its own words
        rows = list(zip(full_group(a.group).coords.tolist(), arr.ravel().tolist()))
        table = "xi,re,im,abs\n" + "".join(
            f"\"{groups.format_elem(xi)}\",{v.real!r},{v.imag!r},{abs(v)!r}\n" for xi, v in rows)
        payload["values"] = [[str(tuple(xi)), abs(v)] for xi, v in rows]
        lines = table.splitlines()
    elif q == "Ralpha":
        r = spectrum.large_spectrum(a, args.alpha)
        payload["value"] = r.coords.tolist()
        payload["size"] = len(r)
        lines = [f"R_{args.alpha}(A): size {len(r)}", dumps_set(r).rstrip()]
    elif q == "dim":
        v = spectrum.dim_greedy(a) if args.greedy else spectrum.dim_exact(a)
        payload["value"] = v
        lines = [f"dim(A) = {v}" + (" (greedy lower bound)" if args.greedy else "")]
    elif q in ("mag", "magk"):
        r, z = setops.magnification_k(a, b, 1 if q == "mag" else k, caps)
        payload["value"] = str(r)
        payload["witness"] = z.coords.tolist()
        name = "R_B[A]" if q == "mag" else f"R^({k})_B[A]"
        lines = [f"{name} = {r} (= {float(r)}), witness |Z| = {len(z)}"]
    elif q == "levels":
        v = moments.level_sequence(a)
        payload["value"] = list(v)
        table = "rank,value\n" + "".join(f"{i+1},{x}\n" for i, x in enumerate(v))
        lines = [" ".join(map(str, v))]
    elif q == "multE":
        v = moments.mult_energy_k(a, k)
        payload["value"] = v
        payload["prodset"] = moments.prodset_size(a)
        payload["quotset"] = moments.quotset_size(a)
        lines = [f"E^x_{k}(A) = {v} (|AA| = {payload['prodset']}, |A/A| = {payload['quotset']})"]
    _emit(args, payload, lines, table)
    return 0


def cmd_gen(args, caps: Caps) -> int:
    a = genset.gen(genset.parse_recipe(args.recipe))
    if args.out:
        write_set(a, args.out)
        print(args.out)
    else:
        print(dumps_set(a), end="")
    return 0


def cmd_verify(args, caps: Caps) -> int:
    instances = []
    for i, a in enumerate(_load_sets(args)):
        kind = "intset" if args.intset and a.group == groups.lattice(1) else "set"
        instances.append(checks.Instance(kind, f"cli{i}", a))
    for spec_txt in args.subgroup or []:
        p, t = (int(x) for x in spec_txt.split(","))
        gamma = genset.mult_subgroup(p, t)
        instances.append(checks.Instance("subgroup", f"G(p={p},t={t})", gamma,
                                         {"p": p, "t": t}))
    if not instances:
        print("verify needs --set, --recipe or --subgroup", file=sys.stderr)
        return USAGE_EXIT
    return _run_checks(args, instances, caps)


def _run_checks(args, instances: list, caps: Caps) -> int:
    """Run the --checks ids (every id without the flag) on the instances,
    write --report/--csv, print the CSV summary and return the exit code."""
    ids = ([c.strip() for c in args.checks.split(",") if c.strip()]
           if args.checks else sorted(checks.REGISTRY))
    if not ids:   # the flag named only separators and blanks
        print("no check ids in --checks", file=sys.stderr)
        return USAGE_EXIT
    try:
        report = checks.run_suite(instances, ids, caps)
    except KeyError as exc:   # an unknown check id, refused before any check runs
        print(exc.args[0], file=sys.stderr)
        return USAGE_EXIT
    if args.report:
        _write(args.report, report.to_json())
        print(args.report)
    csv = report.to_csv()
    if getattr(args, "csv", None):
        _write(args.csv, csv)
    print(csv, end="")
    return _exit_code(report)


def _exit_code(report: checks.SuiteReport) -> int:
    """Print every error and hard failure to stderr; 1 for a hard failure or
    an error other than a cap, else 3 if a cap was hit, else 0."""
    for e in report.errors:
        print(f"error: {e}", file=sys.stderr)
    for r in report.hard_failures:
        print(f"HARD FAIL {r.check_id}: lhs={r.lhs} rhs={r.rhs} inputs={r.inputs}",
              file=sys.stderr)
    if report.hard_failures or report.capped < len(report.errors):
        return FAIL_EXIT
    return CAP_EXIT if report.capped else 0


def cmd_extract(args, caps: Caps) -> int:
    sets = _load_sets(args)
    if not sets:
        print("extract needs --set or --recipe", file=sys.stderr)
        return USAGE_EXIT
    a = sets[0]
    b = read_set(args.b) if args.b else (sets[1] if len(sets) > 1 else a)
    p = args.pipeline
    if p == "bsg1":
        rep = extract.bsg_extract(a, args.eps)
    elif p == "bsg2":
        nm = [tuple(int(x) for x in pair.split(",")) for pair in (args.nm or ["1,1"])]
        rep = extract.bsg_extract_v2(a, args.eps, nm=nm, seed=args.seed)
    elif p == "smallT4":
        rep = extract.small_t4_extract(a)
    elif p == "cs":
        rep = extract.cs_period_search(a, b, args.k, trials=args.trials, seed=args.seed)
    elif p == "config":
        coeffs = [int(x) for x in (args.c or "0,1,2").split(",")]
        found = extract.find_configuration(a, coeffs, args.sign)
        if found is None:
            print("none")
        else:
            print(f"x={','.join(map(str, found[0]))} d={','.join(map(str, found[1]))}")
        return 0
    elif p == "cover":
        n = extract.nb_cover(a, cap=args.cap)
        print("none" if n is None else str(n))
        return 0
    else:
        print(f"unknown pipeline {p!r}", file=sys.stderr)
        return USAGE_EXIT
    out = args.out or f"extract_{p}.json"
    _write(out, rep.to_json())
    summary = {"pipeline": rep.pipeline, "claimed": rep.claimed, "measured": rep.measured,
               "ratio": rep.ratio, "ok": rep.ok}
    print(json.dumps(summary, sort_keys=True))
    print(out)
    return 0 if rep.ok else FAIL_EXIT


def cmd_suite(args, caps: Caps) -> int:
    instances = []
    if args.standard:
        instances += checks.standard_corpus(seed=args.seed,
                                            cyclic_count=args.count,
                                            lattice_count=max(2, args.count // 10))
        instances += checks.basis_instances()
        instances += checks.subgroup_instances()
        instances += checks.intset_instances()
    for i, a in enumerate(_load_sets(args)):
        instances.append(checks.Instance("set", f"cli{i}", a))
    if not instances:
        print("suite needs --standard, --set or --recipe", file=sys.stderr)
        return USAGE_EXIT
    return _run_checks(args, instances, caps)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hienergy",
                                 description="exact convolution-moment laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_set_sources(p):
        p.add_argument("--set", action="append", help="set file (repeatable)")
        p.add_argument("--recipe", action="append", help="recipe literal (repeatable)")

    def add_caps(p):
        p.add_argument("--cap-tuples", type=_positive,
                       help="materialized-tuple work bound (default 10^7)")
        p.add_argument("--cap-subsets", type=_positive,
                       help="exhaustive-subset size bound (default 20)")

    pc = sub.add_parser("compute", help="compute one quantity of a set")
    pc.add_argument("quantity", choices=["Ek", "Tk", "sigmak", "Dk", "Sk", "spectrum",
                                         "Ralpha", "dim", "mag", "magk", "levels", "multE"])
    add_set_sources(pc)
    pc.add_argument("--b", help="second set file (mag/magk)")
    pc.add_argument("--k", type=float)
    pc.add_argument("--alpha", type=float, default=0.5)
    pc.add_argument("--greedy", action="store_true")
    pc.add_argument("--pre", choices=["none", "diff", "sum"], default="none",
                    help="replace A by A-A or A+A before computing")
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--csv", action="store_true")
    pc.add_argument("--out")
    add_caps(pc)
    pc.set_defaults(fn=cmd_compute)

    pg = sub.add_parser("gen", help="generate a set from a recipe literal")
    pg.add_argument("recipe")
    pg.add_argument("--out")
    pg.set_defaults(fn=cmd_gen)

    pv = sub.add_parser("verify", help="run registered checks")
    pv.add_argument("--checks", required=True, help="comma-separated check ids")
    add_set_sources(pv)
    pv.add_argument("--subgroup", action="append", help="p,t pair (repeatable)")
    pv.add_argument("--intset", action="store_true",
                    help="treat lattice sets as integer-set instances")
    pv.add_argument("--report", help="JSON report path")
    pv.add_argument("--csv", help="CSV summary path")
    add_caps(pv)
    pv.set_defaults(fn=cmd_verify)

    pe = sub.add_parser("extract", help="run an extraction pipeline")
    pe.add_argument("pipeline", choices=["bsg1", "bsg2", "smallT4", "cs", "config", "cover"])
    add_set_sources(pe)
    pe.add_argument("--b")
    pe.add_argument("--eps", type=float, default=1.0)
    pe.add_argument("--k", type=_positive, default=4)
    pe.add_argument("--trials", type=_positive, default=200)
    pe.add_argument("--seed", type=int, default=1)
    pe.add_argument("--nm", action="append", help="n,m pair (repeatable)")
    pe.add_argument("--c", help="configuration coefficients, comma-separated")
    pe.add_argument("--sign", choices=["-", "+"], default="-")
    pe.add_argument("--cap", type=_positive, default=64)
    pe.add_argument("--out")
    pe.set_defaults(fn=cmd_extract)

    ps = sub.add_parser("suite", help="sweep families of sets through checks")
    ps.add_argument("--checks")
    add_set_sources(ps)
    ps.add_argument("--standard", action="store_true", help="use the standard corpora")
    ps.add_argument("--seed", type=int, default=2024)
    ps.add_argument("--count", type=_positive, default=30)
    ps.add_argument("--report")
    add_caps(ps)
    ps.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    caps = Caps(**{name: getattr(args, f"cap_{name}") for name in ("tuples", "subsets")
                   if getattr(args, f"cap_{name}", None) is not None})
    try:
        return args.fn(args, caps)
    except SetFileError as exc:
        print(f"set file error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:   # a path the user named: missing, a directory, unwritable
        if exc.filename is None:   # no path, such as a closed pipe: not a usage error
            raise
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return CAP_EXIT
    except (extract.ExtractionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT
    except (ValueError, KeyError, groups.GroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
