"""The benchmark's three workloads: op lists, warm-up inputs and output checks.

A workload turns a seed into a fixed list of ops.  One op is one call into
hienergy, timed on its own.  After the timed phase every op's output is
checked by a path that shares no code with the one under test: the check
verdict itself for the registry, and exact references computed here (NumPy
FFTs on small integers, or Kronecker substitution into Python integers) for
the moment workloads.

The shapes of the ops (group, set size, moment, order) are fixed; the seed
only draws the elements.  That keeps the work in a run the same from seed to
seed, so run-to-run spread is host noise, not input size.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from hienergy import checks, genset, groups, moments, setops
from hienergy.gset import GSet

# Known defects that make some ops fail at the parent commit.  An op carries
# the defect that may make it fail; a failure of any other op is a new bug.
C9_DEFECT = ("C9 bound drops below 1 on dense sets although R_alpha always holds 0 "
             "(no ROADMAP item yet)")
INT64_DEFECT = "int64 wraparound in conv_power (ROADMAP item 2)"

SUITE_SEED = 2024       # `hienergy suite --standard` default corpus seed
SUITE_COUNT = 30        # `hienergy suite --standard --count 30`


@dataclass
class Op:
    """One call into the program.

    `args` are the op's inputs, `label` names where they came from, and
    `defect` names the known defect that may make this op fail ("" if none).
    """

    kind: str
    args: tuple
    label: str = ""
    defect: str = ""

    def key(self) -> str:
        """Digest of the kind and inputs, to compare op lists cheaply."""
        h = hashlib.sha1(self.kind.encode())
        _feed(h, self.args)
        return h.hexdigest()


def _feed(h, x) -> None:
    if isinstance(x, GSet):
        h.update(f"GSet {groups.format_group(x.group)} {len(x)}:".encode())
        h.update(np.asarray(x.elems, dtype=np.int64).tobytes())
    elif isinstance(x, dict):
        for k in sorted(x):
            h.update(f"{k}=".encode())
            _feed(h, x[k])
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        if x and all(type(v) is int for v in x):
            h.update(np.asarray(x, dtype=np.int64).tobytes())
        else:
            for v in x:
                _feed(h, v)
        h.update(b"]")
    else:
        h.update(f"{x!r};".encode())


# ---------------------------------------------------------------------------
# registry_sweep


def _suite_instances(corpus_seed, tiny: bool) -> list[checks.Instance]:
    """The instances `hienergy suite --standard` sweeps (a cut-down list if tiny)."""
    if tiny:
        return (checks.standard_corpus(seed=corpus_seed, cyclic_count=3, lattice_count=1)
                + checks.basis_instances()[:1] + checks.subgroup_instances(p_max=7)
                + checks.intset_instances()[:1])
    return (checks.standard_corpus(seed=corpus_seed, cyclic_count=SUITE_COUNT,
                                   lattice_count=max(2, SUITE_COUNT // 10))
            + checks.basis_instances() + checks.subgroup_instances()
            + checks.intset_instances())


def _registry_ops(instances: list[checks.Instance]) -> list[Op]:
    """The suite's loop nest: every instance, every check id, every grid point."""
    ops = []
    for inst in instances:
        for cid in sorted(checks.REGISTRY):
            for params in checks.default_grid(cid, inst):
                ops.append(Op(cid, (cid, params), inst.label,
                              C9_DEFECT if cid == "C9" else ""))
    return ops


class RegistrySweep:
    """Every registered check over the standard suite corpus.

    Block 0 is the corpus `hienergy suite --standard --count 30` evaluates,
    so every seed times the same 3,896 checks; the seed rotates its instance
    order and draws the warm-up corpus.  Block j > 0 sweeps the random part
    of the corpus of seed 2024 + j under fresh labels (so fresh derived
    sets), and none of the fixed instances again: no op input repeats.
    """

    name = "registry_sweep"
    block_s = 15.0

    def ops(self, seed: int, blocks: int, tiny: bool = False) -> list[Op]:
        insts = _suite_instances(SUITE_SEED, tiny)
        r = seed % len(insts)
        out = _registry_ops(insts[r:] + insts[:r])
        for j in range(1, blocks):
            corpus = _suite_instances(SUITE_SEED + j, tiny)
            out += _registry_ops([checks.Instance(i.kind, f"b{j}:{i.label}", i.a, i.extra)
                                  for i in corpus if i.label.startswith(("cyc", "lat"))])
        return out

    def warmup(self, seed: int, tiny: bool = False) -> list[Op]:
        # Fresh labels give fresh derived sets (Instance.derived seeds on them);
        # the fixed basis, subgroup and intset instances get stand-ins.
        corpus = checks.standard_corpus(seed=f"warm-up:{seed}", cyclic_count=3,
                                        lattice_count=1)
        insts = [checks.Instance(i.kind, f"warm{n}:{i.a.group}", i.a)
                 for n, i in enumerate(corpus)]
        insts.append(checks.Instance("set", "warm-basis", GSet(groups.cyclic(9), range(8)),
                                     {"basis_depth": 2, "plus_basis": True}))
        insts.append(checks.Instance("subgroup", "warm-subgroup", genset.mult_subgroup(19, 3),
                                     {"p": 19, "t": 3}))
        insts.append(checks.Instance("intset", "warm-interval", GSet(groups.lattice(1),
                                                                     range(1, 11))))
        return _registry_ops(insts)

    def run(self, op: Op):
        cid, params = op.args
        result = checks.run_check(cid, params)
        result.inputs["instance"] = op.label
        return result

    def finish(self, outputs: list) -> None:
        """The suite's report step, which `hienergy suite` also pays for."""
        report = checks.SuiteReport(
            results=[o for o in outputs if isinstance(o, checks.CheckResult)])
        report.to_json()
        report.to_csv()

    def check(self, ops: list[Op], outputs: list) -> list[bool]:
        """A hard check that fails, or any check that raises, is a failed op."""
        return [isinstance(o, checks.CheckResult) and (o.passed or not o.hard)
                for o in outputs]


# ---------------------------------------------------------------------------
# large_cyclic

# (log2 N, density, kinds): one op per kind, each on a fresh random set.
# "sqrt" density means |A| = sqrt(N).  The block has 183 ops in four tiers of
# cost: nine ops of 0.3-3 s at N >= 2^18, twenty of about 0.15 s (where the
# p90 falls), 46 between, and 108 cheap ops at N = 2^14 (where the median
# falls), so neither percentile sits on a gap between tiers.
_KINDS = "E2 E3 E4 T2 T3 levels "
_LC_FULL = [
    (20, "1/2", "E2"),
    (20, "1/8", "E3 T2"),
    (20, "1/64", "E4 levels"),
    (20, "sqrt", "T3 E2"),
    (18, "1/2", "T3"),
    (18, "sqrt", "sumset"),
    (16, "1/2", _KINDS * 3),
    (18, "1/8", "E2 levels"),
    (18, "1/64", "E3 E4 T2"),
    (18, "sqrt", "E2 levels"),
    (16, "1/8", "T2 levels E2 E3"),
    (16, "1/64", "E4 T3 T2 levels"),
    (16, "sqrt", "E2 T3 levels"),
    (14, "1/2", _KINDS * 2),
    (14, "1/8", _KINDS * 2),
    (14, "sqrt", "sumset " * 6),
    (14, "1/64", _KINDS * 9),
    (14, "sqrt", _KINDS * 9),
]
_LC_TINY = [(10, "1/2", "E2 T3"), (10, "sqrt", "sumset levels"), (12, "1/8", "E3 E4 T2")]
# Warm-up: every kind once, and one FFT at every timed size.
_LC_WARM = [(14, "1/8", _KINDS), (14, "sqrt", "sumset"),
            (16, "sqrt", "E2"), (18, "sqrt", "E2"), (20, "sqrt", "E2")]
_LC_WARM_TINY = [(10, "1/8", _KINDS + "sumset")]

_LC_KINDS = {
    "E2": lambda a: moments.energy_k(a, 2),
    "E3": lambda a: moments.energy_k(a, 3),
    "E4": lambda a: moments.energy_k(a, 4),
    "T2": lambda a: moments.t_k(a, 2),
    "T3": lambda a: moments.t_k(a, 3),
    "levels": lambda a: moments.level_sequence(a),
    "sumset": lambda a: len(setops.sumset(a, a)),
}


def _spread(ops: list[Op]) -> list[Op]:
    """The ops in a fixed low-discrepancy order (index times the golden ratio,
    mod 1).  Ops of one shape, adjacent in the schedule, then run all through
    the timed phase and sample the host's drifting speed evenly rather than
    in one burst; and every seed runs the shapes in the same order."""
    step = (5 ** 0.5 - 1) / 2
    return [ops[i] for i in sorted(range(len(ops)), key=lambda i: (i * step) % 1.0)]


def _set_size(n: int, density: str) -> int:
    return math.isqrt(n) if density == "sqrt" else n // int(density.split("/")[1])


def _lc_ops(schedule, rng: np.random.Generator) -> list[Op]:
    ops = []
    for log_n, density, kinds in schedule:
        n = 1 << log_n
        for kind in kinds.split():
            elems = rng.choice(n, _set_size(n, density), replace=False).tolist()
            ops.append(Op(kind, (n, elems), f"Z/2^{log_n} {density}"))
    return ops


class LargeCyclic:
    """One op builds a GSet in Z/N from an element list and computes one moment."""

    name = "large_cyclic"
    block_s = 15.0

    def ops(self, seed: int, blocks: int, tiny: bool = False) -> list[Op]:
        schedule = _LC_TINY if tiny else _LC_FULL
        return _spread([op for j in range(blocks)
                        for op in _lc_ops(schedule, np.random.default_rng([seed, 1, j]))])

    def warmup(self, seed: int, tiny: bool = False) -> list[Op]:
        return _lc_ops(_LC_WARM_TINY if tiny else _LC_WARM, np.random.default_rng([seed, 0]))

    def run(self, op: Op):
        n, elems = op.args
        return _LC_KINDS[op.kind](GSet(groups.cyclic(n), elems))

    def finish(self, outputs: list) -> None:
        pass

    def check(self, ops: list[Op], outputs: list) -> list[bool]:
        return [not isinstance(out, Exception) and _lc_reference(op) == out
                for op, out in zip(ops, outputs)]


def _lc_reference(op: Op):
    n, elems = op.args
    ind = np.zeros(n, dtype=np.int64)
    ind[elems] = 1
    if op.kind == "sumset":
        return int(np.count_nonzero(_conv_with_set(ind, ind)))
    if op.kind == "T3":
        return _power_sum(_conv_with_set(_conv_with_set(ind, ind), ind), 2)
    f = np.fft.rfft(ind)
    corr = _rounded(np.fft.irfft(f.conj() * f, n))      # A o A
    if op.kind == "levels":
        vals = corr[corr > 0]
        return np.sort(vals)[::-1].tolist()
    k = 2 if op.kind == "T2" else int(op.kind[1:])       # T_2 = E_2
    return _power_sum(corr, k)


def _rounded(x: np.ndarray) -> np.ndarray:
    r = np.rint(x)
    if float(np.abs(x - r).max()) > 0.05:
        raise ArithmeticError("reference FFT is not exact at this size")
    return r.astype(np.int64)


def _conv_with_set(x: np.ndarray, ind: np.ndarray) -> np.ndarray:
    """Exact cyclic x * 1_A: x is split into 10-bit limbs, so each FFT output
    is at most 1023 |A| and rounds exactly."""
    n = len(ind)
    fa = np.fft.rfft(ind)
    out = np.zeros(n, dtype=np.int64)
    shift = 0
    while x.any():
        out += _rounded(np.fft.irfft(np.fft.rfft(x & 1023) * fa, n)) << shift
        x = x >> 10
        shift += 10
    return out


def _power_sum(values: np.ndarray, k: int) -> int:
    """sum v^k over the positive entries, in Python integers."""
    vals, counts = np.unique(values[values > 0], return_counts=True)
    return sum(int(c) * int(v) ** k for v, c in zip(vals, counts))


# ---------------------------------------------------------------------------
# high_moments

# (group, half-width): symmetric sets of density about 1/2.  A cyclic group
# is Z/2^w; a lattice set lies in [-w, w]^d.  Each set gets 15 ops.
_HM_FULL = [("cyclic", 10)] * 11 + [("cyclic", 12)] * 2 + [("cyclic", 14),
                                                           ("Z", 1000), ("Z^2", 18)]
_HM_TINY = [("cyclic", 6), ("Z", 20), ("Z^2", 3)]
_HM_WARM = [("cyclic", 10), ("Z", 100), ("Z^2", 6)]
_HM_WARM_TINY = [("cyclic", 5), ("Z", 10)]
_HM_FUNCS = ("energy_k", "t_k", "sigma_k")
_HM_ORDERS = range(2, 7)


def _symmetric_set(kind: str, w: int, rng: np.random.Generator) -> GSet:
    """0 plus a random half of the pairs {x, -x}."""
    if kind == "cyclic":
        n = 1 << w
        g = groups.cyclic(n)
        pos = [(x,) for x in range(1, n // 2)]
        neg = lambda e: (n - e[0],)
    else:
        dim = 1 if kind == "Z" else 2
        g = groups.lattice(dim)
        box = np.array(np.meshgrid(*[np.arange(-w, w + 1)] * dim, indexing="ij"))
        pts = [tuple(int(c) for c in p) for p in box.reshape(dim, -1).T]
        pos = [p for p in pts if p > (0,) * dim]
        neg = lambda e: tuple(-c for c in e)
    pick = rng.choice(len(pos), len(pos) // 2, replace=False)
    elems = [(0,) * g.dim] + [pos[i] for i in pick] + [neg(pos[i]) for i in pick]
    return GSet(g, elems)


def _hm_ops(plan, rng: np.random.Generator) -> list[Op]:
    ops = []
    for kind, w in plan:
        a = _symmetric_set(kind, w, rng)
        label = f"{groups.format_group(a.group)} |A|={len(a)}"
        for fn in _HM_FUNCS:
            for k in _HM_ORDERS:
                # conv_power keeps int64 tables; |A|^(k-1) bounds their entries.
                wraps = fn != "energy_k" and len(a) ** (k - 1) >= 2 ** 63
                ops.append(Op(f"{fn}_{k}", (a, fn, k), label, INT64_DEFECT if wraps else ""))
    return ops


class HighMoments:
    """Orders 2..6 of E_k, T_k and sigma_k on dense symmetric sets."""

    name = "high_moments"
    block_s = 15.0

    def ops(self, seed: int, blocks: int, tiny: bool = False) -> list[Op]:
        plan = _HM_TINY if tiny else _HM_FULL
        return _spread([op for j in range(blocks)
                        for op in _hm_ops(plan, np.random.default_rng([seed, 1, j]))])

    def warmup(self, seed: int, tiny: bool = False) -> list[Op]:
        return _hm_ops(_HM_WARM_TINY if tiny else _HM_WARM, np.random.default_rng([seed, 0]))

    def run(self, op: Op):
        a, fn, k = op.args
        return getattr(moments, fn)(a, k)

    def finish(self, outputs: list) -> None:
        pass

    def check(self, ops: list[Op], outputs: list) -> list[bool]:
        refs: dict[int, KroneckerPowers] = {}
        verdicts = []
        for op, out in zip(ops, outputs):
            a, fn, k = op.args
            if isinstance(out, Exception):
                verdicts.append(False)
                continue
            ref = refs.get(id(a))
            if ref is None:
                ref = refs[id(a)] = KroneckerPowers(a, max(_HM_ORDERS))
            want = {"energy_k": ref.energy, "t_k": ref.t, "sigma_k": ref.sigma}[fn](k)
            verdicts.append(out == want)
        return verdicts


class KroneckerPowers:
    """Exact k-fold sum counts of a symmetric set, by Kronecker substitution.

    The set becomes the integer P = sum 2^(W enc(a)); P^k holds the counts
    r_kA(x) in W-bit slots.  Python's integer product is exact, so this
    shares nothing with hienergy's convolution engine.  For symmetric A,
    A o A = A * A, so E_k needs only P^2.
    """

    def __init__(self, a: GSet, kmax: int):
        g = a.group
        # every slot of P^j holds at most |A|^(j-1) < 2^W
        self.width = 8 * math.ceil(((kmax - 1) * math.log2(max(2, len(a))) + 2) / 8)
        w = self.width
        if g.is_cyclic:
            if g.dim != 1:
                raise ValueError("Kronecker reference needs Z/N or a lattice")
            self.slots = g.order
            self.zero = lambda k: 0
            enc = lambda e: e[0]
        else:
            half = max(abs(c) for e in a.elems for c in e)
            stride = kmax * 2 * half + 1
            self.slots = stride ** g.dim
            # (x + half, y + half) -> (x + half) stride + (y + half); k-fold sums never carry
            enc = lambda e: sum((c + half) * stride ** (g.dim - 1 - i) for i, c in enumerate(e))
            self.zero = lambda k: sum(k * half * stride ** i for i in range(g.dim))
        p = 0
        for e in a.elems:
            p |= 1 << (w * enc(e))
        self.powers = [1, p]
        fold = (1 << (w * self.slots)) - 1 if g.is_cyclic else 0
        for _ in range(2, kmax + 1):
            q = self.powers[-1] * p
            if fold:
                q = (q & fold) + (q >> (w * self.slots))
            self.powers.append(q)
        self._coeffs: dict[int, list[int]] = {}

    def coeffs(self, k: int) -> list[int]:
        if k not in self._coeffs:
            step = self.width // 8
            raw = self.powers[k].to_bytes(step * self.slots, "little")
            self._coeffs[k] = [c for c in (int.from_bytes(raw[i:i + step], "little")
                                           for i in range(0, len(raw), step)) if c]
        return self._coeffs[k]

    def t(self, k: int) -> int:
        return sum(c * c for c in self.coeffs(k))

    def sigma(self, k: int) -> int:
        return (self.powers[k] >> (self.width * self.zero(k))) & ((1 << self.width) - 1)

    def energy(self, k: int) -> int:
        return sum(c ** k for c in self.coeffs(2))


WORKLOADS = {w.name: w for w in (RegistrySweep(), LargeCyclic(), HighMoments())}
