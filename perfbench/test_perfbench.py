"""The benchmark's own tests:  python3 -m pytest perfbench -q"""

import functools
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from hienergy import checks, groups, moments
from hienergy.gset import GSet
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@functools.cache
def run_bench(name: str, trace: int, attempt: int = 0) -> dict:
    """Last stdout line of a tiny run; `attempt` only tells repeated runs apart."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_op_lists_are_deterministic_in_the_seed(name):
    wl = workloads.WORKLOADS[name]
    first = [op.key() for op in wl.ops(7, 1, tiny=True)]
    assert first == [op.key() for op in wl.ops(7, 1, tiny=True)]
    assert first != [op.key() for op in wl.ops(8, 1, tiny=True)]


def committed_blocks(wl) -> int:
    return max(1, int(SPEC["run_seconds"] // wl.block_s))


@pytest.mark.parametrize("name", NAMES)
def test_warmup_inputs_never_equal_timed_inputs(name):
    wl = workloads.WORKLOADS[name]
    for seed in (1, 2024):
        timed = {op.key() for op in wl.ops(seed, committed_blocks(wl))}
        assert timed.isdisjoint(op.key() for op in wl.warmup(seed))


@pytest.mark.parametrize("name", NAMES)
def test_later_blocks_repeat_no_op_input(name):
    wl = workloads.WORKLOADS[name]
    blocks = committed_blocks(wl)
    assert blocks >= 2
    first = [op.key() for op in wl.ops(1, 1)]
    every = [op.key() for op in wl.ops(1, blocks)]
    later = len(every) - len(first)
    assert later > 0
    assert len(set(every)) == len(set(first)) + later


def test_host_scaling_divides_out_the_probes_near_each_op():
    timing = run.Timing()
    ref, k = run.PROBE_REF_MS, run.PROBE_NEAREST
    timing.probes = ([(i / k, ref) for i in range(k)]
                     + [(10.0 + i / k, 2 * ref) for i in range(k)])
    timing.spans = [(0.25, 0.75), (10.0, 10.5)]
    timing.finish = (11.0, 11.5)
    lat, finish = timing.scaled()
    assert lat == pytest.approx([0.5, 0.25])
    assert finish == pytest.approx(0.25)
    assert timing.run_s() == pytest.approx(1.0)
    assert timing.wall_s() == pytest.approx(1.5)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, section):
    out = run_bench(name, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    assert {m: v["unit"] for m, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_two_traced_runs_give_identical_counts(name):
    first, second = run_bench(name, 1), run_bench(name, 1, attempt=1)
    counts = [m for m, v in first["metrics"].items()
              if v["unit"] == "count" or m.endswith("_distinct_share")]
    assert counts
    assert {m: first["metrics"][m] for m in counts} == {m: second["metrics"][m] for m in counts}


def test_tracer_records_nested_spans_and_restores_the_originals():
    originals = (moments.correlate, moments.convolve, GSet.__init__, checks.run_check)
    tracer = Tracer()
    tracer.install()
    try:
        assert moments.correlate is not originals[0]
        a = GSet(groups.cyclic(8), [0, 1, 3])
        moments.energy_k(a, 2)
        moments.energy_k(a, 2)
    finally:
        tracer.uninstall()
    assert (moments.correlate, moments.convolve, GSet.__init__, checks.run_check) == originals
    names = [s[0] for s in tracer.spans]
    parents = {names[i]: names[s[3]] for i, s in enumerate(tracer.spans) if s[3] >= 0}
    assert parents["moments.convolve"] == "moments.correlate"
    assert parents["moments.correlate"] == "moments.energy_k"
    layers = tracer.layer_metrics()
    assert layers["moments.correlate_calls"] == (2, "count")
    assert layers["moments.correlate_distinct_share"] == (0.5, "ratio")
    assert all(t >= 0 for t in tracer.self_times())


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _brute_counts(a: GSet, k: int) -> dict:
    counts = {}
    for combo in itertools.product(a.elems, repeat=k):
        x = combo[0]
        for y in combo[1:]:
            x = groups.op_add(a.group, x, y)
        counts[x] = counts.get(x, 0) + 1
    return counts


@pytest.mark.parametrize("group,elems", [
    (groups.cyclic(8), [0, 1, 7, 3, 5]),
    (groups.lattice(1), [0, 2, -2, 3, -3]),
    (groups.lattice(2), [(0, 0), (1, -1), (-1, 1), (2, 0), (-2, 0)]),
])
def test_kronecker_reference_matches_brute_force(group, elems):
    a = GSet(group, elems)
    ref = workloads.KroneckerPowers(a, 4)
    zero = groups.zero(group)
    for k in range(1, 5):
        counts = _brute_counts(a, k)
        assert ref.t(k) == sum(c * c for c in counts.values())
        assert ref.sigma(k) == counts.get(zero, 0)
        assert ref.energy(k) == sum(c ** k for c in _brute_counts(a, 2).values())
