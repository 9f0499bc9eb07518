"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

from ordagg import Chain, GroundSet, Measure, SetFamily  # noqa: E402
from ordagg.specfile import parse  # noqa: E402

TINY_CLI = dict(n=4, size=11, half=10, part_share=0.3, nfuncs=2)


def tiny_score(seed: int = 3) -> workloads.ScoreWorkload:
    return workloads.ScoreWorkload(seed, str(run.SRC), n=3, m_size=11, l_size=21,
                                   half=10, labelled=False, identity=False)


def test_same_seed_gives_identical_inputs():
    assert gen.cli_inputs(7, **TINY_CLI) == gen.cli_inputs(7, **TINY_CLI)
    assert gen.cli_inputs(7, **TINY_CLI).text != gen.cli_inputs(8, **TINY_CLI).text
    args = (5, 101, 101, 100, True, True)
    assert gen.score_inputs(7, *args) == gen.score_inputs(7, *args)
    a, b = tiny_score(7), tiny_score(7)
    assert [a.draw(i) for i in range(40)] == [b.draw(i) for i in reversed(range(40))][::-1]


def test_sweep_matches_the_brute_force_envelope():
    rng = random.Random(1)
    n = 5
    raw = [rng.randrange(50) for _ in range(1 << n)]
    swept = list(raw)
    gen.upper_sweep(swept, n)
    assert swept == [max(raw[b] for b in range(1 << n) if b & a == b) for a in range(1 << n)]


def test_generated_measures_pass_validation():
    for n in (1, 4, 8):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        table = gen.monotone_table(gen.rng_for(0, "t"), n, 100)
        Measure(SetFamily.full(ground), Chain("m", 101), dict(enumerate(table)))
    sf = parse(gen.cli_inputs(2, **TINY_CLI).text)
    assert set(sf.measures) == {"mu", "part", "cl"}
    assert not sf.measures["part"].is_total()


def test_decimal_labels_refuse_inexact_grids():
    assert gen.decimal_labels(11)[3] == "0.3"
    with pytest.raises(ValueError):
        gen.decimal_labels(3001)


def test_correct_outputs_pass_and_a_corrupted_result_fails():
    wl = tiny_score()
    wl.build()
    loop = run.timed_loop(wl, 0.0)
    assert len(loop.lat) == len(loop.head) == wl.cycle
    assert run.check_loops(wl, [loop], verbose=False) == set()
    loop.hashes[4] = hash(loop.head[4].replace("]", "0]", 1))
    assert run.check_loops(wl, [loop], verbose=False) == {4}


def test_cli_queries_pass_in_process_and_a_corrupted_stdout_fails(tmp_path):
    wl = workloads.CliWorkload(1, str(run.SRC), str(tmp_path / "t.spec"), **TINY_CLI)
    wl.build()
    loop = run.timed_loop(wl, 0.0)
    assert run.check_loops(wl, [loop], verbose=False) == set()
    loop.hashes[0] = hash(loop.head[0].replace("exit=0", "exit=3"))
    assert run.check_loops(wl, [loop], verbose=False) == {0}


def test_a_corrupted_digest_fails_every_digested_operation():
    recorded = run.recorded_digests()
    assert set(recorded) == set(run.TAIL_PCT)
    outs = ["interval=[1,2]"] * 10
    bad, note = run.digest_failures("score_wide_chain", run.DEFAULT_SEED, outs)
    assert bad == set(range(10)) and "DIFFERS" in note
    bad, _ = run.digest_failures("score_wide_chain", run.DEFAULT_SEED + 1, outs)
    assert bad == set()


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 6] and c [7, 9]; a holds b [2, 4]
    parents = [-1, 0, 1, 0]
    durations = [10.0, 5.0, 2.0, 2.0]
    assert self_times(parents, durations) == [3.0, 3.0, 2.0, 2.0]


def test_layer_metrics_from_spans():
    tr = Tracer()
    spans = [("bench.op", -1, 0.0, 10.0), ("aggregation.fan_sugeno", 0, 1.0, 6.0),
             ("correspondences.inverse", 1, 2.0, 4.0), ("aggregation.fan_sugeno", 1, 4.5, 5.5)]
    for name, parent, start, end in spans:
        tr.names.append(tr._name_id(name))
        tr.parents.append(parent)
        tr.starts.append(start)
        tr.ends.append(end)
        tr.ops.append(0)
    m = {k: v for k, (v, _) in layer_metrics(tr).items()}
    # nested fan_sugeno spans count once, at the outermost
    assert m["aggregation.fan_sugeno_ms"] == 5000.0
    assert m["correspondences.inverse_ms"] == 2000.0
    assert m["aggregation.self_ms"] == 3000.0
    assert m["correspondences.self_share"] == 20.0


def test_tracer_restores_the_package():
    import ordagg
    import ordagg.aggregation as agg

    before = (ordagg.fan_sugeno, agg.inverse, ordagg.Measure.__init__)
    tr = Tracer()
    tr.install()
    try:
        assert agg.inverse is not before[1]
        wl = tiny_score()
        wl.build()
        for i in range(wl.cycle):
            tr.run_op(i, lambda: wl.run(wl.draw(i)))
    finally:
        tr.uninstall()
    assert (ordagg.fan_sugeno, agg.inverse, ordagg.Measure.__init__) == before
    m = layer_metrics(tr)
    assert m["correspondences.inverse_ms"][0] > 0
    assert m["aggregation.quantile_calls"][0] > 0


def test_traced_run_reports_the_declared_per_layer_metrics(tmp_path):
    wl = tiny_score()
    tr = Tracer()
    metrics, loops, _ = run.per_layer(wl, 0.2, tr)
    assert not tr.installed
    assert run.check_loops(wl, loops, verbose=False) == set()
    # every other operation runs traced, under one root span each
    ops = len(loops[0].lat)
    roots = [k for k in tr.names if k == tr.name_ids["bench.op"]]
    assert len(roots) == sum(run.traced_op(i, wl.cycle) for i in range(ops))
    assert abs(2 * len(roots) - ops) <= 1
    tr.write(str(tmp_path / "s.tsv"))
    lines = (tmp_path / "s.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["span", "op", "name", "parent", "start", "end"]
    assert lines[1].split("\t")[2:4] == ["bench.op", "-1"]
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_each_slot_runs_traced_and_untraced():
    cycle = workloads.ScoreWorkload.cycle
    for slot in range(cycle):
        assert {run.traced_op(c * cycle + slot, cycle) for c in range(2)} == {False, True}


def test_setup_tries_are_spread_over_the_loop_and_left_out_of_its_time():
    wl = tiny_score()
    wl.build()
    tries = run.SetupTries(wl, 1.0)
    loop = run.timed_loop(wl, 1.0, between=tries)
    done = len(tries.times)
    tries()
    assert 1 < done <= run.SETUP_TRIES == len(tries.times)
    # a try takes a fresh interpreter, so the loop's own time stays near 1 s
    assert 1.0 <= loop.wall < 1.0 + sum(tries.times) / 2


def test_host_speed_probes_once_per_interval_and_scales_to_the_reference():
    speed = run.HostSpeed()
    for k in range(40):
        speed(k, k * 0.3 * run.PROBE_EVERY_S)
    assert len(speed.times) == 10
    speed.times = [2 * run.CAL_REF_S, 2 * run.CAL_REF_S]
    assert speed.scale() == 0.5


def test_middle_mean_drops_the_outer_quarters():
    assert run.middle_mean([100, 1, 2, 3, 4, 5, 6, -50]) == 3.5


def test_tiny_run_finishes_in_seconds(tmp_path):
    start = time.perf_counter()
    wl = tiny_score()
    wl.build()
    loop = run.timed_loop(wl, 0.5)
    assert run.check_loops(wl, [loop], verbose=False) == set()
    assert len(loop.lat) > wl.cycle
    assert time.perf_counter() - start < 10


def test_command_prints_one_json_line_per_contract():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "score_narrow_chain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=BENCH.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "score_narrow_chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_sets_in_chain_measure_are_nested():
    sets = gen.inclusion_chain(random.Random(4), 9, 6)
    assert sets[0] == 0 and sets[-1] == (1 << 9) - 1
    assert all(a & b == a for a, b in combinations(sets, 2))
