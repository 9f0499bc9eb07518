"""Benchmark of ordagg: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload score_wide_chain --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; ordagg is imported from its
`src/`.  With `--trace 0` the run prints the end-to-end metrics, scaled
to a reference speed of the host (see `HostSpeed`); with `--trace 1` the
per-layer metrics from a separate traced run.  Every
output is checked after the timed loop; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

DEFAULT_SEED = 0
SETUP_TRIES = 25
# The reference host speed: the one at which `calibration_work` takes 1 ms.
CAL_REF_S = 0.001
PROBE_EVERY_S = 0.05
SPANS = BENCH / "tmp-spans"

# Tail percentile per workload: the highest that leaves at least ten
# samples beyond it at the seed commit's speed, where that is above the
# median.  A CLI run holds only about 20 queries, so ten beyond would mean
# p50; its p75 rests on about five.
TAIL_PCT = {"cli_wide_ground": 75, "score_wide_chain": 90, "score_narrow_chain": 99}


@dataclass
class Loop:
    """What one timed loop keeps: per operation a hash of its output and its
    wall time, in arrays, so that memory does not grow with the work done;
    and the outputs of its first mix cycle verbatim, for the digest."""

    first: int
    hashes: array = field(default_factory=lambda: array("q"))
    lat: array = field(default_factory=lambda: array("d"))
    head: list[str] = field(default_factory=list)
    raised: set[int] = field(default_factory=set)
    wall: float = 0.0


def timed_loop(wl, seconds: float, first: int = 0, tracer=None, between=None,
               cycles: int = 1) -> Loop:
    """Run operations back to back for `seconds`, and at least `cycles` mix
    cycles.  `between(i, elapsed)` runs before operation i; its time is left
    out of the loop's wall time and of its `seconds`.  An operation runs
    under a root span while `tracer` is installed."""
    loop = Loop(first)
    i = first
    aside = 0.0
    start = time.perf_counter()
    while i - first < cycles * wl.cycle or time.perf_counter() - start - aside < seconds:
        if between is not None:
            t = time.perf_counter()
            between(i, t - start - aside)
            aside += time.perf_counter() - t
        d = wl.draw(i)
        t0 = time.perf_counter()
        try:
            if tracer is not None and tracer.installed:
                out = tracer.run_op(i, lambda: wl.run(d))
            else:
                out = wl.run(d)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = f"raised {type(exc).__name__}: {exc}"
            loop.raised.add(i)
        loop.lat.append(time.perf_counter() - t0)
        loop.hashes.append(hash(out))
        if len(loop.head) < wl.cycle:
            loop.head.append(out)
        i += 1
    loop.wall = time.perf_counter() - start - aside
    return loop


def check_loops(wl, loops: list[Loop], verbose: bool = True) -> set[int]:
    """Indices of the operations that raised or whose output is wrong."""
    failed = set()
    for loop in loops:
        failed |= loop.raised
        for k, h in enumerate(loop.hashes):
            i = loop.first + k
            expect, problems = wl.expect(wl.draw(i))
            if hash(expect) != h:
                got = f" {loop.head[k]!r}" if k < len(loop.head) else ""
                problems.insert(0, f"output{got} differs from the reference {expect[:200]!r}")
            if problems:
                failed.add(i)
                if verbose:
                    print(f"check failed: op {i}: {'; '.join(problems)}")
    return failed


def digest(outs: list[str]) -> str:
    h = hashlib.sha256()
    for out in outs:
        h.update(out.encode())
        h.update(b"\0")
    return h.hexdigest()


def recorded_digests() -> dict[str, str]:
    with open(BENCH / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def digest_failures(workload: str, seed: int, outs: list[str]) -> tuple[set[int], str]:
    """Compare the digest of the first mix cycle's outputs with the one
    recorded at the seed commit; on a mismatch the whole cycle fails."""
    got = digest(outs)
    if seed != DEFAULT_SEED:
        return set(), f"digest={got} (recorded for seed {DEFAULT_SEED} only)"
    want = recorded_digests().get(workload)
    if got != want:
        return set(range(len(outs))), f"digest={got} DIFFERS from the recorded {want}"
    return set(), f"digest={got} (matches the recorded one)"


def make_workload(name: str, seed: int, tmp: str):
    if name == "cli_wide_ground":
        return workloads.CliWorkload(seed, str(SRC), str(Path(tmp) / "wide_ground.spec"))
    if name == "score_wide_chain":
        return workloads.wide_chain(seed, str(SRC))
    return workloads.narrow_chain(seed, str(SRC))


def mix_rate(loop: Loop, cycle: int, keep) -> float:
    """Operations per second over one balanced mix cycle, from the operations
    i with keep(i): the cycle length over the sum of the mean latencies of
    its slots, so that two sets with different shares of each slot compare
    fairly."""
    slots: dict[int, list[float]] = {}
    for k, lat in enumerate(loop.lat):
        if keep(loop.first + k):
            slots.setdefault((loop.first + k) % cycle, []).append(lat)
    return cycle / sum(statistics.fmean(v) for v in slots.values())


def cpu_s(children: bool) -> float:
    t = time.process_time()
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += ru.ru_utime + ru.ru_stime
    return t


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def middle_mean(values) -> float:
    """Mean of the values between the first and the third quartile.  Unlike
    the median it moves smoothly when the samples fall into two speed modes
    of the host, about half in each."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


class SetupTries:
    """`SETUP_TRIES` set-up tries spread evenly over a timed loop, run
    between its operations."""

    def __init__(self, wl, seconds: float):
        self.wl = wl
        self.every = seconds / SETUP_TRIES
        self.times: list[float] = []

    def __call__(self, i: int = 0, elapsed: float = float("inf")) -> None:
        while len(self.times) < SETUP_TRIES and elapsed >= len(self.times) * self.every:
            self.times.append(self.wl.setup_once())


def calibration_work() -> int:
    """A fixed piece of plain interpreter work of the kind ordagg does:
    dict updates, integer arithmetic and string building."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += len(str(i)) * (i & 7)
    return total


class HostSpeed:
    """Times `calibration_work` between operations, once per PROBE_EVERY_S
    of loop time.  On a shared machine the host's speed can drift by more than
    half over minutes, and operation times follow it; `scale` turns a time
    taken during the loop into one at the reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self.last = -PROBE_EVERY_S

    def __call__(self, i: int, elapsed: float) -> None:
        if elapsed - self.last >= PROBE_EVERY_S:
            self.last = elapsed
            t0 = time.perf_counter()
            calibration_work()
            self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return CAL_REF_S / statistics.fmean(self.times)


def end_to_end(name: str, wl, seconds: float) -> tuple[dict, list[Loop], list[str]]:
    is_cli = name == "cli_wide_ground"
    tries = SetupTries(wl, seconds)
    speed = HostSpeed()
    aside_cpu = 0.0

    def between(i: int, elapsed: float) -> None:
        nonlocal aside_cpu
        cpu0 = cpu_s(is_cli)
        tries(i, elapsed)
        speed(i, elapsed)
        aside_cpu += cpu_s(is_cli) - cpu0

    cpu0 = cpu_s(is_cli)
    loop = timed_loop(wl, seconds, between=between)
    cpu = cpu_s(is_cli) - cpu0 - aside_cpu
    tries()  # the ones still due when the loop ended
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    ops = len(loop.lat)
    pct = TAIL_PCT[name]
    tail = percentile(loop.lat, pct)
    beyond = sum(1 for x in loop.lat if x > tail)
    measured = {
        "ops_per_s": (ops / loop.wall, "1/s"),
        "latency_mid_ms": (1000 * middle_mean(loop.lat), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "cpu_ms_per_op": (1000 * cpu / ops, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(tries.times), "s"),
    }
    k = speed.scale()
    metrics = {key: (v * k, u) for key, (v, u) in measured.items()}
    metrics["ops_per_s"] = (measured["ops_per_s"][0] / k, "1/s")
    metrics["peak_rss_mb"] = measured["peak_rss_mb"]
    notes = [f"latency_tail_ms is p{pct} of {ops} samples, {beyond} beyond it",
             f"setup_s is the median of {len(tries.times)} tries spread over the loop",
             f"calibration work took {1000 * CAL_REF_S / k:.4g} ms on average over "
             f"{len(speed.times)} probes; times are scaled by {k:.4g} to the reference "
             f"speed, where it takes {1000 * CAL_REF_S:g} ms",
             "as measured: " + " ".join(f"{key}={v:.6g}" for key, (v, _) in measured.items())
             + f" latency_p50_ms={1000 * statistics.median(loop.lat):.6g}"]
    return metrics, [loop], notes


def traced_op(i: int, cycle: int) -> bool:
    """Every other operation, shifted by one each mix cycle, so that each
    slot of an even-length mix runs both traced and untraced."""
    return (i + i // cycle) % 2 == 1


def per_layer(wl, seconds: float, tr: Tracer) -> tuple[dict, list[Loop], list[str]]:
    """Alternate untraced and traced operations in one loop, so that both
    sides sample the host at the same moments."""
    wl.build()

    def switch(i: int, _elapsed: float) -> None:
        if traced_op(i, wl.cycle) != tr.installed:
            (tr.install if not tr.installed else tr.uninstall)()

    try:
        loop = timed_loop(wl, seconds, tracer=tr, between=switch, cycles=2)
    finally:
        tr.uninstall()
    rate = mix_rate(loop, wl.cycle, lambda i: not traced_op(i, wl.cycle))
    traced_rate = mix_rate(loop, wl.cycle, lambda i: traced_op(i, wl.cycle))
    metrics = layer_metrics(tr)
    metrics["trace.overhead_pct"] = (100 * (rate - traced_rate) / rate, "%")
    traced = sum(traced_op(i, wl.cycle) for i in range(len(loop.lat)))
    notes = [f"traced {traced} of {len(loop.lat)} in-process operations "
             f"({len(tr.starts)} spans), alternating with untraced ones"]
    return metrics, [loop], notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ordagg" / "__init__.py").is_file():
        print(f"error: no ordagg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and the CLI's children, so that the host-speed
    # probes time the CPU the operations run on: the two CPUs of a shared
    # machine can run at different speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        wl = make_workload(args.workload, args.seed, tmp)
        if args.trace:
            tr = Tracer()
            metrics, loops, notes = per_layer(wl, args.seconds, tr)
            SPANS.mkdir(exist_ok=True)
            spans = SPANS / f"{args.workload}.tsv"
            tr.write(str(spans))
            notes.append(f"spans written to {spans.relative_to(BENCH.parent)}")
        else:
            metrics, loops, notes = end_to_end(args.workload, wl, args.seconds)
        failed = check_loops(wl, loops)

    first = loops[0]
    bad, note = digest_failures(args.workload, args.seed, first.head)
    failed |= bad
    notes.append(note)

    attempted = sum(len(loop.lat) for loop in loops)
    if not args.trace:
        # only correct operations count towards throughput
        rate, unit = metrics["ops_per_s"]
        metrics["ops_per_s"] = (rate * (attempted - len(failed)) / attempted, unit)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"{key}={value:.6g} {unit}")
    print(f"error_rate={len(failed) / attempted:.6g} ({len(failed)} of {attempted} failed)")
    for note in notes:
        print(note)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
