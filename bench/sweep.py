"""Scaling sweep: time each layer of ordagg over the grid of shapes.

    python3 bench/sweep.py

Not part of the repeated workload runs.  For each (n, L) on the grid it
writes a spec with a full 2**n-row table measure on an L-point scale, one
function on the same scale and the identity comm, all drawn from seed 0.
It then times parsing, validation and each stage of `fan_sugeno` once
(the median of three when a stage is fast).  It reports the growth
exponent of each stage in L, from (8, 1001) to (8, 3001), and in 2**n,
from (10, 101) to (16, 101).  Expected at the seed commit: `inverse`
grows with M*L (exponent 2 in L here, where M = L), parsing with
2**n * L, validation with n * 2**n.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

import gen

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 0

GRID = ((5, 11), (10, 101), (16, 101), (8, 1001), (8, 3001), (4, 10000))
L_PAIR = ((8, 1001), (8, 3001))
N_PAIR = ((10, 101), (16, 101))


def spec_text(seed: int, n: int, size: int) -> str:
    """One unlabelled scale for the measure and the function, so that every
    grid size has distinct labels and `sugeno_integral` applies."""
    rng = gen.rng_for(seed, f"sweep:{n}:{size}")
    mu = gen.monotone_table(rng, n, size - 1)
    names = [f"e{i}" for i in range(n)]
    out = [f"scale m {size}", "omega " + " ".join(names),
           "measure mu scale=m kind=table"]
    for mask, v in enumerate(mu):
        out.append("  {" + ",".join(names[i] for i in range(n) if mask >> i & 1) + f"}} {v}")
    out.append("function f scale=m")
    out.extend(f"  {name} {rng.randrange(size)}" for name in names)
    out.append("comm id from=m to=m")
    return "\n".join(out) + "\n"


def timed(call) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = call()
    first = time.perf_counter() - t0
    if first > 0.2:
        return first, result
    times = [first]
    for _ in range(2):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def stages(seed: int, n: int, size: int) -> dict[str, float]:
    import ordagg as o
    from ordagg.specfile import parse

    text = spec_text(seed, n, size)
    out = {}
    out["parse"], sf = timed(lambda: parse(text))
    mu, f, ell = sf.measures["mu"], sf.functions["f"], sf.comms["id"]
    out["validate"], _ = timed(lambda: o.Measure(mu.family, mu.scale, mu.values))
    out["distribution"], g = timed(lambda: o.distribution(mu, f))
    out["as_corr"], gc = timed(g.as_corr)
    out["inverse"], ginv = timed(lambda: o.inverse(gc))
    out["saturate"], q = timed(lambda: o.sharp_saturate(ginv))
    ec = ell.as_corr()
    out["product"], iv = timed(lambda: o.inner_product(ec, q))
    out["dual_product"], _ = timed(lambda: o.dual_product(ec, q))
    out["format"], _ = timed(lambda: o.format_interval(iv))
    out["fan_sugeno"], _ = timed(lambda: o.fan_sugeno(mu, f, ell))
    out["sugeno_integral"], _ = timed(lambda: o.sugeno_integral(mu, f))
    return out


def growth(a: float, b: float, ratio: float) -> float | None:
    """Exponent k with b / a = ratio**k, or None when a time reads zero."""
    if a <= 0 or b <= 0:
        return None
    return math.log(b / a) / math.log(ratio)


def fmt_exp(k: float | None, width: int) -> str:
    return f"{'-' if k is None else f'{k:.2f}':>{width}}"


def main() -> int:
    if not (SRC / "ordagg" / "__init__.py").is_file():
        print(f"error: no ordagg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    results = {}
    for n, size in GRID:
        t0 = time.perf_counter()
        results[(n, size)] = stages(SEED, n, size)
        print(f"# (n={n}, L={size}) done in {time.perf_counter() - t0:.1f} s", flush=True)

    names = list(results[GRID[0]])
    header = "stage".ljust(16) + "".join(f"{f'({n},{s})':>13}" for n, s in GRID)
    print(header + f"{'exp in L':>10}{'exp in 2^n':>12}")
    report = {}
    for name in names:
        row = [results[key][name] for key in GRID]
        exp_l = growth(results[L_PAIR[0]][name], results[L_PAIR[1]][name],
                       L_PAIR[1][1] / L_PAIR[0][1])
        exp_n = growth(results[N_PAIR[0]][name], results[N_PAIR[1]][name],
                       2 ** (N_PAIR[1][0] - N_PAIR[0][0]))
        print(name.ljust(16) + "".join(f"{1000 * t:>11.3f}ms" for t in row)
              + fmt_exp(exp_l, 10) + fmt_exp(exp_n, 12))
        report[name] = {"ms": {f"{n},{s}": 1000 * t for (n, s), t in zip(GRID, row)},
                        "exp_L": exp_l, "exp_2n": exp_n}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
