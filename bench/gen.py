"""Seeded inputs for the benchmark: measures, functions, comms and spec text.

Every draw comes from a `random.Random` seeded with a string built from the
benchmark seed, so one seed fixes every byte of every input.  Nothing here
imports ordagg: the program only receives the generated values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"ordagg-bench:{seed}:{purpose}")


def decimal_labels(size: int) -> tuple[str, ...]:
    """Labels of an evenly spaced grid on [0, 1], e.g. 0.00 .. 1.00 for 101 points.

    `size - 1` must be a power of ten, so that the labels are exact and distinct.
    """
    step = size - 1
    digits = len(str(step)) - 1
    if step != 10**digits:
        raise ValueError(f"no decimal grid with {size} points")
    return tuple(f"{i / step:.{digits}f}" for i in range(size))


def upper_sweep(arr: list[int], n: int) -> None:
    """Replace each value by the max over its subsets, one bit at a time.

    O(n * 2**n): after the pass for bit i every set has absorbed the set
    without bit i.  Slices keep the inner loops in C; each pass takes the
    cheaper of the two slicings (per offset inside a block, or per block).
    """
    size = len(arr)
    for i in range(n):
        bit = 1 << i
        span = 2 * bit
        if bit <= size // span:
            for j in range(bit):
                hi = slice(bit + j, size, span)
                arr[hi] = list(map(max, arr[hi], arr[j:size:span]))
        else:
            for base in range(0, size, span):
                hi = slice(base + bit, base + span)
                arr[hi] = list(map(max, arr[hi], arr[base : base + bit]))


def monotone_table(rng: random.Random, n: int, top: int) -> list[int]:
    """A random monotone measure on all 2**n subsets, indexed by bitmask.

    Raw values are capped in proportion to the subset's size before the
    sweep, so the measure spreads over the whole scale instead of piling
    up at the top.
    """
    size = 1 << n
    arr = [rng.randrange(top * a.bit_count() // n + 1) for a in range(size)]
    arr[0] = 0
    upper_sweep(arr, n)
    arr[size - 1] = top
    return arr


def inclusion_chain(rng: random.Random, n: int, links: int) -> list[int]:
    """Nested masks from the empty set to the whole set, `links` in between."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), min(links, n - 1)))
    masks = [0]
    for c in cuts:
        masks.append(sum(1 << i for i in order[:c]))
    masks.append((1 << n) - 1)
    return masks


def increasing(rng: random.Random, length: int, lo: int, hi: int) -> tuple[int, ...]:
    """A random increasing table of `length` ranks in [lo, hi]."""
    return tuple(sorted(rng.randint(lo, hi) for _ in range(length)))


SHAPES = ("indicator", "constant", "random", "random")


@dataclass
class FnDraw:
    """Raw values of one function, with the shape that fixes a closed form."""

    shape: str
    values: tuple[int, ...]
    mask: int = 0


def draw_fn(rng: random.Random, shape: str, n: int, lo: int, hi: int) -> FnDraw:
    """Values in [lo, hi]: an indicator of a random mask, a constant, or random."""
    if shape == "indicator":
        mask = rng.randrange(1 << n)
        return FnDraw(shape, tuple(hi if mask >> i & 1 else max(lo, 0) for i in range(n)), mask)
    if shape == "constant":
        return FnDraw(shape, (rng.randint(lo, hi),) * n)
    return FnDraw(shape, tuple(rng.randint(lo, hi) for _ in range(n)))


@dataclass
class ScoreInputs:
    """Shared inputs of a library workload, as plain ranks.

    `mu` is indexed by bitmask over `n` elements on a scale of `m_size`
    points; `ell` maps it into the `l_size`-point function scale,
    `ell_pos` into the positive half of the reflection scale, and
    `ell_minus` / `ell_plus` into the lower / upper half of its carrier.
    """

    n: int
    m_size: int
    l_size: int
    half: int
    labelled: bool
    mu: list[int]
    ell: tuple[int, ...]
    ell_pos: tuple[int, ...]
    ell_minus: tuple[int, ...]
    ell_plus: tuple[int, ...]


def score_inputs(seed: int, n: int, m_size: int, l_size: int, half: int,
                 labelled: bool, identity: bool) -> ScoreInputs:
    rng = rng_for(seed, f"score:{n}:{m_size}:{l_size}:{half}")
    mu = monotone_table(rng, n, m_size - 1)
    if identity:
        ell = tuple(range(m_size))
        ell_pos = tuple(range(m_size))
    else:
        ell = increasing(rng, m_size, 0, l_size - 1)
        ell_pos = increasing(rng, m_size, 0, half)
    ell_minus = increasing(rng, m_size, 0, half)
    ell_plus = increasing(rng, m_size, half, 2 * half)
    return ScoreInputs(n, m_size, l_size, half, labelled, mu, ell, ell_pos, ell_minus, ell_plus)


@dataclass
class CliInputs:
    """A spec file at the 16-element limit and the tables it was written from."""

    text: str
    n: int
    size: int
    half: int
    mu: list[int]
    part: dict[int, int]
    chain_sets: list[int]
    functions: list[tuple[int, ...]]
    signed: list[tuple[int, ...]]
    points: list[int]


def _rows(out: list[str], n: int, names: list[str], labels, table) -> None:
    for mask, rank in table:
        members = ",".join(names[i] for i in range(n) if mask >> i & 1)
        out.append(f"  {{{members}}} {labels[rank]}")


def cli_inputs(seed: int, n: int = 16, size: int = 101, half: int = 100,
               part_share: float = 0.05, nfuncs: int = 8) -> CliInputs:
    """One spec holding every object the CLI query mix names.

    `mu` is a full table measure, `part` a table on about `part_share` of
    the subsets (a restriction of another monotone measure, so it stays
    monotone), `cl` a chain-lower measure with strictly increasing values
    (so its defining chain is the generated one), `f*` plain functions,
    `s*` signed functions, `id` the identity comm and `idr` the identity
    onto the positive half of the reflection scale.
    """
    rng = rng_for(seed, f"cli:{n}:{size}:{half}")
    top = size - 1
    full = (1 << n) - 1
    names = [f"e{i}" for i in range(n)]
    labels = decimal_labels(size)
    rlabels = decimal_labels(half + 1)
    signed_label = {s: (rlabels[s] if s >= 0 else "-" + rlabels[-s]) for s in range(-half, half + 1)}

    mu = monotone_table(rng, n, top)
    other = monotone_table(rng, n, top)
    part = {a: other[a] for a in range(1, full) if rng.random() < part_share}
    part[0] = 0
    part[full] = top
    chain_sets = inclusion_chain(rng, n, 6)
    inner = sorted(rng.sample(range(1, top), len(chain_sets) - 2))
    chain_values = [0, *inner, top]
    functions = [tuple(rng.randrange(size) for _ in range(n)) for _ in range(nfuncs)]
    signed = [tuple(rng.randint(-half, half) for _ in range(n)) for _ in range(nfuncs)]
    points = [rng.randrange(size) for _ in range(nfuncs)]

    out = [
        f"# generated: n={n}, {size}-point scales, seed {seed}",
        f"scale m {size}",
        "labels m " + " ".join(labels),
        f"scale l {size}",
        "labels l " + " ".join(labels),
        f"rscale r {half}",
        "labels r " + " ".join(rlabels),
        "omega " + " ".join(names),
        "measure mu scale=m kind=table",
    ]
    _rows(out, n, names, labels, enumerate(mu))
    out.append("measure part scale=m kind=table")
    _rows(out, n, names, labels, sorted(part.items()))
    out.append("measure cl scale=m kind=chain-lower")
    _rows(out, n, names, labels, zip(chain_sets, chain_values))
    for k, f in enumerate(functions):
        out.append(f"function f{k} scale=l")
        out.extend(f"  {names[i]} {labels[v]}" for i, v in enumerate(f))
    for k, s in enumerate(signed):
        out.append(f"function s{k} scale=r")
        out.extend(f"  {names[i]} {signed_label[v]}" for i, v in enumerate(s))
    out.append("comm id from=m to=l")
    out.append("comm idr from=m to=r+")
    text = "\n".join(out) + "\n"
    return CliInputs(text, n, size, half, mu, part, chain_sets,
                     functions, signed, points)
