"""Differential tests of the powerset passes in `measures` against their
literal definitions.

Each pass (the monotonicity checks, both extensions, the minitivity and
maxitivity classifiers and the defining chain) is run on seeded random
tables for ground sizes 1..8, each table once as drawn and once with one
injected fault, and compared with a brute-force enumeration of what the
pass is defined to compute.  The packed passes under the monotonicity
check and the extensions are also run on every table over at most 3
elements into a 3-point chain, on tables up to 16 elements with one
violation planted per bit, and at scale sizes 2, 101 and 10,000.
"""

import itertools
import random
import re

import pytest

from ordagg import (
    Chain,
    DomainError,
    GroundSet,
    Measure,
    SetFamily,
    chain_measure,
    inner_extension,
    is_maxitive,
    is_minitive,
    minitive_chain,
    outer_extension,
)
from ordagg import measures
from ordagg.oracle import oracle_extension, oracle_lower_chain, oracle_minitive, oracle_monotone

from helpers import monotone_envelope, rand_chain_measure

SIZES = range(1, 9)
SCALE = Chain("s", 7)
TOP = SCALE.size - 1
TRIALS = 6


def ground_of(n: int) -> GroundSet:
    return GroundSet(tuple(f"e{i}" for i in range(n)))


def by_size(masks):
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def literal_first_violation(ground: GroundSet, values: dict[int, int]):
    """The first non-monotone pair in the scan order the error reports:
    single-element steps from each set in mask order over the full
    powerset, member pairs by size then mask over a partial family."""
    if len(values) == ground.full_mask + 1:
        for a in ground.subsets():
            for i in range(ground.size):
                b = a | 1 << i
                if b != a and values[a] > values[b]:
                    return a, b
        return None
    ms = by_size(values)
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if a & b == a and values[a] > values[b]:
                return a, b
    return None


def any_violation(values: dict[int, int]) -> bool:
    """Brute force over all comparable pairs."""
    return any(
        a & b == a and va > vb for a, va in values.items() for b, vb in values.items()
    )


def rand_monotone(rng: random.Random, ground: GroundSet) -> dict[int, int]:
    raw = {a: rng.randrange(SCALE.size) for a in ground.subsets()}
    return monotone_envelope(ground, raw, TOP)


def inject_violation(rng: random.Random, ground: GroundSet, values: dict[int, int]) -> bool:
    """Raise one set above a member superset, keeping both endpoints; False
    when the family has no pair that allows it."""
    full = ground.full_mask
    pairs = [
        (a, b) for a in values for b in values
        if a != b and a & b == a and a != 0 and b != full and values[b] < TOP
    ]
    if not pairs:
        return False
    a, b = rng.choice(pairs)
    values[a] = rng.randint(values[b] + 1, TOP)
    return True


def perturb_one(rng: random.Random, ground: GroundSet, values: dict[int, int]) -> None:
    """Move one inner set to another value its neighbours allow, so the
    table stays monotone but its classification may change."""
    bits = [1 << i for i in range(ground.size)]
    movable = []
    for a in range(1, ground.full_mask):
        lo = max(values[a & ~bit] for bit in bits if a & bit)
        hi = min(values[a | bit] for bit in bits if not a & bit)
        if lo < hi:
            movable.append((a, lo, hi))
    if movable:
        a, lo, hi = rng.choice(movable)
        values[a] = rng.choice([v for v in range(lo, hi + 1) if v != values[a]])


def check_monotonicity(ground: GroundSet, values: dict[int, int]) -> None:
    family = SetFamily(ground, frozenset(values))
    pair = literal_first_violation(ground, values)
    assert (pair is not None) == any_violation(values)
    if pair is None:
        assert Measure(family, SCALE, values).values == values
        return
    a, b = map(ground.format_mask, pair)
    with pytest.raises(DomainError) as err:
        Measure(family, SCALE, values)
    assert str(err.value) == f"measure not monotone: {a} > {b}"


@pytest.mark.parametrize("n", SIZES)
def test_full_monotonicity_matches_pair_scan(n):
    rng = random.Random(100 + n)
    ground = ground_of(n)
    for _ in range(TRIALS):
        values = rand_monotone(rng, ground)
        check_monotonicity(ground, values)
        if inject_violation(rng, ground, values):
            check_monotonicity(ground, values)


def rand_partial(rng: random.Random, ground: GroundSet, density: float) -> dict[int, int]:
    total = rand_monotone(rng, ground)
    keep = {0, ground.full_mask} | {a for a in ground.subsets() if rng.random() < density}
    return {a: total[a] for a in keep}


def test_partial_monotonicity_matches_pair_scan():
    """Dense families take the subset-max sweep, sparse ones the pair
    scan; both must agree with brute force and name the same pair."""
    rng = random.Random(7)
    paths = set()
    for n in SIZES:
        ground = ground_of(n)
        for density in (0.05, 0.2, 0.5, 0.9):
            for _ in range(TRIALS):
                values = rand_partial(rng, ground, density)
                paths.add(len(values) ** 2 > n << n)
                check_monotonicity(ground, values)
                if inject_violation(rng, ground, values):
                    check_monotonicity(ground, values)
    assert paths == {False, True}


@pytest.mark.parametrize("n", SIZES)
def test_extensions_are_max_and_min_over_members(n):
    rng = random.Random(200 + n)
    ground = ground_of(n)
    for density in (0.1, 0.5):
        for _ in range(TRIALS):
            values = rand_partial(rng, ground, density)
            m = Measure(SetFamily(ground, frozenset(values)), SCALE, values)
            inner, outer = inner_extension(m), outer_extension(m)
            for a in ground.subsets():
                assert inner.values[a] == max(v for b, v in values.items() if b & a == b)
                assert outer.values[a] == min(v for b, v in values.items() if b & a == a)


def pairwise_minitive(ground: GroundSet, values: dict[int, int]) -> bool:
    return all(
        values[a & b] == min(values[a], values[b])
        for a in ground.subsets() for b in ground.subsets()
    )


def pairwise_maxitive(ground: GroundSet, values: dict[int, int]) -> bool:
    return all(
        values[a | b] == max(values[a], values[b])
        for a in ground.subsets() for b in ground.subsets()
    )


def literal_lower_chain(ground: GroundSet, values: dict[int, int]) -> list[int]:
    """For each scale rank, the intersection of all sets reaching it."""
    sets = {0, ground.full_mask}
    for x in range(SCALE.size):
        k = ground.full_mask
        for b, v in values.items():
            if v >= x:
                k &= b
        sets.add(k)
    return by_size(sets)


@pytest.mark.parametrize("n", SIZES)
def test_minitive_classification_and_chain(n):
    rng = random.Random(300 + n)
    ground = ground_of(n)
    seen = set()
    for _ in range(TRIALS):
        m = rand_chain_measure(rng, ground, SCALE, "lower")
        values = dict(m.values)
        for _ in range(2):
            m = Measure(SetFamily.full(ground), SCALE, values)
            mini = pairwise_minitive(ground, values)
            seen.add(mini)
            assert is_minitive(m) == mini
            if n <= 3:
                assert oracle_minitive(m) == mini
                assert oracle_lower_chain(m) == mini
            if mini:
                sets = minitive_chain(m)
                assert sets == literal_lower_chain(ground, values)
                for a in ground.subsets():
                    assert values[a] == max(values[c] for c in sets if c & a == c)
            else:
                with pytest.raises(DomainError, match="not minitive"):
                    minitive_chain(m)
            perturb_one(rng, ground, values)
    assert True in seen and (n < 2 or False in seen)


def test_minitive_matches_oracle_at_four_elements():
    rng = random.Random(4)
    ground = ground_of(4)
    for _ in range(2):
        values = dict(rand_chain_measure(rng, ground, SCALE, "lower").values)
        perturb_one(rng, ground, values)
        m = Measure(SetFamily.full(ground), SCALE, values)
        assert is_minitive(m) == oracle_minitive(m) == pairwise_minitive(ground, values)


@pytest.mark.parametrize("n", SIZES)
def test_maxitive_classification(n):
    rng = random.Random(400 + n)
    ground = ground_of(n)
    seen = set()
    for _ in range(TRIALS):
        atoms = [rng.randrange(SCALE.size) for _ in range(n)]
        atoms[rng.randrange(n)] = TOP
        values = {
            a: max((atoms[i] for i in range(n) if a >> i & 1), default=0)
            for a in ground.subsets()
        }
        for _ in range(2):
            m = Measure(SetFamily.full(ground), SCALE, values)
            maxi = pairwise_maxitive(ground, values)
            seen.add(maxi)
            assert is_maxitive(m) == maxi
            perturb_one(rng, ground, values)
    assert True in seen and (n < 2 or False in seen)


def rand_strict_chain(rng: random.Random, n: int, top: int) -> tuple[list[int], list[int]]:
    """An inclusion chain from the empty to the whole set, with at least
    two inner sets, and strictly increasing values from 0 to `top` on it."""
    order = rng.sample(range(n), n)
    sizes = sorted(rng.sample(range(1, n), rng.randint(2, 6)))
    sets = [0, *(sum(1 << i for i in order[:k]) for k in sizes), (1 << n) - 1]
    return sets, [0, *sorted(rng.sample(range(1, top), len(sizes))), top]


@pytest.mark.parametrize("seed", range(3))
def test_chain_measures_at_the_limit(seed):
    """At n = 16 a lower chain measure is minitive, as a closed form and
    as a table, and gives back its chain; lowering its value at one inner
    chain set keeps it monotone but breaks minitivity.  Dually, an upper
    chain measure is maxitive until its value at one chain set of two or
    more elements is raised.  A closed form is classified without
    building its `values` dict."""
    rng = random.Random(500 + seed)
    n, scale = 16, Chain("s", 101)
    ground, family = ground_of(n), SetFamily.full(ground_of(n))
    sets, values = rand_strict_chain(rng, n, scale.size - 1)

    closed = chain_measure(ground, scale, sets, values, "lower")
    assert is_minitive(closed) and minitive_chain(closed) == sets
    assert "values" not in vars(closed)
    table = dict(chain_measure(ground, scale, sets, values, "lower").values)
    assert is_minitive(Measure(family, scale, table))
    assert minitive_chain(Measure(family, scale, table)) == sets
    s = rng.choice([s for s in sets if 1 <= s.bit_count() <= n - 2])
    table[s] -= 1
    m = Measure(family, scale, table)  # still monotone
    x, y = [1 << i for i in range(n) if not s >> i & 1][:2]
    assert table[s] < min(table[s | x], table[s | y])  # a witness against minitivity
    assert not is_minitive(m)
    with pytest.raises(DomainError, match="not minitive"):
        minitive_chain(m)

    closed = chain_measure(ground, scale, sets, values, "upper")
    assert is_maxitive(closed) and "values" not in vars(closed)
    table = dict(closed.values)
    assert is_maxitive(Measure(family, scale, table))
    s = rng.choice([s for s in sets if 2 <= s.bit_count() <= n - 1])
    table[s] += 1
    m = Measure(family, scale, table)  # still monotone
    x, y = [1 << i for i in range(n) if s >> i & 1][:2]
    assert table[s] > max(table[s ^ x], table[s ^ y])  # a witness against maxitivity
    assert not is_maxitive(m)


def exhaustive_families(n: int):
    """Every family over n elements holding the empty and the whole set."""
    full = (1 << n) - 1
    inner = range(1, full)
    for pick in range(1 << len(inner)):
        yield [0, *(a for k, a in enumerate(inner) if pick >> k & 1), full]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_table_into_a_three_point_chain_matches_the_pair_oracle(n):
    """Accept or reject exactly as the scan over all pairs a <= b does,
    and report the first violating pair of the literal scan."""
    scale = Chain("t", 3)
    ground = ground_of(n)
    seen = set()
    for members in exhaustive_families(n):
        family = SetFamily(ground, frozenset(members))
        for ranks in itertools.product(range(3), repeat=len(members)):
            values = dict(zip(members, ranks))
            monotone = oracle_monotone(ground, values)
            seen.add((family.is_full(), monotone))
            if family.is_full():
                by_mask = [values[a] for a in ground.subsets()]
                assert measures._is_monotone(by_mask, n) == monotone
            try:
                Measure(family, scale, values)
            except DomainError as err:
                if monotone:
                    assert "not monotone" not in str(err)
                else:
                    a, b = map(ground.format_mask, literal_first_violation(ground, values))
                    assert str(err) == f"measure not monotone: {a} > {b}"
            else:
                assert monotone
    partial = {(False, True), (False, False)} if n > 1 else set()
    assert seen == {(True, True), (True, False)} | partial


def rand_scaled_monotone(rng: random.Random, n: int, top: int) -> list[int]:
    """A monotone table over all subsets, indexed by mask, with values in
    [0, top]: a random weighted count scaled onto the ranks."""
    weights = [rng.randrange(1, 50) for _ in range(n)]
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return [s * top // sums[-1] for s in sums]


def planted(rng: random.Random, low: list[int], top: int, a: int, bit: int) -> list[int]:
    """A table whose only violating one-element step is a -> a | bit: the
    monotone table `low`, whose values are below the top, raised on the
    supersets of a other than a | bit to a level above the value at a | bit."""
    b = a | bit
    high = rng.randint(low[b] + 1, top)
    return [max(v, high) if x & a == a and x != b else v for x, v in enumerate(low)]


def one_step_violations(table: list[int], n: int) -> list[tuple[int, int]]:
    return [
        (x, x | 1 << i)
        for x in range(len(table)) for i in range(n)
        if not x >> i & 1 and table[x] > table[x | 1 << i]
    ]


@pytest.mark.parametrize("size", [2, 101, 10_000])
@pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
def test_one_violation_planted_in_each_bit_layer(n, size):
    """For each bit, a violation at the empty set, at the whole set and in
    between is found and named, and the table without them passes."""
    rng = random.Random(1000 * n + size)
    ground = ground_of(n)
    top = size - 1
    full = ground.full_mask
    clean = rand_scaled_monotone(rng, n, top)
    assert measures._is_monotone(clean, n)
    Measure(SetFamily.full(ground), Chain("s", size), dict(enumerate(clean)))
    low = rand_scaled_monotone(rng, n, top - 1)
    for i in range(n):
        bit = 1 << i
        for a in (0, full ^ bit, rng.randrange(full + 1) & ~bit):
            table = planted(rng, low, top, a, bit)
            if n <= 9:
                assert one_step_violations(table, n) == [(a, a | bit)]
            assert not measures._is_monotone(table, n)
            if n <= 9 or (i, a) == (n - 1, 0):  # the literal scan is slow at the limit
                shown = " > ".join(map(ground.format_mask, (a, a | bit)))
                with pytest.raises(DomainError, match=re.escape(f"not monotone: {shown}")):
                    Measure(SetFamily.full(ground), Chain("s", size), dict(enumerate(table)))


def rand_family_values(rng: random.Random, n: int, top: int, density: float) -> dict[int, int]:
    """A monotone table on a random family: a restriction of a random
    monotone table with the endpoints at bottom and top."""
    table = rand_scaled_monotone(rng, n, top)
    full = (1 << n) - 1
    keep = {0, full} | {a for a in range(1, full) if rng.random() < density}
    return {a: table[a] for a in sorted(keep)}


@pytest.mark.parametrize("size", [2, 101, 10_000])
@pytest.mark.parametrize("n", [1, 4, 8, 13])
def test_extensions_match_the_oracle_and_their_closed_forms(n, size):
    rng = random.Random(2000 * n + size)
    ground = ground_of(n)
    scale = Chain("s", size)
    for density in (0.02, 0.3, 0.9) if n <= 8 else (0.005,):
        values = rand_family_values(rng, n, size - 1, density)
        m = Measure(SetFamily(ground, frozenset(values)), scale, values)
        for ext, kind in ((inner_extension(m), "lower"), (outer_extension(m), "upper")):
            table = ext.values
            assert table == oracle_extension(ground, values.items(), kind)
            assert all(ext(a) == table[a] for a in ground.subsets())
