"""Brute-force reference implementations against the optimized paths."""

import itertools
import random

import pytest

from ordagg import (
    Chain,
    CommFn,
    Corr,
    DomainError,
    GroundSet,
    Interval,
    LatticeFn,
    Measure,
    SetFamily,
    TotalFn,
    distribution,
    fan_sugeno,
    fan_sugeno_dual,
    inverse,
    is_minitive,
    quantile,
    saturate,
    sqcap_family,
    sqcup_family,
    sugeno_integral,
    topkis_cmp,
    unanimity,
)
from ordagg.oracle import (
    oracle_fan_sugeno,
    oracle_fan_sugeno_dual,
    oracle_inverse,
    oracle_lower_chain,
    oracle_minitive,
    oracle_saturation,
    oracle_sqcap_family,
    oracle_sqcup_family,
    oracle_sugeno_integral,
    oracle_topkis,
)
from helpers import (
    all_intervals,
    all_monotone_measures,
    rand_comm,
    rand_decreasing_corr,
    rand_fn,
    rand_interval,
    rand_measure,
)

G2 = GroundSet(("a", "b"))


class TestIntervalOracles:
    def test_family_joins_random(self):
        rng = random.Random(3)
        for _ in range(1000):
            chain = Chain("c", rng.randint(1, 7))
            ivs = [rand_interval(rng, chain) for _ in range(rng.randint(1, 5))]
            assert oracle_sqcup_family(ivs) == sqcup_family(ivs)
            assert oracle_sqcap_family(ivs) == sqcap_family(ivs)

    def test_single_and_singletons(self):
        c = Chain("c", 5)
        iv = Interval(c, 1, 3)
        assert oracle_sqcup_family([iv]) == iv
        singles = [Interval(c, r, r) for r in (0, 2, 4)]
        assert oracle_sqcup_family(singles) == Interval(c, 4, 4)

    def test_budget(self):
        c = Chain("c", 100)
        wide = [Interval(c, 0, 99)] * 4
        with pytest.raises(DomainError):
            oracle_sqcup_family(wide)

    def test_topkis_exhaustive(self):
        c5 = Chain("c5", 5)
        for i1, i2 in itertools.product(all_intervals(c5), repeat=2):
            assert oracle_topkis(i1, i2) == topkis_cmp(i1, i2)


class TestSaturationOracle:
    def test_matches_saturate(self):
        rng = random.Random(7)
        for _ in range(300):
            src = Chain("m", rng.randint(1, 8))
            dst = Chain("l", rng.randint(1, 8))
            psi = rand_decreasing_corr(rng, src, dst)
            sat = saturate(psi)
            for x in range(src.size):
                assert oracle_saturation(psi, x) == sat.table[x]


def _outcome(fn, c):
    """The result of fn(c), or the text of the DomainError it raises."""
    try:
        return fn(c)
    except DomainError as e:
        return str(e)


class TestInverseOracle:
    def test_matches_inverse_random(self):
        rng = random.Random(17)
        raised = built = 0
        for _ in range(800):
            src = Chain("s", rng.randint(1, 8))
            dst = Chain("d", rng.randint(1, 8))
            kind = rng.randrange(4)
            if kind == 0:
                # a total function, monotone only by chance
                c = TotalFn(src, dst, rng.choices(range(dst.size), k=src.size)).as_corr()
            elif kind == 1:
                c = rand_decreasing_corr(rng, src, dst)
            elif kind == 2:
                # arbitrary intervals on a random part of the source
                dom = [x for x in range(src.size) if rng.random() < 0.7]
                c = Corr(src, dst, {x: rand_interval(rng, dst) for x in dom})
            else:
                # two or three shared objects in runs over a part of the
                # source, so that one object often lies on both sides of a
                # gap; some points hold an equal copy, and some tables list
                # their points out of order
                pool = [rand_interval(rng, dst) for _ in range(rng.randint(2, 3))]
                dom = [x for x in range(src.size) if rng.random() < 0.7]
                picks = sorted(rng.choices(pool, k=len(dom)), key=pool.index)
                table = {x: iv if rng.random() < 0.8 else Interval(dst, iv.lo, iv.hi)
                         for x, iv in zip(dom, picks)}
                if rng.random() < 0.2:
                    table = dict(rng.sample(list(table.items()), len(table)))
                c = Corr(src, dst, table)
            got = _outcome(inverse, c)
            assert got == _outcome(oracle_inverse, c)
            if isinstance(got, str):
                raised += 1
            else:
                built += 1
        assert raised > 100 and built > 100

    def test_reports_lowest_gap(self):
        c5 = Chain("c5", 5)
        c = Corr(c5, c5, {0: Interval(c5, 1, 3), 1: Interval(c5, 0, 0),
                          2: Interval(c5, 1, 3)})
        with pytest.raises(DomainError, match="at rank 1 "):
            inverse(c)
        with pytest.raises(DomainError, match="at rank 1 "):
            oracle_inverse(c)
        # one object at 0, 4 and 2, listed in that order: 4 - 0 is two
        # steps, as for three consecutive points, but 1 and 3 are missing
        iv = Interval(c5, 2, 3)
        c = Corr(c5, c5, {0: iv, 4: iv, 2: iv})
        with pytest.raises(DomainError, match="at rank 2 "):
            inverse(c)
        with pytest.raises(DomainError, match="at rank 2 "):
            oracle_inverse(c)


class TestSugenoIntegralOracle:
    def test_exhaustive_c4_g2(self):
        c4 = Chain("c4", 4)
        for va, vb in itertools.product(range(4), repeat=2):
            mu = Measure(SetFamily.full(G2), c4, {0: 0, 1: va, 2: vb, 3: 3})
            for f_vals in itertools.product(range(4), repeat=2):
                f = LatticeFn(G2, c4, f_vals)
                assert sugeno_integral(mu, f) == oracle_sugeno_integral(mu, f)

    def test_random(self):
        rng = random.Random(19)
        for _ in range(300):
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            scale = Chain("l", rng.randint(1, 9))
            mu = rand_measure(rng, ground, scale)
            f = rand_fn(rng, ground, scale)
            assert sugeno_integral(mu, f) == oracle_sugeno_integral(mu, f)


def e1_setup():
    grid = Chain("grid11", 11, tuple(f"{i/10:.1f}" for i in range(11)))
    mu = Measure(SetFamily.full(G2), grid, {0: 0, 1: 5, 2: 3, 3: 10})
    f = LatticeFn(G2, grid, (6, 2))
    return grid, mu, f


class TestFanSugenoOracle:
    def test_grid_example(self):
        grid, mu, f = e1_setup()
        ident = CommFn.identity(grid)
        assert oracle_fan_sugeno(mu, f, ident, "sharp") == Interval(grid, 4, 5)
        assert oracle_fan_sugeno(mu, f, ident, "plain") == Interval(grid, 3, 5)

    def test_matches_fast_path_random(self):
        rng = random.Random(11)
        for _ in range(200):
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            l = Chain("l", rng.randint(1, 8))
            m = Chain("m", rng.randint(2, 8))
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, l)
            f = rand_fn(rng, ground, l)
            for variant in ("sharp", "plain"):
                assert oracle_fan_sugeno(mu, f, ell, variant) == fan_sugeno(
                    mu, f, ell, variant
                )

    def test_quantile_values_match_oracle_saturation(self):
        from ordagg import distribution, inverse

        rng = random.Random(13)
        for _ in range(100):
            ground = GroundSet(tuple("abc"[: rng.randint(1, 3)]))
            l = Chain("l", rng.randint(1, 6))
            m = Chain("m", rng.randint(2, 6))
            mu = rand_measure(rng, ground, m)
            f = rand_fn(rng, ground, l)
            ginv = inverse(distribution(mu, f).as_corr())
            q = quantile(mu, f, "plain")
            for p in range(m.size):
                assert q.table[p] == oracle_saturation(ginv, p)


class TestFanSugenoDualOracle:
    def test_grid_example(self):
        grid, mu, f = e1_setup()
        ident = CommFn.identity(grid)
        for variant in ("sharp", "plain"):
            assert oracle_fan_sugeno_dual(mu, f, ident, variant) == fan_sugeno_dual(
                mu, f, ident, variant
            )

    def test_exhaustive_small(self):
        """Every monotone full measure on up to 3 elements into a 4-point
        chain and every function into it.  The aggregate depends on the
        pair only through its distribution function, so each distinct
        distribution (20 in all) is checked against the identity and two
        fixed increasing comms, in both variants; checking every pair
        would repeat each of those 120 products about 1,800 times."""
        c4 = Chain("c4", 4)
        comms = [CommFn.identity(c4), CommFn(c4, c4, (0, 0, 2, 3)), CommFn(c4, c4, (1, 1, 1, 3))]
        seen, pairs = set(), 0
        for n in (1, 2, 3):
            ground = GroundSet(tuple("abc"[:n]))
            fs = [LatticeFn(ground, c4, v) for v in itertools.product(range(4), repeat=n)]
            for mu, f in itertools.product(list(all_monotone_measures(ground, c4)), fs):
                pairs += 1
                g = distribution(mu, f).values
                if g in seen:
                    continue
                seen.add(g)
                for ell, variant in itertools.product(comms, ("sharp", "plain")):
                    assert fan_sugeno_dual(mu, f, ell, variant) == oracle_fan_sugeno_dual(
                        mu, f, ell, variant
                    ), (mu.values, f.values, ell.values, variant)
        assert pairs == 4 * 1 + 16 * 16 + 64 * 571
        # every decreasing g with g(0) at the top: 3 more values out of 4
        assert len(seen) == 20

    def test_matches_fast_path_random(self):
        rng = random.Random(29)
        for _ in range(200):
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            l = Chain("l", rng.randint(1, 8))
            m = Chain("m", rng.randint(2, 8))
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, l)
            f = rand_fn(rng, ground, l)
            for variant in ("sharp", "plain"):
                assert oracle_fan_sugeno_dual(mu, f, ell, variant) == fan_sugeno_dual(
                    mu, f, ell, variant
                )


class TestMeasureOracles:
    def test_minitive_exhaustive_small(self):
        c3 = Chain("m", 3)
        for m in all_monotone_measures(G2, c3):
            assert oracle_minitive(m) == is_minitive(m)

    def test_lower_chain_matches_minitivity(self):
        for n in (1, 2, 3):
            ground = GroundSet(tuple("abc"[:n]))
            for msize in (2, 3):
                scale = Chain("m", msize)
                for m in all_monotone_measures(ground, scale):
                    assert oracle_lower_chain(m) == is_minitive(m)

    def test_unanimity_is_lower_chain(self):
        u = unanimity(GroundSet(("a", "b", "c")), 0b011, Chain("m", 3))
        assert oracle_lower_chain(u)
        assert oracle_minitive(u)

    def test_guards(self):
        big = GroundSet(tuple("abcde"))
        u = unanimity(big, 1, Chain("m", 2))
        with pytest.raises(DomainError):
            oracle_minitive(u)
        with pytest.raises(DomainError):
            oracle_lower_chain(u)
