"""Distribution, quantiles, and the aggregation functionals."""

import itertools
import random
import time

import pytest

from ordagg import (
    Chain,
    CommFn,
    DomainError,
    GroundSet,
    Interval,
    LatticeFn,
    Measure,
    ReflChain,
    RInterval,
    SetFamily,
    asymmetric_fan_sugeno,
    chain_measure,
    co_unanimity,
    distribution,
    fan_sugeno,
    fan_sugeno_dual,
    fan_sugeno_sup,
    is_comonotonic,
    kyfan_norm,
    level_chain,
    level_set,
    median,
    neg_part,
    negate_fn,
    ordinal_distance,
    pos_part,
    quantile,
    quantile_functional,
    refl_interval,
    rinterval_leq,
    sqcap,
    sqcup,
    sugeno_integral,
    svee,
    symmetric_fan_sugeno,
    topkis_leq,
    unanimity,
)
from ordagg.correspondences import _graph
from helpers import (
    join_fn,
    meet_fn,
    monotone_transform,
    rand_chain_measure,
    rand_comm,
    rand_comm_below,
    rand_fn,
    rand_fn_above,
    rand_measure,
    rand_measure_below,
)

GRID11 = Chain("grid11", 11, tuple(f"{i/10:.1f}" for i in range(11)))
G2 = GroundSet(("a", "b"))


def e1_measure():
    return Measure(SetFamily.full(G2), GRID11, {0: 0, 1: 5, 2: 3, 3: 10})


def e1_fn():
    return LatticeFn(G2, GRID11, (6, 2))


E1_ID = CommFn.identity(GRID11)


def grounds_and_scales(rng, max_ground=5, max_scale=8):
    ground = GroundSet(tuple("abcde"[: rng.randint(1, max_ground)]))
    lsize = rng.randint(1, max_scale)
    msize = rng.randint(2, max_scale)
    return ground, Chain("l", lsize), Chain("m", msize)


class TestLevelSets:
    def test_examples(self):
        f = e1_fn()
        assert level_set(f, 3) == 0b01
        assert level_set(f, 0) == G2.full_mask
        assert level_set(f, 2) == 0b11

    def test_level_chain_nested(self):
        rng = random.Random(2)
        for _ in range(100):
            ground, l, _ = grounds_and_scales(rng)
            f = rand_fn(rng, ground, l)
            masks = level_chain(f)
            assert masks[0] == ground.full_mask
            for a, b in zip(masks, masks[1:]):
                assert b & a == b and a != b

    def test_level_chain_is_every_distinct_level_set(self):
        # the definition: {f >= x} at every level of the scale, repeats dropped
        rng = random.Random(71)
        for _ in range(200):
            ground, l, _ = grounds_and_scales(rng)
            scale = l if rng.random() < 0.5 else ReflChain("r", rng.randint(1, 4))
            f = rand_fn(rng, ground, scale)
            lo, hi = scale.rank_range
            literal: list[int] = []
            for x in range(lo, hi + 1):
                mask = sum(1 << i for i, v in enumerate(f.values) if v >= x)
                if mask not in literal:
                    literal.append(mask)
            assert level_chain(f) == literal

    def test_level_outside_the_scale(self):
        f = e1_fn()
        for x in (-1, 11):
            with pytest.raises(DomainError, match=f"^level {x} outside scale 'grid11'$"):
                level_set(f, x)

    def test_comonotonic_needs_one_ground_set_and_scale(self):
        f = e1_fn()
        for g in (LatticeFn(GroundSet(("a", "c")), GRID11, (6, 2)),
                  LatticeFn(G2, Chain("other", 11), (6, 2))):
            with pytest.raises(
                DomainError, match="^comonotonicity needs a shared ground set and scale$"
            ):
                is_comonotonic([f, g])

    def test_comonotonic(self):
        f = LatticeFn(G2, GRID11, (6, 2))
        g = LatticeFn(G2, GRID11, (4, 1))
        h = LatticeFn(G2, GRID11, (1, 4))
        assert is_comonotonic([f, g])
        assert not is_comonotonic([f, h])
        assert is_comonotonic([f])
        assert is_comonotonic([])


class TestTables:
    def test_calls_read_the_table(self):
        f = e1_fn()
        assert (f(0), f(1)) == (6, 2)
        ell = CommFn(Chain("c3", 3), GRID11, (0, 4, 10))
        assert [ell(p) for p in range(3)] == [0, 4, 10]

    def test_comm_graph_is_built_once(self):
        src = Chain("c3", 3)
        ell = CommFn(src, GRID11, (0, 4, 10))
        graph = ell.as_corr()
        assert ell.as_corr() is graph
        assert graph == _graph(src, GRID11, (0, 4, 10))

    def test_length_errors(self):
        with pytest.raises(DomainError, match="^function table must cover the whole ground set$"):
            LatticeFn(G2, GRID11, (6,))
        with pytest.raises(
            DomainError, match="^commensurability table must cover the source chain$"
        ):
            CommFn(Chain("c3", 3), GRID11, (0, 4))


class TestDistribution:
    def test_grid_example(self):
        g = distribution(e1_measure(), e1_fn())
        assert g.values == (10, 10, 10, 5, 5, 5, 5, 0, 0, 0, 0)

    def test_constant(self):
        f = LatticeFn.constant(G2, GRID11, 4)
        g = distribution(e1_measure(), f)
        assert g.values == (10,) * 5 + (0,) * 6

    def test_decreasing_and_bottom_value(self):
        rng = random.Random(3)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            f = rand_fn(rng, ground, l)
            g = distribution(mu, f)
            assert g.values[0] == m.size - 1
            assert all(a >= b for a, b in zip(g.values, g.values[1:]))

    def test_requires_total_measure(self):
        partial = Measure(
            SetFamily(G2, frozenset({0, 3})), GRID11, {0: 0, 3: 10}
        )
        with pytest.raises(DomainError):
            distribution(partial, e1_fn())

    def test_equals_the_definition(self):
        # g(x) = mu({f >= x}) at every point, f read over its carrier
        rng = random.Random(72)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            scale = l if rng.random() < 0.5 else ReflChain("r", rng.randint(1, 4))
            mu = rand_measure(rng, ground, m)
            f = rand_fn(rng, ground, scale)
            lo, hi = scale.rank_range
            literal = tuple(
                mu.values[sum(1 << i for i, v in enumerate(f.values) if v >= x)]
                for x in range(lo, hi + 1)
            )
            assert distribution(mu, f).values == literal

    def test_reads_one_level_set_per_value_of_f(self, monkeypatch):
        # {f >= x} changes only just above a value of f, so a 10,000-point
        # chain with n = 4 needs at most n + 1 level sets, not one per point
        from ordagg import aggregation

        calls = []
        original = aggregation.level_set

        def counted(f, x):
            calls.append(x)
            return original(f, x)

        monkeypatch.setattr(aggregation, "level_set", counted)
        ground = GroundSet(("a", "b", "c", "d"))
        scale = Chain("big", 10_000)
        mu = chain_measure(ground, scale, [0, 0b0001, 0b0011, 0b1111], [0, 10, 5000, 9999],
                           "lower")
        f = LatticeFn(ground, scale, (9000, 20, 9000, 9999))
        g = distribution(mu, f)
        assert len(calls) <= ground.size + 1
        assert g.values == tuple(
            mu(sum(1 << i for i, v in enumerate(f.values) if v >= x)) for x in range(10_000)
        )


class TestQuantile:
    def test_sharp_values(self):
        q = quantile(e1_measure(), e1_fn(), "sharp")
        assert q.table[5] == Interval(GRID11, 3, 6)
        assert q.table[3] == Interval(GRID11, 6, 6)
        assert q.table[7] == Interval(GRID11, 2, 2)
        assert q.table[0] == Interval(GRID11, 7, 10)

    def test_plain_values(self):
        q = quantile(e1_measure(), e1_fn(), "plain")
        assert q.table[3] == Interval(GRID11, 3, 6)
        assert q.table[5] == Interval(GRID11, 3, 6)
        assert q.table[7] == Interval(GRID11, 0, 2)

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            quantile(e1_measure(), e1_fn(), "fuzzy")

    def test_total_decreasing_and_sharp(self):
        from ordagg import is_decreasing, is_sharply_monotone

        rng = random.Random(15)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            f = rand_fn(rng, ground, l)
            sharp = quantile(mu, f, "sharp")
            plain = quantile(mu, f, "plain")
            for q in (sharp, plain):
                assert q.is_total()
                assert is_decreasing(q)
            assert is_sharply_monotone(sharp)

    def test_median_rank_out_of_range(self):
        with pytest.raises(DomainError):
            median(e1_measure(), e1_fn(), 11)
        with pytest.raises(DomainError):
            median(e1_measure(), e1_fn(), -1)

    def test_median(self):
        assert median(e1_measure(), e1_fn(), 5) == Interval(GRID11, 3, 6)
        const = LatticeFn.constant(G2, GRID11, 4)
        assert median(e1_measure(), const, 5) == Interval(GRID11, 4, 4)

    def test_median_indicator_under_dirac(self):
        c4 = Chain("c4", 4)
        dirac = unanimity(G2, 0b01, c4)
        ind = LatticeFn(G2, c4, (3, 0))
        assert median(dirac, ind, 2) == Interval(c4, 3, 3)


class TestFanSugeno:
    def test_grid_example(self):
        mu, f = e1_measure(), e1_fn()
        assert fan_sugeno(mu, f, E1_ID, "sharp") == Interval(GRID11, 4, 5)
        assert fan_sugeno_sup(mu, f, E1_ID).rank == 5
        assert fan_sugeno(mu, f, E1_ID, "plain") == Interval(GRID11, 3, 5)
        assert fan_sugeno_dual(mu, f, E1_ID, "sharp") == Interval(GRID11, 5, 6)

    def test_indicator_reconstructs_measure(self):
        rng = random.Random(5)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, l)
            mask = rng.randrange(ground.full_mask + 1)
            top = l.size - 1
            ind = LatticeFn(
                ground, l, tuple(top if mask >> i & 1 else 0 for i in range(ground.size))
            )
            assert fan_sugeno_sup(mu, ind, ell).rank == ell.values[mu.values[mask]]

    def test_sup_variant_independent(self):
        rng = random.Random(7)
        for _ in range(300):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, l)
            f = rand_fn(rng, ground, l)
            assert (
                fan_sugeno(mu, f, ell, "sharp").hi == fan_sugeno(mu, f, ell, "plain").hi
            )

    def test_inner_below_dual(self):
        rng = random.Random(9)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, l)
            f = rand_fn(rng, ground, l)
            assert topkis_leq(fan_sugeno(mu, f, ell), fan_sugeno_dual(mu, f, ell))

    def test_constant_function_sup(self):
        # both products aggregate a constant above the bottom to an
        # interval topped at it
        rng = random.Random(11)
        for _ in range(100):
            ground, _, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            ident = CommFn.identity(m)
            c = rng.randrange(1, m.size) if m.size > 1 else 0
            f = LatticeFn.constant(ground, m, c)
            assert fan_sugeno(mu, f, ident).hi == c
            if c > 0:
                assert fan_sugeno_dual(mu, f, ident) == Interval(m, c, c)

    def test_constant_bottom_dual_boundary(self):
        # the main aggregate of the constant bottom is exactly the bottom
        # singleton; the dual sits one step above it (no source point
        # lies under the bottom level)
        c6 = Chain("c6", 6)
        g1 = GroundSet(("a",))
        mu = unanimity(g1, 1, c6)
        f = LatticeFn.constant(g1, c6, 0)
        ident = CommFn.identity(c6)
        assert fan_sugeno(mu, f, ident) == Interval(c6, 0, 0)
        assert fan_sugeno_dual(mu, f, ident) == Interval(c6, 1, 1)

    def test_quantile_functional_is_quantile(self):
        mu, f = e1_measure(), e1_fn()
        q = quantile(mu, f, "sharp")
        for p in range(GRID11.size):
            assert quantile_functional(mu, f, p) == q.table[p]


class TestSugenoIntegral:
    def test_grid_example(self):
        assert sugeno_integral(e1_measure(), e1_fn()).rank == 5

    def test_constant(self):
        f = LatticeFn.constant(G2, GRID11, 7)
        assert sugeno_integral(e1_measure(), f).rank == 7

    def test_unanimity_collapses_to_min_max(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            ground = GroundSet(tuple("abcd"[:n]))
            scale = Chain("l", rng.randint(2, 8))
            mask = rng.randint(1, ground.full_mask)
            f = rand_fn(rng, ground, scale)
            members = [i for i in range(n) if mask >> i & 1]
            u = unanimity(ground, mask, scale)
            ub = co_unanimity(ground, mask, scale)
            assert sugeno_integral(u, f).rank == min(f.values[i] for i in members)
            assert sugeno_integral(ub, f).rank == max(f.values[i] for i in members)

    def test_equals_quantile_path_exhaustive(self):
        c4 = Chain("c4", 4)
        ident = CommFn.identity(c4)
        for va, vb in itertools.product(range(4), repeat=2):
            mu = Measure(SetFamily.full(G2), c4, {0: 0, 1: va, 2: vb, 3: 3})
            for f_vals in itertools.product(range(4), repeat=2):
                f = LatticeFn(G2, c4, f_vals)
                assert (
                    sugeno_integral(mu, f).rank
                    == fan_sugeno_sup(mu, f, ident).rank
                )

    def test_equals_quantile_path_randomized(self):
        rng = random.Random(13)
        for _ in range(300):
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            scale = Chain("l", rng.randint(2, 8))
            mu = rand_measure(rng, ground, scale)
            f = rand_fn(rng, ground, scale)
            ident = CommFn.identity(scale)
            assert (
                sugeno_integral(mu, f).rank
                == fan_sugeno_sup(mu, f, ident).rank
            )

    def test_scale_mismatch(self):
        f = LatticeFn(G2, Chain("other", 11), (6, 2))
        with pytest.raises(DomainError):
            sugeno_integral(e1_measure(), f)


class TestLimitCorner:
    """The functionals at 4 elements and 10,000-point scales, the largest
    chains allowed.  The 2 s bound is a guard: it must not be raised."""

    def test_each_functional_within_two_seconds(self):
        rng = random.Random(23)
        scale = Chain("m", 10_000)
        ground = GroundSet(tuple("abcd"))
        mu = rand_measure(rng, ground, scale)
        f = rand_fn(rng, ground, scale)
        ident = CommFn.identity(scale)
        calls = {
            "fan_sugeno": lambda: fan_sugeno(mu, f, ident),
            "fan_sugeno_dual": lambda: fan_sugeno_dual(mu, f, ident),
            "sugeno_integral": lambda: sugeno_integral(mu, f),
        }
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            took = time.perf_counter() - start
            assert took < 2.0, f"{name} took {took:.2f} s"


class TestDistributionQuantileLaws:
    """Join/meet comparisons of distributions and quantiles."""

    def check_instance(self, mu, f, g):
        m = mu.scale
        gf, gg = distribution(mu, f), distribution(mu, g)
        gj = distribution(mu, join_fn(f, g))
        gm = distribution(mu, meet_fn(f, g))
        for x in range(f.scale.size):
            assert gj.values[x] >= max(gf.values[x], gg.values[x])
            assert gm.values[x] <= min(gf.values[x], gg.values[x])
        qf, qg = quantile(mu, f), quantile(mu, g)
        qj = quantile(mu, join_fn(f, g))
        qm = quantile(mu, meet_fn(f, g))
        for p in range(m.size):
            assert topkis_leq(sqcup(qf.table[p], qg.table[p]), qj.table[p])
            assert topkis_leq(qm.table[p], sqcap(qf.table[p], qg.table[p]))
        return gf, gg, gj, gm

    def test_inequalities(self):
        rng = random.Random(17)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            f, g = rand_fn(rng, ground, l), rand_fn(rng, ground, l)
            self.check_instance(mu, f, g)

    def test_comonotonic_equalities(self):
        rng = random.Random(19)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            f = rand_fn(rng, ground, l)
            g = monotone_transform(rng, f)
            assert is_comonotonic([f, g])
            gf, gg = distribution(mu, f), distribution(mu, g)
            gj = distribution(mu, join_fn(f, g))
            gm = distribution(mu, meet_fn(f, g))
            for x in range(l.size):
                assert gj.values[x] == max(gf.values[x], gg.values[x])
                assert gm.values[x] == min(gf.values[x], gg.values[x])
            # at the quantile level the meet side is exact and the join
            # side is exact in the upper endpoint
            qf, qg = quantile(mu, f), quantile(mu, g)
            qj, qm = quantile(mu, join_fn(f, g)), quantile(mu, meet_fn(f, g))
            for p in range(m.size):
                assert qj.table[p].hi == sqcup(qf.table[p], qg.table[p]).hi
                assert topkis_leq(sqcup(qf.table[p], qg.table[p]), qj.table[p])
                assert qm.table[p] == sqcap(qf.table[p], qg.table[p])

    def test_comonotone_join_quantile_equality_fails(self):
        # frozen counterexample: even for comonotonic functions the
        # saturated inverse of the join is not the join of the saturated
        # inverses; the lower endpoint moves
        c3 = Chain("c3", 3)
        mu = Measure(SetFamily.full(G2), c3, {0: 0, 1: 0, 2: 1, 3: 2})
        f = LatticeFn(G2, c3, (0, 2))
        g = LatticeFn(G2, c3, (1, 1))
        assert is_comonotonic([f, g])
        qf, qg, qj = quantile(mu, f), quantile(mu, g), quantile(mu, join_fn(f, g))
        assert qj.table[1] == Interval(c3, 2, 2)
        assert sqcup(qf.table[1], qg.table[1]) == Interval(c3, 1, 2)

    def test_chain_measure_equalities(self):
        rng = random.Random(23)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            f, g = rand_fn(rng, ground, l), rand_fn(rng, ground, l)
            upper = rand_chain_measure(rng, ground, m, "upper")
            gf, gg = distribution(upper, f), distribution(upper, g)
            gj = distribution(upper, join_fn(f, g))
            for x in range(l.size):
                assert gj.values[x] == max(gf.values[x], gg.values[x])
            lower = rand_chain_measure(rng, ground, m, "lower")
            gf, gg = distribution(lower, f), distribution(lower, g)
            gm = distribution(lower, meet_fn(f, g))
            for x in range(l.size):
                assert gm.values[x] == min(gf.values[x], gg.values[x])
            # the meet-side equality survives saturation (sharp variant)
            qf, qg = quantile(lower, f), quantile(lower, g)
            qm = quantile(lower, meet_fn(f, g))
            for p in range(m.size):
                assert qm.table[p] == sqcap(qf.table[p], qg.table[p])

    def test_join_quantile_equality_fails_for_upper_chain(self):
        # frozen counterexample: the distribution functions of f, g, and
        # f v g are related by exact joins, yet the saturated inverses are
        # not; the sharp collapse moves the lower endpoint
        c3 = Chain("c3", 3)
        mu = chain_measure(G2, c3, [0, 0b01, 0b11], [0, 1, 2], "upper")
        assert mu.values == {0: 0, 1: 1, 2: 2, 3: 2}
        f = LatticeFn(G2, c3, (0, 1))
        g = LatticeFn(G2, c3, (2, 0))
        j = join_fn(f, g)
        gj, gf, gg = distribution(mu, j), distribution(mu, f), distribution(mu, g)
        for x in range(3):
            assert gj.values[x] == max(gf.values[x], gg.values[x])
        qj = quantile(mu, j).table[1]
        joined = sqcup(quantile(mu, f).table[1], quantile(mu, g).table[1])
        assert qj == Interval(c3, 2, 2)
        assert joined == Interval(c3, 1, 2)
        assert topkis_leq(joined, qj) and qj != joined


class TestFunctionalLaws:
    """Monotonicity, meet-homogeneity, join behavior of the aggregate."""

    def test_monotone_in_function(self):
        rng = random.Random(29)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, l)
            f = rand_fn(rng, ground, l)
            g = rand_fn_above(rng, f)
            assert topkis_leq(fan_sugeno(mu, f, ell), fan_sugeno(mu, g, ell))

    def test_meet_homogeneity(self):
        rng = random.Random(31)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, l, zero_fixed=True)
            f = rand_fn(rng, ground, l)
            a = rng.randrange(l.size)
            capped = LatticeFn(ground, l, tuple(min(a, v) for v in f.values))
            expect = sqcap(Interval(l, a, a), fan_sugeno(mu, f, ell))
            assert fan_sugeno(mu, capped, ell) == expect

    def test_join_superadditive_and_upper_chain_sup_equality(self):
        rng = random.Random(37)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            ell = rand_comm(rng, m, l)
            f, g = rand_fn(rng, ground, l), rand_fn(rng, ground, l)
            mu = rand_measure(rng, ground, m)
            sj = fan_sugeno(mu, join_fn(f, g), ell)
            s2 = sqcup(fan_sugeno(mu, f, ell), fan_sugeno(mu, g, ell))
            assert topkis_leq(s2, sj)
            # for upper chain measures the least upper bounds agree
            upper = rand_chain_measure(rng, ground, m, "upper")
            assert (
                fan_sugeno(upper, join_fn(f, g), ell).hi
                == sqcup(fan_sugeno(upper, f, ell), fan_sugeno(upper, g, ell)).hi
            )

    def test_join_interval_equality_fails_for_upper_chain(self):
        # frozen counterexample: the aggregate of f v g is strictly above
        # the join of the aggregates even for an upper chain measure; only
        # the least upper bounds coincide
        c3 = Chain("c3", 3)
        mu = chain_measure(G2, c3, [0, 0b01, 0b11], [0, 1, 2], "upper")
        ell = CommFn(c3, c3, (0, 2, 2))
        f = LatticeFn(G2, c3, (0, 1))
        g = LatticeFn(G2, c3, (2, 0))
        sj = fan_sugeno(mu, join_fn(f, g), ell)
        s2 = sqcup(fan_sugeno(mu, f, ell), fan_sugeno(mu, g, ell))
        assert sj == Interval(c3, 2, 2)
        assert s2 == Interval(c3, 1, 2)
        assert sj.hi == s2.hi and sj != s2

    def test_comonotonic_sup_maxitivity(self):
        rng = random.Random(41)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, l)
            f = rand_fn(rng, ground, l)
            g = monotone_transform(rng, f)
            sj = fan_sugeno(mu, join_fn(f, g), ell)
            s2 = sqcup(fan_sugeno(mu, f, ell), fan_sugeno(mu, g, ell))
            assert sj.hi == s2.hi
            assert topkis_leq(s2, sj)

    def test_comonotone_join_interval_equality_fails(self):
        # frozen counterexample for the interval-level comonotone
        # maxitivity claim; the least upper bounds still agree
        c3 = Chain("c3", 3)
        mu = Measure(SetFamily.full(G2), c3, {0: 0, 1: 0, 2: 1, 3: 2})
        ell = CommFn(c3, c3, (0, 2, 2))
        f = LatticeFn(G2, c3, (0, 2))
        g = LatticeFn(G2, c3, (1, 1))
        assert is_comonotonic([f, g])
        sj = fan_sugeno(mu, join_fn(f, g), ell)
        s2 = sqcup(fan_sugeno(mu, f, ell), fan_sugeno(mu, g, ell))
        assert sj == Interval(c3, 2, 2)
        assert s2 == Interval(c3, 1, 2)

    def test_monotone_in_measure_and_comm(self):
        rng = random.Random(43)
        for _ in range(200):
            ground, l, m = grounds_and_scales(rng)
            mu = rand_measure(rng, ground, m)
            lam = rand_measure_below(rng, mu)
            ell = rand_comm(rng, m, l)
            k = rand_comm_below(rng, ell)
            f = rand_fn(rng, ground, l)
            assert topkis_leq(fan_sugeno(lam, f, k), fan_sugeno(mu, f, ell))


class TestParts:
    RC = ReflChain("r", 4, ("0", "0.25", "0.5", "0.75", "1"))

    def test_examples(self):
        f = LatticeFn(G2, self.RC, (3, -2))
        assert pos_part(f).values == (3, 0)
        assert neg_part(f).values == (0, 2)

    def test_neg_of_negate(self):
        rng = random.Random(47)
        rc = ReflChain("r", 3)
        for _ in range(100):
            f = rand_fn(rng, G2, rc)
            assert pos_part(negate_fn(f)) == neg_part(f)

    def test_nonnegative_function(self):
        f = LatticeFn(G2, self.RC, (1, 0))
        assert neg_part(f).values == (0, 0)

    def test_reconstruction(self):
        rng = random.Random(53)
        rc = ReflChain("r", 3)
        for _ in range(100):
            f = rand_fn(rng, G2, rc)
            fp, fn = pos_part(f), neg_part(f)
            for i in range(G2.size):
                x = rc.elem(fp.values[i])
                y = rc.elem(-fn.values[i])
                assert svee(x, y).srank == f.values[i]

    def test_requires_reflection_scale(self):
        with pytest.raises(DomainError):
            pos_part(e1_fn())


def grid5_sym_setup():
    labels = ("0", "0.25", "0.5", "0.75", "1")
    r = ReflChain("r", 4, labels)
    m = Chain("m", 5, labels)
    mu = Measure(SetFamily.full(G2), m, {0: 0, 1: 2, 2: 1, 3: 4})
    f = LatticeFn(G2, r, (3, -2))
    ell = CommFn.identity(m, r.positive_half())
    return r, m, mu, f, ell


class TestSymmetricFunctional:
    def test_hand_example(self):
        r, m, mu, f, ell = grid5_sym_setup()
        assert fan_sugeno(mu, pos_part(f), ell) == Interval(r.positive_half(), 1, 2)
        assert fan_sugeno(mu, neg_part(f), ell) == Interval(r.positive_half(), 1, 1)
        ss = symmetric_fan_sugeno(mu, f, ell)
        assert ss == RInterval(r, 1, 2)

    def test_hand_example_symmetry(self):
        r, m, mu, f, ell = grid5_sym_setup()
        ss = symmetric_fan_sugeno(mu, f, ell)
        assert symmetric_fan_sugeno(mu, negate_fn(f), ell) == refl_interval(ss)

    def test_symmetry_randomized(self):
        rng = random.Random(59)
        for _ in range(300):
            n = rng.randint(1, 4)
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            r = ReflChain("r", n)
            m = Chain("m", rng.randint(2, 8))
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, r.positive_half())
            f = rand_fn(rng, ground, r)
            variant = rng.choice(("sharp", "plain"))
            ss = symmetric_fan_sugeno(mu, f, ell, variant=variant)
            nss = symmetric_fan_sugeno(mu, negate_fn(f), ell, variant=variant)
            assert nss == refl_interval(ss)

    def test_sup_collapsed_symmetry(self):
        # collapsing both parts to their suprema before the pseudo-sum
        # keeps the symmetry
        rng = random.Random(61)
        for _ in range(200):
            ground = GroundSet(tuple("abc"[: rng.randint(1, 3)]))
            r = ReflChain("r", rng.randint(1, 4))
            m = Chain("m", rng.randint(2, 6))
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, r.positive_half())

            def collapsed(fn):
                sp = fan_sugeno_sup(mu, pos_part(fn), ell).rank
                sn = fan_sugeno_sup(mu, neg_part(fn), ell).rank
                return svee(r.elem(sp), r.elem(-sn))

            f = rand_fn(rng, ground, r)
            assert collapsed(negate_fn(f)).srank == -collapsed(f).srank

    def test_monotone(self):
        rng = random.Random(63)
        for _ in range(200):
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            r = ReflChain("r", rng.randint(1, 4))
            m = Chain("m", rng.randint(2, 8))
            mu = rand_measure(rng, ground, m)
            ell = rand_comm(rng, m, r.positive_half())
            f = rand_fn(rng, ground, r)
            g = rand_fn_above(rng, f)
            assert rinterval_leq(
                symmetric_fan_sugeno(mu, f, ell), symmetric_fan_sugeno(mu, g, ell)
            )

    def test_incomparability_witness(self):
        # frozen search result: the two parts aggregate to incomparable
        # intervals, so the pseudo-sum collapses to the reference point
        g3 = GroundSet(("a", "b", "c"))
        m = Chain("m", 4)
        r = ReflChain("r", 3)
        mu = Measure(
            SetFamily.full(g3),
            m,
            {0: 0, 1: 0, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3, 7: 3},
        )
        ell = CommFn(m, r.positive_half(), (0, 0, 3, 3))
        f = LatticeFn(g3, r, (1, 3, -2))
        sp = fan_sugeno(mu, pos_part(f), ell)
        sn = fan_sugeno(mu, neg_part(f), ell)
        assert (sp.lo, sp.hi) == (1, 3)
        assert (sn.lo, sn.hi) == (2, 2)
        assert not topkis_leq(sp, sn) and not topkis_leq(sn, sp)
        assert symmetric_fan_sugeno(mu, f, ell) == RInterval(r, 0, 0)

    def test_two_comm_variant(self):
        g3 = GroundSet(("a", "b", "c"))
        m = Chain("m", 4)
        r = ReflChain("r", 3)
        mu = Measure(
            SetFamily.full(g3),
            m,
            {0: 0, 1: 3, 2: 3, 3: 3, 4: 0, 5: 3, 6: 3, 7: 3},
        )
        ell = CommFn(m, r.positive_half(), (0, 1, 2, 2))
        k = CommFn(m, r.positive_half(), (0, 0, 0, 3))
        f = LatticeFn(g3, r, (-3, 1, -2))
        assert symmetric_fan_sugeno(mu, f, ell, k) == RInterval(r, 0, 0)


class TestAsymmetricFunctional:
    def setup_comms(self, rng, m, r):
        n = r.half_size
        plain = r.as_chain()
        lminus = sorted(rng.choices(range(n + 1), k=m.size))
        lplus = sorted(rng.choices(range(n, 2 * n + 1), k=m.size))
        return CommFn(m, plain, tuple(lminus)), CommFn(m, plain, tuple(lplus))

    def test_neutral_negative_side(self):
        # with the negative commensurability constantly at the reference
        # point and the positive one fixing the bottom, the aggregate is
        # the positive-side aggregate
        rng = random.Random(67)
        for _ in range(200):
            ground = GroundSet(tuple("abcd"[: rng.randint(1, 4)]))
            r = ReflChain("r", rng.randint(1, 4))
            n = r.half_size
            m = Chain("m", rng.randint(2, 6))
            plain = r.as_chain()
            mu = rand_measure(rng, ground, m)
            f = rand_fn(rng, ground, r)
            lminus = CommFn(m, plain, (n,) * m.size)
            vals = sorted(rng.choices(range(n, 2 * n + 1), k=m.size))
            vals[0] = n
            lplus = CommFn(m, plain, tuple(vals))
            asym = asymmetric_fan_sugeno(mu, f, lminus, lplus)
            q = quantile(mu, f.as_plain(), "sharp")
            from ordagg import inner_product

            raw = inner_product(lplus.as_corr(), q)
            lo, hi = raw.lo - n, raw.hi - n
            assert asym == RInterval(r, lo if hi <= 0 else max(lo, 0), hi)

    def test_constant_positive_function(self):
        r = ReflChain("r", 3)
        m = Chain("m", 4)
        plain = r.as_chain()
        g3 = GroundSet(("a", "b", "c"))
        rng = random.Random(71)
        mu = rand_measure(rng, g3, m)
        c = 2
        f = LatticeFn.constant(g3, r, c)
        lminus = CommFn(m, plain, (3,) * 4)
        lplus = CommFn(m, plain, (3, 4, 5, 6))
        asym = asymmetric_fan_sugeno(mu, f, lminus, lplus)
        assert asym.lo >= 0
        assert asym.hi == c

    def test_monotone(self):
        # the sharp variant only: plain saturations of the inverses are
        # not pointwise ordered, so monotonicity needs the default variant
        rng = random.Random(73)
        for _ in range(300):
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            r = ReflChain("r", rng.randint(1, 4))
            m = Chain("m", rng.randint(2, 8))
            mu = rand_measure(rng, ground, m)
            lminus, lplus = self.setup_comms(rng, m, r)
            f = rand_fn(rng, ground, r)
            g = rand_fn_above(rng, f)
            af = asymmetric_fan_sugeno(mu, f, lminus, lplus)
            ag = asymmetric_fan_sugeno(mu, g, lminus, lplus)
            assert rinterval_leq(af, ag)

    def test_a_crossing_product_is_clamped_to_the_positive_half(self):
        # f sits at the top, so every plain quantile is the whole carrier:
        # the negative side's product is -[0,1], the positive side's crosses
        # the reference point as [-1,1] and reads as [0,1], and the two
        # cancel (read as -[0,1], it would join the negative side instead)
        r = ReflChain("r", 1)
        m = Chain("m", 3)
        plain = r.as_chain()
        g2 = GroundSet(("a", "b"))
        mu = Measure(SetFamily.full(g2), m, {0: 0, 1: 1, 2: 1, 3: 2})
        f = LatticeFn(g2, r, (1, 1))
        lminus = CommFn(m, plain, (0, 0, 1))
        lplus = CommFn(m, plain, (1, 1, 2))
        assert asymmetric_fan_sugeno(mu, f, lminus, lplus, "plain") == RInterval(r, 0, 0)

    def test_rejects_wrong_halves(self):
        r = ReflChain("r", 2)
        m = Chain("m", 3)
        plain = r.as_chain()
        g = GroundSet(("a",))
        mu = unanimity(g, 1, m)
        f = LatticeFn(g, r, (1,))
        bad_minus = CommFn(m, plain, (0, 2, 3))
        good_plus = CommFn(m, plain, (2, 3, 4))
        with pytest.raises(DomainError):
            asymmetric_fan_sugeno(mu, f, bad_minus, good_plus)
        good_minus = CommFn(m, plain, (0, 1, 2))
        bad_plus = CommFn(m, plain, (1, 3, 4))
        with pytest.raises(DomainError):
            asymmetric_fan_sugeno(mu, f, good_minus, bad_plus)


def test_signed_functionals_build_no_chain(monkeypatch):
    """The positive half and the carrier are built once per reflection
    scale, so scoring a signed function constructs no chain."""
    r, m, mu, f, ell = grid5_sym_setup()
    carrier = r.as_chain()
    ell_minus = CommFn(m, carrier, (0, 1, 2, 3, 4))
    ell_plus = CommFn(m, carrier, (4, 5, 6, 7, 8))
    g = LatticeFn(G2, r, (1, 1))
    built = []
    init = Chain.__init__

    def counted(self, id, *args):
        built.append(id)
        init(self, id, *args)

    monkeypatch.setattr(Chain, "__init__", counted)
    symmetric_fan_sugeno(mu, f, ell)
    asymmetric_fan_sugeno(mu, f, ell_minus, ell_plus)
    ordinal_distance(mu, ell, f, g)
    kyfan_norm(mu, f)
    assert built == []


@pytest.mark.parametrize("functional", [fan_sugeno, fan_sugeno_dual])
@pytest.mark.parametrize("variant", ["sharp", "plain"])
def test_route_builds_intervals_per_value_not_per_point(monkeypatch, functional, variant):
    """Each stage of the route builds one interval per distinct value or
    per step of the distribution, not one per chain point: at most
    5 + 4(n+2) for a comm with 5 distinct values, on 1,501- and 3,001-point
    chains where one interval per point would be about 6,000."""
    rng = random.Random(31)
    n, m, l = 8, Chain("m", 1501), Chain("l", 3001)
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    mu = rand_measure(rng, ground, m)
    f = rand_fn(rng, ground, l)
    cuts = sorted(rng.sample(range(1, m.size), 4))
    ell = CommFn(m, l, tuple(sum(p >= c for c in cuts) * 700 for p in range(m.size)))
    assert len(set(ell.values)) == 5
    expected = functional(mu, f, ell, variant)
    built = []
    init = Interval.__init__

    def counted(self, chain, lo, hi):
        built.append((lo, hi))
        init(self, chain, lo, hi)

    monkeypatch.setattr(Interval, "__init__", counted)
    assert functional(mu, f, ell, variant) == expected
    assert 0 < len(built) <= 5 + 4 * (n + 2)
