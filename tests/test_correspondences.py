"""Monotone correspondences, products, and saturations."""

import random

import pytest

from ordagg import (
    Chain,
    Corr,
    DomainError,
    Interval,
    Rel,
    TotalFn,
    dual_product,
    inner_product,
    inverse,
    is_decreasing,
    is_increasing,
    is_sharply_monotone,
    saturate,
    sharp_saturate,
    sqcap,
    sqcup,
    sqcup_family,
    topkis_cmp,
    topkis_leq,
    unit_corr,
)
from helpers import (
    rand_decreasing_corr,
    rand_decreasing_surjection,
    rand_interval,
    rand_total_corr,
    rectangle_increasing,
)

C3 = Chain("c3", 3)
C4 = Chain("c4", 4)

GRID11 = Chain("grid11", 11, tuple(f"{i/10:.1f}" for i in range(11)))


def corr(table, src=C3, dst=C3):
    return Corr(src, dst, {x: Interval(dst, lo, hi) for x, (lo, hi) in table.items()})


class TestCalls:
    def test_corr_call(self):
        c = Corr(C4, C3, {0: Interval(C3, 1, 2), 3: Interval(C3, 0, 0)})
        assert c(0) == Interval(C3, 1, 2)
        assert c(3) == Interval(C3, 0, 0)
        for x in (1, 5):
            with pytest.raises(
                DomainError, match=f"^point {x} not in the domain of the correspondence$"
            ):
                c(x)

    def test_total_fn_call(self):
        g = TotalFn(C4, C3, (2, 2, 1, 0))
        assert [g(x) for x in range(4)] == [2, 2, 1, 0]


class TestMonotonicity:
    def test_increasing_example(self):
        c = corr({0: (0, 1), 1: (1, 1), 2: (2, 2)})
        assert is_increasing(c)
        assert not is_decreasing(c)

    def test_decreasing_with_gap(self):
        c = corr({0: (2, 2), 2: (0, 1)})
        assert is_decreasing(c)
        assert not is_increasing(c)

    def test_not_decreasing_incomparable(self):
        c = corr({0: (2, 2), 1: (1, 3)}, dst=C4)
        assert not is_decreasing(c)
        assert not is_increasing(c)

    def test_rectangle_criterion_coincides(self):
        rng = random.Random(101)
        for _ in range(300):
            src = Chain("m", rng.randint(1, 6))
            dst = Chain("l", rng.randint(1, 6))
            c = rand_decreasing_corr(rng, src, dst, total=rng.random() < 0.5)
            flipped = Corr(
                src,
                dst,
                {src.size - 1 - x: iv for x, iv in c.table.items()},
            )
            assert is_increasing(flipped)
            assert rectangle_increasing(flipped)
        # and on arbitrary tables the two criteria agree
        for _ in range(300):
            src = Chain("m", rng.randint(1, 5))
            dst = Chain("l", rng.randint(1, 5))
            k = rng.randint(1, src.size)
            table = {
                x: rand_interval(rng, dst)
                for x in rng.sample(range(src.size), k)
            }
            c = Corr(src, dst, table)
            assert is_increasing(c) == rectangle_increasing(c)


class TestSharpness:
    def test_examples(self):
        assert is_sharply_monotone(corr({0: (2, 3), 1: (0, 2)}, dst=C4))
        assert not is_sharply_monotone(corr({0: (1, 3), 1: (1, 2)}, dst=C4))

    def test_injective_functions_are_sharp(self):
        f = TotalFn(C4, C4, (3, 2, 1, 0))
        assert is_sharply_monotone(f.as_corr())


class TestInverse:
    def test_transpose(self):
        c = corr({0: (2, 2), 1: (1, 1)})
        inv = inverse(c)
        assert inv.table == {1: Interval(C3, 1, 1), 2: Interval(C3, 0, 0)}

    def test_inverse_of_grid_distribution(self):
        g = TotalFn(GRID11, GRID11, (10,) * 3 + (5,) * 4 + (0,) * 4)
        inv = inverse(g.as_corr())
        assert inv.dom() == [0, 5, 10]
        assert inv.table[10] == Interval(GRID11, 0, 2)
        assert inv.table[5] == Interval(GRID11, 3, 6)
        assert inv.table[0] == Interval(GRID11, 7, 10)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(200):
            src = Chain("m", rng.randint(1, 7))
            dst = Chain("l", rng.randint(1, 7))
            c = rand_decreasing_corr(rng, src, dst)
            assert inverse(inverse(c)) == c

    def test_rejects_non_interval_transpose(self):
        c = corr({0: (2, 2), 2: (2, 2)})
        with pytest.raises(DomainError):
            inverse(c)


class TestProducts:
    PHI = {0: (0, 1), 1: (1, 1), 2: (2, 2)}
    PSI = {0: (2, 2), 1: (1, 2), 2: (0, 1)}

    def test_inner_example(self):
        assert inner_product(corr(self.PHI), corr(self.PSI)) == Interval(C3, 1, 1)

    def test_dual_example(self):
        assert dual_product(corr(self.PHI), corr(self.PSI)) == Interval(C3, 1, 2)

    def test_inner_below_dual_here(self):
        inner = inner_product(corr(self.PHI), corr(self.PSI))
        dual = dual_product(corr(self.PHI), corr(self.PSI))
        assert topkis_leq(inner, dual)

    def test_commutative(self):
        rng = random.Random(13)
        for _ in range(200):
            src = Chain("m", rng.randint(1, 8))
            dst = Chain("l", rng.randint(1, 8))
            phi, psi = rand_total_corr(rng, src, dst), rand_total_corr(rng, src, dst)
            assert inner_product(phi, psi) == inner_product(psi, phi)
            assert dual_product(phi, psi) == dual_product(psi, phi)

    def test_orthogonality(self):
        rng = random.Random(17)
        bot = (0, 0)
        for _ in range(300):
            src = Chain("m", rng.randint(1, 6))
            dst = Chain("l", rng.randint(2, 6))
            phi, psi = rand_total_corr(rng, src, dst), rand_total_corr(rng, src, dst)
            supp_phi = {x for x, iv in phi.table.items() if (iv.lo, iv.hi) != bot}
            supp_psi = {x for x, iv in psi.table.items() if (iv.lo, iv.hi) != bot}
            is_bottom = inner_product(phi, psi) == Interval(dst, 0, 0)
            assert is_bottom == (not (supp_phi & supp_psi))

    def test_monotone_and_linear(self):
        rng = random.Random(19)
        for _ in range(300):
            src = Chain("m", rng.randint(1, 8))
            dst = Chain("l", rng.randint(1, 8))
            phi1 = rand_total_corr(rng, src, dst)
            psi = rand_total_corr(rng, src, dst)
            phi2 = Corr(
                src,
                dst,
                {
                    x: sqcup(iv, rand_interval(rng, dst))
                    for x, iv in phi1.table.items()
                },
            )
            assert topkis_leq(inner_product(phi1, psi), inner_product(phi2, psi))
            joined = Corr(
                src, dst, {x: sqcup(phi1.table[x], phi2.table[x]) for x in range(src.size)}
            )
            assert inner_product(joined, psi) == sqcup(
                inner_product(phi1, psi), inner_product(phi2, psi)
            )
            y = rng.randrange(dst.size)
            a = Interval(dst, y, y)
            capped = Corr(src, dst, {x: sqcap(a, iv) for x, iv in phi1.table.items()})
            assert inner_product(capped, psi) == sqcap(a, inner_product(phi1, psi))

    def test_increasing_vs_decreasing_bound(self):
        rng = random.Random(23)
        for _ in range(300):
            src = Chain("m", rng.randint(1, 8))
            dst = Chain("l", rng.randint(1, 8))
            inc_table = rand_decreasing_corr(rng, src, dst, total=True)
            phi = Corr(
                src,
                dst,
                {src.size - 1 - x: iv for x, iv in inc_table.table.items()},
            )
            psi = rand_decreasing_corr(rng, src, dst, total=True)
            assert topkis_leq(inner_product(phi, psi), dual_product(phi, psi))

    def test_requires_total(self):
        with pytest.raises(DomainError):
            inner_product(corr({0: (0, 0)}), corr(self.PSI))

    def test_constant_top(self):
        t = C3.size - 1
        phi = corr({x: (t, t) for x in range(3)})
        assert dual_product(phi, phi) == Interval(C3, t, t)
        assert inner_product(phi, phi) == Interval(C3, t, t)


class TestUnitCorr:
    def test_picks_value_of_decreasing(self):
        rng = random.Random(29)
        for _ in range(200):
            src = Chain("m", rng.randint(1, 8))
            dst = Chain("l", rng.randint(1, 8))
            psi = rand_decreasing_corr(rng, src, dst, total=True)
            a = src.elem(rng.randrange(src.size))
            assert inner_product(unit_corr(a, dst), psi) == psi.table[a.rank]

    def test_bottom_unit_gives_total_join(self):
        rng = random.Random(31)
        psi = rand_decreasing_corr(rng, C4, C4, total=True)
        eps = unit_corr(C4.elem(0), C4)
        assert inner_product(eps, psi) == sqcup_family(psi.table.values())

    def test_top_unit_is_indicator(self):
        eps = unit_corr(C4.elem(3))
        for x in range(3):
            assert eps.table[x] == Interval(C4, 0, 0)
        assert eps.table[3] == Interval(C4, 3, 3)


class TestSaturation:
    def grid_inverse(self):
        g = TotalFn(GRID11, GRID11, (10,) * 3 + (5,) * 4 + (0,) * 4)
        return inverse(g.as_corr())

    def test_plain_values(self):
        sat = saturate(self.grid_inverse())
        assert sat.is_total()
        assert sat.table[3] == Interval(GRID11, 3, 6)
        assert sat.table[5] == Interval(GRID11, 3, 6)
        assert sat.table[7] == Interval(GRID11, 0, 2)

    def test_sharp_values(self):
        sat = sharp_saturate(self.grid_inverse())
        assert sat.table[3] == Interval(GRID11, 6, 6)
        assert sat.table[5] == Interval(GRID11, 3, 6)
        assert sat.table[7] == Interval(GRID11, 2, 2)

    def test_extends_and_decreases(self):
        rng = random.Random(37)
        for _ in range(200):
            src = Chain("m", rng.randint(1, 8))
            dst = Chain("l", rng.randint(1, 8))
            psi = rand_decreasing_corr(rng, src, dst)
            sat = saturate(psi)
            sharp = sharp_saturate(psi)
            for x, iv in psi.table.items():
                assert sat.table[x] == iv
                assert sharp.table[x] == iv
            assert sat.is_total() and sharp.is_total()
            assert is_decreasing(sat) and is_decreasing(sharp)
            for x in range(src.size):
                assert topkis_leq(sat.table[x], sharp.table[x])

    def test_no_upper_domain_point_gives_bottom(self):
        psi = corr({1: (1, 2)})
        sat = saturate(psi)
        assert sat.table[2] == Interval(C3, 0, 0)

    def test_sharp_preserves_sharpness(self):
        rng = random.Random(41)
        for _ in range(200):
            src = Chain("m", rng.randint(2, 8))
            dst = Chain("l", rng.randint(1, 8))
            dst_size = rng.randint(1, src.size)
            f = rand_decreasing_surjection(rng, src, Chain("l", dst_size))
            psi = inverse(f.as_corr())
            assert is_sharply_monotone(psi)
            assert is_sharply_monotone(sharp_saturate(psi))

    def test_rejects_non_decreasing(self):
        with pytest.raises(DomainError):
            saturate(corr({0: (0, 0), 1: (2, 2)}))


class TestSharpSaturationOrder:
    def test_sharp_preserves_pointwise_order(self):
        rng = random.Random(43)
        for _ in range(300):
            msize = rng.randint(1, 8)
            lsize = rng.randint(1, 8)
            src = Chain("l", lsize)
            dst = Chain("m", msize)
            lower = tuple(
                sorted((rng.randrange(msize) for _ in range(lsize)), reverse=True)
            )
            upper = tuple(rng.randint(v, msize - 1) for v in lower)
            upper = tuple(sorted(upper, reverse=True))
            phi = TotalFn(src, dst, lower)
            psi = TotalFn(src, dst, upper)
            hphi = sharp_saturate(inverse(phi.as_corr()))
            hpsi = sharp_saturate(inverse(psi.as_corr()))
            for y in range(msize):
                assert topkis_leq(hphi.table[y], hpsi.table[y])

    def test_plain_saturation_violates_order(self):
        # frozen witness: the plain saturations of these inverses are not
        # pointwise ordered although the functions are
        c = Chain("c", 3)
        phi = TotalFn(c, c, (2, 1, 1))
        psi = TotalFn(c, c, (2, 2, 2))
        assert all(a <= b for a, b in zip(phi.values, psi.values))
        sp = saturate(inverse(phi.as_corr()))
        sq = saturate(inverse(psi.as_corr()))
        assert sp.table[1] == Interval(c, 1, 2)
        assert sq.table[1] == Interval(c, 0, 2)
        assert topkis_cmp(sp.table[1], sq.table[1]) == Rel.GREATER
        assert not topkis_leq(sp.table[1], sq.table[1])
        # the sharp saturations of the same pair are ordered
        hp = sharp_saturate(inverse(phi.as_corr()))
        hq = sharp_saturate(inverse(psi.as_corr()))
        assert all(topkis_leq(hp.table[y], hq.table[y]) for y in range(3))


class TestInverseOrderEquivalence:
    def test_decreasing_surjections(self):
        rng = random.Random(47)
        for _ in range(300):
            lsize = rng.randint(1, 6)
            msize = rng.randint(lsize, 8)
            src = Chain("m", msize)
            dst = Chain("l", lsize)
            phi = rand_decreasing_surjection(rng, src, dst)
            psi = rand_decreasing_surjection(rng, src, dst)
            fwd = all(a <= b for a, b in zip(phi.values, psi.values))
            iphi, ipsi = inverse(phi.as_corr()), inverse(psi.as_corr())
            assert sorted(iphi.table) == list(range(lsize))
            bwd = all(
                topkis_leq(iphi.table[y], ipsi.table[y]) for y in range(lsize)
            )
            assert fwd == bwd
