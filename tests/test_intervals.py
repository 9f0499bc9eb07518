"""Interval lattice laws and the interval reflection lattice."""

import itertools
import re

import pytest

from ordagg import (
    Chain,
    DomainError,
    Interval,
    ReflChain,
    Rel,
    RInterval,
    abs_interval,
    absolute,
    format_interval,
    format_rinterval,
    refl,
    refl_interval,
    rinterval_leq,
    sqcap,
    sqcap_family,
    sqcup,
    sqcup_family,
    svee_intervals,
    topkis_cmp,
    topkis_leq,
)
from ordagg.oracle import leq_via_lemma, oracle_svee_intervals
from helpers import all_intervals

C5 = Chain("c5", 5)
C4 = Chain("c4", 4)


def iv(lo, hi, chain=C5):
    return Interval(chain, lo, hi)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(DomainError):
            Interval(C5, 3, 2)
        with pytest.raises(DomainError):
            Interval(C5, -1, 2)
        with pytest.raises(DomainError):
            Interval(C5, 0, 5)

    @pytest.mark.parametrize("lo, hi, shown", [
        (True, 1.0, "[True,1.0]"),
        (0, 1.0, "[0,1.0]"),
        (1.0, 1, "[1.0,1]"),
        (False, 2, "[False,2]"),
        (0, True, "[0,True]"),
        (2.5, 3, "[2.5,3]"),
    ])
    def test_endpoints_must_be_ints(self, lo, hi, shown):
        """`True` and `1.0` are not ranks, even where they compare like one."""
        with pytest.raises(DomainError, match=re.escape(
                f"invalid interval endpoints {shown} for chain 'c5' of size 5")):
            Interval(C5, lo, hi)

    def test_elements(self):
        assert list(iv(1, 3).elements()) == [1, 2, 3]
        assert list(iv(2, 2).elements()) == [2]

    def test_format(self):
        c = Chain("g", 11, tuple(f"{i/10:.1f}" for i in range(11)))
        assert format_interval(Interval(c, 4, 5)) == "[0.4,0.5]"


class TestTopkisOrder:
    def test_examples(self):
        assert topkis_cmp(iv(2, 2), iv(1, 3)) == Rel.INCOMPARABLE
        assert topkis_cmp(iv(1, 2), iv(1, 2)) == Rel.EQUAL
        assert topkis_cmp(iv(0, 1), iv(1, 3)) == Rel.LESS
        assert topkis_cmp(iv(1, 3), iv(0, 1)) == Rel.GREATER

    def test_agrees_with_lemma_everywhere(self):
        ivs = all_intervals(C5)
        assert len(ivs) == 15
        for i1, i2 in itertools.product(ivs, repeat=2):
            assert leq_via_lemma(i1, i2) == topkis_leq(i1, i2)

    def test_lemma_incomparable_example(self):
        assert not leq_via_lemma(iv(2, 2), iv(1, 3))
        assert not leq_via_lemma(iv(1, 3), iv(2, 2))
        for i in all_intervals(C5):
            assert leq_via_lemma(i, i)


class TestJoinMeet:
    def test_examples(self):
        assert sqcup(iv(1, 3), iv(2, 2)) == iv(2, 3)
        assert sqcap(iv(1, 3), iv(2, 2)) == iv(1, 2)
        bot = iv(0, 0)
        for i in all_intervals(C5):
            assert sqcup(i, bot) == i
            assert sqcap(i, iv(4, 4)) == i

    def test_operands_over_different_chains(self):
        other = Interval(Chain("d", 5), 0, 1)
        for op in (sqcup, sqcap):
            with pytest.raises(
                DomainError, match="^intervals over different chains: 'c5' vs 'd'$"
            ):
                op(iv(1, 3), other)

    def test_family_examples(self):
        assert sqcup_family([iv(0, 0), iv(1, 2), iv(0, 3)]) == iv(1, 3)
        assert sqcap_family([iv(1, 2)]) == iv(1, 2)
        assert sqcup_family([iv(r, r) for r in range(5)]) == iv(4, 4)
        with pytest.raises(DomainError):
            sqcup_family([])

    def test_lattice_axioms_exhaustive(self):
        ivs = all_intervals(C5)
        for a, b in itertools.product(ivs, repeat=2):
            assert sqcup(a, b) == sqcup(b, a)
            assert sqcap(a, b) == sqcap(b, a)
            assert sqcup(a, sqcap(a, b)) == a
            assert sqcap(a, sqcup(a, b)) == a
            # join/meet characterize the order
            assert topkis_leq(a, b) == (sqcup(a, b) == b) == (sqcap(a, b) == a)
        for a, b, c in itertools.product(ivs, repeat=3):
            assert sqcup(sqcup(a, b), c) == sqcup(a, sqcup(b, c))
            assert sqcap(sqcap(a, b), c) == sqcap(a, sqcap(b, c))
            assert sqcap(a, sqcup(b, c)) == sqcup(sqcap(a, b), sqcap(a, c))
            assert sqcup(a, sqcap(b, c)) == sqcap(sqcup(a, b), sqcup(a, c))

    def test_join_meet_are_least_and_greatest_bounds(self):
        ivs = all_intervals(C4)
        for a, b in itertools.product(ivs, repeat=2):
            j, m = sqcup(a, b), sqcap(a, b)
            assert topkis_leq(a, j) and topkis_leq(b, j)
            assert topkis_leq(m, a) and topkis_leq(m, b)
            for k in ivs:
                if topkis_leq(a, k) and topkis_leq(b, k):
                    assert topkis_leq(j, k)
                if topkis_leq(k, a) and topkis_leq(k, b):
                    assert topkis_leq(k, m)

    def test_bottom_and_top(self):
        ivs = all_intervals(C5)
        bot, t = iv(0, 0), iv(4, 4)
        for i in ivs:
            assert topkis_leq(bot, i)
            assert topkis_leq(i, t)

    def test_singleton_embedding_is_homomorphism(self):
        for a, b in itertools.product(range(5), repeat=2):
            sa, sb = iv(a, a), iv(b, b)
            assert sqcup(sa, sb) == iv(max(a, b), max(a, b))
            assert sqcap(sa, sb) == iv(min(a, b), min(a, b))
            assert topkis_leq(sa, sb) == (a <= b)


def complete_distributivity_holds(family):
    """Check both complete-distributivity identities for a family of
    interval sets, enumerating all choice functions."""
    lhs_meet = sqcap_family([sqcup_family(s) for s in family])
    rhs_meet = sqcup_family(
        [sqcap_family(choice) for choice in itertools.product(*family)]
    )
    lhs_join = sqcup_family([sqcap_family(s) for s in family])
    rhs_join = sqcap_family(
        [sqcup_family(choice) for choice in itertools.product(*family)]
    )
    return lhs_meet == rhs_meet and lhs_join == rhs_join


class TestCompleteDistributivity:
    def test_exhaustive_small(self):
        # every family of at most 3 sets of at most 3 intervals of a
        # size-3 chain
        c3 = Chain("c3", 3)
        ivs = all_intervals(c3)
        sets = [
            s
            for k in (1, 2, 3)
            for s in itertools.combinations(ivs, k)
        ]
        for k in (1, 2, 3):
            for family in itertools.combinations_with_replacement(sets, k):
                assert complete_distributivity_holds(family)


class TestRInterval:
    RC = ReflChain("r", 3)

    def test_normalization_and_validation(self):
        # an endpoint pair: the half is read off the signs
        assert repr(RInterval(self.RC, -2, -1)) == (
            "RInterval(chain=ReflChain(id='r', half_size=3, labels=None), lo=-2, hi=-1)"
        )
        with pytest.raises(DomainError):
            RInterval(self.RC, -1, 2)
        with pytest.raises(DomainError):
            RInterval(self.RC, -2, 1)
        with pytest.raises(DomainError):
            RInterval(self.RC, 2, 4)

    def test_svee_over_different_reflection_chains(self):
        other = RInterval(ReflChain("s", 3), 0, 1)
        with pytest.raises(
            DomainError,
            match="^intervals over different reflection chains: 'r' vs 's'$",
        ):
            svee_intervals(RInterval(self.RC, 0, 1), other)

    def test_refl_abs(self):
        p = RInterval(self.RC, 1, 3)
        n = refl_interval(p)
        assert n == RInterval(self.RC, -3, -1)
        assert abs_interval(n) == p
        assert refl_interval(RInterval(self.RC, 0, 0)) == RInterval(self.RC, 0, 0)
        assert refl_interval(refl_interval(n)) == n

    def test_format(self):
        rc = ReflChain("g", 4, ("0", "0.25", "0.5", "0.75", "1"))
        assert format_rinterval(RInterval(rc, 1, 2)) == "[0.25,0.5]"
        assert format_rinterval(RInterval(rc, -3, -1)) == "-[0.25,0.75]"
        assert format_rinterval(RInterval(rc, 0, 0)) == "[0,0]"

    def all_rintervals(self, rc):
        out = [RInterval(rc, 0, 0)]
        n = rc.half_size
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                if hi > 0:
                    out.append(RInterval(rc, lo, hi))
                    out.append(RInterval(rc, -hi, -lo))
        return out

    def test_svee_examples(self):
        rc = self.RC
        assert svee_intervals(
            RInterval(rc, 1, 2), RInterval(rc, 2, 3)
        ) == RInterval(rc, 2, 3)
        # strictly absolutely larger operand wins
        assert svee_intervals(
            RInterval(rc, 1, 2), RInterval(rc, -1, -1)
        ) == RInterval(rc, 1, 2)
        # incomparable absolute values collapse to the reference point
        assert svee_intervals(
            RInterval(rc, 0, 2), RInterval(rc, -1, -1)
        ) == RInterval(rc, 0, 0)
        # equal absolute values cancel
        assert svee_intervals(
            RInterval(rc, 1, 2), RInterval(rc, -2, -1)
        ) == RInterval(rc, 0, 0)

    def test_svee_negative_half_is_reflected_join(self):
        rc = self.RC
        a = RInterval(rc, -3, -1)
        b = RInterval(rc, -2, -2)
        assert svee_intervals(a, b) == RInterval(rc, -3, -2)

    def test_svee_commutative_with_neutral(self):
        rc = ReflChain("r2", 2)
        rivs = self.all_rintervals(rc)
        e = RInterval(rc, 0, 0)
        for x, y in itertools.product(rivs, repeat=2):
            assert svee_intervals(x, y) == svee_intervals(y, x)
        for x in rivs:
            assert svee_intervals(x, e) == x

    def test_svee_monotone(self):
        rc = ReflChain("r2", 2)
        rivs = self.all_rintervals(rc)
        for x, y, z in itertools.product(rivs, repeat=3):
            if rinterval_leq(x, y):
                assert rinterval_leq(svee_intervals(x, z), svee_intervals(y, z))

    def test_order(self):
        rc = self.RC
        assert rinterval_leq(
            RInterval(rc, -1, -1), RInterval(rc, 1, 2)
        )
        assert rinterval_leq(
            RInterval(rc, -3, -2), RInterval(rc, -2, -1)
        )
        assert not rinterval_leq(
            RInterval(rc, 1, 1), RInterval(rc, -1, -1)
        )

    def test_every_signed_interval_against_its_elements(self):
        rc = ReflChain("r", 3, ("0", "lo", "mid", "hi"))
        n, half, carrier = rc.half_size, rc.positive_half(), rc.as_chain()
        rivs = self.all_rintervals(rc)
        assert len(set(rivs)) == 19

        def elems(x):
            return set(range(x.lo, x.hi + 1))

        def on_carrier(x):
            return Interval(carrier, x.lo + n, x.hi + n)

        for x in rivs:
            e = elems(x)
            assert elems(refl_interval(x)) == {refl(rc.elem(a)).srank for a in e}
            assert elems(abs_interval(x)) == {absolute(rc.elem(a)).srank for a in e}
            negative = min(e) < 0
            mags = sorted(abs(a) for a in e)
            want = f"[{half.label(mags[0])},{half.label(mags[-1])}]"
            assert format_rinterval(x) == ("-" if negative else "") + want
        for x, y in itertools.product(rivs, repeat=2):
            assert rinterval_leq(x, y) == leq_via_lemma(on_carrier(x), on_carrier(y))
            assert svee_intervals(x, y) == oracle_svee_intervals(x, y)
