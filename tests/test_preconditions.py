"""Library preconditions: each rejected input raises a named error class
with a pinned message, never an error from deeper down."""

import re
from contextlib import contextmanager

import pytest

from ordagg import (
    Chain,
    ChainMismatchError,
    CommFn,
    Corr,
    DomainError,
    GroundSet,
    Interval,
    LatticeFn,
    Measure,
    ReflChain,
    SetFamily,
    TotalFn,
    asymmetric_fan_sugeno,
    chain_measure,
    distribution,
    dual_product,
    esssup_norm,
    fan_sugeno,
    inner_product,
    kyfan_norm,
    neg_part,
    negate_fn,
    pointwise_distance,
    quantile_functional,
    sharp_saturate,
    symmetric_fan_sugeno,
    unanimity,
)

G2 = GroundSet(("a", "b"))
M3 = Chain("m", 3)
L3 = Chain("l", 3)
R1 = ReflChain("r", 1)
MU = Measure(SetFamily.full(G2), M3, {0: 0, 1: 1, 2: 1, 3: 2})
F = LatticeFn(G2, M3, (2, 0))


@contextmanager
def raises(cls, message):
    """Expect exactly `cls` (not a subclass) with exactly `message`."""
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as e:
        yield e
    assert e.type is cls


class TestAggregation:
    def test_distribution_on_different_ground_sets(self):
        f = LatticeFn(GroundSet(("a", "c")), M3, (2, 0))
        with raises(ChainMismatchError, "measure and function live on different ground sets"):
            distribution(MU, f)

    def test_comm_source_mismatch(self):
        with raises(
            ChainMismatchError,
            "commensurability source 'l' differs from measure scale 'm'",
        ):
            fan_sugeno(MU, F, CommFn.identity(L3, M3))

    def test_comm_destination_mismatch(self):
        with raises(
            ChainMismatchError,
            "commensurability destination 'l' differs from function scale 'm'",
        ):
            fan_sugeno(MU, F, CommFn.identity(M3, L3))

    @pytest.mark.parametrize("p", [-1, 3])
    def test_quantile_functional_rank_out_of_range(self, p):
        with raises(DomainError, f"rank {p} outside measure scale 'm'"):
            quantile_functional(MU, F, p)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: neg_part(F), "negative part needs a reflection-scale function"),
            (lambda: negate_fn(F), "negation needs a reflection-scale function"),
            (
                lambda: symmetric_fan_sugeno(MU, F, CommFn.identity(M3)),
                "symmetric aggregation needs a reflection-scale function",
            ),
            (
                lambda: asymmetric_fan_sugeno(MU, F, CommFn.identity(M3), CommFn.identity(M3)),
                "asymmetric aggregation needs a reflection-scale function",
            ),
            (lambda: kyfan_norm(MU, F), "the norm needs a reflection-scale function"),
            (lambda: esssup_norm(MU, F), "the norm needs a reflection-scale function"),
            (
                lambda: pointwise_distance(F, F),
                "pointwise distance needs reflection-scale functions",
            ),
        ],
    )
    def test_signed_operations_on_a_plain_scale(self, call, message):
        with raises(DomainError, message):
            call()

    @pytest.mark.parametrize(
        "other",
        [
            LatticeFn(GroundSet(("a", "c")), R1, (1, 0)),
            LatticeFn(G2, ReflChain("s", 1), (1, 0)),
        ],
    )
    def test_pointwise_distance_on_mismatched_functions(self, other):
        f = LatticeFn(G2, R1, (1, -1))
        with raises(ChainMismatchError, "functions live on different ground sets or scales"):
            pointwise_distance(f, other)


class TestCorrespondences:
    def test_sharp_saturate_needs_decreasing_across_gaps(self):
        # columns 0 and 2 overlap at rank 1 across the missing column 1
        psi = Corr(M3, L3, {0: Interval(L3, 1, 2), 2: Interval(L3, 0, 1)})
        with raises(
            DomainError,
            "sharp saturation requires a correspondence decreasing across its domain gaps",
        ):
            sharp_saturate(psi)

    def test_corr_domain_point_outside_source(self):
        with raises(DomainError, "domain point 3 outside chain 'm'"):
            Corr(M3, L3, {3: Interval(L3, 0, 0)})

    def test_corr_value_over_another_chain(self):
        with raises(ChainMismatchError, "value at 1 lies over chain 'm', expected 'l'"):
            Corr(M3, L3, {0: Interval(L3, 0, 0), 1: Interval(M3, 0, 0)})

    # Tables holding a bool key, an out-of-range key and a value over the
    # chain 'm', in different insertion orders: the first one in table
    # order is the one reported.
    @pytest.mark.parametrize("table, cls, message", [
        ({True: Interval(L3, 0, 0), 3: Interval(L3, 0, 0), 0: Interval(M3, 0, 0)},
         DomainError, "domain point True outside chain 'm'"),
        ({3: Interval(L3, 0, 0), True: Interval(L3, 0, 0), 0: Interval(M3, 0, 0)},
         DomainError, "domain point 3 outside chain 'm'"),
        ({0: Interval(M3, 0, 0), True: Interval(L3, 0, 0), 3: Interval(L3, 0, 0)},
         ChainMismatchError, "value at 0 lies over chain 'm', expected 'l'"),
        ({2: Interval(L3, 1, 1), 1: Interval(M3, 0, 0), -1: Interval(L3, 0, 0)},
         ChainMismatchError, "value at 1 lies over chain 'm', expected 'l'"),
        ({1: Interval(L3, 1, 1), -1: Interval(M3, 0, 0), False: Interval(L3, 0, 0)},
         DomainError, "domain point -1 outside chain 'm'"),
    ])
    def test_corr_reports_its_first_offender(self, table, cls, message):
        with raises(cls, message):
            Corr(M3, L3, table)

    def test_corr_value_over_an_equal_chain_object(self):
        twin = Chain("l", 3)
        assert twin is not L3
        c = Corr(M3, L3, {0: Interval(twin, 0, 1), 2: Interval(L3, 2, 2)})
        assert c.table[0] == Interval(L3, 0, 1)

    def test_total_fn_length(self):
        with raises(DomainError, "function table has 2 entries, expected 3"):
            TotalFn(M3, L3, (0, 1))

    def test_total_fn_value_outside_destination(self):
        with raises(DomainError, "value rank 3 outside chain 'l'"):
            TotalFn(M3, L3, (0, 3, 1))

    @pytest.mark.parametrize("call, arg, message", [
        (TotalFn(M3, L3, (2, 1, 0)), -1, "point -1 outside chain 'm'"),
        (TotalFn(M3, L3, (2, 1, 0)), 3, "point 3 outside chain 'm'"),
        (TotalFn(M3, L3, (2, 1, 0)), True, "point True outside chain 'm'"),
        (TotalFn(M3, L3, (2, 1, 0)), 1.0, "point 1.0 outside chain 'm'"),
        (F, -1, "element index -1 outside the ground set"),
        (F, 2, "element index 2 outside the ground set"),
        (F, True, "element index True outside the ground set"),
        (CommFn.identity(M3), -2, "point -2 outside chain 'm'"),
        (CommFn.identity(M3), False, "point False outside chain 'm'"),
        (CommFn.identity(M3).as_corr(), True,
         "point True not in the domain of the correspondence"),
        (CommFn.identity(M3).as_corr(), -1,
         "point -1 not in the domain of the correspondence"),
        (Chain("c", 3, ("lo", "mid", "hi")).label, -1, "no rank -1 on chain 'c' of size 3"),
        (Chain("c", 3, ("lo", "mid", "hi")).label, 3, "no rank 3 on chain 'c' of size 3"),
        (M3.label, 7, "no rank 7 on chain 'm' of size 3"),
        (M3.label, True, "no rank True on chain 'm' of size 3"),
        (M3.label, 1.0, "no rank 1.0 on chain 'm' of size 3"),
        (ReflChain("r", 2).label, 5, "no signed rank 5 on reflection chain 'r' of half size 2"),
        (ReflChain("r", 2, ("0", "a", "b")).label, -3,
         "no signed rank -3 on reflection chain 'r' of half size 2"),
        (R1.label, False, "no signed rank False on reflection chain 'r' of half size 1"),
    ])
    def test_calls_outside_the_domain(self, call, arg, message):
        """A negative, too large or non-int point never indexes the table."""
        with raises(DomainError, message):
            call(arg)

    @pytest.mark.parametrize("product", [inner_product, dual_product])
    def test_products_on_mismatched_pairs(self, product):
        phi = CommFn.identity(M3).as_corr()
        with raises(
            ChainMismatchError, "correspondences with different sources: 'm' vs 'l'"
        ):
            product(phi, CommFn.identity(L3, M3).as_corr())
        with raises(
            ChainMismatchError, "correspondences with different destinations: 'm' vs 'l'"
        ):
            product(phi, CommFn.identity(M3, L3).as_corr())


class TestMeasures:
    def test_chain_measure_unknown_kind(self):
        with raises(DomainError, "unknown chain measure kind 'middle'"):
            chain_measure(G2, M3, [0, 3], [0, 2], "middle")

    def test_chain_measure_length_mismatch(self):
        with raises(DomainError, "chain sets and values differ in length"):
            chain_measure(G2, M3, [0, 1, 3], [0, 2], "lower")

    def test_chain_measure_duplicate_sets(self):
        with raises(DomainError, "chain contains duplicate subsets"):
            chain_measure(G2, M3, [0, 1, 1, 3], [0, 1, 1, 2], "lower")

    def test_set_family_without_endpoints(self):
        with raises(DomainError, "set family must contain the empty set and the whole set"):
            SetFamily(G2, frozenset({0, 1}))

    def test_unanimity_coalition_outside_ground_set(self):
        with raises(DomainError, "measure of the whole set must be the top"):
            unanimity(G2, 0b100, M3)
