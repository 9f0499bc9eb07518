"""Lattice-valued monotone measures, extensions, and chain measures."""

import itertools
import random
import tracemalloc

import pytest

from ordagg import (
    Chain,
    CommFn,
    DomainError,
    GroundSet,
    Measure,
    SetFamily,
    chain_measure,
    co_unanimity,
    inner_extension,
    is_maxitive,
    is_minitive,
    minitive_chain,
    outer_extension,
    sign_measure,
    unanimity,
    verify_chain,
    zeta,
)
from helpers import all_monotone_measures, rand_chain_measure, rand_partial_measure

G2 = GroundSet(("a", "b"))
G3 = GroundSet(("x", "y", "z"))
C2 = Chain("c2", 2)
C3 = Chain("c3", 3)
C4 = Chain("c4", 4)


class TestGroundSet:
    def test_masks(self):
        assert G3.mask_of(("x", "z")) == 0b101
        assert G3.format_mask(0b101) == "{x,z}"
        assert G3.format_mask(0) == "{}"
        assert G3.members(0b110) == ["y", "z"]

    def test_validation(self):
        with pytest.raises(DomainError):
            GroundSet(())
        with pytest.raises(DomainError):
            GroundSet(("a", "a"))
        with pytest.raises(DomainError):
            GroundSet(tuple(f"e{i}" for i in range(17)))
        with pytest.raises(DomainError):
            G3.index("w")


class TestMeasureConstruction:
    def test_endpoints(self):
        with pytest.raises(DomainError):
            Measure(SetFamily.full(G2), C3, {0: 1, 1: 1, 2: 1, 3: 2})
        with pytest.raises(DomainError):
            Measure(SetFamily.full(G2), C3, {0: 0, 1: 1, 2: 1, 3: 1})

    def test_monotonicity_violation_names_pair(self):
        with pytest.raises(DomainError, match=r"\{a\} > \{a,b\}"):
            Measure(SetFamily(G2, frozenset({0, 1, 3})), C4, {0: 0, 1: 3, 3: 2})
        with pytest.raises(DomainError, match=r"\{a\} > \{a,b\}"):
            Measure(SetFamily.full(G2), C4, {0: 0, 1: 3, 2: 1, 3: 2})
        Measure(SetFamily(G2, frozenset({0, 1, 3})), C4, {0: 0, 1: 2, 3: 3})

    def test_repr_and_equality(self):
        m = Measure(SetFamily.full(G2), C3, {0: 0, 1: 1, 2: 1, 3: 2})
        assert (m(1), m(3)) == (1, 2)
        assert repr(m) == (
            "Measure(SetFamily(ground=GroundSet(elements=('a', 'b')), "
            "members=range(0, 4)), Chain(id='c3', size=3, labels=None), "
            "{0: 0, 1: 1, 2: 1, 3: 2})"
        )
        assert (m == 1) is False
        assert m != {0: 0, 1: 1, 2: 1, 3: 2}

    def test_family_mismatch(self):
        with pytest.raises(DomainError):
            Measure(SetFamily.full(G2), C3, {0: 0, 3: 2})

    def test_range_errors_name_the_offender(self):
        with pytest.raises(DomainError, match="^subset mask 8 outside the ground set$"):
            SetFamily(G3, frozenset({0, 7, 8}))
        with pytest.raises(DomainError, match="^measure value rank 5 outside chain 'c3'$"):
            Measure(SetFamily.full(G2), C3, {0: 0, 1: 5, 2: 1, 3: 2})
        with pytest.raises(DomainError, match="^measure value rank -1 outside chain 'c3'$"):
            Measure(SetFamily.full(G2), C3, {0: 0, 1: 1, 2: -1, 3: 2})
        with pytest.raises(DomainError, match="^commensurability value 4 outside 'c4'$"):
            CommFn(C3, C4, (0, 4, 3))
        with pytest.raises(DomainError, match="^commensurability function must be increasing$"):
            CommFn(C3, C4, (0, 3, 2))

    @pytest.mark.parametrize("stray", [4, -1])
    def test_full_family_keys_outside_the_powerset(self, stray):
        # as many distinct int keys as subsets, one of them no subset
        with pytest.raises(DomainError, match="^measure table must cover exactly the set family$"):
            Measure(SetFamily.full(G2), C3, {0: 0, 1: 1, 3: 2, stray: 1})

    def test_values_map_masks_to_ranks_in_either_form(self):
        full = Measure(SetFamily.full(G2), C3, {3: 2, 2: 1, 1: 1, 0: 0})
        part = Measure(SetFamily(G2, [3, 2, 0]), C3, {3: 2, 2: 1, 0: 0})
        assert list(full.values.items()) == [(0, 0), (1, 1), (2, 1), (3, 2)]
        assert dict(part.values) == {0: 0, 2: 1, 3: 2}
        assert (full(2), part(2)) == (1, 1)


def test_a_full_table_is_held_without_the_callers_dict():
    """At 16 elements a loaded table keeps one tuple of 2**16 ranks, not
    the caller's dict or a copy of it, nor a set of the masks."""
    ground = GroundSet(tuple(f"e{i}" for i in range(16)))
    tracemalloc.start()
    try:
        values = {a: a.bit_count() for a in ground.subsets()}
        m = Measure(SetFamily.full(ground), Chain("c", 17), values)
        del values
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert m(0xFFFF) == 16 and m(0x0101) == 2
    assert retained < 1 << 20


class TestSetFamily:
    @pytest.mark.parametrize("members", [range(4), frozenset(range(4)), [3, 2, 1, 0, 0]])
    def test_every_mask_makes_the_powerset(self, members):
        family = SetFamily(G2, members)
        assert family == SetFamily.full(G2) and hash(family) == hash(SetFamily.full(G2))
        assert type(family.members) is range and family.members == range(4)
        assert family.is_full()

    @pytest.mark.parametrize("members", [[0, 3], [0, 1, 3, 3], frozenset({0, 2, 3})])
    def test_a_partial_family_is_a_frozenset(self, members):
        family = SetFamily(G2, members)
        assert family.members == frozenset(members) and type(family.members) is frozenset
        assert not family.is_full()
        m = Measure(family, C3, {a: min(a.bit_count(), 2) for a in family.members})
        assert m.values.keys() == family.members


class TestZeta:
    def test_examples(self):
        assert zeta(0b01, 0b11, C3).rank == 2
        assert zeta(0b11, 0b01, C3).rank == 0
        for a in G3.subsets():
            assert zeta(0, a, C3).rank == 2


class TestExtensions:
    def test_worked_example(self):
        # family {{} , {x}, omega} with mid value on {x}
        fam = SetFamily(G3, frozenset({0, 0b001, 0b111}))
        m = Measure(fam, C3, {0: 0, 0b001: 1, 0b111: 2})
        inner = inner_extension(m)
        outer = outer_extension(m)
        assert inner.values[0b011] == 1  # {x,y} contains {x}
        assert inner.values[0b110] == 0  # {y,z} contains only {}
        assert outer.values[0b110] == 2  # only omega contains {y,z}
        assert inner.values[0b001] == 1 and outer.values[0b001] == 1

    def test_full_family_identity(self):
        rng = random.Random(3)
        from helpers import rand_measure

        m = rand_measure(rng, G3, C4)
        assert inner_extension(m) == m
        assert outer_extension(m) == m

    def test_matches_literal_formulas(self):
        rng = random.Random(13)
        for _ in range(100):
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            scale = Chain("m", rng.randint(2, 6))
            m = rand_partial_measure(rng, ground, scale)
            inner, outer = inner_extension(m), outer_extension(m)
            for a in ground.subsets():
                assert inner.values[a] == max(
                    v for b, v in m.values.items() if b & a == b
                )
                assert outer.values[a] == min(
                    v for b, v in m.values.items() if b & a == a
                )

    def test_inner_below_outer(self):
        rng = random.Random(5)
        for _ in range(200):
            ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
            scale = Chain("m", rng.randint(2, 6))
            m = rand_partial_measure(rng, ground, scale)
            inner, outer = inner_extension(m), outer_extension(m)
            for a in ground.subsets():
                assert inner.values[a] <= outer.values[a]
            for a in m.family.members:
                assert inner.values[a] == m.values[a] == outer.values[a]


class TestChainMeasures:
    def test_lower_chain_is_meet_preserving(self):
        rng = random.Random(7)
        for _ in range(100):
            ground = GroundSet(tuple("abcd"[: rng.randint(1, 4)]))
            scale = Chain("m", rng.randint(2, 6))
            m = rand_chain_measure(rng, ground, scale, "lower")
            for a, b in itertools.product(ground.subsets(), repeat=2):
                assert m.values[a & b] == min(m.values[a], m.values[b])

    def test_upper_chain_is_join_preserving(self):
        rng = random.Random(9)
        for _ in range(100):
            ground = GroundSet(tuple("abcd"[: rng.randint(1, 4)]))
            scale = Chain("m", rng.randint(2, 6))
            m = rand_chain_measure(rng, ground, scale, "upper")
            for a, b in itertools.product(ground.subsets(), repeat=2):
                assert m.values[a | b] == max(m.values[a], m.values[b])

    def test_unanimity_from_chain(self):
        k = G3.mask_of(("x", "y"))
        m = chain_measure(G3, C3, [0, k, 0b111], [0, 2, 2], "lower")
        assert m == unanimity(G3, k, C3)

    def test_upper_variant(self):
        k = G3.mask_of(("x", "y"))
        kc = G3.full_mask & ~k
        m = chain_measure(G3, C3, [0, kc, 0b111], [0, 0, 2], "upper")
        assert m == co_unanimity(G3, k, C3)

    def test_validation(self):
        with pytest.raises(DomainError):
            chain_measure(G3, C3, [0, 0b011, 0b101, 0b111], [0, 1, 1, 2], "lower")
        with pytest.raises(DomainError):
            chain_measure(G3, C3, [0, 0b111], [0, 1], "lower")
        with pytest.raises(DomainError):
            chain_measure(G3, C3, [0b001, 0b111], [0, 2], "lower")


class TestUnanimity:
    def test_values(self):
        k = G3.mask_of(("x", "y"))
        u = unanimity(G3, k, C3)
        assert u.values[G3.mask_of(("x",))] == 0
        assert u.values[G3.full_mask] == 2
        assert u.values[k] == 2
        ub = co_unanimity(G3, k, C3)
        assert ub.values[G3.mask_of(("x",))] == 2
        assert ub.values[G3.mask_of(("z",))] == 0

    def test_unanimity_minitive_not_maxitive(self):
        k = G2.full_mask
        u = unanimity(G2, k, C3)
        assert is_minitive(u)
        assert not is_maxitive(u)
        # the union counterexample: u({a} | {b}) != u({a}) v u({b})
        assert u.values[0b11] == 2 != max(u.values[0b01], u.values[0b10])

    def test_co_unanimity_maxitive(self):
        k = G3.mask_of(("x", "y"))
        ub = co_unanimity(G3, k, C3)
        assert is_maxitive(ub)
        assert not is_minitive(ub)

    def test_dirac(self):
        k = G3.mask_of(("y",))
        assert unanimity(G3, k, C3) == co_unanimity(G3, k, C3)

    def test_empty_coalition_rejected(self):
        with pytest.raises(DomainError):
            unanimity(G3, 0, C3)
        with pytest.raises(DomainError):
            co_unanimity(G3, 0, C3)


class TestMinitivity:
    def test_non_minitive_example(self):
        m = Measure(SetFamily.full(G2), C3, {0: 0, 1: 1, 2: 1, 3: 2})
        # m({a} & {b}) = 0 but m({a}) ^ m({b}) = 1
        assert not is_minitive(m)
        # and the union side fails too: m({a,b}) = 2 > 1
        assert not is_maxitive(m)

    def test_partial_family_rejected(self):
        fam = SetFamily(G2, frozenset({0, 3}))
        m = Measure(fam, C3, {0: 0, 3: 2})
        with pytest.raises(DomainError):
            is_minitive(m)

    def test_pairwise_definition_small(self):
        for m in all_monotone_measures(G2, C3):
            pairwise = all(
                m.values[a & b] == min(m.values[a], m.values[b])
                for a in G2.subsets()
                for b in G2.subsets()
            )
            assert is_minitive(m) == pairwise
            pairwise_max = all(
                m.values[a | b] == max(m.values[a], m.values[b])
                for a in G2.subsets()
                for b in G2.subsets()
            )
            assert is_maxitive(m) == pairwise_max


class TestMinitiveChain:
    def test_unanimity_chain(self):
        k = G3.mask_of(("x", "y"))
        u = unanimity(G3, k, C3)
        assert minitive_chain(u) == [0, k, G3.full_mask]

    def test_dirac_chain(self):
        k = G3.mask_of(("z",))
        assert minitive_chain(unanimity(G3, k, C3)) == [0, k, G3.full_mask]

    def test_three_valued_minitive(self):
        # necessity measure from nested sets {x} in {x,y}
        m = chain_measure(
            G3, C4, [0, 0b001, 0b011, 0b111], [0, 1, 2, 3], "lower"
        )
        assert is_minitive(m)
        chain = minitive_chain(m)
        assert verify_chain(m, chain, "lower")
        assert chain == [0, 0b001, 0b011, 0b111]

    def test_rejects_non_minitive(self):
        m = Measure(SetFamily.full(G2), C3, {0: 0, 1: 1, 2: 1, 3: 2})
        with pytest.raises(DomainError):
            minitive_chain(m)

    def test_roundtrip_exhaustive_small(self):
        for ground in (GroundSet(("a",)), G2, G3):
            for msize in (2, 3, 4):
                scale = Chain("m", msize)
                for m in all_monotone_measures(ground, scale):
                    if is_minitive(m):
                        assert verify_chain(m, minitive_chain(m), "lower")


class TestVerifyChain:
    def test_unanimity(self):
        k = G3.mask_of(("x", "y"))
        u = unanimity(G3, k, C3)
        assert verify_chain(u, [0, k, G3.full_mask], "lower")
        ub = co_unanimity(G3, k, C3)
        kc = G3.full_mask & ~k
        assert verify_chain(ub, [0, kc, G3.full_mask], "upper")

    def test_non_chain_measure_fails_every_chain(self):
        # additive-style measure on two atoms is not a lower chain measure
        m = Measure(SetFamily.full(G2), C3, {0: 0, 1: 1, 2: 1, 3: 2})
        interior = [1, 2]
        chains = [[0, 3]] + [[0, a, 3] for a in interior]
        assert all(not verify_chain(m, ch, "lower") for ch in chains)

    def test_rejects_non_chain(self):
        u = unanimity(G3, 0b011, C3)
        with pytest.raises(DomainError):
            verify_chain(u, [0, 0b001, 0b010, 0b111], "lower")


class TestSignMeasure:
    def test_examples(self):
        m = Measure(SetFamily.full(G2), C4, {0: 0, 1: 2, 2: 1, 3: 3})
        s = sign_measure(m)
        assert s.values == {0: 0, 1: 3, 2: 3, 3: 3}
        u = unanimity(G2, 3, C2)
        assert sign_measure(u) == u

    def test_bottom_fixed(self):
        rng = random.Random(11)
        m = rand_partial_measure(rng, G3, C4)
        assert sign_measure(m).values[0] == 0
