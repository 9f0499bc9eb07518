"""Chain and reflection-chain operations and their laws."""

import itertools

import pytest

from ordagg import (
    Chain,
    ChainMismatchError,
    DomainError,
    ReflChain,
    absolute,
    bottom,
    dist_r,
    join,
    leq,
    meet,
    refl,
    sign,
    striangle,
    svee,
    top,
)


def elems(rc: ReflChain):
    return [rc.elem(s) for s in range(-rc.half_size, rc.half_size + 1)]


class TestChainBasics:
    def test_join_meet(self):
        c = Chain("c", 8)
        assert join(c.elem(2), c.elem(5)) == c.elem(5)
        assert meet(c.elem(2), c.elem(5)) == c.elem(2)
        assert meet(c.elem(3), c.elem(3)) == c.elem(3)
        assert join(bottom(c), c.elem(4)) == c.elem(4)
        assert meet(top(c), c.elem(4)) == c.elem(4)

    def test_chain_mismatch(self):
        c1, c2 = Chain("c1", 4), Chain("c2", 4)
        with pytest.raises(ChainMismatchError):
            join(c1.elem(0), c2.elem(0))

    def test_leq(self):
        c = Chain("c", 4)
        for a, b in itertools.product(range(4), repeat=2):
            assert leq(c.elem(a), c.elem(b)) is (a <= b)
        with pytest.raises(
            ChainMismatchError, match="^elements of different chains: 'c' vs 'd'$"
        ):
            leq(c.elem(0), Chain("d", 4).elem(0))

    def test_rank_bounds(self):
        c = Chain("c", 4)
        with pytest.raises(DomainError):
            c.elem(4)
        with pytest.raises(DomainError):
            c.elem(-1)

    def test_size_cap(self):
        with pytest.raises(DomainError):
            Chain("big", 10_001)
        Chain("ok", 10_000)

    def test_labels(self):
        c = Chain("c", 3, ("lo", "mid", "hi"))
        assert c.label(1) == "mid"
        assert c.rank_of_label("hi") == 2
        with pytest.raises(DomainError):
            Chain("c", 3, ("x", "x", "y"))
        with pytest.raises(DomainError):
            Chain("c", 3, ("x", "y"))


class TestReflBasics:
    def test_signed_rank_bounds(self):
        rc = ReflChain("r", 2)
        for s in (-3, 3):
            with pytest.raises(
                DomainError,
                match=f"^signed rank {s} out of range for reflection chain 'r' of half size 2$",
            ):
                rc.elem(s)

    def test_refl(self):
        rc = ReflChain("r", 4)
        assert refl(rc.elem(3)) == rc.elem(-3)
        assert refl(rc.elem(0)) == rc.elem(0)
        assert refl(refl(rc.elem(-2))) == rc.elem(-2)

    def test_refl_reverses_order(self):
        rc = ReflChain("r", 4)
        for a, b in itertools.permutations(range(-4, 5), 2):
            if a < b:
                assert refl(rc.elem(a)).srank > refl(rc.elem(b)).srank

    def test_absolute_and_sign(self):
        rc = ReflChain("r", 4)
        assert absolute(rc.elem(-2)) == rc.elem(2)
        assert absolute(rc.elem(2)) == rc.elem(2)
        assert sign(rc.elem(0)) == rc.elem(0)
        assert sign(rc.elem(-4)) == rc.elem(-4)
        assert sign(rc.elem(1)) == rc.elem(4)

    def test_half_labels(self):
        rc = ReflChain("r", 2, ("0", "0.5", "1"))
        assert rc.label(-2) == "-1"
        assert rc.label(1) == "0.5"
        assert rc.srank_of_label("-0.5") == -1
        half = rc.positive_half()
        assert half.size == 3 and half.label(2) == "1"
        plain = rc.as_chain()
        assert plain.size == 5 and plain.labels == ("-1", "-0.5", "0", "0.5", "1")

    @pytest.mark.parametrize("labels", [("0", "a", "-a"), ("-b", "a", "b"), ("0", "-1", "1")])
    def test_colliding_signed_labels_rejected(self, labels):
        # "-a" would display both the label at rank 2 and the reflection of "a"
        with pytest.raises(DomainError, match="collides with the reflection"):
            ReflChain("r", 2, labels)

    def test_dash_label_without_collision(self):
        # "-0" never displays as a reflection: the reference point is fixed
        rc = ReflChain("r", 2, ("0", "-0", "x"))
        assert rc.srank_of_label("-0") == 1
        assert rc.srank_of_label("--0") == -1
        assert rc.as_chain().size == 5


@pytest.mark.parametrize(
    "chain",
    [Chain("u", 7), Chain("l", 4, ("lo", "3", "0", "hi")),
     ReflChain("ru", 3), ReflChain("rl", 2, ("z", "1", "-0"))],
    ids=["chain", "labelled-chain", "refl", "labelled-refl"],
)
def test_label_index_inverts_label(chain):
    """The label index agrees with a scan of every rank's display label."""
    lookup = chain.srank_of_label if isinstance(chain, ReflChain) else chain.rank_of_label
    ranks = (
        range(-chain.half_size, chain.half_size + 1)
        if isinstance(chain, ReflChain)
        else range(chain.size)
    )
    shown = {chain.label(r): r for r in ranks}
    assert len(shown) == chain.size
    for text, r in shown.items():
        assert lookup(text) == r
    for text in ("", "-", "7", "-7", "03", "-03", " 1", "1 ", "+1", "hi ", "--1", "-z",
                 "rank:1", "-0", "\u0663", "1" * 5000, "1.0"):
        assert lookup(text) == shown.get(text)


class TestSmallestReflChain:
    """On signed ranks {-1, 0, 1} the operations mirror capped integer
    addition and exact multiplication."""

    rc = ReflChain("r1", 1)

    def test_svee_like_capped_addition(self):
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                expect = max(-1, min(1, a + b))
                assert svee(self.rc.elem(a), self.rc.elem(b)).srank == expect

    def test_striangle_is_multiplication(self):
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                assert striangle(self.rc.elem(a), self.rc.elem(b)).srank == a * b


class TestPseudoOps:
    def test_svee_neutral(self):
        rc = ReflChain("r", 3)
        for x in elems(rc):
            assert svee(x, rc.elem(0)) == x

    def test_svee_cancellation(self):
        rc = ReflChain("r", 3)
        assert svee(rc.elem(1), rc.elem(-1)) == rc.elem(0)

    def test_svee_non_associative_witness(self):
        rc = ReflChain("r", 2)
        t, bt = rc.elem(2), rc.elem(-2)
        left = svee(svee(t, t), bt)
        right = svee(t, svee(t, bt))
        assert right == t
        assert left == rc.elem(0)
        assert left != right

    def test_striangle_neutral(self):
        rc = ReflChain("r", 3)
        t = rc.elem(3)
        for x in elems(rc):
            assert striangle(x, t) == x

    def test_striangle_example(self):
        rc = ReflChain("r", 4)
        assert striangle(rc.elem(-2), rc.elem(3)) == rc.elem(-2)

    def test_striangle_abs_and_sign(self):
        rc = ReflChain("r", 3)
        for x in elems(rc):
            for y in elems(rc):
                z = striangle(x, y)
                assert abs(z.srank) == min(abs(x.srank), abs(y.srank))
                assert (z.srank < 0) == (x.srank * y.srank < 0)

    def test_cross_chain(self):
        r1, r2 = ReflChain("a", 2), ReflChain("b", 2)
        with pytest.raises(ChainMismatchError):
            svee(r1.elem(1), r2.elem(1))
        with pytest.raises(ChainMismatchError):
            striangle(r1.elem(1), r2.elem(1))
        with pytest.raises(ChainMismatchError):
            dist_r(r1.elem(1), r2.elem(1))


def in_same_half(*xs) -> bool:
    return all(x.srank >= 0 for x in xs) or all(x.srank <= 0 for x in xs)


@pytest.mark.parametrize("half_size", [1, 2, 3, 4])
class TestPseudoOpLaws:
    """Exhaustive algebraic laws over every triple of a small reflection chain."""

    def test_commutativity(self, half_size):
        rc = ReflChain("r", half_size)
        for x, y in itertools.product(elems(rc), repeat=2):
            assert svee(x, y) == svee(y, x)
            assert striangle(x, y) == striangle(y, x)

    def test_unique_neutrals(self, half_size):
        rc = ReflChain("r", half_size)
        svee_neutrals = [
            e for e in elems(rc) if all(svee(e, x) == x for x in elems(rc))
        ]
        tri_neutrals = [
            e for e in elems(rc) if all(striangle(e, x) == x for x in elems(rc))
        ]
        assert svee_neutrals == [rc.elem(0)]
        assert tri_neutrals == [rc.elem(half_size)]

    def test_reflection_laws(self, half_size):
        rc = ReflChain("r", half_size)
        for x, y in itertools.product(elems(rc), repeat=2):
            assert refl(svee(x, y)) == svee(refl(x), refl(y))
            assert refl(striangle(x, y)) == striangle(refl(x), y)

    def test_associativity(self, half_size):
        rc = ReflChain("r", half_size)
        for x, y, z in itertools.product(elems(rc), repeat=3):
            assert striangle(striangle(x, y), z) == striangle(x, striangle(y, z))
            if in_same_half(x, y, z):
                assert svee(svee(x, y), z) == svee(x, svee(y, z))

    def test_distributivity_within_half(self, half_size):
        rc = ReflChain("r", half_size)
        for x, y, z in itertools.product(elems(rc), repeat=3):
            if in_same_half(x, y, z):
                assert striangle(x, svee(y, z)) == svee(
                    striangle(x, y), striangle(x, z)
                )

    def test_svee_monotonicity(self, half_size):
        rc = ReflChain("r", half_size)
        for x, y, z in itertools.product(elems(rc), repeat=3):
            if x.srank <= y.srank:
                assert svee(x, z).srank <= svee(y, z).srank

    def test_striangle_monotone_for_nonnegative_operand(self, half_size):
        rc = ReflChain("r", half_size)
        for x, y, z in itertools.product(elems(rc), repeat=3):
            if x.srank <= y.srank and z.srank >= 0:
                assert striangle(x, z).srank <= striangle(y, z).srank

    def test_striangle_not_monotone_for_negative_operand(self, half_size):
        # multiplying by a negative element reverses order, exactly like
        # real multiplication; the unrestricted law is unattainable
        rc = ReflChain("r", half_size)
        a, b, c = rc.elem(-half_size), rc.elem(0), rc.elem(-half_size)
        assert a.srank <= b.srank
        assert striangle(a, c).srank > striangle(b, c).srank


class TestDistance:
    def test_examples(self):
        rc = ReflChain("r", 4)
        assert dist_r(rc.elem(2), rc.elem(2)) == rc.elem(0)
        assert dist_r(rc.elem(3), rc.elem(-2)) == rc.elem(3)
        for x in elems(rc):
            assert dist_r(x, rc.elem(0)) == absolute(x)

    def test_axioms_exhaustive(self):
        rc = ReflChain("r", 3)
        for x, y in itertools.product(elems(rc), repeat=2):
            d = dist_r(x, y)
            assert d.srank >= 0
            assert (d.srank == 0) == (x == y)
            assert d == dist_r(y, x)
        for x, y, z in itertools.product(elems(rc), repeat=3):
            assert dist_r(x, z).srank <= max(dist_r(x, y).srank, dist_r(y, z).srank)


@pytest.mark.parametrize("make", [
    lambda: Chain("m", 3, ("lo", "rank:0", "hi")),
    lambda: Chain("m", 2, ("rank:", "x")),
    lambda: ReflChain("r", 2, ("0", "a", "rank:1")),
])
def test_labels_spelled_like_rank_tokens_rejected(make):
    # "rank:0" at rank 1 would print a value that parses back as rank 0
    with pytest.raises(DomainError, match="starts with 'rank:'"):
        make()


@pytest.mark.parametrize("labels", [None, ("0", "a", "b", "c")], ids=["plain", "labelled"])
def test_derived_chains_are_built_once(labels):
    r = ReflChain("r", 3, labels)
    assert r.positive_half() is r.positive_half()
    assert r.as_chain() is r.as_chain()
    assert r.rank_range == (-3, 3)
    assert r.positive_half().rank_range == (0, 3)
    assert r.as_chain().rank_range == (0, 6)


@pytest.fixture
def label_calls(monkeypatch):
    """Every rank that a chain or reflection chain displays as a label."""
    calls = []

    def counted(label):
        def wrapper(self, k):
            calls.append(k)
            return label(self, k)
        return wrapper

    for cls in (Chain, ReflChain):
        monkeypatch.setattr(cls, "label", counted(cls.label))
    return calls


def test_unlabelled_signed_lookup_computes_no_label(label_calls):
    """Spec loading on an unlabelled reflection scale reads the canonical
    decimals of its half: it neither displays labels nor builds the carrier."""
    r = ReflChain("r", 4999)
    got = [r.srank_of_label(t) for t in ("0", "4999", "-17", "5000", "-0", "x")]
    assert got == [0, 4999, -17, None, None, None]
    assert label_calls == []


def test_labelled_signed_lookup_computes_no_label(label_calls):
    """On a labelled reflection scale the lookup reads the label index of
    the nonnegative half, a minus sign included or stripped, and never
    displays the carrier's labels."""
    r = ReflChain("r", 3, ("z", "1", "-0", "b"))
    texts = ("z", "b", "-b", "-0", "--0", "-1", "-z", "x", "-", "0")
    got = [r.srank_of_label(t) for t in texts]
    assert got == [0, 3, -3, 2, -2, -1, None, None, None, None]
    assert label_calls == []
    # the carrier's own index, displayed through `label`, agrees
    carrier = [r.as_chain().rank_of_label(t) for t in texts]
    assert got == [None if k is None else k - 3 for k in carrier]
