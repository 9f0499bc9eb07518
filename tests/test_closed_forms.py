"""Constructed measures in closed form, and frozen values.

Every constructed kind (chain-lower and chain-upper measures, unanimity
and co-unanimity, both extensions, the sign collapse) is evaluated point
by point through its closed form and compared with a definition-literal
oracle and with the table its `values` builds.  At the 16-element limit
the aggregation functionals must read such a measure only at level sets,
never building its table.
"""

import pickle
import random
import re
from dataclasses import FrozenInstanceError

import pytest

from ordagg import (
    Chain,
    ChainElem,
    CommFn,
    Corr,
    DomainError,
    GroundSet,
    Interval,
    LatticeFn,
    Measure,
    ReflChain,
    ReflElem,
    RInterval,
    SetFamily,
    TotalFn,
    chain_measure,
    co_unanimity,
    distribution,
    fan_sugeno,
    format_specfile,
    inner_extension,
    level_set,
    median,
    outer_extension,
    parse,
    quantile_functional,
    sign_measure,
    sugeno_integral,
    unanimity,
)
from ordagg import measures
from ordagg.cli import run
from ordagg.oracle import oracle_extension, oracle_sign_measure, oracle_unanimity

from helpers import rand_chain_sets, rand_fn, rand_measure, rand_partial_measure

SIZES = range(1, 7)
SCALE = Chain("m", 6)
G2 = GroundSet(("a", "b"))
R2 = ReflChain("r", 2)


def ground_of(n: int) -> GroundSet:
    return GroundSet(tuple(f"e{i}" for i in range(n)))


def assert_closed(m: Measure, want: dict[int, int]) -> None:
    """The closed form gives `want` at every member without building the
    table; the table built afterwards gives it too."""
    assert "values" not in vars(m)
    assert {a: m(a) for a in want} == want
    assert "values" not in vars(m)
    assert m.values == want
    assert m.values.keys() == set(m.family.members)


def rand_chain_values(rng: random.Random, k: int) -> list[int]:
    values = sorted(rng.choices(range(SCALE.size), k=k))
    values[0], values[-1] = 0, SCALE.size - 1
    return values


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["lower", "upper"])
def test_chain_measures_match_the_oracle(n, kind):
    rng = random.Random(10 * n + (kind == "upper"))
    ground = ground_of(n)
    for _ in range(8):
        sets = rand_chain_sets(rng, ground)
        values = rand_chain_values(rng, len(sets))
        m = chain_measure(ground, SCALE, sets, values, kind)
        assert_closed(m, oracle_extension(ground, zip(sets, values), kind))


@pytest.mark.parametrize("n", SIZES)
def test_unanimity_kinds_match_the_oracle(n):
    ground = ground_of(n)
    for coalition in range(1, ground.full_mask + 1):
        assert_closed(
            unanimity(ground, coalition, SCALE), oracle_unanimity(ground, coalition, SCALE, False)
        )
        assert_closed(
            co_unanimity(ground, coalition, SCALE), oracle_unanimity(ground, coalition, SCALE, True)
        )


@pytest.mark.parametrize("n", SIZES)
def test_extensions_of_partial_measures_match_the_oracle(n):
    rng = random.Random(30 + n)
    ground = ground_of(n)
    for _ in range(8):
        m = rand_partial_measure(rng, ground, SCALE)
        if m.is_total():  # the random family took every subset: m is its own extension
            assert inner_extension(m) is m and outer_extension(m) is m
            for kind in ("lower", "upper"):
                assert oracle_extension(ground, m.values.items(), kind) == m.values
            continue
        assert_closed(inner_extension(m), oracle_extension(ground, m.values.items(), "lower"))
        assert_closed(outer_extension(m), oracle_extension(ground, m.values.items(), "upper"))


@pytest.mark.parametrize("n", SIZES)
def test_sign_measure_matches_the_oracle(n):
    rng = random.Random(50 + n)
    ground = ground_of(n)
    for _ in range(6):
        partial = rand_partial_measure(rng, ground, SCALE)
        full = rand_measure(rng, ground, SCALE)
        sets = rand_chain_sets(rng, ground)
        lower = chain_measure(ground, SCALE, sets, rand_chain_values(rng, len(sets)), "lower")
        for m in (partial, full, inner_extension(partial), lower):
            want = oracle_sign_measure(Measure(m.family, m.scale, m.values))
            assert_closed(sign_measure(m), want)


def test_closed_and_table_measures_compare_by_value():
    k = G2.mask_of(("a",))
    u = unanimity(G2, k, SCALE)
    table = Measure(u.family, u.scale, {0: 0, 1: 5, 2: 0, 3: 5})
    assert u == table and table == u
    assert u == chain_measure(G2, SCALE, [0, k, 3], [0, 5, 5], "lower")
    assert unanimity(G2, 3, SCALE) != co_unanimity(G2, 3, SCALE)
    assert hash(u) == hash(table)


def test_constructed_kinds_round_trip_as_tables():
    text = (
        "scale m 3\nomega a b c\n"
        "measure lo scale=m kind=chain-lower\n  {} 0\n  {a} 1\n  {a,b} 1\n  {a,b,c} 2\n"
        "measure up scale=m kind=chain-upper\n  {} 0\n  {b} 1\n  {a,b,c} 2\n"
        "measure u scale=m kind=unanimity\n  {a,c}\n"
        "measure cu scale=m kind=co-unanimity\n  {b}\n"
    )
    sf = parse(text)
    back = format_specfile(sf)
    assert back.count("kind=table") == 4
    assert parse(back) == sf


class TestCallOutsideTheGroundSet:
    def measures(self):
        partial = Measure(SetFamily(G2, frozenset({0, 1, 3})), SCALE, {0: 0, 1: 2, 3: 5})
        full = Measure(SetFamily.full(G2), SCALE, {0: 0, 1: 2, 2: 1, 3: 5})
        return [
            partial, full, unanimity(G2, 1, SCALE), co_unanimity(G2, 2, SCALE),
            chain_measure(G2, SCALE, [0, 1, 3], [0, 2, 5], "lower"),
            chain_measure(G2, SCALE, [0, 1, 3], [0, 2, 5], "upper"),
            inner_extension(partial), outer_extension(partial),
            sign_measure(partial), sign_measure(full),
        ]

    @pytest.mark.parametrize("mask", [4, 8, -1])
    def test_mask_outside_is_named(self, mask):
        for m in self.measures():
            with pytest.raises(DomainError, match=f"^subset mask {mask} outside the ground set$"):
                m(mask)

    def test_mask_outside_is_not_evaluated(self):
        seen = []
        m = sign_measure(unanimity(G2, 1, SCALE))
        at = m._at
        vars(m)["_at"] = lambda a: seen.append(a) or at(a)
        assert m(3) == 5 and seen == [3]
        with pytest.raises(DomainError, match="^subset mask 8 outside the ground set$"):
            m(8)
        assert seen == [3]

    def test_member_missing_from_a_partial_family(self):
        partial = Measure(SetFamily(G2, frozenset({0, 1, 3})), SCALE, {0: 0, 1: 2, 3: 5})
        for m in (partial, sign_measure(partial)):
            with pytest.raises(DomainError, match=r"^subset \{b\} not in the measure's family$"):
                m(2)


def wide_spec(n: int) -> str:
    names = [f"e{i}" for i in range(n)]
    rng = random.Random(16)
    rows = []
    for mask in rng.sample(range(1, (1 << n) - 1), 300):
        members = [names[i] for i in range(n) if mask >> i & 1]
        rows.append("  {" + ",".join(members) + "} " + str(len(members) * 10 // n))
    chain = ["  {" + ",".join(names[:k]) + "} " + str(k * 10 // n) for k in range(n + 1)]
    values = [f"  {e} {rng.randrange(11)}" for e in names]
    return "\n".join(
        ["scale m 11", "omega " + " ".join(names),
         "measure cl scale=m kind=chain-lower", *chain,
         "measure cu scale=m kind=chain-upper", *chain,
         "measure un scale=m kind=unanimity", "  {e1,e4,e9}",
         "measure part scale=m kind=table", *rows,
         "function f scale=m", *values,
         "comm id from=m to=m", ""]
    )


@pytest.fixture
def no_sweeps(monkeypatch):
    """Fail on any powerset sweep, and record every closed-form measure."""
    def sweep(*_):
        raise AssertionError("a constructed measure built its table")

    made = []
    closed = Measure._closed.__func__

    def recorded(cls, *args):
        made.append(closed(cls, *args))
        return made[-1]

    monkeypatch.setattr(measures, "_upper_sweep", sweep)
    monkeypatch.setattr(measures, "_lower_sweep", sweep)
    monkeypatch.setattr(Measure, "_closed", classmethod(recorded))
    return made


def test_functionals_at_the_limit_never_build_the_table(no_sweeps):
    sf = parse(wide_spec(16))
    f, ell = sf.functions["f"], sf.comms["id"]
    part = inner_extension(sf.measures["part"])
    for name in ("cl", "cu", "un"):
        m = sf.measures[name]
        fan_sugeno(m, f, ell)
        distribution(m, f)
        sugeno_integral(m, f)
    fan_sugeno(part, f, ell, "plain")
    distribution(part, f)
    sign = sign_measure(sf.measures["cl"])
    sugeno_integral(sign, f)
    assert len(no_sweeps) == 5
    assert all("values" not in vars(m) for m in no_sweeps)


@pytest.mark.parametrize("argv", [
    ["eval", "--measure", "cl", "--function", "f", "--comm", "id"],
    ["eval", "--measure", "un", "--function", "f", "--comm", "id", "--variant", "plain"],
    ["eval", "--measure", "part", "--extend", "inner", "--function", "f", "--comm", "id"],
    ["distribution", "--measure", "cu", "--function", "f"],
])
def test_cli_eval_at_the_limit_never_builds_the_table(argv, tmp_path, capsys, no_sweeps):
    spec = tmp_path / "wide.spec"
    spec.write_text(wide_spec(16), encoding="utf-8")
    assert run([argv[0], str(spec), *argv[1:]]) == 0
    assert capsys.readouterr().out
    assert no_sweeps and all("values" not in vars(m) for m in no_sweeps)


def test_extensions_of_a_total_measure_are_the_measure(no_sweeps):
    """On the whole powerset both extensions return the measure itself:
    neither builds its table as a mapping nor sweeps it."""
    sf = parse(wide_spec(16))
    f, ell = sf.functions["f"], sf.comms["id"]
    counted = Measure(SetFamily.full(sf.ground), sf.scales["m"],
                      {a: a.bit_count() * 10 // 16 for a in range(1 << 16)})
    for m in (counted, sf.measures["cl"], sf.measures["un"]):
        expected = fan_sugeno(m, f, ell)
        assert inner_extension(m) is m and outer_extension(m) is m
        assert fan_sugeno(inner_extension(m), f, ell) == expected
        assert fan_sugeno(outer_extension(m), f, ell, "plain") == fan_sugeno(m, f, ell, "plain")
    assert "values" not in vars(counted)
    assert no_sweeps and all("values" not in vars(m) for m in no_sweeps)


def test_results_at_the_limit_equal_the_tables():
    sf = parse(wide_spec(16))
    f, ell = sf.functions["f"], sf.comms["id"]
    for m in (sf.measures["cl"], sf.measures["un"], inner_extension(sf.measures["part"])):
        got = fan_sugeno(m, f, ell), distribution(m, f)
        table = Measure(m.family, m.scale, m.values)
        assert got == (fan_sugeno(table, f, ell), distribution(table, f))


class TestFrozenValues:
    def test_assigning_the_table_raises_at_the_assignment(self):
        mu = Measure(SetFamily.full(G2), SCALE, {0: 0, 1: 3, 2: 1, 3: 5})
        f = LatticeFn(G2, SCALE, (4, 2))
        before = sugeno_integral(mu, f)
        with pytest.raises(FrozenInstanceError):
            mu.values = {0: 0, 1: 5, 2: 1, 3: 2}
        with pytest.raises(TypeError):
            mu.values[1] = 5
        with pytest.raises(FrozenInstanceError):
            del mu.values
        with pytest.raises(FrozenInstanceError):
            mu.scale = Chain("other", 6)
        assert sugeno_integral(mu, f) == before

    def test_closed_forms_are_frozen_too(self):
        u = unanimity(G2, 1, SCALE)
        with pytest.raises(FrozenInstanceError):
            u.values = {0: 0, 1: 0, 2: 0, 3: 5}
        assert u.values == {0: 0, 1: 5, 2: 0, 3: 5}
        with pytest.raises(TypeError):
            u.values[1] = 0

    def test_the_callers_table_is_copied(self):
        values = {0: 0, 1: 3, 2: 1, 3: 5}
        mu = Measure(SetFamily.full(G2), SCALE, values)
        values[1] = 5
        values[3] = 2
        assert mu.values == {0: 0, 1: 3, 2: 1, 3: 5}
        assert mu(1) == 3
        again = Measure(mu.family, mu.scale, mu.values)
        assert again == mu and again.values is not mu.values

    def test_measures_pickle_as_tables(self):
        mu = Measure(SetFamily.full(G2), SCALE, {0: 0, 1: 3, 2: 1, 3: 5})
        for m in (mu, sign_measure(mu), unanimity(G2, 1, SCALE)):
            back = pickle.loads(pickle.dumps(m))
            assert back == m and back.values == m.values

    def test_set_family(self):
        family = SetFamily.full(G2)
        with pytest.raises(FrozenInstanceError):
            family.members = frozenset({0, 3})
        assert hash(family) == hash(SetFamily.full(G2))
        # one powerset family per ground set, equal for every caller
        assert SetFamily.full(G2) == family
        assert unanimity(G2, 1, SCALE).family == family
        assert inner_extension(unanimity(G2, 1, SCALE)).family == family
        assert SetFamily.full(GroundSet(("a", "b"))) == family

    def test_function_and_comm(self):
        f = LatticeFn(G2, SCALE, [4, 2])
        ell = CommFn.identity(SCALE)
        with pytest.raises(FrozenInstanceError):
            f.values = (0, 0)
        with pytest.raises(FrozenInstanceError):
            ell.values = tuple(reversed(ell.values))
        assert f.values == (4, 2) and ell.values == tuple(range(SCALE.size))
        assert hash(f) == hash(LatticeFn(G2, SCALE, (4, 2)))

    def test_total_fn(self):
        g = TotalFn(SCALE, SCALE, [5, 3, 3, 1, 0, 0])
        with pytest.raises(FrozenInstanceError):
            g.values = (0,) * 6
        with pytest.raises(FrozenInstanceError):
            g.dst = Chain("other", 6)
        assert g.values == (5, 3, 3, 1, 0, 0)
        assert hash(g) == hash(TotalFn(SCALE, SCALE, (5, 3, 3, 1, 0, 0)))

    def test_corr(self):
        table = {0: Interval(SCALE, 1, 2), 3: Interval(SCALE, 0, 0)}
        c = Corr(SCALE, SCALE, table)
        with pytest.raises(FrozenInstanceError):
            c.table = {}
        with pytest.raises(TypeError):
            c.table[1] = Interval(SCALE, 5, 5)
        table[1] = Interval(SCALE, 5, 5)
        del table[0]
        assert c.table == {0: Interval(SCALE, 1, 2), 3: Interval(SCALE, 0, 0)}
        assert c.dom() == [0, 3]
        assert c == Corr(SCALE, SCALE, dict(c.table))
        assert hash(c) == hash(Corr(SCALE, SCALE))
        back = pickle.loads(pickle.dumps(c))
        assert back == c and back.table == c.table

    def test_a_cached_property_is_no_field(self):
        """A value that has built a cache equals, hashes and prints like
        one that has not."""
        labels = ("lo", "mid", "hi")
        chain, half, carrier = Chain("c", 3, labels), ReflChain("r", 2), ReflChain("r", 2)
        ground = GroundSet(("a", "b"))
        comm = CommFn(chain, chain, (0, 2, 2))
        assert chain.rank_of_label("mid") == 1 and ground.mask_of(["b"]) == 2
        assert half.srank_of_label("-1") == -1 and carrier.as_chain().size == 5
        assert comm.as_corr().table[1] == Interval(chain, 2, 2)
        for built, fresh in ((chain, Chain("c", 3, labels)), (half, ReflChain("r", 2)),
                             (half, carrier), (ground, GroundSet(("a", "b"))),
                             (comm, CommFn(Chain("c", 3, labels), chain, (0, 2, 2)))):
            assert built == fresh and fresh == built and hash(built) == hash(fresh)
            assert repr(built) == repr(fresh)
            assert pickle.loads(pickle.dumps(built)) == fresh
        # the comm's pickle carries no graph: it is the pickle of a fresh comm
        assert pickle.dumps(comm) == pickle.dumps(CommFn(chain, chain, (0, 2, 2)))


class TestElementRanks:
    CHAIN = Chain("m", 3, ("lo", "mid", "hi"))
    REFL = ReflChain("r", 2)

    @pytest.mark.parametrize("rank", [0.5, 1.0, True, False, "1", None])
    def test_chain_elem_rejects_non_integers(self, rank):
        with pytest.raises(DomainError, match=f"^rank {rank!r} for chain 'm' is not an integer$"):
            ChainElem(self.CHAIN, rank)

    @pytest.mark.parametrize("srank", [-0.5, 1.0, True, "1"])
    def test_refl_elem_rejects_non_integers(self, srank):
        with pytest.raises(
            DomainError,
            match=f"^signed rank {srank!r} for reflection chain 'r' is not an integer$",
        ):
            ReflElem(self.REFL, srank)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LatticeFn(G2, SCALE, (0.5, 1)), "function value 0.5 outside scale 'm'"),
            (lambda: LatticeFn(G2, SCALE, (True, 1)), "function value True outside scale 'm'"),
            (lambda: LatticeFn(G2, R2, (1, -1.0)), "function value -1.0 outside scale 'r'"),
            (
                lambda: CommFn(SCALE, SCALE, (0, 0.5, 2, 3, 4, 5)),
                "commensurability value 0.5 outside 'm'",
            ),
            (
                lambda: TotalFn(SCALE, SCALE, (5, 1.0, 0, 0, 0, 0)),
                "value rank 1.0 outside chain 'm'",
            ),
            (
                lambda: Measure(SetFamily.full(G2), SCALE, {0: 0, 1: 1.0, 2: 1, 3: 5}),
                "measure value rank 1.0 outside chain 'm'",
            ),
            (
                lambda: SetFamily(G2, frozenset({0, 1.0, 3})),
                "subset mask 1.0 outside the ground set",
            ),
            (lambda: Chain("m", True), "chain 'm': size must be a positive integer"),
            (lambda: Chain("m", 3.0), "chain 'm': size must be a positive integer"),
            (lambda: ReflChain("r", True), "reflection chain 'r': half_size must be >= 1"),
            (lambda: Chain("m", 3, ("a", "b", 1)), "chain 'm': labels must be strings"),
            (
                lambda: ReflChain("r", 1, ("0", None)),
                "reflection chain 'r': labels must be strings",
            ),
            (lambda: GroundSet(("a", 1)), "ground set elements must be strings"),
            (lambda: GroundSet((["a"],)), "ground set elements must be strings"),
            (
                lambda: RInterval(R2, 0, 1.0),
                "invalid signed endpoints [0,1.0] for reflection chain 'r'",
            ),
            (
                lambda: RInterval(R2, False, 1),
                "invalid signed endpoints [False,1] for reflection chain 'r'",
            ),
            (lambda: RInterval(R2, -1, 2), "signed interval [-1,2] crosses the reference point"),
            (lambda: RInterval(R2, -1, 1), "signed interval [-1,1] crosses the reference point"),
            (
                lambda: RInterval(R2, 1, 3),
                "invalid signed endpoints [1,3] for reflection chain 'r'",
            ),
        ],
    )
    def test_constructors_reject_what_they_cannot_represent(self, build, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("table", [
        {0: 0, 1.0: 1, 2: 1, 3: 5},
        {0: 0, True: 1, 2: 1, 3: 5},
    ])
    def test_measure_table_keys_are_masks(self, table):
        # 1.0 and True hash like the mask 1, so the key set compares equal
        with pytest.raises(
            DomainError, match="^measure table must cover exactly the set family$"
        ):
            Measure(SetFamily.full(G2), SCALE, table)

    def test_corr_domain_points_are_ranks(self):
        # a dict display keeps the first key and the last value: {1.0: iv2}
        table = {1.0: Interval(SCALE, 1, 1), True: Interval(SCALE, 2, 2)}
        with pytest.raises(DomainError, match="^domain point 1.0 outside chain 'm'$"):
            Corr(SCALE, SCALE, table)

    @pytest.mark.parametrize("rank", [1.0, 1.5, True])
    def test_per_call_ranks_are_ints(self, rank):
        mu = Measure(SetFamily.full(G2), SCALE, {0: 0, 1: 1, 2: 1, 3: 5})
        f = LatticeFn(G2, SCALE, (4, 1))
        with pytest.raises(DomainError, match=f"^level {rank} outside scale 'm'$"):
            level_set(f, rank)
        for call in (median, quantile_functional):
            with pytest.raises(DomainError, match=f"^rank {rank} outside measure scale 'm'$"):
                call(mu, f, rank)
        with pytest.raises(DomainError, match=f"^subset mask {rank} outside the ground set$"):
            mu(rank)

    def test_integers_still_pass(self):
        assert str(ChainElem(self.CHAIN, 1)) == "mid"
        assert str(ReflElem(self.REFL, -2)) == "-2"
        with pytest.raises(DomainError, match="out of range"):
            ChainElem(self.CHAIN, 3)


def test_random_functions_agree_on_closed_and_table_forms():
    rng = random.Random(70)
    ell = CommFn.identity(SCALE)
    for n in SIZES:
        ground = ground_of(n)
        partial = rand_partial_measure(rng, ground, SCALE)
        for m in (inner_extension(partial), outer_extension(partial)):
            table = Measure(m.family, m.scale, m.values)
            for _ in range(5):
                f = rand_fn(rng, ground, SCALE)
                assert fan_sugeno(m, f, ell, "plain") == fan_sugeno(table, f, ell, "plain")
