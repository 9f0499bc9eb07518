"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact rank equality.  Two criteria state a law in the
form in which it can hold:

* criterion 3 checks the pseudo-multiplication for sign-split
  monotonicity: for x <= y, x@z <= y@z when z >= 0 and x@z >= y@z when
  z <= 0.  Unrestricted monotonicity is unattainable, since commutativity,
  the neutral top t and the reflection law give x@refl(t) = refl(x); the
  criterion keeps that witness, and
  ``tests/test_chains.py::test_striangle_not_monotone_for_negative_operand``
  freezes a counterexample;
* criterion 7 checks the join equalities for comonotone functions and
  upper chain measures exactly where they are theorems: the quantile of
  f v g is the join of the quantiles at every level attained by both
  distribution functions, and the aggregate of f v g is the join of the
  aggregates whenever the quantile tables join exactly.  At skipped levels
  the sharp saturation keeps only the upper endpoint; the
  ``*_fails*`` tests in ``tests/test_aggregation.py`` freeze
  counterexamples.
"""

import functools
import itertools
import random
import time
from pathlib import Path

from ordagg import (
    Chain,
    CommFn,
    GroundSet,
    Interval,
    LatticeFn,
    Measure,
    ReflChain,
    RInterval,
    SetFamily,
    asymmetric_fan_sugeno,
    co_unanimity,
    distribution,
    fan_sugeno,
    fan_sugeno_dual,
    fan_sugeno_sup,
    inner_extension,
    inverse,
    is_comonotonic,
    is_minitive,
    minitive_chain,
    negate_fn,
    neg_part,
    ordinal_distance,
    ordinal_norm,
    outer_extension,
    pos_part,
    quantile,
    refl,
    refl_interval,
    rinterval_leq,
    saturate,
    sharp_saturate,
    sign_measure,
    sqcap,
    sqcup,
    sqcap_family,
    sqcup_family,
    striangle,
    sugeno_integral,
    svee,
    symmetric_fan_sugeno,
    topkis_cmp,
    topkis_leq,
    unanimity,
    verify_chain,
)
from ordagg.cli import run as cli_run
from ordagg.oracle import (
    leq_via_lemma,
    oracle_fan_sugeno,
    oracle_lower_chain,
    oracle_minitive,
    oracle_saturation,
    oracle_sqcap_family,
    oracle_sqcup_family,
    oracle_topkis,
)
from helpers import (
    all_intervals,
    all_monotone_measures,
    join_fn,
    meet_fn,
    monotone_transform,
    rand_chain_measure,
    rand_comm,
    rand_comm_below,
    rand_decreasing_corr,
    rand_fn,
    rand_fn_above,
    rand_interval,
    rand_measure,
    rand_measure_below,
    rand_partial_measure,
    rand_total_corr,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [{label}]: FAIL")
                raise
            print(f"criterion {num:2d} [{label}]: PASS")

        return wrapper

    return deco


GRID11 = Chain("grid11", 11, tuple(f"{i/10:.1f}" for i in range(11)))
G2 = GroundSet(("a", "b"))


def grid_instance():
    mu = Measure(SetFamily.full(G2), GRID11, {0: 0, 1: 5, 2: 3, 3: 10})
    f = LatticeFn(G2, GRID11, (6, 2))
    return mu, f, CommFn.identity(GRID11)


@criterion(1, "decimal-grid reproduction")
def test_criterion_1():
    start = time.time()
    mu, f, ident = grid_instance()
    assert fan_sugeno_sup(mu, f, ident).rank == 5
    assert fan_sugeno_dual(mu, f, ident, "sharp") == Interval(GRID11, 5, 6)
    assert fan_sugeno(mu, f, ident, "plain") == Interval(GRID11, 3, 5)
    assert fan_sugeno(mu, f, ident, "sharp") == Interval(GRID11, 4, 5)
    assert time.time() - start < 1.0


@criterion(2, "coalition games collapse to min/max")
def test_criterion_2():
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(1, 4)
        ground = GroundSet(tuple("abcd"[:n]))
        scale = Chain("l", rng.randint(2, 8))
        f = rand_fn(rng, ground, scale)
        for mask in range(1, ground.full_mask + 1):
            members = [i for i in range(n) if mask >> i & 1]
            u = unanimity(ground, mask, scale)
            ub = co_unanimity(ground, mask, scale)
            assert sugeno_integral(u, f).rank == min(f.values[i] for i in members)
            assert sugeno_integral(ub, f).rank == max(f.values[i] for i in members)


@criterion(3, "pseudo-arithmetic laws")
def test_criterion_3():
    violations = []
    for half in (1, 2, 3, 4):
        rc = ReflChain("r", half)
        es = [rc.elem(s) for s in range(-half, half + 1)]
        for x, y in itertools.product(es, repeat=2):
            assert svee(x, y) == svee(y, x)
            assert striangle(x, y) == striangle(y, x)
            assert refl(svee(x, y)) == svee(refl(x), refl(y))
            assert refl(striangle(x, y)) == striangle(refl(x), y)
        assert [e for e in es if all(svee(e, x) == x for x in es)] == [rc.elem(0)]
        assert [e for e in es if all(striangle(e, x) == x for x in es)] == [
            rc.elem(half)
        ]
        for x, y, z in itertools.product(es, repeat=3):
            assert striangle(striangle(x, y), z) == striangle(x, striangle(y, z))
            same_half = all(e.srank >= 0 for e in (x, y, z)) or all(
                e.srank <= 0 for e in (x, y, z)
            )
            if same_half:
                assert svee(svee(x, y), z) == svee(x, svee(y, z))
                assert striangle(x, svee(y, z)) == svee(
                    striangle(x, y), striangle(x, z)
                )
            if x.srank <= y.srank:
                assert svee(x, z).srank <= svee(y, z).srank
                # sign-split monotonicity: order-preserving for a
                # nonnegative operand, order-reversing for a nonpositive one
                xz, yz = striangle(x, z).srank, striangle(y, z).srank
                if (z.srank >= 0 and xz > yz) or (z.srank <= 0 and xz < yz):
                    violations.append(
                        f"half={half}: {x.srank} <= {y.srank} but "
                        f"{x.srank}@{z.srank} = {xz}, {y.srank}@{z.srank} = {yz}"
                    )
        # the non-associativity witness
        t, bt = rc.elem(half), rc.elem(-half)
        assert svee(svee(t, t), bt) != svee(t, svee(t, bt))
        # the non-monotonicity witness: commutativity, the neutral top and
        # the reflection law force x@refl(t) = refl(x), which reverses order
        for x in es:
            assert striangle(x, refl(t)) == refl(x)
        assert striangle(bt, bt).srank > striangle(t, bt).srank
    assert not violations, (
        "pseudo-multiplication breaks sign-split monotonicity "
        f"({len(violations)} violations, first: {violations[0]})"
    )


@criterion(4, "interval lattice laws")
def test_criterion_4():
    c5 = Chain("c5", 5)
    ivs5 = all_intervals(c5)
    assert len(ivs5) == 15
    for a, b, c in itertools.product(ivs5, repeat=3):
        assert sqcup(a, b) == sqcup(b, a)
        assert sqcap(a, b) == sqcap(b, a)
        assert sqcup(a, sqcap(a, b)) == a
        assert sqcap(a, sqcup(a, b)) == a
        assert sqcup(sqcup(a, b), c) == sqcup(a, sqcup(b, c))
        assert sqcap(sqcap(a, b), c) == sqcap(a, sqcap(b, c))
        assert sqcap(a, sqcup(b, c)) == sqcup(sqcap(a, b), sqcap(a, c))
        assert sqcup(a, sqcap(b, c)) == sqcap(sqcup(a, b), sqcup(a, c))

    # complete distributivity over every family of three 3-element sets
    # of intervals of a size-4 chain: the raw tuple arithmetic below is
    # first cross-validated against the library operations on all pairs
    c4 = Chain("c4", 4)
    ivs = [(lo, hi) for lo in range(4) for hi in range(lo, 4)]
    for (a, b), (c, d) in itertools.product(ivs, repeat=2):
        i1, i2 = Interval(c4, a, b), Interval(c4, c, d)
        assert sqcup(i1, i2) == Interval(c4, max(a, c), max(b, d))
        assert sqcap(i1, i2) == Interval(c4, min(a, c), min(b, d))
    subs = list(itertools.combinations(ivs, 3))
    sups = [(max(a for a, _ in s), max(b for _, b in s)) for s in subs]
    infs = [(min(a for a, _ in s), min(b for _, b in s)) for s in subs]
    n = len(subs)
    assert n == 120
    for i in range(n):
        si = subs[i]
        for j in range(i, n):
            sj = subs[j]
            meets_ij = [
                (a if a < c else c, b if b < d else d) for a, b in si for c, d in sj
            ]
            joins_ij = [
                (a if a > c else c, b if b > d else d) for a, b in si for c, d in sj
            ]
            mb = (min(sups[i][0], sups[j][0]), min(sups[i][1], sups[j][1]))
            jb = (max(infs[i][0], infs[j][0]), max(infs[i][1], infs[j][1]))
            for k in range(j, n):
                sk = subs[k]
                lhs = (min(mb[0], sups[k][0]), min(mb[1], sups[k][1]))
                best_lo = best_hi = -1
                for a, b in meets_ij:
                    for c, d in sk:
                        x = a if a < c else c
                        y = b if b < d else d
                        if x > best_lo:
                            best_lo = x
                        if y > best_hi:
                            best_hi = y
                assert lhs == (best_lo, best_hi)
                lhs = (max(jb[0], infs[k][0]), max(jb[1], infs[k][1]))
                best_lo = best_hi = 99
                for a, b in joins_ij:
                    for c, d in sk:
                        x = a if a > c else c
                        y = b if b > d else d
                        if x < best_lo:
                            best_lo = x
                        if y < best_hi:
                            best_hi = y
                assert lhs == (best_lo, best_hi)


@criterion(5, "products and saturations")
def test_criterion_5():
    from ordagg import (
        Corr,
        TotalFn,
        dual_product,
        inner_product,
        is_decreasing,
        is_sharply_monotone,
        unit_corr,
    )

    rng = random.Random(505)
    for _ in range(1000):
        src = Chain("m", rng.randint(1, 8))
        dst = Chain("l", rng.randint(1, 8))
        phi = rand_total_corr(rng, src, dst)
        psi = rand_total_corr(rng, src, dst)
        # commutativity and orthogonality
        assert inner_product(phi, psi) == inner_product(psi, phi)
        bot = Interval(dst, 0, 0)
        disjoint = not (
            {x for x, iv in phi.table.items() if iv != bot}
            & {x for x, iv in psi.table.items() if iv != bot}
        )
        assert (inner_product(phi, psi) == bot) == disjoint
        # monotonicity and linearity
        phi2 = Corr(
            src, dst, {x: sqcup(iv, rand_interval(rng, dst)) for x, iv in phi.table.items()}
        )
        assert topkis_leq(inner_product(phi, psi), inner_product(phi2, psi))
        joined = Corr(
            src, dst, {x: sqcup(phi.table[x], phi2.table[x]) for x in range(src.size)}
        )
        assert inner_product(joined, psi) == sqcup(
            inner_product(phi, psi), inner_product(phi2, psi)
        )
        a = Interval(dst, *(rng.randrange(dst.size),) * 2)
        capped = Corr(src, dst, {x: sqcap(a, iv) for x, iv in phi.table.items()})
        assert inner_product(capped, psi) == sqcap(a, inner_product(phi, psi))
        # saturations extend and stay decreasing; sharp above plain,
        # preserving sharpness
        dec = rand_decreasing_corr(rng, src, dst)
        sat, sharp = saturate(dec), sharp_saturate(dec)
        assert is_decreasing(sat) and is_decreasing(sharp)
        if is_sharply_monotone(dec):
            assert is_sharply_monotone(sharp)
        for x, iv in dec.table.items():
            assert sat.table[x] == iv and sharp.table[x] == iv
        for x in range(src.size):
            assert topkis_leq(sat.table[x], sharp.table[x])
        # unit vectors pick out values of total decreasing tables
        decs = rand_decreasing_corr(rng, src, dst, total=True)
        p = rng.randrange(src.size)
        assert inner_product(unit_corr(src.elem(p), dst), decs) == decs.table[p]
        # increasing against decreasing: product under dual product
        flipped = Corr(
            src, dst, {src.size - 1 - x: iv for x, iv in decs.table.items()}
        )
        psi_dec = rand_decreasing_corr(rng, src, dst, total=True)
        assert topkis_leq(inner_product(flipped, psi_dec), dual_product(flipped, psi_dec))
        # sharp saturation of ordered inverses stays ordered
        lsize = rng.randint(1, 8)
        msize = rng.randint(2, 8)
        lchain, mchain = Chain("l2", lsize), Chain("m2", msize)
        lower = tuple(sorted((rng.randrange(msize) for _ in range(lsize)), reverse=True))
        upper = tuple(sorted((rng.randint(v, msize - 1) for v in lower), reverse=True))
        hlo = sharp_saturate(inverse(TotalFn(lchain, mchain, lower).as_corr()))
        hhi = sharp_saturate(inverse(TotalFn(lchain, mchain, upper).as_corr()))
        for y in range(msize):
            assert topkis_leq(hlo.table[y], hhi.table[y])
        # endpoint interval order agrees with the element characterization
        i1, i2 = rand_interval(rng, dst), rand_interval(rng, dst)
        assert leq_via_lemma(i1, i2) == topkis_leq(i1, i2)
    # the plain-saturation witness: ordered functions, unordered saturations
    c3 = Chain("c3", 3)
    sp = saturate(inverse(TotalFn(c3, c3, (2, 1, 1)).as_corr()))
    sq = saturate(inverse(TotalFn(c3, c3, (2, 2, 2)).as_corr()))
    assert not topkis_leq(sp.table[1], sq.table[1])


@criterion(6, "measure extensions and chains")
def test_criterion_6():
    rng = random.Random(606)
    for _ in range(200):
        ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
        scale = Chain("m", rng.randint(2, 6))
        m = rand_partial_measure(rng, ground, scale)
        inner, outer = inner_extension(m), outer_extension(m)
        for a in ground.subsets():
            assert inner.values[a] <= outer.values[a]
        for a in m.family.members:
            assert inner.values[a] == m.values[a] == outer.values[a]
    for _ in range(100):
        ground = GroundSet(tuple("abcd"[: rng.randint(1, 4)]))
        scale = Chain("m", rng.randint(2, 6))
        low = rand_chain_measure(rng, ground, scale, "lower")
        for a, b in itertools.product(ground.subsets(), repeat=2):
            assert low.values[a & b] == min(low.values[a], low.values[b])
    for n in (1, 2, 3):
        ground = GroundSet(tuple("abc"[:n]))
        for msize in (2, 3, 4):
            scale = Chain("m", msize)
            for m in all_monotone_measures(ground, scale):
                mini = is_minitive(m)
                assert oracle_lower_chain(m) == mini
                if mini:
                    assert verify_chain(m, minitive_chain(m), "lower")


def assert_exact_quantile_join(gf, gg, qf, qg, qj, setting):
    """Check a quantile join where the distribution of the join is the
    pointwise join of the two distributions; return whether the quantile
    tables join exactly at every level.

    At a level p attained by both distributions the equality is a theorem:
    {gf v gg <= p} is the intersection and {gf v gg >= p} the union of the
    level intervals, so the transpose at p is the join of the transposes.
    At a level skipped by one of them the sharp saturation collapses the
    gap to its supremum and only the upper endpoint is kept (frozen
    counterexamples in tests/test_aggregation.py).
    """
    exact = True
    for p in range(qj.src.size):
        joined = sqcup(qf.table[p], qg.table[p])
        assert topkis_leq(joined, qj.table[p])
        assert qj.table[p].hi == joined.hi
        if p in gf.values and p in gg.values:
            assert qj.table[p] == joined, (
                f"{setting} join quantile equality at attained level {p}: "
                f"gf={gf.values} gg={gg.values}"
            )
        exact = exact and qj.table[p] == joined
    return exact


@criterion(7, "distribution and functional laws")
def test_criterion_7():
    rng = random.Random(707)
    exact_functional_joins = 0
    for _ in range(500):
        ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
        l = Chain("l", rng.randint(1, 8))
        m = Chain("m", rng.randint(2, 8))
        mu = rand_measure(rng, ground, m)
        ell = rand_comm(rng, m, l)
        f, g = rand_fn(rng, ground, l), rand_fn(rng, ground, l)
        fj, fm = join_fn(f, g), meet_fn(f, g)
        gf, gg = distribution(mu, f), distribution(mu, g)
        gj, gm = distribution(mu, fj), distribution(mu, fm)
        qf, qg = quantile(mu, f), quantile(mu, g)
        qj, qm = quantile(mu, fj), quantile(mu, fm)
        for x in range(l.size):
            assert gj.values[x] >= max(gf.values[x], gg.values[x])
            assert gm.values[x] <= min(gf.values[x], gg.values[x])
        for p in range(m.size):
            assert topkis_leq(sqcup(qf.table[p], qg.table[p]), qj.table[p])
            assert topkis_leq(qm.table[p], sqcap(qf.table[p], qg.table[p]))
        # comonotone equalities, all four relations
        h = monotone_transform(rng, f)
        assert is_comonotonic([f, h])
        gh = distribution(mu, h)
        gjh, gmh = distribution(mu, join_fn(f, h)), distribution(mu, meet_fn(f, h))
        qh, qjh, qmh = quantile(mu, h), quantile(mu, join_fn(f, h)), quantile(mu, meet_fn(f, h))
        for x in range(l.size):
            assert gjh.values[x] == max(gf.values[x], gh.values[x])
            assert gmh.values[x] == min(gf.values[x], gh.values[x])
        for p in range(m.size):
            assert qmh.table[p] == sqcap(qf.table[p], qh.table[p])
        comonotone_exact = assert_exact_quantile_join(gf, gh, qf, qh, qjh, "comonotone")
        # chain-measure equality clauses
        upper = rand_chain_measure(rng, ground, m, "upper")
        guf, gug = distribution(upper, f), distribution(upper, g)
        guj = distribution(upper, fj)
        for x in range(l.size):
            assert guj.values[x] == max(guf.values[x], gug.values[x])
        quf, qug, quj = quantile(upper, f), quantile(upper, g), quantile(upper, fj)
        upper_exact = assert_exact_quantile_join(guf, gug, quf, qug, quj, "upper-chain")
        lower = rand_chain_measure(rng, ground, m, "lower")
        glf, glg = distribution(lower, f), distribution(lower, g)
        glm = distribution(lower, fm)
        for x in range(l.size):
            assert glm.values[x] == min(glf.values[x], glg.values[x])
        qlf, qlg, qlm = quantile(lower, f), quantile(lower, g), quantile(lower, fm)
        for p in range(m.size):
            assert qlm.table[p] == sqcap(qlf.table[p], qlg.table[p])
        # functional properties
        mask = rng.randrange(ground.full_mask + 1)
        top = l.size - 1
        ind = LatticeFn(
            ground, l, tuple(top if mask >> i & 1 else 0 for i in range(ground.size))
        )
        assert fan_sugeno_sup(mu, ind, ell).rank == ell.values[mu.values[mask]]
        g_above = rand_fn_above(rng, f)
        assert topkis_leq(fan_sugeno(mu, f, ell), fan_sugeno(mu, g_above, ell))
        ell0 = rand_comm(rng, m, l, zero_fixed=True)
        a = rng.randrange(l.size)
        capped = LatticeFn(ground, l, tuple(min(a, v) for v in f.values))
        assert fan_sugeno(mu, capped, ell0) == sqcap(
            Interval(l, a, a), fan_sugeno(mu, f, ell0)
        )
        sj = fan_sugeno(mu, fj, ell)
        s2 = sqcup(fan_sugeno(mu, f, ell), fan_sugeno(mu, g, ell))
        assert topkis_leq(s2, sj)
        suj = fan_sugeno(upper, fj, ell)
        su2 = sqcup(fan_sugeno(upper, f, ell), fan_sugeno(upper, g, ell))
        assert topkis_leq(su2, suj)
        assert suj.hi == su2.hi
        # the aggregate is an inner product, linear in the quantile table
        # (criterion 5), so exact quantile joins give an exact aggregate join
        if upper_exact:
            assert suj == su2, (
                f"upper-chain join functional equality: mu={dict(upper.values)} "
                f"f={f.values} g={g.values} ell={ell.values}"
            )
            exact_functional_joins += 1
        scj = fan_sugeno(mu, join_fn(f, h), ell)
        sc2 = sqcup(fan_sugeno(mu, f, ell), fan_sugeno(mu, h, ell))
        assert topkis_leq(sc2, scj)
        assert scj.hi == sc2.hi
        if comonotone_exact:
            assert scj == sc2, (
                f"comonotone join functional equality: mu={dict(mu.values)} "
                f"f={f.values} h={h.values} ell={ell.values}"
            )
            exact_functional_joins += 1
        lam = rand_measure_below(rng, mu)
        k = rand_comm_below(rng, ell)
        assert topkis_leq(fan_sugeno(lam, f, k), fan_sugeno(mu, f, ell))
    # the identity-commensurability equivalence, exhaustive then randomized
    c4 = Chain("c4", 4)
    ident4 = CommFn.identity(c4)
    for va, vb in itertools.product(range(4), repeat=2):
        mu = Measure(SetFamily.full(G2), c4, {0: 0, 1: va, 2: vb, 3: 3})
        for fv in itertools.product(range(4), repeat=2):
            f = LatticeFn(G2, c4, fv)
            assert sugeno_integral(mu, f).rank == fan_sugeno_sup(mu, f, ident4).rank
    for _ in range(200):
        ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
        scale = Chain("l", rng.randint(2, 8))
        mu = rand_measure(rng, ground, scale)
        f = rand_fn(rng, ground, scale)
        assert (
            sugeno_integral(mu, f).rank
            == fan_sugeno_sup(mu, f, CommFn.identity(scale)).rank
        )
    assert exact_functional_joins > 0


@criterion(8, "signed functionals")
def test_criterion_8():
    rng = random.Random(808)
    for _ in range(300):
        ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
        r = ReflChain("r", rng.randint(1, 4))
        m = Chain("m", rng.randint(2, 8))
        mu = rand_measure(rng, ground, m)
        ell = rand_comm(rng, m, r.positive_half())
        f = rand_fn(rng, ground, r)
        variant = rng.choice(("sharp", "plain"))
        ss = symmetric_fan_sugeno(mu, f, ell, variant=variant)
        assert symmetric_fan_sugeno(mu, negate_fn(f), ell, variant=variant) == \
            refl_interval(ss)
    # the worked two-outcome example
    labels = ("0", "0.25", "0.5", "0.75", "1")
    r4 = ReflChain("r", 4, labels)
    m5 = Chain("m", 5, labels)
    mu = Measure(SetFamily.full(G2), m5, {0: 0, 1: 2, 2: 1, 3: 4})
    f = LatticeFn(G2, r4, (3, -2))
    ell = CommFn.identity(m5, r4.positive_half())
    assert symmetric_fan_sugeno(mu, f, ell) == RInterval(r4, 1, 2)
    # incomparable part aggregates collapse to the reference point
    g3 = GroundSet(("a", "b", "c"))
    m4, r3 = Chain("m", 4), ReflChain("r", 3)
    mu1 = Measure(
        SetFamily.full(g3), m4, {0: 0, 1: 0, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3, 7: 3}
    )
    ell1 = CommFn(m4, r3.positive_half(), (0, 0, 3, 3))
    f1 = LatticeFn(g3, r3, (1, 3, -2))
    sp = fan_sugeno(mu1, pos_part(f1), ell1)
    sn = fan_sugeno(mu1, neg_part(f1), ell1)
    assert topkis_cmp(sp, sn).value == "incomparable"
    assert symmetric_fan_sugeno(mu1, f1, ell1) == RInterval(r3, 0, 0)
    mu2 = Measure(
        SetFamily.full(g3), m4, {0: 0, 1: 3, 2: 3, 3: 3, 4: 0, 5: 3, 6: 3, 7: 3}
    )
    ell2 = CommFn(m4, r3.positive_half(), (0, 1, 2, 2))
    k2 = CommFn(m4, r3.positive_half(), (0, 0, 0, 3))
    f2 = LatticeFn(g3, r3, (-3, 1, -2))
    assert symmetric_fan_sugeno(mu2, f2, ell2, k2) == RInterval(r3, 0, 0)
    # asymmetric monotonicity
    for _ in range(300):
        ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
        r = ReflChain("r", rng.randint(1, 4))
        n = r.half_size
        m = Chain("m", rng.randint(2, 8))
        plain = r.as_chain()
        mu = rand_measure(rng, ground, m)
        lminus = CommFn(m, plain, tuple(sorted(rng.choices(range(n + 1), k=m.size))))
        lplus = CommFn(
            m, plain, tuple(sorted(rng.choices(range(n, 2 * n + 1), k=m.size)))
        )
        f = rand_fn(rng, ground, r)
        g = rand_fn_above(rng, f)
        assert rinterval_leq(
            asymmetric_fan_sugeno(mu, f, lminus, lplus),
            asymmetric_fan_sugeno(mu, g, lminus, lplus),
        )


@criterion(9, "ordinal metrics")
def test_criterion_9():
    rng = random.Random(909)
    for _ in range(500):
        n = rng.randint(1, 4)
        ground = GroundSet(tuple("abcde"[: rng.randint(1, 5)]))
        r = ReflChain("r", n)
        m = Chain("m", rng.randint(2, 8))
        half = r.positive_half()
        mu = rand_measure(rng, ground, m)
        # metric axioms presuppose a bottom-fixing commensurability
        # function (the distance of f to itself is ell at the bottom)
        ell = rand_comm(rng, m, half, zero_fixed=True)
        f, g = rand_fn(rng, ground, r), rand_fn(rng, ground, r)
        assert ordinal_distance(mu, ell, f, f).rank == 0
        assert ordinal_distance(mu, ell, f, g) == ordinal_distance(mu, ell, g, f)
        upper = rand_chain_measure(rng, ground, m, "upper")
        h = rand_fn(rng, ground, r)
        assert ordinal_distance(upper, ell, f, h).rank <= max(
            ordinal_distance(upper, ell, f, g).rank,
            ordinal_distance(upper, ell, g, h).rank,
        )
        # homogeneity with a bottom-fixing commensurability function
        ell0 = rand_comm(rng, m, half, zero_fixed=True)
        a = r.elem(rng.randint(-n, n))
        scaled = LatticeFn(
            ground, r, tuple(striangle(a, r.elem(v)).srank for v in f.values)
        )
        assert ordinal_norm(mu, ell0, scaled).rank == min(
            abs(a.srank), ordinal_norm(mu, ell0, f).rank
        )
        # essential supremum null equivalence
        if m.size == n + 1:
            from ordagg import esssup_norm, is_nullfunction, level_set

            sm = sign_measure(mu)
            absf = LatticeFn(ground, r, tuple(abs(v) for v in f.values))
            swept = all(
                sm.values[level_set(absf, x)] == 0 for x in range(1, n + 1)
            )
            assert is_nullfunction(mu, f) == swept
            assert (esssup_norm(mu, f).rank == 0) == swept
    # frozen triangle counterexample for a measure that is not an upper
    # chain measure
    m2, r1 = Chain("m2", 2), ReflChain("r1", 1)
    mu = Measure(SetFamily.full(G2), m2, {0: 0, 1: 0, 2: 0, 3: 1})
    ell = CommFn.identity(m2, r1.positive_half())
    f = LatticeFn(G2, r1, (1, 0))
    g = LatticeFn(G2, r1, (1, 1))
    h = LatticeFn(G2, r1, (0, 1))
    assert ordinal_distance(mu, ell, f, h).rank > max(
        ordinal_distance(mu, ell, f, g).rank, ordinal_distance(mu, ell, g, h).rank
    )


@criterion(10, "oracle equivalence")
def test_criterion_10():
    rng = random.Random(1010)
    for _ in range(500):
        chain = Chain("c", rng.randint(1, 7))
        ivs = [rand_interval(rng, chain) for _ in range(rng.randint(1, 5))]
        assert oracle_sqcup_family(ivs) == sqcup_family(ivs)
        assert oracle_sqcap_family(ivs) == sqcap_family(ivs)
    c5 = Chain("c5", 5)
    for i1, i2 in itertools.product(all_intervals(c5), repeat=2):
        assert oracle_topkis(i1, i2) == topkis_cmp(i1, i2)
    for _ in range(300):
        src = Chain("m", rng.randint(1, 8))
        dst = Chain("l", rng.randint(1, 8))
        psi = rand_decreasing_corr(rng, src, dst)
        sat = saturate(psi)
        x = rng.randrange(src.size)
        assert oracle_saturation(psi, x) == sat.table[x]
    for _ in range(150):
        ground = GroundSet(tuple("abcd"[: rng.randint(1, 4)]))
        l = Chain("l", rng.randint(1, 7))
        m = Chain("m", rng.randint(2, 7))
        mu = rand_measure(rng, ground, m)
        ell = rand_comm(rng, m, l)
        f = rand_fn(rng, ground, l)
        for variant in ("sharp", "plain"):
            assert oracle_fan_sugeno(mu, f, ell, variant) == fan_sugeno(
                mu, f, ell, variant
            )
    c3 = Chain("m", 3)
    for m in all_monotone_measures(G2, c3):
        assert oracle_minitive(m) == is_minitive(m)


@criterion(11, "command line golden outputs")
def test_criterion_11(capsys):
    e1 = str(SPEC_DIR / "e1.spec")
    cases = [
        (
            ["eval", e1, "--measure", "mu", "--function", "f", "--comm", "id",
             "--variant", "sharp"],
            "interval=[0.4,0.5] sup=0.5\n",
        ),
        (
            ["eval", e1, "--measure", "mu", "--function", "f", "--comm", "id",
             "--variant", "plain"],
            "interval=[0.3,0.5] sup=0.5\n",
        ),
        (
            ["eval-dual", e1, "--measure", "mu", "--function", "f", "--comm", "id",
             "--variant", "sharp"],
            "interval=[0.5,0.6]\n",
        ),
    ]
    for argv, expected in cases:
        assert cli_run(argv) == 0
        assert capsys.readouterr().out == expected
    # parse and validation error classes
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        bad_syntax = os.path.join(td, "s.spec")
        with open(bad_syntax, "w", encoding="utf-8") as fh:
            fh.write("scale m 3\nscale m 4\n")
        assert cli_run(["check", bad_syntax]) == 1
        bad_valid = os.path.join(td, "v.spec")
        with open(bad_valid, "w", encoding="utf-8") as fh:
            fh.write(
                "scale m 3\nomega a b\nmeasure mu scale=m kind=table\n"
                "  {a} rank:2\n  {a,b} rank:1\n"
            )
        assert cli_run(["check", bad_valid]) == 2
        capsys.readouterr()
