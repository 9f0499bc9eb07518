"""Definition-literal reference implementations used to validate the one
aggregation route (distribution, inverse, saturation, product), the
closed forms of constructed measures and the pseudo-addition of signed
intervals.

Everything here recomputes results by enumerating elements, choice
functions, set families, or candidate chains, sharing only the core data
types with that route.  Slow on purpose.
"""

from __future__ import annotations

from itertools import product

from .aggregation import CommFn, LatticeFn
from .chains import Chain, ChainElem, ReflChain, svee
from .correspondences import Corr
from .errors import ChainMismatchError, DomainError
from .intervals import Interval, Rel, RInterval, _same_interval_chain
from .measures import GroundSet, Measure

ENUM_BUDGET = 10**6


def _set_to_interval(chain: Chain, values: set[int]) -> Interval:
    lo, hi = min(values), max(values)
    if len(values) != hi - lo + 1:
        raise DomainError(f"enumerated value set {sorted(values)} is not an interval")
    return Interval(chain, lo, hi)


def _join_sets(s1: set[int], s2: set[int]) -> set[int]:
    return {max(a, b) for a in s1 for b in s2}


def oracle_sqcup_family(intervals) -> Interval:
    """Join of a family by enumerating all choice functions."""
    ivs = list(intervals)
    if not ivs:
        raise DomainError("join of an empty interval family")
    count = 1
    for iv in ivs:
        count *= iv.hi - iv.lo + 1
        if count > ENUM_BUDGET:
            raise DomainError("enumeration budget exceeded")
    joins = {max(choice) for choice in product(*(iv.elements() for iv in ivs))}
    return _set_to_interval(ivs[0].chain, joins)


def oracle_sqcap_family(intervals) -> Interval:
    """Meet of a family by enumerating all choice functions."""
    ivs = list(intervals)
    if not ivs:
        raise DomainError("meet of an empty interval family")
    count = 1
    for iv in ivs:
        count *= iv.hi - iv.lo + 1
        if count > ENUM_BUDGET:
            raise DomainError("enumeration budget exceeded")
    meets = {min(choice) for choice in product(*(iv.elements() for iv in ivs))}
    return _set_to_interval(ivs[0].chain, meets)


def oracle_topkis(i1: Interval, i2: Interval) -> Rel:
    """Classify two intervals by quantifying over all element pairs."""
    le = all(
        min(a, b) in i1 and max(a, b) in i2 for a in i1.elements() for b in i2.elements()
    )
    ge = all(
        min(a, b) in i2 and max(a, b) in i1 for a in i2.elements() for b in i1.elements()
    )
    if le and ge:
        return Rel.EQUAL
    if le:
        return Rel.LESS
    if ge:
        return Rel.GREATER
    return Rel.INCOMPARABLE


def leq_via_lemma(i1: Interval, i2: Interval) -> bool:
    """Element-enumeration characterization of the interval order.

    i1 is below i2 iff every element of i1 has some element of i2 above it
    and every element of i2 has some element of i1 below it.  Serves as an
    independent oracle for topkis_cmp.
    """
    _same_interval_chain(i1, i2)
    up = all(any(a1 <= a2 for a2 in i2.elements()) for a1 in i1.elements())
    down = all(any(b1 <= b2 for b1 in i1.elements()) for b2 in i2.elements())
    return up and down


def _srank_set(x: RInterval) -> set[int]:
    return set(range(x.lo, x.hi + 1))


def _set_to_rinterval(chain: ReflChain, values: set[int]) -> RInterval:
    lo, hi = min(values), max(values)
    if len(values) != hi - lo + 1:
        raise DomainError(f"enumerated value set {sorted(values)} is not an interval")
    return RInterval(chain, lo, hi)


def oracle_svee_intervals(x: RInterval, y: RInterval) -> RInterval:
    """Pseudo-addition of signed intervals from elements.

    When every element of both operands lies on one side of the reference
    point, the result is the image of the element pseudo-addition over all
    element pairs.  Otherwise the operand whose absolute values form the
    strictly larger interval (decided by `leq_via_lemma`) wins, and equal
    or incomparable absolute values cancel to the reference point.
    """
    chain = x.chain
    xs, ys = _srank_set(x), _srank_set(y)
    both = xs | ys
    if all(a >= 0 for a in both) or all(a <= 0 for a in both):
        return _set_to_rinterval(
            chain,
            {svee(chain.elem(a), chain.elem(b)).srank for a in xs for b in ys},
        )
    half = chain.positive_half()
    ax = _set_to_interval(half, {abs(a) for a in xs})
    ay = _set_to_interval(half, {abs(b) for b in ys})
    le, ge = leq_via_lemma(ax, ay), leq_via_lemma(ay, ax)
    if ge and not le:
        return x
    if le and not ge:
        return y
    return _set_to_rinterval(chain, {0})


def oracle_inverse(c: Corr) -> Corr:
    """Transpose of the graph, scanning the whole table once per
    destination rank; rejects the lowest rank whose preimage has a gap."""
    table: dict[int, Interval] = {}
    for y in range(c.dst.size):
        xs = [x for x, iv in c.table.items() if iv.lo <= y <= iv.hi]
        if not xs:
            continue
        lo, hi = min(xs), max(xs)
        if len(xs) != hi - lo + 1:
            raise DomainError(
                f"transpose at rank {y} is not an interval; input is not monotone"
            )
        table[y] = Interval(c.src, lo, hi)
    return Corr(c.dst, c.src, table)


def _literal_product_sets(terms: list[set[int]]) -> set[int]:
    """Fold a join of element sets, starting from the bottom singleton."""
    acc = {0}
    for term in terms:
        acc = _join_sets(acc, term)
    return acc


def oracle_saturation(psi: Corr, x: int) -> Interval:
    """Value of the saturation at x, recomputed as the restricted product
    of the unit vector at x with the table."""
    top = psi.dst.size - 1
    terms: list[set[int]] = []
    for u in psi.dom():
        eps = top if u >= x else 0
        terms.append({min(eps, v) for v in psi.table[u].elements()})
    return _set_to_interval(psi.dst, _literal_product_sets(terms))


def _quantile_sets(m: Measure, f: LatticeFn, variant: str) -> dict[int, set[int]]:
    """The quantile correspondence of a plain-scale f as element sets, from
    level sets, a literal graph transpose and literal saturation."""
    g = []
    for x in range(f.scale.size):
        mask = 0
        for i, v in enumerate(f.values):
            if v >= x:
                mask |= 1 << i
        g.append(m.values[mask])

    ginv: dict[int, set[int]] = {}
    for x, y in enumerate(g):
        ginv.setdefault(y, set()).add(x)

    q: dict[int, set[int]] = {}
    for p in range(m.scale.size):
        if p in ginv:
            q[p] = set(ginv[p])
            continue
        terms = [set(xs) if u >= p else {0} for u, xs in ginv.items()]
        plain = _literal_product_sets(terms)
        q[p] = plain if variant == "plain" else {max(plain)}
    return q


def oracle_fan_sugeno(m: Measure, f: LatticeFn, ell: CommFn, variant: str) -> Interval:
    """Aggregate recomputed from raw definitions: level sets, a literal
    graph transpose, literal saturation, and an enumerated product."""
    f = f.as_plain()
    q = _quantile_sets(m, f, variant)
    terms = [{min(ell.values[p], v) for v in q[p]} for p in range(m.scale.size)]
    return _set_to_interval(f.scale, _literal_product_sets(terms))


def oracle_fan_sugeno_dual(m: Measure, f: LatticeFn, ell: CommFn, variant: str) -> Interval:
    """Dual aggregate from its definition: the meet over the measure scale
    of the pointwise joins of ell with the quantile sets, each join and
    the meet enumerated element by element from the top singleton."""
    f = f.as_plain()
    q = _quantile_sets(m, f, variant)
    acc = {f.scale.size - 1}
    for p in range(m.scale.size):
        joins = {max(ell.values[p], v) for v in q[p]}
        acc = {min(a, b) for a in acc for b in joins}
    return _set_to_interval(f.scale, acc)


def oracle_sugeno_integral(m: Measure, f: LatticeFn) -> ChainElem:
    """Sugeno integral from its definition: the join over levels x of
    x meet mu({f >= x}), with each level set built element by element."""
    f = f.as_plain()
    if f.scale != m.scale:
        raise ChainMismatchError("the Sugeno integral oracle needs equal scales")
    best = 0
    for x in range(m.scale.size):
        mask = 0
        for i, v in enumerate(f.values):
            if v >= x:
                mask |= 1 << i
        best = max(best, min(x, m.values[mask]))
    return m.scale.elem(best)


def _elements(ground: GroundSet, mask: int) -> set[str]:
    return set(ground.members(mask))


def oracle_extension(ground: GroundSet, given, kind: str) -> dict[int, int]:
    """A table over the powerset from `(mask, value)` pairs on some subsets,
    set by set: for kind "lower" the largest value given on a subset of
    the set, for "upper" the smallest given on a superset.  Covers the
    inner and outer extensions and the lower and upper chain measures."""
    pairs = [(_elements(ground, b), v) for b, v in given]
    table: dict[int, int] = {}
    for a in ground.subsets():
        elems = _elements(ground, a)
        if kind == "lower":
            table[a] = max(v for b, v in pairs if b <= elems)
        else:
            table[a] = min(v for b, v in pairs if b >= elems)
    return table


def oracle_monotone(ground: GroundSet, values: dict[int, int]) -> bool:
    """Whether the value at each listed set is at most the value at each
    listed superset, over every pair of listed sets."""
    sets = [(_elements(ground, a), v) for a, v in values.items()]
    return all(va <= vb for a, va in sets for b, vb in sets if a <= b)


def oracle_unanimity(ground: GroundSet, coalition: int, scale: Chain, co: bool) -> dict[int, int]:
    """Top on the sets that hold every member of the coalition (`co`: some
    member), bottom elsewhere."""
    members = _elements(ground, coalition)
    top = scale.size - 1
    table: dict[int, int] = {}
    for a in ground.subsets():
        elems = _elements(ground, a)
        table[a] = top if (members & elems if co else members <= elems) else 0
    return table


def oracle_sign_measure(m: Measure) -> dict[int, int]:
    """Top on the members where the measure is above bottom, bottom elsewhere."""
    return {a: m.scale.size - 1 if v > 0 else 0 for a, v in m.values.items()}


def oracle_minitive(m: Measure) -> bool:
    """Meet-preservation under intersections for every nonempty subfamily."""
    if not m.is_total():
        raise DomainError("minitivity oracle needs a measure on the full powerset")
    ground = m.ground
    if ground.size > 4:
        raise DomainError("minitivity oracle restricted to at most 4 ground elements")
    masks = list(ground.subsets())
    k = len(masks)
    for fam in range(1, 1 << k):
        inter = ground.full_mask
        val = m.scale.size - 1
        for i in range(k):
            if fam >> i & 1:
                inter &= masks[i]
                val = min(val, m.values[masks[i]])
        if m.values[inter] != val:
            return False
    return True


def oracle_lower_chain(m: Measure) -> bool:
    """Whether some inclusion chain reproduces the measure from below.

    Searches every chain of subsets containing the endpoints and rebuilds
    the measure literally as the join over chain members contained in
    each set.
    """
    if not m.is_total():
        raise DomainError("chain oracle needs a measure on the full powerset")
    ground = m.ground
    if ground.size > 3:
        raise DomainError("chain search restricted to at most 3 ground elements")
    interior = [a for a in ground.subsets() if a not in (0, ground.full_mask)]
    k = len(interior)
    for pick in range(1 << k):
        chain = [0, ground.full_mask] + [interior[i] for i in range(k) if pick >> i & 1]
        chain.sort(key=lambda mask: (mask.bit_count(), mask))
        if any(a & b != a for a, b in zip(chain, chain[1:])):
            continue
        ok = True
        for a in ground.subsets():
            rebuilt = max(m.values[c] for c in chain if c & a == c)
            if rebuilt != m.values[a]:
                ok = False
                break
        if ok:
            return True
    return False
