"""Distribution functions, quantile correspondences, and the aggregation
functionals built from them.

The pipeline: a function's upper level sets are measured to give the
decreasing distribution function; its inverse is totalized by saturation
to give the quantile correspondence; the inner product of an increasing
commensurability function with the quantile correspondence is the
aggregated value.  Specializations recover the Sugeno integral, quantiles
and the median, and the signed symmetric/asymmetric variants.
"""

from __future__ import annotations

from operator import gt

from .chains import Chain, ChainElem, ReflChain, bad_ranks
from .correspondences import Corr, TotalFn, _graph, inner_product, dual_product, \
    inverse, saturate, sharp_saturate
from .errors import ChainMismatchError, DomainError, _Frozen
from .intervals import Interval, RInterval, refl_interval, svee_intervals
from .measures import GroundSet, Measure

SHARP = "sharp"
PLAIN = "plain"
VARIANTS = (SHARP, PLAIN)


class LatticeFn(_Frozen):
    """A total function from a ground set into a chain or reflection chain.

    Values are ranks for a plain scale and signed ranks for a reflection
    scale, indexed by element position.
    """

    def __init__(self, ground: GroundSet, scale: Chain | ReflChain, values: tuple[int, ...]):
        values = tuple(values)
        if len(values) != ground.size:
            raise DomainError("function table must cover the whole ground set")
        for v in bad_ranks(values, *scale.rank_range):
            raise DomainError(f"function value {v} outside scale {scale.id!r}")
        self._set("ground", ground)
        self._set("scale", scale)
        self._set("values", values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground, self.scale, self.values) == (other.ground, other.scale, other.values)

    def __hash__(self):
        return hash((self.ground, self.scale, self.values))

    def is_refl(self) -> bool:
        return isinstance(self.scale, ReflChain)

    def __call__(self, i: int) -> int:
        if type(i) is not int or not 0 <= i < self.ground.size:
            raise DomainError(f"element index {i} outside the ground set")
        return self.values[i]

    def as_plain(self) -> "LatticeFn":
        """View a reflection-scale function over the carrier as a plain chain."""
        if not self.is_refl():
            return self
        n = self.scale.half_size
        return LatticeFn(self.ground, self.scale.as_chain(), tuple(v + n for v in self.values))

    @classmethod
    def constant(cls, ground: GroundSet, scale, value: int) -> "LatticeFn":
        return cls(ground, scale, (value,) * ground.size)


class CommFn(_Frozen):
    """An increasing total map relating the measure scale to the function scale."""

    def __init__(self, src: Chain, dst: Chain, values: tuple[int, ...]):
        values = tuple(values)
        if len(values) != src.size:
            raise DomainError("commensurability table must cover the source chain")
        for v in bad_ranks(values, *dst.rank_range):
            raise DomainError(f"commensurability value {v} outside {dst.id!r}")
        if any(map(gt, values, values[1:])):
            raise DomainError("commensurability function must be increasing")
        self._set("src", src)
        self._set("dst", dst)
        self._set("values", values)
        self._set("_corr", None)  # the graph, built by the first `as_corr`

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.src, self.dst, self.values) == (other.src, other.dst, other.values)

    def __hash__(self):
        return hash((self.src, self.dst, self.values))

    def __reduce__(self):  # the graph is not a field: a copy builds its own
        return CommFn, (self.src, self.dst, self.values)

    def __call__(self, p: int) -> int:
        if type(p) is not int or not 0 <= p < self.src.size:
            raise DomainError(f"point {p} outside chain {self.src.id!r}")
        return self.values[p]

    def as_corr(self) -> Corr:
        """The graph, built on the first call; later calls return it again."""
        if self._corr is None:
            self._set("_corr", _graph(self.src, self.dst, self.values))
        return self._corr

    @classmethod
    def identity(cls, src: Chain, dst: Chain | None = None) -> "CommFn":
        dst = dst if dst is not None else src
        if src.size != dst.size:
            raise DomainError(
                f"identity commensurability needs equal sizes: "
                f"{src.id!r} has {src.size}, {dst.id!r} has {dst.size}"
            )
        return cls(src, dst, tuple(range(src.size)))


def level_set(f: LatticeFn, x: int) -> int:
    """Bitmask of the upper level set {f >= x}."""
    lo, hi = f.scale.rank_range
    if type(x) is not int or not lo <= x <= hi:
        raise DomainError(f"level {x} outside scale {f.scale.id!r}")
    mask = 0
    for i, v in enumerate(f.values):
        if v >= x:
            mask |= 1 << i
    return mask


def _steps(f: LatticeFn) -> list[int]:
    """The levels where {f >= x} changes, lowest first: the bottom, and one
    above each value of f below the top.  Between two steps, and from the
    last step to the top, the level set stays the same."""
    lo, hi = f.scale.rank_range
    return sorted({lo, *(v + 1 for v in f.values if v < hi)})


def level_chain(f: LatticeFn) -> list[int]:
    """The nested family of upper level sets, largest first."""
    return [level_set(f, x) for x in _steps(f)]


def is_comonotonic(fs) -> bool:
    """Whether the functions' level sets jointly form an inclusion chain."""
    fs = list(fs)
    if not fs:
        return True
    ground, scale = fs[0].ground, fs[0].scale
    for f in fs[1:]:
        if f.ground != ground or f.scale != scale:
            raise ChainMismatchError("comonotonicity needs a shared ground set and scale")
    masks = sorted({m for f in fs for m in level_chain(f)}, key=lambda m: (m.bit_count(), m))
    return all(a & b == a for a, b in zip(masks, masks[1:]))


def _require_total_measure(m: Measure) -> None:
    if not m.is_total():
        raise DomainError(
            "aggregation needs a measure on the full powerset; "
            "apply an inner or outer extension first"
        )


def distribution(m: Measure, f: LatticeFn) -> TotalFn:
    """Measure of the upper level sets: a total decreasing function."""
    f = f.as_plain()
    _require_total_measure(m)
    if m.ground != f.ground:
        raise ChainMismatchError("measure and function live on different ground sets")
    steps = _steps(f)
    values = []
    for x, end in zip(steps, steps[1:] + [f.scale.size]):
        values += [m(level_set(f, x))] * (end - x)
    return TotalFn(f.scale, m.scale, tuple(values))


def quantile(m: Measure, f: LatticeFn, variant: str = SHARP) -> Corr:
    """Saturated inverse of the distribution function, total and decreasing."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown quantile variant {variant!r}")
    g = distribution(m, f)
    ginv = inverse(g.as_corr())
    return sharp_saturate(ginv) if variant == SHARP else saturate(ginv)


def median(m: Measure, f: LatticeFn, p0: int) -> Interval:
    """Quantile at the caller's reflection fixed point of the measure scale."""
    return quantile_functional(m, f, p0)


def _check_comm(m: Measure, f: LatticeFn, ell: CommFn) -> None:
    if ell.src != m.scale:
        raise ChainMismatchError(
            f"commensurability source {ell.src.id!r} differs from measure scale "
            f"{m.scale.id!r}"
        )
    if ell.dst != f.scale:
        raise ChainMismatchError(
            f"commensurability destination {ell.dst.id!r} differs from function "
            f"scale {f.scale.id!r}"
        )


def fan_sugeno(m: Measure, f: LatticeFn, ell: CommFn, variant: str = SHARP) -> Interval:
    """Inner product of the commensurability function with the quantile
    correspondence: the interval-valued aggregate of f."""
    f = f.as_plain()
    _check_comm(m, f, ell)
    return inner_product(ell.as_corr(), quantile(m, f, variant))


def fan_sugeno_sup(m: Measure, f: LatticeFn, ell: CommFn) -> ChainElem:
    """Least upper bound of the aggregate interval (the same for both variants)."""
    iv = fan_sugeno(m, f, ell)
    return iv.chain.elem(iv.hi)


def fan_sugeno_dual(m: Measure, f: LatticeFn, ell: CommFn, variant: str = SHARP) -> Interval:
    """Dual-product counterpart of the aggregate."""
    f = f.as_plain()
    _check_comm(m, f, ell)
    return dual_product(ell.as_corr(), quantile(m, f, variant))


def sugeno_integral(m: Measure, f: LatticeFn) -> ChainElem:
    """Join over levels of level meet distribution value: the upper end of
    the aggregate for equal scales and the identity commensurability."""
    f = f.as_plain()
    _require_total_measure(m)
    if f.scale != m.scale:
        raise ChainMismatchError(
            "the direct integral needs the function and measure scales to coincide"
        )
    return fan_sugeno_sup(m, f, CommFn.identity(m.scale))


def quantile_functional(m: Measure, f: LatticeFn, p: int) -> Interval:
    """Aggregate against the unit vector at p: recovers the p-quantile,
    the value of the sharp quantile correspondence at p."""
    _require_total_measure(m)
    if type(p) is not int or not 0 <= p < m.scale.size:
        raise DomainError(f"rank {p} outside measure scale {m.scale.id!r}")
    return quantile(m, f, SHARP).table[p]


def pos_part(f: LatticeFn) -> LatticeFn:
    """Join with the reference point, over the positive half chain."""
    if not f.is_refl():
        raise DomainError("positive part needs a reflection-scale function")
    half = f.scale.positive_half()
    return LatticeFn(f.ground, half, tuple(max(v, 0) for v in f.values))


def neg_part(f: LatticeFn) -> LatticeFn:
    """Positive part of the reflection, over the positive half chain."""
    if not f.is_refl():
        raise DomainError("negative part needs a reflection-scale function")
    half = f.scale.positive_half()
    return LatticeFn(f.ground, half, tuple(max(-v, 0) for v in f.values))


def negate_fn(f: LatticeFn) -> LatticeFn:
    """Pointwise reflection of a reflection-scale function."""
    if not f.is_refl():
        raise DomainError("negation needs a reflection-scale function")
    return LatticeFn(f.ground, f.scale, tuple(-v for v in f.values))


def symmetric_fan_sugeno(
    m: Measure,
    f: LatticeFn,
    ell_pos: CommFn,
    ell_neg_abs: CommFn | None = None,
    variant: str = SHARP,
) -> RInterval:
    """Pseudo-difference of the aggregates of the positive and negative parts.

    Both parts are aggregated on the positive half chain; the negative
    aggregate is reflected and combined with the pseudo-addition of the
    interval reflection lattice.  With one commensurability function the
    result is odd under pointwise reflection of f.
    """
    if not f.is_refl():
        raise DomainError("symmetric aggregation needs a reflection-scale function")
    k = ell_neg_abs if ell_neg_abs is not None else ell_pos
    rchain = f.scale
    sp = fan_sugeno(m, pos_part(f), ell_pos, variant)
    sn = fan_sugeno(m, neg_part(f), k, variant)
    return svee_intervals(
        RInterval(rchain, sp.lo, sp.hi), refl_interval(RInterval(rchain, sn.lo, sn.hi))
    )


def _signed(rchain: ReflChain, iv: Interval) -> RInterval:
    """A product over the carrier, shifted by half_size into a signed
    interval; one that crosses the reference point is clamped to the
    positive half.  Only the positive side can cross: the negative side's
    commensurability maps into the lower half, so the upper end of its
    product is at most the reference point."""
    n = rchain.half_size
    lo, hi = iv.lo - n, iv.hi - n
    if lo < 0 < hi:
        lo = 0
    return RInterval(rchain, lo, hi)


def asymmetric_fan_sugeno(
    m: Measure,
    f: LatticeFn,
    ell_minus: CommFn,
    ell_plus: CommFn,
    variant: str = SHARP,
) -> RInterval:
    """Pseudo-sum of aggregates of the same quantile correspondence against
    half-valued commensurability functions.

    ell_minus must map into the nonpositive half and ell_plus into the
    nonnegative half of the reflection scale viewed as a plain chain.
    """
    if not f.is_refl():
        raise DomainError("asymmetric aggregation needs a reflection-scale function")
    rchain = f.scale
    n = rchain.half_size
    fp = f.as_plain()
    _check_comm(m, fp, ell_minus)
    _check_comm(m, fp, ell_plus)
    if any(v > n for v in ell_minus.values):
        raise DomainError("negative-side commensurability must map into the lower half")
    if any(v < n for v in ell_plus.values):
        raise DomainError("positive-side commensurability must map into the upper half")
    q = quantile(m, fp, variant)
    sm = inner_product(ell_minus.as_corr(), q)
    sp = inner_product(ell_plus.as_corr(), q)
    return svee_intervals(_signed(rchain, sm), _signed(rchain, sp))
