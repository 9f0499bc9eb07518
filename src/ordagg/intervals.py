"""Nonempty closed intervals of a chain and the interval reflection lattice.

Intervals carry the componentwise endpoint order (the set-lattice order of
Topkis restricted to intervals), which is only partial: [2,2] and [1,3]
are incomparable.  The interval reflection lattice glues interval lattices
over the two halves of a reflection chain, with the singleton reference
point shared.
"""

from __future__ import annotations

from enum import Enum

from .chains import Chain, ReflChain
from .errors import ChainMismatchError, DomainError, _Frozen


class Rel(str, Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class Interval(_Frozen):
    """A nonempty closed interval [lo, hi] of a chain, stored by rank."""

    def __init__(self, chain: Chain, lo: int, hi: int):
        if not (type(lo) is int and type(hi) is int and 0 <= lo <= hi < chain.size):
            raise DomainError(
                f"invalid interval endpoints [{lo},{hi}] for chain "
                f"{chain.id!r} of size {chain.size}"
            )
        self._set("chain", chain)
        self._set("lo", lo)
        self._set("hi", hi)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chain, self.lo, self.hi) == (other.chain, other.lo, other.hi)

    def __hash__(self):
        return hash((self.chain, self.lo, self.hi))

    def __contains__(self, rank: int) -> bool:
        return self.lo <= rank <= self.hi

    def elements(self) -> range:
        return range(self.lo, self.hi + 1)


def format_interval(iv: Interval) -> str:
    c = iv.chain
    return f"[{c.label(iv.lo)},{c.label(iv.hi)}]"


def _same_interval_chain(i1: Interval, i2: Interval) -> None:
    if i1.chain != i2.chain:
        raise ChainMismatchError(
            f"intervals over different chains: {i1.chain.id!r} vs {i2.chain.id!r}"
        )


def topkis_cmp(i1: Interval, i2: Interval) -> Rel:
    """Classify two intervals under the componentwise endpoint order."""
    _same_interval_chain(i1, i2)
    le = i1.lo <= i2.lo and i1.hi <= i2.hi
    ge = i2.lo <= i1.lo and i2.hi <= i1.hi
    if le and ge:
        return Rel.EQUAL
    if le:
        return Rel.LESS
    if ge:
        return Rel.GREATER
    return Rel.INCOMPARABLE


def topkis_leq(i1: Interval, i2: Interval) -> bool:
    return topkis_cmp(i1, i2) in (Rel.LESS, Rel.EQUAL)


def sqcup(i1: Interval, i2: Interval) -> Interval:
    """Least upper bound: componentwise max of endpoints."""
    _same_interval_chain(i1, i2)
    return Interval(i1.chain, max(i1.lo, i2.lo), max(i1.hi, i2.hi))


def sqcap(i1: Interval, i2: Interval) -> Interval:
    """Greatest lower bound: componentwise min of endpoints."""
    _same_interval_chain(i1, i2)
    return Interval(i1.chain, min(i1.lo, i2.lo), min(i1.hi, i2.hi))


def _family(intervals, what: str) -> list[Interval]:
    """The family as a list, checked nonempty and over one chain."""
    ivs = list(intervals)
    if not ivs:
        raise DomainError(f"{what} of an empty interval family")
    for iv in ivs[1:]:
        _same_interval_chain(ivs[0], iv)
    return ivs


def sqcup_family(intervals) -> Interval:
    """Least upper bound of a nonempty family."""
    ivs = _family(intervals, "join")
    return Interval(ivs[0].chain, max(iv.lo for iv in ivs), max(iv.hi for iv in ivs))


def sqcap_family(intervals) -> Interval:
    """Greatest lower bound of a nonempty family."""
    ivs = _family(intervals, "meet")
    return Interval(ivs[0].chain, min(iv.lo for iv in ivs), min(iv.hi for iv in ivs))


class RInterval(_Frozen):
    """A nonvoid interval inside one half of a reflection chain, as a pair
    of signed ranks; the half is read off their signs.  The singleton at
    the reference point, shared by both halves, is neutral."""

    def __init__(self, chain: ReflChain, lo: int, hi: int):
        bottom, top = chain.rank_range
        if not (type(lo) is int and type(hi) is int and bottom <= lo <= hi <= top):
            raise DomainError(
                f"invalid signed endpoints [{lo},{hi}] for reflection chain {chain.id!r}"
            )
        if lo < 0 < hi:
            raise DomainError(f"signed interval [{lo},{hi}] crosses the reference point")
        self._set("chain", chain)
        self._set("lo", lo)
        self._set("hi", hi)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chain, self.lo, self.hi) == (other.chain, other.lo, other.hi)

    def __hash__(self):
        return hash((self.chain, self.lo, self.hi))


def format_rinterval(x: RInterval) -> str:
    c = x.chain
    if x.lo < 0:
        return f"-[{c.label(-x.hi)},{c.label(-x.lo)}]"
    return f"[{c.label(x.lo)},{c.label(x.hi)}]"


def rinterval_leq(x: RInterval, y: RInterval) -> bool:
    """Order of the interval reflection lattice.

    Componentwise on signed endpoints: within a half this is the half's
    own order, and everything in the negative half sits below everything
    in the positive half.
    """
    _same_rinterval_chain(x, y)
    return x.lo <= y.lo and x.hi <= y.hi


def refl_interval(x: RInterval) -> RInterval:
    """Reflection: negate and swap the endpoints."""
    return RInterval(x.chain, -x.hi, -x.lo)


def abs_interval(x: RInterval) -> RInterval:
    """Map into the positive half."""
    return refl_interval(x) if x.lo < 0 else x


def _same_rinterval_chain(x: RInterval, y: RInterval) -> None:
    if x.chain != y.chain:
        raise ChainMismatchError(
            f"intervals over different reflection chains: {x.chain.id!r} vs {y.chain.id!r}"
        )


def svee_intervals(x: RInterval, y: RInterval) -> RInterval:
    """Pseudo-addition on the interval reflection lattice.

    Operands on one side of the reference point (the neutral singleton
    lies on both) join endpoint by endpoint: max on the positive side, min
    on the negative side.  Opposite halves: the operand whose absolute
    value is strictly larger in the interval order; the result collapses
    to the reference point as soon as the absolute values are equal or
    incomparable.
    """
    _same_rinterval_chain(x, y)
    if x.lo >= 0 and y.lo >= 0:
        return RInterval(x.chain, max(x.lo, y.lo), max(x.hi, y.hi))
    if x.hi <= 0 and y.hi <= 0:
        return RInterval(x.chain, min(x.lo, y.lo), min(x.hi, y.hi))
    ax, ay = abs_interval(x), abs_interval(y)
    le, ge = rinterval_leq(ax, ay), rinterval_leq(ay, ax)
    if ge and not le:
        return x
    if le and not ge:
        return y
    return RInterval(x.chain, 0, 0)
