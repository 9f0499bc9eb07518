"""Monotone interval-valued correspondences between chains.

A correspondence is a partial map from source ranks to intervals over the
destination chain, identified with its graph.  Monotone correspondences
are exactly the interval-valued ones, and invert to monotone
correspondences again.  The inner product and the saturations defined
here drive the aggregation functionals.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress, groupby, repeat
from operator import add, attrgetter, ne, sub
from types import MappingProxyType

from .chains import Chain, ChainElem, bad_ranks
from .errors import ChainMismatchError, DomainError, _Frozen
from .intervals import Interval, Rel, sqcup, topkis_cmp

_CHAIN, _LO, _HI = attrgetter("chain"), attrgetter("lo"), attrgetter("hi")


class Corr(_Frozen):
    """A partial map from source ranks to intervals over the destination:
    the paper's interval-valued correspondence, identified with its graph
    (construction checks: `tests/test_preconditions.py`).

    The table's keys are the domain; values are intervals over dst.
    Frozen: the table is a read-only copy of the mapping given, and the
    hash is over the two chains.
    """

    def __init__(self, src: Chain, dst: Chain,
                 table: Mapping[int, Interval] = MappingProxyType({})):
        # C-level passes over the keys and the value chains; `count` tries
        # identity before `==`, so an equal chain built apart still passes
        table = dict(table)
        if not (set(map(type, table)) <= {int}
                and (not table or 0 <= min(table) and max(table) < src.size)
                and list(map(_CHAIN, table.values())).count(dst) == len(table)):
            self._raise_first_offender(src, dst, table)
        self._set("src", src)
        self._set("dst", dst)
        self._set("table", MappingProxyType(table))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.src, self.dst, self.table) == (other.src, other.dst, other.table)

    def __hash__(self):
        return hash((self.src, self.dst))

    @staticmethod
    def _raise_first_offender(src: Chain, dst: Chain, table: dict) -> None:
        """Raise for the first bad key or value in table order."""
        for x, iv in table.items():
            if type(x) is not int or not 0 <= x < src.size:
                raise DomainError(f"domain point {x} outside chain {src.id!r}")
            if iv.chain != dst:
                raise ChainMismatchError(
                    f"value at {x} lies over chain {iv.chain.id!r}, expected {dst.id!r}"
                )

    def __reduce__(self):  # a read-only mapping does not pickle; its table does
        return Corr, (self.src, self.dst, dict(self.table))

    def dom(self) -> list[int]:
        return sorted(self.table)

    def is_total(self) -> bool:
        return len(self.table) == self.src.size

    def __call__(self, x: int) -> Interval:
        if type(x) is not int or x not in self.table:
            raise DomainError(f"point {x} not in the domain of the correspondence")
        return self.table[x]


class TotalFn(_Frozen):
    """A total function between chains, stored as a rank tuple; `as_corr`
    gives its graph, the paper's total monotone correspondence when the
    ranks are monotone (`oracle_inverse` checks inverses of such graphs)."""

    def __init__(self, src: Chain, dst: Chain, values: tuple[int, ...]):
        values = tuple(values)
        if len(values) != src.size:
            raise DomainError(f"function table has {len(values)} entries, expected {src.size}")
        for v in bad_ranks(values, *dst.rank_range):
            raise DomainError(f"value rank {v} outside chain {dst.id!r}")
        self._set("src", src)
        self._set("dst", dst)
        self._set("values", values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.src, self.dst, self.values) == (other.src, other.dst, other.values)

    def __hash__(self):
        return hash((self.src, self.dst, self.values))

    def __call__(self, x: int) -> int:
        if type(x) is not int or not 0 <= x < self.src.size:
            raise DomainError(f"point {x} outside chain {self.src.id!r}")
        return self.values[x]

    def as_corr(self) -> Corr:
        return _graph(self.src, self.dst, self.values)


def _graph(src: Chain, dst: Chain, values: tuple[int, ...]) -> Corr:
    """The graph of a total function given by its ranks: one singleton
    per distinct value, shared by every point that takes it."""
    single = {v: Interval(dst, v, v) for v in set(values)}
    return Corr(src, dst, dict(enumerate(map(single.__getitem__, values))))


def _check_corr_pair(c1: Corr, c2: Corr) -> None:
    if c1.src != c2.src:
        raise ChainMismatchError(
            f"correspondences with different sources: {c1.src.id!r} vs {c2.src.id!r}"
        )
    if c1.dst != c2.dst:
        raise ChainMismatchError(
            f"correspondences with different destinations: {c1.dst.id!r} vs {c2.dst.id!r}"
        )


def is_increasing(c: Corr) -> bool:
    """Pointwise interval-order check over the domain: the paper's
    increasing correspondence, checked against the literal graph-rectangle
    criterion (`rectangle_increasing` in `tests/helpers.py`).

    For interval-valued tables this coincides with the graph rectangle
    condition restricted to domain points, so checking consecutive domain
    points suffices.
    """
    d = c.dom()
    return all(
        topkis_cmp(c.table[x1], c.table[x2]) in (Rel.LESS, Rel.EQUAL)
        for x1, x2 in zip(d, d[1:])
    )


def is_decreasing(c: Corr) -> bool:
    d = c.dom()
    return all(
        topkis_cmp(c.table[x1], c.table[x2]) in (Rel.GREATER, Rel.EQUAL)
        for x1, x2 in zip(d, d[1:])
    )


def is_sharply_monotone(c: Corr) -> bool:
    """No two distinct domain points share more than one value: the
    paper's sharp monotonicity (examples and preservation under
    `sharp_saturate` in `tests/test_correspondences.py`).

    A two-element overlap between distinct columns spans a non-degenerate
    rectangle of the graph.
    """
    d = c.dom()
    for i, x1 in enumerate(d):
        iv1 = c.table[x1]
        for x2 in d[i + 1 :]:
            iv2 = c.table[x2]
            overlap = min(iv1.hi, iv2.hi) - max(iv1.lo, iv2.lo) + 1
            if overlap > 1:
                return False
    return True


def inverse(c: Corr) -> Corr:
    """Transpose of the graph, indexed by destination ranks: the paper's
    inverse correspondence, checked against `oracle.oracle_inverse`.

    For monotone input the transpose is interval-valued; a transpose with
    gaps (possible for non-monotone tables) is rejected at its lowest gap.
    Each run of consecutive domain points with one value is filed once.
    `groupby` matches two neighbours that are one object in C and calls
    `Interval.__eq__` only where the object changes, so a graph from
    `_graph` or `_saturation`, which share one object per value, costs a
    few C-level passes plus one Python step per run; a table of separately
    built values still costs an `__eq__` call per point.  (Grouping by
    `id` would skip those calls, but its call per point added about
    100 µs over 3,001 points of a one-object-per-value graph.)
    """
    xs, runs, i = list(c.table), [], 0
    for iv, same in groupby(c.table.values()):
        j = i + len(list(same))
        if xs[i:j] == list(range(xs[i], xs[i] + j - i)):
            runs.append((xs[i], xs[j - 1] + 1, iv))
        else:  # a gap or a point out of order: each point is a run
            runs += [(x, x + 1, iv) for x in xs[i:j]]
        i = j
    # per destination rank: the lowest and one past the highest preimage
    # point, and their number; right to left, so the last `lo` is the lowest
    lo, end, count = [0] * c.dst.size, [0] * c.dst.size, [0] * c.dst.size
    for x_lo, x_end, iv in sorted(runs, reverse=True):
        a, b = iv.lo, iv.hi + 1
        lo[a:b] = [x_lo] * (b - a)
        end[a:b] = map(max, end[a:b], repeat(x_end))
        count[a:b] = map(add, count[a:b], repeat(x_end - x_lo))
    ys = list(compress(range(c.dst.size), count))
    los, ends = list(map(lo.__getitem__, ys)), list(map(end.__getitem__, ys))
    for y in compress(ys, map(ne, map(sub, ends, los), map(count.__getitem__, ys))):
        raise DomainError(
            f"transpose at rank {y} is not an interval; input is not monotone"
        )
    spans = list(zip(los, ends))
    single = {s: Interval(c.src, s[0], s[1] - 1) for s in set(spans)}
    return Corr(c.dst, c.src, dict(zip(ys, map(single.__getitem__, spans))))


def _require_total(c: Corr, role: str) -> None:
    if not c.is_total():
        raise DomainError(
            f"{role} must be total; restrict or saturate it first "
            f"(domain has {len(c.table)} of {c.src.size} points)"
        )


def _endpoints(c: Corr) -> tuple[list[int], list[int]]:
    """Lower and upper endpoints of a total correspondence, point by point."""
    ivs = list(map(c.table.__getitem__, range(c.src.size)))
    return list(map(_LO, ivs)), list(map(_HI, ivs))


def inner_product(phi: Corr, psi: Corr) -> Interval:
    """Join over the source of pointwise meets: the paper's inner product,
    checked through `fan_sugeno` against `oracle.oracle_fan_sugeno`."""
    _check_corr_pair(phi, psi)
    _require_total(phi, "inner product factor")
    _require_total(psi, "inner product factor")
    (p_lo, p_hi), (q_lo, q_hi) = _endpoints(phi), _endpoints(psi)
    return Interval(phi.dst, max(map(min, p_lo, q_lo)), max(map(min, p_hi, q_hi)))


def dual_product(phi: Corr, psi: Corr) -> Interval:
    """Meet over the source of pointwise joins: the paper's dual product,
    checked through `fan_sugeno_dual` against `oracle.oracle_fan_sugeno_dual`."""
    _check_corr_pair(phi, psi)
    _require_total(phi, "dual product factor")
    _require_total(psi, "dual product factor")
    (p_lo, p_hi), (q_lo, q_hi) = _endpoints(phi), _endpoints(psi)
    return Interval(phi.dst, min(map(max, p_lo, q_lo)), min(map(max, p_hi, q_hi)))


def unit_corr(a: ChainElem, dst: Chain | None = None) -> Corr:
    """Indicator of the upper interval [a, top]: the paper's unit vector at
    a (`TestUnitCorr` in `tests/test_correspondences.py`).

    Values are the top singleton at and above a, the bottom singleton
    below.  Against any total decreasing correspondence the inner product
    picks out the value at a.
    """
    dst = dst if dst is not None else a.chain
    t = dst.size - 1
    values = [0] * a.rank + [t] * (a.chain.size - a.rank)
    return _graph(a.chain, dst, tuple(values))


def _saturation(psi: Corr, sharp: bool) -> Corr:
    """The saturation of psi, off-domain values collapsed to their
    suprema when sharp.  The value only changes at domain points, so each
    run of points between two of them shares one interval, and the sharp
    runs share one singleton per supremum."""
    if not is_decreasing(psi):
        raise DomainError("saturation requires a decreasing correspondence")
    table = psi.table
    acc = off = Interval(psi.dst, 0, 0)
    out = [acc] * psi.src.size
    d = sorted(table)
    for below, u in reversed(list(zip([-1] + d, d))):
        acc = sqcup(acc, table[u])
        if not sharp:
            off = acc
        elif off.hi != acc.hi:
            off = Interval(psi.dst, acc.hi, acc.hi)
        out[below + 1 : u] = [off] * (u - below - 1)
        out[u] = acc
    return Corr(psi.src, psi.dst, dict(enumerate(out)))


def saturate(psi: Corr) -> Corr:
    """Totalize a decreasing correspondence by joins over the upper domain:
    the paper's saturation, checked against `oracle.oracle_saturation`.

    The value at x is the join of all table values at domain points >= x
    (missing points contribute the bottom singleton, which is neutral for
    the join); with no domain point above x the value is the bottom
    singleton.  The result is total, decreasing, and extends psi.
    """
    return _saturation(psi, sharp=False)


def _decreasing_across_gaps(psi: Corr) -> bool:
    """Graph-rectangle decreasingness over missing columns.

    Values on either side of a domain gap may not overlap vertically;
    otherwise the graph would owe a rectangle to the empty columns.
    Inverses of total decreasing functions always qualify.
    """
    d = psi.dom()
    for u, v in zip(d, d[1:]):
        if v > u + 1 and psi.table[v].hi >= psi.table[u].lo:
            return False
    return True


def sharp_saturate(psi: Corr) -> Corr:
    """Saturation with off-domain values collapsed to their suprema: the
    paper's sharp saturation, checked through the sharp `fan_sugeno`
    against `oracle.oracle_fan_sugeno`.

    Agrees with psi on its domain; elsewhere the value is the singleton at
    the top of the plain saturation.  Preserves (sharp) decreasingness,
    which needs decreasingness across domain gaps as a precondition.
    """
    if not _decreasing_across_gaps(psi):
        raise DomainError(
            "sharp saturation requires a correspondence decreasing across "
            "its domain gaps"
        )
    return _saturation(psi, sharp=True)
