"""Chain-valued monotone measures on finite ground sets.

Subsets of the ground set are encoded as bitmasks over the declared
element order.  Measures live on a subset family containing the empty set
and the whole set, are monotone, and map the empty set to the bottom and
the whole set to the top of their scale.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from .chains import Chain, ChainElem, bad_ranks
from .errors import DomainError, _Frozen

MAX_GROUND_SIZE = 16


class GroundSet(_Frozen):
    """An ordered finite universe whose subsets are bitmasks."""

    def __init__(self, elements: tuple[str, ...]):
        elements = tuple(elements)
        if not elements:
            raise DomainError("ground set must be nonempty")
        if len(elements) > MAX_GROUND_SIZE:
            raise DomainError(f"ground set larger than {MAX_GROUND_SIZE} elements")
        if not set(map(type, elements)) <= {str}:
            raise DomainError("ground set elements must be strings")
        if len(set(elements)) != len(elements):
            raise DomainError("ground set elements must be distinct")
        self._set("elements", elements)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self):
        return hash((self.elements,))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _bits(self) -> dict[str, int]:
        return {name: 1 << i for i, name in enumerate(self.elements)}

    def index(self, name: str) -> int:
        return self.mask_of((name,)).bit_length() - 1

    def mask_of(self, names) -> int:
        bits = self._bits
        mask = 0
        try:
            for name in names:
                mask |= bits[name]
        except KeyError:
            raise DomainError(f"unknown ground element {name!r}") from None
        return mask

    def members(self, mask: int) -> list[str]:
        return [e for i, e in enumerate(self.elements) if mask >> i & 1]

    def format_mask(self, mask: int) -> str:
        return "{" + ",".join(self.members(mask)) + "}"

    def subsets(self) -> range:
        return range(self.full_mask + 1)


class SetFamily(_Frozen):
    """A family of subsets containing the empty set and the whole set.

    `members` is a read-only set of masks with O(1) membership: the
    `range` of every mask when the family is the whole powerset, however
    its members were given, and a frozenset otherwise, so that equal
    families compare and hash equal.
    """

    def __init__(self, ground: GroundSet, members: range | frozenset[int]):
        full = ground.full_mask
        powerset = range(full + 1)
        if members != powerset:  # the powerset's own range needs no check
            members = frozenset(members)
            for bad in bad_ranks(members, 0, full):
                raise DomainError(f"subset mask {bad} outside the ground set")
        if 0 not in members or full not in members:
            raise DomainError("set family must contain the empty set and the whole set")
        self._set("ground", ground)
        # masks in range, as many as there are subsets: every subset
        self._set("members", powerset if len(members) > full else members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground, self.members) == (other.ground, other.members)

    def __hash__(self):
        return hash((self.ground, self.members))

    @classmethod
    def full(cls, ground: GroundSet) -> "SetFamily":
        """The whole powerset."""
        return cls(ground, ground.subsets())

    def is_full(self) -> bool:
        return type(self.members) is range


class Measure(_Frozen):
    """A monotone set function into a chain, with fixed endpoints.

    Frozen.  `Measure(family, scale, values)` keeps its own copy of the
    table in the family's form: over the whole powerset a tuple indexed
    by mask, over a partial family a dict.  It verifies monotonicity:
    over the powerset one bit layer at a time; over a partial family of k
    members by comparing each member with the largest value below it (a
    subset-max sweep of the powerset) when k**2 exceeds n * 2**n, else by
    checking all comparable member pairs.  The layer checks and the sweep
    run on the table packed into one integer, 16 bits per subset: each
    layer is a few integer operations on the whole table, which compare
    ranks through guard bits and never compute with them.  A failure is
    reported at the first violating pair of the literal scan, whichever
    check found it.

    The constructions below (extensions, chain and unanimity measures,
    the sign collapse) are monotone by construction and carry a closed
    form instead: calling the measure evaluates it, and the table is
    built on first read.  `values` reads the table as a mapping from mask
    to rank, built on first read over the powerset.  Equal family, scale
    and table make equal measures, however they were built.
    """

    def __init__(self, family: SetFamily, scale: Chain, values: Mapping[int, int]):
        members, ground = family.members, family.ground
        full = family.is_full()
        table = values if full else dict(values)
        # a key 1.0 or True would pass the key comparison as the mask 1
        if len(table) != len(members) or not set(map(type, table)) <= {int} or (
            min(table) < 0 or max(table) > ground.full_mask if full else table.keys() != members
        ):
            raise DomainError("measure table must cover exactly the set family")
        if full:  # 2**n distinct masks in range: each mask once, read in order
            table = tuple(map(table.__getitem__, members))
        for bad in bad_ranks(table if full else table.values(), *scale.rank_range):
            raise DomainError(f"measure value rank {bad} outside chain {scale.id!r}")
        n = ground.size
        if full:
            clean = _is_monotone(table, n)
        elif len(members) ** 2 > n << n:
            swept = _upper_sweep(_spread(table, ground, 0), n)
            clean = all(swept[m] == v for m, v in table.items())
        else:
            clean = False
        if not clean:
            pair = _first_violation(family, table)
            if pair is not None:
                a, b = map(ground.format_mask, pair)
                raise DomainError(f"measure not monotone: {a} > {b}")
        if table[0] != 0:
            raise DomainError("measure of the empty set must be the bottom")
        if table[ground.full_mask] != scale.size - 1:
            raise DomainError("measure of the whole set must be the top")
        vars(self).update(family=family, scale=scale, _table=table, _at=table.__getitem__)

    @classmethod
    def _closed(cls, family: SetFamily, scale: Chain, at, build) -> "Measure":
        """A measure monotone by construction: `at(mask)` evaluates it at a
        member of the family, `build()` returns its whole table in the
        family's form, a tuple by mask over the powerset, else a dict."""
        m = cls.__new__(cls)
        vars(m).update(family=family, scale=scale, _at=at, _build=build)
        return m

    @cached_property
    def _table(self) -> tuple[int, ...] | dict[int, int]:
        return self._build()

    @cached_property
    def values(self) -> Mapping[int, int]:
        """The table over the family, read-only."""
        table = self._table
        return MappingProxyType(dict(enumerate(table)) if self.is_total() else table)

    def __eq__(self, other):
        if not isinstance(other, Measure):
            return NotImplemented
        return (self.family, self.scale) == (other.family, other.scale) and (
            self._table == other._table
        )

    def __hash__(self):
        return hash((self.family, self.scale))

    def __repr__(self):
        return f"Measure({self.family!r}, {self.scale!r}, {dict(self.values)!r})"

    def __reduce__(self):  # a read-only mapping does not pickle; its table does
        return Measure, (self.family, self.scale, dict(self.values))

    @property
    def ground(self) -> GroundSet:
        return self.family.ground

    def is_total(self) -> bool:
        return self.family.is_full()

    def __call__(self, mask: int) -> int:
        family = self.family
        if type(mask) is not int or not 0 <= mask <= family.ground.full_mask:
            raise DomainError(f"subset mask {mask} outside the ground set")
        if mask not in family.members:
            raise DomainError(
                f"subset {self.ground.format_mask(mask)} not in the measure's family"
            )
        return self._at(mask)


def _pack(table, n: int) -> int:
    """A table over the subsets of n elements, indexed by mask, as one
    integer: entry k in the 16-bit field at bit 16k.  Entries are ranks
    below 2**15, so the top bit of each field is free for a guard bit."""
    return int.from_bytes(struct.pack(f"<{1 << n}H", *table), "little")


def _unpack(word: int, n: int) -> tuple[int, ...]:
    return struct.unpack(f"<{1 << n}H", word.to_bytes(2 << n, "little"))


def _guards(size: int) -> int:
    """The guard bit of each of `size` fields.  For packed tables x and y,
    each field of `x | guards` is at least 2**15 and each field of y is
    below it, so `(x | guards) - y` borrows across no field, and keeps a
    field's guard bit exactly where x's entry is at least y's."""
    return int.from_bytes(b"\0\x80" * size, "little")


def _layers(n: int):
    """One pair (shift, lacking) per bit of the subset lattice over n
    elements, top bit first: `word >> shift` brings each set's partner
    with the bit onto the set, and `lacking` holds the guard bits of the
    sets without it."""
    lacking = _guards(1 << (n - 1))  # the lower half of the table
    for i in reversed(range(n)):
        shift = 16 << i
        yield shift, lacking
        if i:  # each run of sets without bit i splits into runs without bit i - 1
            lacking ^= lacking << (shift >> 1)


def _is_monotone(table, n: int) -> bool:
    """Whether no entry of a table over all subsets exceeds the entry of a
    superset one element larger."""
    word, guards = _pack(table, n), _guards(1 << n)
    return all(
        (((word >> shift) | guards) - word) & lacking == lacking
        for shift, lacking in _layers(n)
    )


def _upper_sweep(table, n: int) -> tuple[int, ...]:
    """The table with each entry replaced by the max over the entries of
    its subsets."""
    word, guards = _pack(table, n), _guards(1 << n)
    for shift, lacking in _layers(n):
        up = word >> shift
        at_least = ((word | guards) - up) & lacking
        # where a set's entry is at least its partner's, copy it up (each
        # kept guard bit, less its value shifted to the field's bit 0, masks
        # the field's low 15 bits)
        word ^= ((word ^ up) & (at_least - (at_least >> 15))) << shift
    return _unpack(word, n)


def _lower_sweep(table, n: int) -> tuple[int, ...]:
    """The table with each entry replaced by the min over the entries of
    its supersets."""
    word, guards = _pack(table, n), _guards(1 << n)
    for shift, lacking in _layers(n):
        up = word >> shift
        at_least = ((word | guards) - up) & lacking
        # where a set's entry is at least its partner's, take the partner's
        word ^= (word ^ up) & (at_least - (at_least >> 15))
    return _unpack(word, n)


def _spread(values: dict[int, int], ground: GroundSet, fill: int) -> list[int]:
    """A partial table as a list indexed by subset mask, `fill` elsewhere."""
    table = [fill] * (ground.full_mask + 1)
    for mask, v in values.items():
        table[mask] = v
    return table


def _first_violation(family: SetFamily, table) -> tuple[int, int] | None:
    """The first pair a <= b with table[a] > table[b] in scan order, or None.

    Over the full powerset the scan takes single-element steps from each
    set in mask order; over a partial family it runs through member pairs
    ordered by size, then mask.
    """
    ground = family.ground
    if family.is_full():
        for a in ground.subsets():
            for i in range(ground.size):
                b = a | 1 << i
                if b != a and table[a] > table[b]:
                    return a, b
        return None
    ms = sorted(family.members, key=lambda m: (m.bit_count(), m))
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if a & b == a and table[a] > table[b]:
                return a, b
    return None


def zeta(b: int, a: int, scale: Chain) -> ChainElem:
    """Containment indicator of the subset order: top iff a contains b."""
    return scale.elem(scale.size - 1 if a & b == b else 0)


def _extension(m: Measure, at, fill: int, sweep) -> Measure:
    """The full-powerset measure evaluated by `at`, whose table is m's
    spread over the powerset with `fill` elsewhere, then swept: the bottom
    for the join sweep and the top for the meet sweep, so it never shows."""
    ground = m.ground
    return Measure._closed(
        SetFamily.full(ground), m.scale, at,
        lambda: sweep(_spread(m.values, ground, fill), ground.size),
    )


def inner_extension(m: Measure) -> Measure:
    """Largest-from-below extension to the full powerset.

    The value at a set is the join of the measure over family members
    contained in it; the table is that join folded one element at a time
    over the subset lattice (the empty set anchors every chain of subsets).
    A measure on the whole powerset is its own extension.
    """
    if m.is_total():
        return m
    items = m.values.items()
    return _extension(m, lambda a: max(v for b, v in items if b & a == b), 0, _upper_sweep)


def outer_extension(m: Measure) -> Measure:
    """Smallest-from-above extension to the full powerset.

    The value at a set is the meet of the measure over family members
    containing it (the whole set anchors every chain of supersets).
    A measure on the whole powerset is its own extension.
    """
    if m.is_total():
        return m
    items = m.values.items()
    return _extension(
        m, lambda a: min(v for b, v in items if b & a == a), m.scale.size - 1, _lower_sweep
    )


def _two_valued(family: SetFamily, scale: Chain, high) -> Measure:
    """Top on the members where the upward-closed predicate `high` holds,
    bottom elsewhere."""
    t = scale.size - 1
    if t and not high(family.ground.full_mask):  # a coalition outside the ground set
        raise DomainError("measure of the whole set must be the top")

    def at(a: int) -> int:
        return t if high(a) else 0

    members = family.members
    return Measure._closed(
        family, scale, at,
        lambda: tuple(map(at, members)) if family.is_full() else {a: at(a) for a in members},
    )


def _validate_chain_sets(ground: GroundSet, sets) -> list[int]:
    """Check that the given masks form an inclusion chain with endpoints."""
    ms = sorted(set(sets), key=lambda m: (m.bit_count(), m))
    if len(ms) != len(list(sets)):
        raise DomainError("chain contains duplicate subsets")
    if not ms or ms[0] != 0 or ms[-1] != ground.full_mask:
        raise DomainError("chain must contain the empty set and the whole set")
    for a, b in zip(ms, ms[1:]):
        if a & b != a:
            raise DomainError(
                f"sets {ground.format_mask(a)} and {ground.format_mask(b)} "
                "are not nested; not a chain"
            )
    return ms


def chain_measure(ground: GroundSet, scale: Chain, sets, values, kind: str) -> Measure:
    """Extend a monotone assignment on an inclusion chain to the powerset.

    kind "lower" takes the inner extension, "upper" the outer extension.
    """
    if kind not in ("lower", "upper"):
        raise DomainError(f"unknown chain measure kind {kind!r}")
    sets = list(sets)
    values = list(values)
    if len(sets) != len(values):
        raise DomainError("chain sets and values differ in length")
    table = dict(zip(sets, values))
    ordered = _validate_chain_sets(ground, sets)
    ranks = [table[s] for s in ordered]
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        raise DomainError("chain values must be monotone along the chain")
    base = Measure(SetFamily(ground, frozenset(ordered)), scale, table)
    return inner_extension(base) if kind == "lower" else outer_extension(base)


def unanimity(ground: GroundSet, coalition: int, scale: Chain) -> Measure:
    """Top exactly on supersets of the coalition."""
    if coalition == 0:
        raise DomainError("unanimity coalition must be nonempty")
    return _two_valued(SetFamily.full(ground), scale, lambda a: a & coalition == coalition)


def co_unanimity(ground: GroundSet, coalition: int, scale: Chain) -> Measure:
    """Top exactly on sets meeting the coalition."""
    if coalition == 0:
        raise DomainError("co-unanimity coalition must be nonempty")
    return _two_valued(SetFamily.full(ground), scale, lambda a: a & coalition != 0)


def _require_total(m: Measure, op: str) -> None:
    if not m.is_total():
        raise DomainError(f"{op} is defined for measures on the full powerset only")


def _swept(m: Measure, table: tuple[int, ...], points, fill: int, sweep) -> bool:
    """Whether m's table, indexed by mask, is `sweep` of its values at
    `points` with `fill` elsewhere."""
    return sweep(_spread({a: table[a] for a in points}, m.ground, fill), m.ground.size) == table


def is_minitive(m: Measure) -> bool:
    """Whether the measure turns intersections into meets.

    On a full powerset the pairwise condition is equivalent to the value
    at every set being the meet of the values at the co-singletons of the
    missing elements; that form is checked here, as one packed meet sweep,
    and the literal pairwise condition lives in the oracle module.
    """
    _require_total(m, "minitivity check")
    coatoms = [m.ground.full_mask ^ 1 << i for i in range(m.ground.size)]
    return _swept(m, m._table, coatoms, m.scale.size - 1, _lower_sweep)


def is_maxitive(m: Measure) -> bool:
    """Whether the measure turns unions into joins: the dual check, one
    packed join sweep of the values at the singletons."""
    _require_total(m, "maxitivity check")
    atoms = [1 << i for i in range(m.ground.size)]
    return _swept(m, m._table, atoms, 0, _upper_sweep)


def minitive_chain(m: Measure) -> list[int]:
    """Defining chain of a minitive measure.

    For each scale rank, the intersection of all sets whose measure
    reaches it: for a minitive measure, the elements whose co-singleton
    lies below the rank.  With the endpoints these sets form an inclusion
    chain whose lower chain measure reproduces the input, which is
    verified before returning.  The table is read once, for all three.
    """
    _require_total(m, "minitivity check")
    full, table = m.ground.full_mask, m._table
    coatoms = [full ^ 1 << i for i in range(m.ground.size)]
    if not _swept(m, table, coatoms, m.scale.size - 1, _lower_sweep):
        raise DomainError("measure is not minitive")
    ranks = [table[c] for c in coatoms]
    ks = {0, full, *(sum(1 << i for i, r in enumerate(ranks) if r <= x) for x in ranks)}
    sets = sorted(ks, key=int.bit_count)  # nested sets differ in size
    if not _rebuilds(m, table, sets, "lower"):
        raise DomainError("defining chain failed to reproduce the measure")
    return sets


def verify_chain(m: Measure, sets, kind: str) -> bool:
    """Whether rebuilding from the restriction to the chain reproduces m."""
    _require_total(m, "chain verification")
    return _rebuilds(m, m._table, sets, kind)


def _rebuilds(m: Measure, table: tuple[int, ...], sets, kind: str) -> bool:
    """`verify_chain` against m's table indexed by mask."""
    ordered = _validate_chain_sets(m.ground, list(sets))
    rebuilt = chain_measure(m.ground, m.scale, ordered, [table[s] for s in ordered], kind)
    return rebuilt._table == table


def sign_measure(m: Measure) -> Measure:
    """Collapse to a two-valued measure: top wherever the value is above bottom."""
    at = m._at
    return _two_valued(m.family, m.scale, lambda a: at(a) > 0)
