"""Finite linear lattices (chains) and reflection lattices.

A chain of size n carries ranks 0..n-1; rank 0 is the bottom and rank n-1
the top.  A reflection chain glues two order-dual copies of a chain at a
shared reference point, giving signed ranks -n..n with 0 fixed under
reflection.  Finite chains are complete and completely distributive, so
every lattice operation reduces to integer comparisons on ranks.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ChainMismatchError, DomainError, _Frozen

# Spec loading resolves labels through a per-chain index (on a reflection
# chain, the index of its nonnegative half), so it does not grow with
# chain size.
# Each aggregation stage is one O(L) pass over an L-point chain; reading
# the n+1 level sets of a function adds O(n**2) for n ground elements.
# The measure passes pack ranks into 16-bit fields whose top bit is a
# guard bit, so every rank must stay below 2**15.
MAX_CHAIN_SIZE = 10_000


def bad_ranks(values, lo: int, hi: int):
    """The values that are not `int` ranks in [lo, hi], in order (`True`
    and `1.0` are not ranks)."""
    return (v for v in values if type(v) is not int or not lo <= v <= hi)


def _check_labels(what: str, labels: tuple[str, ...]) -> None:
    """Labels are distinct strings, and none is spelled like a `rank:<k>`
    value token: a spec value must never mean both a label and a rank."""
    if not set(map(type, labels)) <= {str}:
        raise DomainError(f"{what}: labels must be strings")
    if len(set(labels)) != len(labels):
        raise DomainError(f"{what}: labels must be pairwise distinct")
    for text in labels:
        if text.startswith("rank:"):
            raise DomainError(f"{what}: label {text!r} starts with 'rank:'")


class Chain(_Frozen):
    """A finite totally ordered scale, identified by name and size."""

    def __init__(self, id: str, size: int, labels: tuple[str, ...] | None = None):
        if type(size) is not int or size < 1:
            raise DomainError(f"chain {id!r}: size must be a positive integer")
        if size > MAX_CHAIN_SIZE:
            raise DomainError(f"chain {id!r}: size {size} exceeds the maximum {MAX_CHAIN_SIZE}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size:
                raise DomainError(f"chain {id!r}: expected {size} labels, got {len(labels)}")
            _check_labels(f"chain {id!r}", labels)
        self._set("id", id)
        self._set("size", size)
        self._set("labels", labels)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.size, self.labels) == (other.id, other.size, other.labels)

    def __hash__(self):
        return hash((self.id, self.size, self.labels))

    @property
    def rank_range(self) -> tuple[int, int]:
        """The lowest and the highest rank."""
        return 0, self.size - 1

    def label(self, rank: int) -> str:
        if type(rank) is not int or not 0 <= rank < self.size:
            raise DomainError(
                f"no rank {rank!r} on chain {self.id!r} of size {self.size}"
            )
        if self.labels is not None:
            return self.labels[rank]
        return str(rank)

    @cached_property
    def _rank_index(self) -> dict[str, int]:
        """Each display label's rank; an unlabelled chain displays ranks in
        canonical decimal."""
        labels = map(str, range(self.size)) if self.labels is None else self.labels
        return dict(zip(labels, range(self.size)))

    def rank_of_label(self, text: str) -> int | None:
        """Resolve a display label back to its rank, or None."""
        return self._rank_index.get(text)

    def elem(self, rank: int) -> "ChainElem":
        return ChainElem(self, rank)


class ChainElem(_Frozen):
    """A point of a chain, identified by rank."""

    def __init__(self, chain: Chain, rank: int):
        if type(rank) is not int:
            raise DomainError(f"rank {rank!r} for chain {chain.id!r} is not an integer")
        lo, hi = chain.rank_range
        if not lo <= rank <= hi:
            raise DomainError(
                f"rank {rank} out of range for chain {chain.id!r} of size {chain.size}"
            )
        self._set("chain", chain)
        self._set("rank", rank)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chain, self.rank) == (other.chain, other.rank)

    def __hash__(self):
        return hash((self.chain, self.rank))

    def __str__(self):
        return self.chain.label(self.rank)


def _same_chain(x: ChainElem, y: ChainElem) -> None:
    if x.chain != y.chain:
        raise ChainMismatchError(
            f"elements of different chains: {x.chain.id!r} vs {y.chain.id!r}"
        )


def join(x: ChainElem, y: ChainElem) -> ChainElem:
    """Least upper bound: the max-rank element."""
    _same_chain(x, y)
    return x if x.rank >= y.rank else y


def meet(x: ChainElem, y: ChainElem) -> ChainElem:
    """Greatest lower bound: the min-rank element."""
    _same_chain(x, y)
    return x if x.rank <= y.rank else y


def top(c: Chain) -> ChainElem:
    return c.elem(c.size - 1)


def bottom(c: Chain) -> ChainElem:
    return c.elem(0)


def leq(x: ChainElem, y: ChainElem) -> bool:
    _same_chain(x, y)
    return x.rank <= y.rank


class ReflChain(_Frozen):
    """Two order-dual copies of a chain glued at a shared reference point.

    The carrier has 2*half_size + 1 points with signed ranks in
    [-half_size, half_size]; signed rank 0 is the reference point, fixed
    under reflection.  Labels, when given, name the nonnegative points;
    negative points display with a leading minus.
    """

    def __init__(self, id: str, half_size: int, labels: tuple[str, ...] | None = None):
        if type(half_size) is not int or half_size < 1:
            raise DomainError(f"reflection chain {id!r}: half_size must be >= 1")
        if 2 * half_size + 1 > MAX_CHAIN_SIZE:
            raise DomainError(f"reflection chain {id!r}: carrier exceeds the maximum size")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != half_size + 1:
                raise DomainError(
                    f"reflection chain {id!r}: expected {half_size + 1} "
                    f"labels for the nonnegative half, got {len(labels)}"
                )
            _check_labels(f"reflection chain {id!r}", labels)
            reflected = set(labels[1:])
            for text in labels:
                if text.startswith("-") and text[1:] in reflected:
                    raise DomainError(
                        f"reflection chain {id!r}: label {text!r} collides "
                        f"with the reflection of {text[1:]!r}"
                    )
        self._set("id", id)
        self._set("half_size", half_size)
        self._set("labels", labels)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.half_size, self.labels) == (other.id, other.half_size, other.labels)

    def __hash__(self):
        return hash((self.id, self.half_size, self.labels))

    @property
    def size(self) -> int:
        return 2 * self.half_size + 1

    @property
    def rank_range(self) -> tuple[int, int]:
        """The lowest and the highest signed rank."""
        return -self.half_size, self.half_size

    def label(self, srank: int) -> str:
        if type(srank) is not int or not -self.half_size <= srank <= self.half_size:
            raise DomainError(
                f"no signed rank {srank!r} on reflection chain {self.id!r} "
                f"of half size {self.half_size}"
            )
        base = self.labels[abs(srank)] if self.labels is not None else str(abs(srank))
        return base if srank >= 0 else "-" + base

    def srank_of_label(self, text: str) -> int | None:
        # no label is "-" plus another nonzero label (`__init__`), so a
        # text the half displays is never a reflection
        index = self._half._rank_index
        rank = index.get(text)
        if rank is None and text.startswith("-"):
            rank = index.get(text[1:])
            return -rank if rank else None
        return rank

    def elem(self, srank: int) -> "ReflElem":
        return ReflElem(self, srank)

    # Built on first use and kept on the frozen value: every call returns one chain.
    @cached_property
    def _half(self) -> Chain:
        return Chain(self.id + "+", self.half_size + 1, self.labels)

    @cached_property
    def _carrier(self) -> Chain:
        n = self.half_size
        return Chain(self.id + "#", self.size, tuple(map(self.label, range(-n, n + 1))))

    def positive_half(self) -> Chain:
        """The nonnegative half as a chain in its own right."""
        return self._half

    def as_chain(self) -> Chain:
        """The whole carrier viewed as a plain chain of size 2n+1."""
        return self._carrier


class ReflElem(_Frozen):
    """A point of a reflection chain, identified by signed rank."""

    def __init__(self, chain: ReflChain, srank: int):
        if type(srank) is not int:
            raise DomainError(
                f"signed rank {srank!r} for reflection chain {chain.id!r} is not an integer"
            )
        lo, hi = chain.rank_range
        if not lo <= srank <= hi:
            raise DomainError(
                f"signed rank {srank} out of range for reflection chain "
                f"{chain.id!r} of half size {chain.half_size}"
            )
        self._set("chain", chain)
        self._set("srank", srank)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chain, self.srank) == (other.chain, other.srank)

    def __hash__(self):
        return hash((self.chain, self.srank))

    def __str__(self):
        return self.chain.label(self.srank)


def _same_refl(x: ReflElem, y: ReflElem) -> None:
    if x.chain != y.chain:
        raise ChainMismatchError(
            f"elements of different reflection chains: {x.chain.id!r} vs {y.chain.id!r}"
        )


def refl(x: ReflElem) -> ReflElem:
    """Order-reversing reflection at the reference point."""
    return x.chain.elem(-x.srank)


def absolute(x: ReflElem) -> ReflElem:
    """x itself if nonnegative, its reflection otherwise."""
    return x if x.srank >= 0 else refl(x)


def sign(x: ReflElem) -> ReflElem:
    """Top, reference point, or reflected top, by the sign of x."""
    n = x.chain.half_size
    if x.srank > 0:
        return x.chain.elem(n)
    if x.srank < 0:
        return x.chain.elem(-n)
    return x.chain.elem(0)


def svee(x: ReflElem, y: ReflElem) -> ReflElem:
    """Pseudo-addition: the absolutely larger operand.

    On the nonnegative half this is the join, on the nonpositive half the
    meet.  Operands of strictly opposite signs with equal absolute value
    cancel to the reference point.
    """
    _same_refl(x, y)
    a, b = x.srank, y.srank
    if a >= 0 and b >= 0:
        return x if a >= b else y
    if a <= 0 and b <= 0:
        return x if a <= b else y
    # strictly opposite signs
    if abs(a) > abs(b):
        return x
    if abs(a) < abs(b):
        return y
    return x.chain.elem(0)


def striangle(x: ReflElem, y: ReflElem) -> ReflElem:
    """Pseudo-multiplication: meet of absolute values with the sign rule.

    The result is negative exactly when the operands have strictly
    opposite signs; a reference-point operand yields the reference point
    either way.
    """
    _same_refl(x, y)
    a, b = x.srank, y.srank
    m = min(abs(a), abs(b))
    if (a > 0 and b < 0) or (a < 0 and b > 0):
        return x.chain.elem(-m)
    return x.chain.elem(m)


def dist_r(x: ReflElem, y: ReflElem) -> ReflElem:
    """Ordinal distance: reference point if equal, else join of absolute values."""
    _same_refl(x, y)
    if x.srank == y.srank:
        return x.chain.elem(0)
    return x.chain.elem(max(abs(x.srank), abs(y.srank)))
