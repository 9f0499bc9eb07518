"""Exception types and the base of the frozen value types, shared across
the package."""


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


class ChainMismatchError(DomainError):
    """Two values from different scales were combined.

    Rank equality across different scales is meaningless, so cross-scale
    operations are hard errors and never coerced.
    """


class SpecError(ValueError):
    """Problem in a textual spec file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SpecParseError(SpecError):
    """The spec file text is malformed (exit class 1)."""


class SpecValidationError(SpecError):
    """The spec file parsed but a table failed validation (exit class 2)."""


class _Frozen:
    """Base of the frozen value types.

    A subclass's `__init__` checks its arguments, then stores each field,
    normalised, with `_set`, in order; nothing assigns them after that.
    A field's name has no leading underscore.  A private slot, reserved in
    `__init__` after the fields, holds what is derived from them (a
    comm's graph, built on first use); it is not printed, compared, hashed
    or pickled, so such a class has a `__reduce__`.  Each subclass compares and
    hashes the tuple of its fields (a `Corr` hashes only its two chains)
    in an `__eq__` and a `__hash__` of its own, written out: a shared one
    would read `vars(self)`, and a `__dict__` built for a value after its
    fields slows every later attribute read of it (about threefold on
    CPython 3.11).
    """

    # not `vars(self).update`: a `__dict__` per value costs memory and
    # collector work, about 3% of the interval-heavy library calls
    _set = object.__setattr__

    def __setattr__(self, name, value):
        # imported only when raising: `dataclasses` costs a CLI process ~15 ms
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in vars(self).items() if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(fields)})"
