"""Independent recomputation of every result the benchmark checks.

Shares no code with ordagg.  Values are plain ranks; a measure is a
callable from bitmask to rank; an interval is a `(lo, hi)` pair of ranks
and a signed interval a `(lo, hi)` pair of signed ranks, whose half
follows from the signs (`(0, 0)` is the neutral reference point).

Each function follows the definitions: the distribution measures upper
level sets, the quantile saturates the inverse of the distribution, and
the products take the join of meets (or the meet of joins) over the
measure scale.  The laws the test suite relies on hold here by
construction: sharp and plain quantiles share their upper ends, and with
the identity comm the upper end of the aggregate is the Sugeno integral.
"""

from __future__ import annotations

from gen import upper_sweep


def level_mask(values, x: int) -> int:
    mask = 0
    for i, v in enumerate(values):
        if v >= x:
            mask |= 1 << i
    return mask


def distribution(mu, values, size: int) -> list[int]:
    """g(x) = mu({f >= x}) for every point x of the function scale, built
    from the top down: the level set grows by the elements valued at x."""
    at = [0] * size
    for i, v in enumerate(values):
        at[v] |= 1 << i
    g = [0] * size
    mask = 0
    for x in range(size - 1, -1, -1):
        mask |= at[x]
        g[x] = mu(mask)
    return g


def quantile(g: list[int], m_size: int, sharp: bool) -> list[tuple[int, int]]:
    """Saturated inverse of the decreasing distribution g.

    The inverse maps a measure value p to the points x with g(x) = p.  The
    plain saturation at p joins the inverse over all p' >= p (the bottom
    singleton when there is none); the sharp one keeps that value where
    the inverse is defined and collapses it to its upper end elsewhere.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for x, p in enumerate(g):
        first.setdefault(p, x)
        last[p] = x
    out = [(0, 0)] * m_size
    lo = hi = None
    for p in range(m_size - 1, -1, -1):
        if p in first:
            lo = first[p] if lo is None else max(lo, first[p])
            hi = last[p] if hi is None else max(hi, last[p])
        if hi is None:
            continue
        out[p] = (lo, hi) if p in first or not sharp else (hi, hi)
    return out


def inner(ell, q) -> tuple[int, int]:
    """Join over p of the meet of ell(p) with q(p), endpoint by endpoint."""
    return (max(min(e, lo) for e, (lo, _) in zip(ell, q)),
            max(min(e, hi) for e, (_, hi) in zip(ell, q)))


def dual(ell, q) -> tuple[int, int]:
    """Meet over p of the join of ell(p) with q(p), endpoint by endpoint."""
    return (min(max(e, lo) for e, (lo, _) in zip(ell, q)),
            min(max(e, hi) for e, (_, hi) in zip(ell, q)))


def quantile_of(mu, values, size: int, m_size: int, sharp: bool = True):
    return quantile(distribution(mu, values, size), m_size, sharp)


def fan(mu, values, size: int, ell, sharp: bool = True) -> tuple[int, int]:
    return inner(ell, quantile_of(mu, values, size, len(ell), sharp))


def fan_dual(mu, values, size: int, ell, sharp: bool = True) -> tuple[int, int]:
    return dual(ell, quantile_of(mu, values, size, len(ell), sharp))


def sugeno(mu, values, size: int) -> int:
    """max over x of min(x, mu({f >= x}))."""
    return max(min(x, gx) for x, gx in enumerate(distribution(mu, values, size)))


def sup_closed_form(mu, values, size: int, ell) -> int:
    """Upper end of the aggregate without any quantile: the Sugeno integral
    of f against ell composed with mu.  Its maximum sits at a value of f,
    at the bottom, or at the top (where the level set is empty)."""
    return max(min(x, ell[mu(level_mask(values, x))]) for x in {0, *values, size - 1})


# signed intervals


def reflect(iv: tuple[int, int]) -> tuple[int, int]:
    return (-iv[1], -iv[0])


def _abs(iv):
    return reflect(iv) if iv[1] <= 0 else iv


def _half(iv) -> int:
    if iv == (0, 0):
        return 0
    return 1 if iv[0] >= 0 else -1


def svee(x, y):
    """Pseudo-addition: the same half joins its absolute values; opposite
    halves keep the strictly larger absolute value, else cancel."""
    hx, hy = _half(x), _half(y)
    if hx == 0:
        return y
    if hy == 0:
        return x
    ax, ay = _abs(x), _abs(y)
    if hx == hy:
        joined = (max(ax[0], ay[0]), max(ax[1], ay[1]))
        return joined if hx > 0 else reflect(joined)
    le = ax[0] <= ay[0] and ax[1] <= ay[1]
    ge = ay[0] <= ax[0] and ay[1] <= ax[1]
    if ge and not le:
        return x
    if le and not ge:
        return y
    return (0, 0)


def symmetric(mu, svals, half: int, ell_pos, ell_neg=None, sharp: bool = True):
    """Positive part's aggregate, pseudo-added to the reflected aggregate
    of the negative part, both on the positive half chain."""
    ell_neg = ell_pos if ell_neg is None else ell_neg
    pos = tuple(max(v, 0) for v in svals)
    neg = tuple(max(-v, 0) for v in svals)
    sp = fan(mu, pos, half + 1, ell_pos, sharp)
    sn = fan(mu, neg, half + 1, ell_neg, sharp)
    return svee(sp, reflect(sn))


def _into_half(iv, half: int, positive: bool):
    lo, hi = iv[0] - half, iv[1] - half
    if hi <= 0 or lo >= 0:
        return (lo, hi)
    return (0, hi) if positive else (lo, 0)


def asymmetric(mu, svals, half: int, ell_minus, ell_plus, sharp: bool = True):
    """Both half-valued comms against one quantile of f on the carrier."""
    q = quantile_of(mu, tuple(v + half for v in svals), 2 * half + 1, len(ell_minus), sharp)
    return svee(_into_half(inner(ell_minus, q), half, False),
                _into_half(inner(ell_plus, q), half, True))


def distance(mu, ell, svals, tvals, half: int) -> int:
    """Upper end of the aggregate of the pointwise ordinal distance."""
    d = tuple(0 if a == b else max(abs(a), abs(b)) for a, b in zip(svals, tvals))
    return fan(mu, d, half + 1, ell)[1]


def inner_extension(table: dict[int, int], n: int) -> list[int]:
    """Largest monotone extension from below of a partial table."""
    arr = [-1] * (1 << n)
    for mask, v in table.items():
        arr[mask] = v
    upper_sweep(arr, n)
    return arr


# output text, as the CLI and the library's formatters print it


def fmt_interval(labels, iv) -> str:
    return f"[{labels(iv[0])},{labels(iv[1])}]"


def signed_label(labels, s: int) -> str:
    return labels(s) if s >= 0 else "-" + labels(-s)


def fmt_signed(labels, iv) -> str:
    if _half(iv) < 0:
        return f"-[{labels(-iv[1])},{labels(-iv[0])}]"
    return fmt_interval(labels, iv)
