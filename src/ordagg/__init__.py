"""Ordinal aggregation of lattice-valued functions against lattice-valued
monotone measures: reflection-lattice pseudo-arithmetic, the interval
lattice, inner products and saturations of monotone correspondences, and
the Fan-Sugeno family of functionals."""

from .aggregation import (
    PLAIN,
    SHARP,
    CommFn,
    LatticeFn,
    asymmetric_fan_sugeno,
    distribution,
    fan_sugeno,
    fan_sugeno_dual,
    fan_sugeno_sup,
    is_comonotonic,
    level_chain,
    level_set,
    median,
    neg_part,
    negate_fn,
    pos_part,
    quantile,
    quantile_functional,
    sugeno_integral,
    symmetric_fan_sugeno,
)
from .chains import (
    Chain,
    ChainElem,
    ReflChain,
    ReflElem,
    absolute,
    bottom,
    dist_r,
    join,
    leq,
    meet,
    refl,
    sign,
    striangle,
    svee,
    top,
)
from .correspondences import (
    Corr,
    TotalFn,
    dual_product,
    inner_product,
    inverse,
    is_decreasing,
    is_increasing,
    is_sharply_monotone,
    saturate,
    sharp_saturate,
    unit_corr,
)
from .errors import (
    ChainMismatchError,
    DomainError,
    SpecError,
    SpecParseError,
    SpecValidationError,
)
from .intervals import (
    Interval,
    Rel,
    RInterval,
    abs_interval,
    format_interval,
    format_rinterval,
    refl_interval,
    rinterval_leq,
    sqcap,
    sqcap_family,
    sqcup,
    sqcup_family,
    svee_intervals,
    topkis_cmp,
    topkis_leq,
)
from .measures import (
    GroundSet,
    Measure,
    SetFamily,
    chain_measure,
    co_unanimity,
    inner_extension,
    is_maxitive,
    is_minitive,
    minitive_chain,
    outer_extension,
    sign_measure,
    unanimity,
    verify_chain,
    zeta,
)
from .metrics import (
    esssup_norm,
    is_nullfunction,
    kyfan_norm,
    ordinal_distance,
    ordinal_norm,
    pointwise_distance,
)
from .specfile import SpecFile, format_specfile, parse

__version__ = "0.1.0"
