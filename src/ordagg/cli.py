"""Command line front end.

Every subcommand reads a spec file, resolves named objects, evaluates,
and prints deterministic `key=value` lines.  Exit codes: 0 success,
1 spec syntax error, 2 spec validation error, 3 domain error.
"""

from __future__ import annotations

import argparse
import sys

from . import aggregation as agg
from . import metrics
from .errors import DomainError, SpecError, SpecParseError, SpecValidationError
from .intervals import format_interval, format_rinterval
from .measures import (
    Measure,
    inner_extension,
    is_maxitive,
    is_minitive,
    minitive_chain,
    outer_extension,
    verify_chain,
)
from .specfile import SpecFile, _parse_rank, parse, parse_subset

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DomainError(f"cannot read {path}: {e}") from None


def _pick(table: dict, name: str | None, what: str):
    if name is None:
        raise DomainError(f"missing --{what}")
    if name not in table:
        raise DomainError(f"unknown {what} {name!r}")
    return table[name]


def _total(m: Measure, name: str, extend: str | None) -> Measure:
    """The measure itself if total, else its --extend extension."""
    if m.is_total():
        return m
    if extend == "inner":
        return inner_extension(m)
    if extend == "outer":
        return outer_extension(m)
    raise DomainError(f"measure {name!r} is partial; pass --extend inner|outer")


def _measure(sf: SpecFile, args) -> Measure:
    m = _pick(sf.measures, args.measure, "measure")
    return _total(m, args.measure, getattr(args, "extend", None))


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("specfile", help="path to the spec file")
    if "measure" in flags:
        p.add_argument("--measure", required=True)
        p.add_argument("--extend", choices=("inner", "outer"))
    if "function" in flags:
        p.add_argument("--function", required=True)
    if "comm" in flags:
        p.add_argument("--comm", required=True)
    if "variant" in flags:
        p.add_argument("--variant", choices=agg.VARIANTS, default=agg.SHARP)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ordagg",
        description="Evaluate ordinal aggregations described by a spec file.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the file or query a property")
    p.add_argument("specfile")
    p.add_argument("--measure")
    p.add_argument("--extend", choices=("inner", "outer"))
    p.add_argument("--function")
    p.add_argument("--property", choices=("minitive", "maxitive", "nullfunction"))

    p = sub.add_parser("chain-verify", help="verify or derive a defining chain")
    p.add_argument("specfile")
    p.add_argument("--measure", required=True)
    p.add_argument("--extend", choices=("inner", "outer"))
    p.add_argument("--kind", choices=("lower", "upper"), required=True)
    p.add_argument("--sets", help="semicolon-separated subsets, e.g. '{};{a};{a,b}'")

    p = sub.add_parser("distribution", help="print the distribution function")
    _add_common(p, "measure", "function")

    p = sub.add_parser("quantile", help="print the quantile correspondence")
    _add_common(p, "measure", "function", "variant")
    p.add_argument("--p", help="single source point (label or rank:<k>)")

    p = sub.add_parser("eval", help="aggregate a function")
    _add_common(p, "measure", "function", "comm", "variant")

    p = sub.add_parser("eval-dual", help="aggregate with the dual product")
    _add_common(p, "measure", "function", "comm", "variant")

    p = sub.add_parser("eval-sym", help="symmetric aggregate of a signed function")
    _add_common(p, "measure", "function", "comm", "variant")
    p.add_argument("--comm-neg", help="commensurability for the negative part")

    p = sub.add_parser("eval-asym", help="asymmetric aggregate of a signed function")
    _add_common(p, "measure", "function", "variant")
    p.add_argument("--comm-neg", required=True)
    p.add_argument("--comm-pos", required=True)

    p = sub.add_parser("distance", help="ordinal distance of two functions")
    _add_common(p, "measure", "function", "comm")
    p.add_argument("--other", required=True)

    p = sub.add_parser("norm", help="ordinal norm of a function")
    _add_common(p, "measure", "function")
    p.add_argument("--comm")
    p.add_argument("--kind", choices=("comm", "kyfan", "esssup"), default="kyfan")

    p = sub.add_parser("oracle-compare", help="cross-check against brute force")
    p.add_argument("specfile")
    p.add_argument("--extend", choices=("inner", "outer"))

    return top


def _cmd_check(sf: SpecFile, args) -> None:
    if args.property is None:
        print("ok=true")
        return
    if args.property == "nullfunction":
        m = _measure(sf, args)
        f = _pick(sf.functions, args.function, "function")
        print(f"nullfunction={str(metrics.is_nullfunction(m, f)).lower()}")
        return
    m = _measure(sf, args)
    value = is_minitive(m) if args.property == "minitive" else is_maxitive(m)
    print(f"{args.property}={str(value).lower()}")


def _cmd_chain_verify(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    if args.sets is not None:
        try:
            sets = [parse_subset(tok, m.ground) for tok in args.sets.split(";") if tok.strip()]
        except SpecError as e:  # a bad --sets argument, not a bad spec file
            raise DomainError(str(e)) from None
        print(f"verified={str(verify_chain(m, sets, args.kind)).lower()}")
        return
    if args.kind != "lower":
        raise DomainError("deriving a chain without --sets is supported for kind=lower")
    sets = minitive_chain(m)  # raises unless the chain reproduces m
    shown = "|".join(m.ground.format_mask(s) for s in sets)
    print(f"chain={shown} verified=true")


def _cmd_distribution(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    f = _pick(sf.functions, args.function, "function")
    g = agg.distribution(m, f)
    for x in range(g.src.size):
        print(f"x={g.src.label(x)} value={g.dst.label(g.values[x])}")


def _cmd_quantile(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    f = _pick(sf.functions, args.function, "function")
    q = agg.quantile(m, f, args.variant)
    points = range(m.scale.size)
    if args.p is not None:
        try:
            points = [_parse_rank(args.p, m.scale, None)]
        except SpecError:
            raise DomainError(f"point {args.p!r} is not on scale {m.scale.id!r}") from None
    for p in points:
        print(f"p={m.scale.label(p)} interval={format_interval(q.table[p])}")


def _cmd_eval(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    f = _pick(sf.functions, args.function, "function")
    ell = _pick(sf.comms, args.comm, "comm")
    iv = agg.fan_sugeno(m, f, ell, args.variant)
    print(f"interval={format_interval(iv)} sup={iv.chain.label(iv.hi)}")


def _cmd_eval_dual(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    f = _pick(sf.functions, args.function, "function")
    ell = _pick(sf.comms, args.comm, "comm")
    iv = agg.fan_sugeno_dual(m, f, ell, args.variant)
    print(f"interval={format_interval(iv)}")


def _cmd_eval_sym(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    f = _pick(sf.functions, args.function, "function")
    ell = _pick(sf.comms, args.comm, "comm")
    k = _pick(sf.comms, args.comm_neg, "comm-neg") if args.comm_neg is not None else None
    r = agg.symmetric_fan_sugeno(m, f, ell, k, args.variant)
    print(f"interval={format_rinterval(r)} sup={r.chain.label(r.hi)}")


def _cmd_eval_asym(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    f = _pick(sf.functions, args.function, "function")
    ell_minus = _pick(sf.comms, args.comm_neg, "comm-neg")
    ell_plus = _pick(sf.comms, args.comm_pos, "comm-pos")
    r = agg.asymmetric_fan_sugeno(m, f, ell_minus, ell_plus, args.variant)
    print(f"interval={format_rinterval(r)} sup={r.chain.label(r.hi)}")


def _cmd_distance(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    f = _pick(sf.functions, args.function, "function")
    g = _pick(sf.functions, args.other, "other")
    ell = _pick(sf.comms, args.comm, "comm")
    d = metrics.ordinal_distance(m, ell, f, g)
    print(f"distance={d}")


def _cmd_norm(sf: SpecFile, args) -> None:
    m = _measure(sf, args)
    f = _pick(sf.functions, args.function, "function")
    if args.kind == "comm":
        ell = _pick(sf.comms, args.comm, "comm")
        value = metrics.ordinal_norm(m, ell, f)
    elif args.kind == "kyfan":
        value = metrics.kyfan_norm(m, f)
    else:
        value = metrics.esssup_norm(m, f)
    print(f"norm={value}")


def _cmd_oracle_compare(sf: SpecFile, args) -> None:
    from . import oracle  # brute force, loaded only for this command

    all_ok = True

    def report(line: str, ok: bool) -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        print(f"{line} match={str(ok).lower()}")

    totals: dict[str, Measure] = {}
    for name, m in sf.measures.items():
        m = totals[name] = _total(m, name, args.extend)
        if m.ground.size <= 4:
            report(
                f"compare=minitive measure={name}",
                is_minitive(m) == oracle.oracle_minitive(m),
            )
        if m.ground.size <= 3:
            report(
                f"compare=lower-chain measure={name}",
                is_minitive(m) == oracle.oracle_lower_chain(m),
            )
    for mname, m in totals.items():
        for fname, f in sf.functions.items():
            fp = f.as_plain()
            for cname, ell in sf.comms.items():
                if ell.src != m.scale or ell.dst != fp.scale:
                    continue
                for variant in agg.VARIANTS:
                    got = agg.fan_sugeno(m, f, ell, variant)
                    want = oracle.oracle_fan_sugeno(m, f, ell, variant)
                    report(
                        f"compare=fan_sugeno measure={mname} function={fname} "
                        f"comm={cname} variant={variant}",
                        got == want,
                    )
    print(f"all={str(all_ok).lower()}")
    if not all_ok:
        raise DomainError("oracle comparison found mismatches")


_COMMANDS = {
    "check": _cmd_check,
    "chain-verify": _cmd_chain_verify,
    "distribution": _cmd_distribution,
    "quantile": _cmd_quantile,
    "eval": _cmd_eval,
    "eval-dual": _cmd_eval_dual,
    "eval-sym": _cmd_eval_sym,
    "eval-asym": _cmd_eval_asym,
    "distance": _cmd_distance,
    "norm": _cmd_norm,
    "oracle-compare": _cmd_oracle_compare,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sf = parse(_read(args.specfile))  # the text is not held here while it parses
        _COMMANDS[args.command](sf, args)
    except SpecParseError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SpecValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
