"""Line-oriented spec files describing scales, measures, functions, and
commensurability tables.

Grammar (one block per object; `#` starts a comment; body lines are
indented):

    scale <name> <size>
    rscale <name> <half_size>
    labels <scale> <l0> <l1> ...
    omega <e1> <e2> ...
    measure <name> scale=<M> kind=table|chain-lower|chain-upper|unanimity|co-unanimity
      <subset> <value>        # for unanimity kinds: a single <subset> line
    function <name> scale=<L>
      <element> <value>
    comm <name> from=<M> to=<L>
      <p> <v>                 # empty body: the rank identity

Subsets are written `{}` or `{a,b}` and are whitespace-insensitive.
Values may be labels (e.g. `0.5`, `-0.25`) or explicit `rank:<k>` tokens;
a comm target `<rscale>+` means the positive half of a reflection scale,
a bare `<rscale>` target the whole carrier as a plain chain.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator

from .aggregation import CommFn, LatticeFn
from .chains import Chain, ReflChain
from .errors import DomainError, SpecParseError, SpecValidationError, _Frozen
from .measures import (
    GroundSet,
    Measure,
    SetFamily,
    chain_measure,
    co_unanimity,
    unanimity,
)

MEASURE_KINDS = ("table", "chain-lower", "chain-upper", "unanimity", "co-unanimity")

_SUBSET_LINE = re.compile(r"^(\{[^}]*\})\s*(\S+)?\s*$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


class SpecFile:
    """A fully validated bundle of named scales, measures, functions, comms."""

    def __init__(
        self,
        scales: dict[str, Chain | ReflChain] | None = None,
        ground: GroundSet | None = None,
        measures: dict[str, Measure] | None = None,
        functions: dict[str, LatticeFn] | None = None,
        comms: dict[str, CommFn] | None = None,
    ):
        self.scales = {} if scales is None else scales
        self.ground = ground
        self.measures = {} if measures is None else measures
        self.functions = {} if functions is None else functions
        self.comms = {} if comms is None else comms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __repr__ = _Frozen.__repr__  # field by field, like the frozen values


class _Block:
    """A directive and its body, the file's `lines[line:end]`."""

    def __init__(self, kind: str, line: int, args: list[str], lines: list[str], end: int):
        self.kind, self.line, self.args, self.lines, self.end = kind, line, args, lines, end

    def rows(self) -> Iterator[tuple[int, str]]:
        """The body's lines and their numbers, comments cut, stripped, blanks
        skipped; read as they are consumed, so no row outlives its reader."""
        lines = self.lines
        for i in range(self.line, self.end):
            text = lines[i]
            if "#" in text:
                text = text.split("#", 1)[0]
            if text := text.strip():
                yield i + 1, text


def _split_kv(args: list[str], line: int, required: tuple[str, ...]) -> dict[str, str]:
    kv: dict[str, str] = {}
    for a in args:
        if "=" not in a:
            raise SpecParseError(f"expected key=value, got {a!r}", line)
        k, v = a.split("=", 1)
        if k in kv:
            raise SpecParseError(f"duplicate key {k!r}", line)
        kv[k] = v
    for k in required:
        if k not in kv:
            raise SpecParseError(f"missing {k}=...", line)
    for k in kv:
        if k not in required:
            raise SpecParseError(f"unknown key {k!r}", line)
    return kv


def _collect_blocks(lines: list[str]) -> list[_Block]:
    blocks: list[_Block] = []
    current: _Block | None = None
    for line_no, line in enumerate(lines, start=1):
        if line[:1] in " \t":  # a body line, or blank ("" is in every string)
            if current is None and line.split("#", 1)[0].strip():
                raise SpecParseError("indented line outside a block", line_no)
            continue
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        if kind not in ("scale", "rscale", "labels", "omega", "measure", "function", "comm"):
            raise SpecParseError(f"unknown directive {kind!r}", line_no)
        if current is not None:
            current.end = line_no - 1
        current = _Block(kind, line_no, args, lines, len(lines))
        blocks.append(current)
    return blocks


def _check_name(name: str, line: int) -> str:
    if not _NAME.match(name):
        raise SpecParseError(f"invalid name {name!r}", line)
    return name


def parse_subset(token: str, ground: GroundSet, line: int | None = None) -> int:
    """Resolve a `{a,b}` token to a bitmask."""
    token = "".join(token.split())
    if not (token.startswith("{") and token.endswith("}")):
        raise SpecParseError(f"expected a subset like {{a,b}}, got {token!r}", line)
    inner = token[1:-1]
    if not inner:
        return 0
    try:
        return ground.mask_of(inner.split(","))
    except DomainError as e:
        raise SpecValidationError(str(e), line) from None


def _rank_number(text: str) -> int | None:
    """The integer whose canonical decimal spelling is `text`, or None:
    ASCII digits after an optional minus, with no leading zero, `+` or `_`."""
    try:
        k = int(text)
    except ValueError:
        return None
    return k if str(k) == text else None


def _parse_rank(token: str, scale: Chain | ReflChain, line: int | None) -> int:
    """Resolve a value token to a rank (signed rank for reflection scales)."""
    if token.startswith("rank:"):
        k = _rank_number(token[5:])
        if k is None:
            raise SpecParseError(f"bad rank token {token!r}", line)
    else:
        rank_of = scale.srank_of_label if isinstance(scale, ReflChain) else scale.rank_of_label
        if (k := rank_of(token)) is None:
            raise SpecValidationError(
                f"value {token!r} is not a label of scale {scale.id!r}", line
            )
    lo, hi = scale.rank_range
    if not lo <= k <= hi:
        raise SpecValidationError(f"rank {k} outside scale {scale.id!r}", line)
    return k


def _scale_named(sf: SpecFile, name: str, line: int) -> Chain | ReflChain:
    if name not in sf.scales:
        raise SpecValidationError(f"unknown scale {name!r}", line)
    return sf.scales[name]


def _comm_target(sf: SpecFile, token: str, line: int) -> Chain:
    if token.endswith("+"):
        scale = _scale_named(sf, token[:-1], line)
        if not isinstance(scale, ReflChain):
            raise SpecValidationError(f"{token!r} needs a reflection scale", line)
        return scale.positive_half()
    scale = _scale_named(sf, token, line)
    return scale.as_chain() if isinstance(scale, ReflChain) else scale


def _require_ground(sf: SpecFile, line: int) -> GroundSet:
    if sf.ground is None:
        raise SpecValidationError("no omega line declares the ground set", line)
    return sf.ground


def _build_scales(sf: SpecFile, blocks: list[_Block]) -> None:
    labels: dict[str, _Block] = {}
    for b in blocks:
        if b.kind == "labels":
            if len(b.args) < 2:
                raise SpecParseError("labels needs a scale name and labels", b.line)
            name = b.args[0]
            if name in labels:
                raise SpecParseError(f"duplicate labels for scale {name!r}", b.line)
            labels[name] = b
    seen: set[str] = set()
    for b in blocks:
        if b.kind not in ("scale", "rscale"):
            continue
        if len(b.args) != 2:
            raise SpecParseError(f"{b.kind} needs a name and a size", b.line)
        name = _check_name(b.args[0], b.line)
        if name in seen:
            raise SpecParseError(f"duplicate scale name {name!r}", b.line)
        seen.add(name)
        size = _rank_number(b.args[1])
        if size is None:
            raise SpecParseError(f"bad size {b.args[1]!r}", b.line)
        lb = labels.pop(name, None)
        ltuple = tuple(lb.args[1:]) if lb else None
        try:
            sf.scales[name] = (Chain if b.kind == "scale" else ReflChain)(name, size, ltuple)
        except DomainError as e:
            raise SpecValidationError(str(e), (lb or b).line) from None
    if labels:
        stray = next(iter(labels.values()))
        raise SpecValidationError(f"labels for undeclared scale {stray.args[0]!r}", stray.line)


def _build_ground(sf: SpecFile, blocks: list[_Block]) -> None:
    omegas = [b for b in blocks if b.kind == "omega"]
    if len(omegas) > 1:
        raise SpecParseError("duplicate omega line", omegas[1].line)
    if not omegas:
        return
    b = omegas[0]
    if not b.args:
        raise SpecParseError("omega needs at least one element", b.line)
    for name in b.args:
        _check_name(name, b.line)
    try:
        sf.ground = GroundSet(tuple(b.args))
    except DomainError as e:
        raise SpecValidationError(str(e), b.line) from None


def _header(b: _Block, taken: dict, required: tuple[str, ...]) -> tuple[str, dict[str, str]]:
    """The name of a measure, function or comm block, not yet in `taken`,
    and its `key=value` arguments."""
    if not b.args:
        raise SpecParseError(f"{b.kind} needs a name", b.line)
    name = _check_name(b.args[0], b.line)
    if name in taken:
        raise SpecParseError(f"duplicate {b.kind} name {name!r}", b.line)
    return name, _split_kv(b.args[1:], b.line, required)


def _rows(
    b: _Block,
    scale: Chain | ReflChain,
    key_word: str,
    dup_word: str,
    key_of: Callable[[str, int], int],
) -> dict[int, int]:
    """The `<key> <value>` body rows of a function or comm block: each key
    is `key_of(token, line)`, each value a point of `scale`."""
    values: dict[int, int] = {}
    for line_no, text in b.rows():
        parts = text.split()
        if len(parts) != 2:
            raise SpecParseError(f"expected `<{key_word}> <value>`, got {text!r}", line_no)
        try:
            key = key_of(parts[0], line_no)
        except DomainError as e:
            raise SpecValidationError(str(e), line_no) from None
        if key in values:
            raise SpecParseError(f"duplicate {dup_word} {parts[0]!r}", line_no)
        values[key] = _parse_rank(parts[1], scale, line_no)
    return values


def _full_table(b: _Block, ground: GroundSet, scale: Chain) -> dict[int, int] | None:
    """A full table written in mask order or by size then mask, or None.

    These are the orders of `ground.subsets()` and of `format_specfile`;
    they part at row 3, `{a,b}` or `{c}`.  Each row, stripped, is then the
    spelling of a known mask, one space and a label, so it is read without
    splitting names.  The rows are taken in mask order, and each chunk of
    2**(n//2) rows sharing their high elements is checked against its
    spellings (the low ones with the chunk's tail) and resolved in C-level
    passes, one chunk of spellings at a time.  Trailing blank lines are
    allowed; any other blank, comment or spelling gives None, and the row
    loop reads the block from its first row.  No name or label holds `#`,
    so a row with a comment never matches.
    """
    lines, start, end = b.lines, b.line, b.end
    while end > start and not lines[end - 1].strip():
        end -= 1
    n = ground.size
    if end - start != 1 << n:
        return None
    order = None
    if n > 2 and lines[start + 3].lstrip().startswith("{" + ground.elements[2] + "} "):
        # by size: read the rows in mask order, and give the dict back in row order
        order = sorted(range(1 << n), key=int.bit_count)  # row -> mask
        by_row = lines[start:end]
        lines, start = list(map(by_row.__getitem__, sorted(range(1 << n), key=order.__getitem__))), 0
    low = n // 2
    width = 1 << low
    closed = ["{" + ",".join(ground.members(j)) for j in range(width)]
    opens = [head + "," for head in closed]
    opens[0] = "{"  # the empty low set takes the tail without a comma
    rank_index = scale._rank_index
    ranks: list[int] = []  # by mask
    for first in range(0, 1 << n, width):
        if first:
            tail = ",".join(ground.members(first)) + "} "
            heads = [head + tail for head in opens]
        else:
            heads = [head + "} " for head in closed]
        rows = list(map(str.strip, lines[start + first : start + first + width]))
        if not all(map(str.startswith, rows, heads)):
            return None
        try:
            ranks.extend(map(rank_index.__getitem__, map(str.removeprefix, rows, heads)))
        except KeyError:
            return None
    if order is None:
        return dict(zip(range(1 << n), ranks))
    return dict(zip(order, map(ranks.__getitem__, order)))


def _measure_rows(b: _Block, ground: GroundSet, scale: Chain) -> dict[int, int]:
    """A measure's rows as a subset -> rank table.

    A full table in mask order or by size is read by `_full_table`.  Otherwise a
    row spelled `{a,b} label` (one space, no blanks inside the braces,
    a label or an unlabelled rank) resolves here; any other spelling takes
    the subset pattern and `_parse_rank`, which raise every row error.  No
    label starts with `rank:`, so rank tokens always take that path.  The
    first repeated subset is raised after the last row, so a row error wins.
    """
    table = _full_table(b, ground, scale)
    if table is not None:
        return table
    bits = ground._bits
    # the first name keeps the brace; a bare "{" is no key, so `{,a}` misses
    first = {"{" + name: bit for name, bit in bits.items()}
    rank_index = scale._rank_index
    table: dict[int, int] = {}
    repeat: SpecParseError | None = None
    for line_no, text in b.rows():
        subset, _, value = text.partition("} ")
        try:
            rank = rank_index[value]
            if subset == "{":
                mask = 0
            else:
                names = iter(subset.split(","))
                mask = first[next(names)]
                for name in names:
                    mask |= bits[name]
        except KeyError:  # taken below, so that a row error chains no KeyError
            mask = None
        if mask is None:
            mt = _SUBSET_LINE.match(text)
            if not mt or mt.group(2) is None:
                raise SpecParseError(f"expected `<subset> <value>`, got {text!r}", line_no)
            mask = parse_subset(mt.group(1), ground, line_no)
            rank = _parse_rank(mt.group(2), scale, line_no)
        if mask in table and repeat is None:
            repeat = SpecParseError(f"duplicate subset {ground.format_mask(mask)}", line_no)
        table[mask] = rank
    if repeat is not None:
        raise repeat
    return table


def _build_measure(sf: SpecFile, b: _Block) -> None:
    name, kv = _header(b, sf.measures, ("scale", "kind"))
    if kv["kind"] not in MEASURE_KINDS:
        raise SpecParseError(f"unknown measure kind {kv['kind']!r}", b.line)
    scale = _scale_named(sf, kv["scale"], b.line)
    if isinstance(scale, ReflChain):
        raise SpecValidationError("measures take values in a plain scale", b.line)
    ground = _require_ground(sf, b.line)
    kind = kv["kind"]
    try:
        if kind in ("unanimity", "co-unanimity"):
            body = list(b.rows())
            if len(body) != 1:
                raise SpecParseError(f"{kind} needs exactly one coalition line", b.line)
            line_no, text = body[0]
            mt = _SUBSET_LINE.match(text)
            if not mt or mt.group(2) is not None:
                raise SpecParseError(f"expected a single `<subset>`, got {text!r}", line_no)
            coalition = parse_subset(mt.group(1), ground, line_no)
            build = unanimity if kind == "unanimity" else co_unanimity
            sf.measures[name] = build(ground, coalition, scale)
            return
        table = _measure_rows(b, ground, scale)
        if kind == "table":
            table.setdefault(0, 0)
            table.setdefault(ground.full_mask, scale.size - 1)
            full = len(table) > ground.full_mask  # 2**n distinct masks: the powerset
            family = SetFamily.full(ground) if full else SetFamily(ground, frozenset(table))
            sf.measures[name] = Measure(family, scale, table)
        else:
            kind = "lower" if kind == "chain-lower" else "upper"
            sf.measures[name] = chain_measure(ground, scale, table, table.values(), kind)
    except DomainError as e:
        raise SpecValidationError(f"measure {name!r}: {e}", b.line) from None


def _build_function(sf: SpecFile, b: _Block) -> None:
    name, kv = _header(b, sf.functions, ("scale",))
    scale = _scale_named(sf, kv["scale"], b.line)
    ground = _require_ground(sf, b.line)
    values = _rows(b, scale, "element", "element", lambda token, _: ground.index(token))
    if len(values) != ground.size:
        missing = [e for i, e in enumerate(ground.elements) if i not in values]
        raise SpecValidationError(
            f"function {name!r} is missing elements: {', '.join(missing)}", b.line
        )
    try:
        sf.functions[name] = LatticeFn(
            ground, scale, tuple(values[i] for i in range(ground.size))
        )
    except DomainError as e:
        raise SpecValidationError(f"function {name!r}: {e}", b.line) from None


def _build_comm(sf: SpecFile, b: _Block) -> None:
    name, kv = _header(b, sf.comms, ("from", "to"))
    src = _scale_named(sf, kv["from"], b.line)
    if isinstance(src, ReflChain):
        raise SpecValidationError("comm source must be a plain scale", b.line)
    dst = _comm_target(sf, kv["to"], b.line)
    try:
        values = _rows(
            b, dst, "p", "source point", lambda token, line: _parse_rank(token, src, line)
        )
        if not values:  # an empty body
            sf.comms[name] = CommFn.identity(src, dst)
            return
        if len(values) != src.size:
            raise SpecValidationError(f"comm {name!r} must be total on {src.id!r}", b.line)
        sf.comms[name] = CommFn(src, dst, tuple(values[p] for p in range(src.size)))
    except DomainError as e:
        raise SpecValidationError(f"comm {name!r}: {e}", b.line) from None


def parse(text: str) -> SpecFile:
    """Parse and fully validate a spec file."""
    lines = text.splitlines()
    del text  # freed here if the caller kept no reference (as `cli` does)
    blocks = _collect_blocks(lines)
    for b in blocks:
        if b.kind in ("scale", "rscale", "labels", "omega"):
            for line_no, _ in b.rows():
                raise SpecParseError(f"{b.kind} does not take indented lines", line_no)
    sf = SpecFile()
    _build_scales(sf, blocks)
    _build_ground(sf, blocks)
    for b in blocks:
        if b.kind == "measure":
            _build_measure(sf, b)
        elif b.kind == "function":
            _build_function(sf, b)
        elif b.kind == "comm":
            _build_comm(sf, b)
    return sf


def _comm_target_token(sf: SpecFile, dst: Chain) -> str:
    for name, scale in sf.scales.items():
        if isinstance(scale, ReflChain):
            if dst == scale.positive_half():
                return name + "+"
            if dst == scale.as_chain():
                return name
        elif dst == scale:
            return name
    raise DomainError(f"comm target {dst.id!r} is not derived from a declared scale")


def format_specfile(sf: SpecFile) -> str:
    """Canonical text form; parsing it back reproduces the spec file."""
    out: list[str] = []
    for name, scale in sf.scales.items():
        if isinstance(scale, ReflChain):
            out.append(f"rscale {name} {scale.half_size}")
        else:
            out.append(f"scale {name} {scale.size}")
        if scale.labels is not None:
            out.append(f"labels {name} " + " ".join(scale.labels))
    if sf.ground is not None:
        out.append("omega " + " ".join(sf.ground.elements))
    for name, m in sf.measures.items():
        scale_name = m.scale.id
        out.append(f"measure {name} scale={scale_name} kind=table")
        for mask in sorted(m.values, key=lambda a: (a.bit_count(), a)):
            out.append(
                f"  {m.ground.format_mask(mask)} {m.scale.label(m.values[mask])}"
            )
    for name, f in sf.functions.items():
        out.append(f"function {name} scale={f.scale.id}")
        for i, e in enumerate(f.ground.elements):
            out.append(f"  {e} {f.scale.label(f.values[i])}")
    for name, c in sf.comms.items():
        out.append(f"comm {name} from={c.src.id} to={_comm_target_token(sf, c.dst)}")
        for p in range(c.src.size):
            out.append(f"  {c.src.label(p)} {c.dst.label(c.values[p])}")
    return "\n".join(out) + "\n"
