"""Spec file parsing, validation, and the canonical printer."""

import random
from pathlib import Path

import pytest

from ordagg import (
    Chain,
    ReflChain,
    SpecParseError,
    SpecValidationError,
    format_specfile,
    parse,
)
from ordagg import specfile
from ordagg.specfile import parse_subset

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

E1_TEXT = (SPEC_DIR / "e1.spec").read_text(encoding="utf-8")
SIGNED_TEXT = (SPEC_DIR / "signed.spec").read_text(encoding="utf-8")


class TestParseGolden:
    def test_e1(self):
        sf = parse(E1_TEXT)
        assert set(sf.scales) == {"m", "l"}
        m = sf.scales["m"]
        assert isinstance(m, Chain) and m.size == 11 and m.label(5) == "0.5"
        assert sf.ground.elements == ("a", "b")
        mu = sf.measures["mu"]
        assert mu.values == {0: 0, 1: 5, 2: 3, 3: 10}
        f = sf.functions["f"]
        assert f.values == (6, 2)
        ident = sf.comms["id"]
        assert ident.values == tuple(range(11))
        assert ident.src == m and ident.dst == sf.scales["l"]

    def test_signed(self):
        sf = parse(SIGNED_TEXT)
        r = sf.scales["r"]
        assert isinstance(r, ReflChain) and r.half_size == 4
        f = sf.functions["f"]
        assert f.values == (3, -2)
        assert sf.comms["id"].dst == r.positive_half()
        assert sf.comms["lneg"].dst == r.as_chain()
        assert sf.comms["lneg"].values == (0, 2, 3, 4, 4)
        assert sf.comms["lpos"].values == (4, 5, 6, 7, 8)
        u = sf.measures["u12"]
        assert u.values == {0: 0, 1: 0, 2: 0, 3: 4}


class TestSubsets:
    def test_whitespace_insensitive(self):
        sf = parse(E1_TEXT)
        g = sf.ground
        assert parse_subset("{ a , b }", g) == 3
        assert parse_subset("{}", g) == 0
        assert g.format_mask(3) == "{a,b}"
        assert g.format_mask(0) == "{}"

    def test_rank_tokens(self):
        text = E1_TEXT.replace("{a} 0.5", "{a} rank:5")
        assert parse(text).measures["mu"].values[1] == 5


class TestErrors:
    def test_duplicate_scale_is_syntax_error(self):
        with pytest.raises(SpecParseError):
            parse("scale m 3\nscale m 4\n")

    def test_unknown_directive(self):
        with pytest.raises(SpecParseError):
            parse("scales m 3\n")

    def test_indented_line_outside_block(self):
        with pytest.raises(SpecParseError):
            parse("  {a} 0.5\n")

    def test_duplicate_subset(self):
        bad = E1_TEXT.replace("{b} 0.3", "{a} 0.3")
        with pytest.raises(SpecParseError):
            parse(bad)

    def test_non_monotone_measure_names_pair(self):
        bad = E1_TEXT.replace("{a} 0.5", "{a} rank:10").replace(
            "{a,b} 1.0", "{a,b} 0.3"
        )
        with pytest.raises(SpecValidationError, match=r"\{a\} > \{a,b\}"):
            parse(bad)

    def test_unknown_scale_reference(self):
        bad = E1_TEXT.replace("measure mu scale=m", "measure mu scale=zz")
        with pytest.raises(SpecValidationError):
            parse(bad)

    def test_bad_value_label(self):
        bad = E1_TEXT.replace("{a} 0.5", "{a} 0.55")
        with pytest.raises(SpecValidationError):
            parse(bad)

    def test_missing_function_element(self):
        bad = E1_TEXT.replace("  b 0.2\n", "")
        with pytest.raises(SpecValidationError, match="missing elements: b"):
            parse(bad)

    def test_non_increasing_comm(self):
        text = E1_TEXT + "comm bad from=m to=l\n" + "".join(
            f"  {i/10:.1f} {(10-i)/10:.1f}\n" for i in range(11)
        )
        with pytest.raises(SpecValidationError, match="increasing"):
            parse(text)

    def test_identity_needs_equal_sizes(self):
        text = "scale m 3\nscale l 4\ncomm id from=m to=l\n"
        with pytest.raises(SpecValidationError):
            parse(text)

    def test_labels_for_undeclared_scale(self):
        with pytest.raises(SpecValidationError):
            parse("labels q 0 1 2\n")

    def test_label_count_mismatch(self):
        with pytest.raises(SpecValidationError):
            parse("scale m 3\nlabels m 0 1\n")

    def test_error_carries_line_number(self):
        try:
            parse("scale m 3\nscale m 4\n")
        except SpecParseError as e:
            assert e.line == 2
        else:
            pytest.fail("expected a parse error")

    def test_measure_without_omega(self):
        text = "scale m 3\nmeasure mu scale=m kind=table\n  {} rank:0\n"
        with pytest.raises(SpecValidationError, match="omega"):
            parse(text)


class TestDefaults:
    def test_table_endpoint_defaults(self):
        text = (
            "scale m 3\n"
            "omega a b\n"
            "measure mu scale=m kind=table\n"
            "  {a} rank:1\n"
        )
        mu = parse(text).measures["mu"]
        assert mu.values == {0: 0, 1: 1, 3: 2}
        assert not mu.is_total()

    def test_chain_kinds(self):
        text = (
            "scale m 3\n"
            "omega a b c\n"
            "measure low scale=m kind=chain-lower\n"
            "  {} rank:0\n"
            "  {a,b} rank:2\n"
            "  {a,b,c} rank:2\n"
            "measure up scale=m kind=chain-upper\n"
            "  {} rank:0\n"
            "  {c} rank:0\n"
            "  {a,b,c} rank:2\n"
        )
        sf = parse(text)
        low, up = sf.measures["low"], sf.measures["up"]
        assert low.is_total() and up.is_total()
        assert low.values[0b011] == 2 and low.values[0b001] == 0
        assert up.values[0b011] == 2 and up.values[0b100] == 0
        assert up.values[0b101] == 2


class TestRoundTrip:
    @pytest.mark.parametrize("text", [E1_TEXT, SIGNED_TEXT])
    def test_parse_format_parse(self, text):
        sf = parse(text)
        printed = format_specfile(sf)
        assert parse(printed) == sf
        # a second round is byte-stable
        assert format_specfile(parse(printed)) == printed


def _labelled_spec(n: int, size: int, half: int) -> str:
    """A spec at ground size n with labelled scales and every kind of
    labelled table: full and partial measures, a chain measure, plain and
    signed functions, and comms into a plain chain, a positive half and a
    whole reflection carrier."""
    names = [f"e{i}" for i in range(n)]
    full = (1 << n) - 1

    def subset(mask):
        return "{" + ",".join(names[i] for i in range(n) if mask >> i & 1) + "}"

    def lab(k):
        return f"v{k}"

    out = [
        f"scale m {size}", "labels m " + " ".join(lab(k) for k in range(size)),
        f"scale l {size}", "labels l " + " ".join(lab(k) for k in range(size)),
        f"rscale r {half}", "labels r " + " ".join(lab(k) for k in range(half + 1)),
        "omega " + " ".join(names),
        "measure mu scale=m kind=table",
    ]
    out += [f"  {subset(a)} {lab(a.bit_count() * (size - 1) // n)}" for a in range(full + 1)]
    out.append("measure part scale=m kind=table")
    out += [f"  {subset(a)} {lab(a.bit_count() * (size - 1) // n)}" for a in range(0, full, 3)]
    out.append("measure cl scale=m kind=chain-lower")
    out += [f"  {subset((1 << k) - 1)} {lab(k * (size - 1) // n)}" for k in range(n + 1)]
    out.append("function f scale=l")
    out += [f"  {e} {lab(i * 7 % size)}" for i, e in enumerate(names)]
    out.append("function s scale=r")
    out += [f"  {e} {'-' if i % 2 else ''}{lab(i * 5 % (half + 1))}" for i, e in enumerate(names)]
    out += ["comm id from=m to=l", "comm pos from=m to=r+", "comm whole from=m to=r"]
    srank = [k * 2 * half // (size - 1) - half for k in range(size)]
    out += [f"  {lab(k)} {'-' if s < 0 else ''}{lab(abs(s))}" for k, s in enumerate(srank)]
    return "\n".join(out) + "\n"


def test_parse_labels_each_chain_point_at_most_once(monkeypatch):
    """Label resolution goes through a per-chain index: however many rows a
    spec has, parsing it computes at most one display label per chain point."""
    calls = []

    def counted(label):
        def wrapper(self, k):
            calls.append(k)
            return label(self, k)
        return wrapper

    for cls in (Chain, ReflChain):
        monkeypatch.setattr(cls, "label", counted(cls.label))
    sf = parse(_labelled_spec(12, 41, 40))
    points = sf.scales["m"].size + sf.scales["l"].size + sf.scales["r"].size
    assert len(sf.measures["mu"].values) == 4096
    assert sf.comms["whole"].values[-1] == sf.scales["r"].size - 1
    assert 0 < len(calls) <= points


# Measure-table rows under 4-point scales with word labels, digit labels in
# reverse order, and no labels; the first row is on line 5.  Each case pins
# the parsed table or the error's class, line and text.
ROW_HEAD = "scale m 4\nlabels m lo mid hi top\nomega a b c\nmeasure mu scale=m kind=table\n"
PLAIN_HEAD = "scale m 4\nomega a b c\n\nmeasure mu scale=m kind=table\n"
DIGIT_HEAD = "scale m 4\nlabels m 3 2 1 0\nomega a b c\nmeasure mu scale=m kind=table\n"
ROW_CASES = {
    "spaced-subset": (ROW_HEAD, "  { a , b } hi\n", {0: 0, 3: 2, 7: 3}),
    "tab-before-value": (ROW_HEAD, "  {a,b}\thi\n", {0: 0, 3: 2, 7: 3}),
    "two-spaces": (ROW_HEAD, "  {a}  hi\n", {0: 0, 1: 2, 7: 3}),
    "no-space": (ROW_HEAD, "  {a}hi\n", {0: 0, 1: 2, 7: 3}),
    "repeated-element": (ROW_HEAD, "  {a,a} mid\n", {0: 0, 1: 1, 7: 3}),
    "empty-subset": (ROW_HEAD, "  {} lo\n  {c} mid\n", {0: 0, 4: 1, 7: 3}),
    "trailing-comma": (ROW_HEAD, "  {a,} mid\n",
                       (SpecValidationError, 5, "unknown ground element ''")),
    "unknown-element": (ROW_HEAD, "  {a} mid\n  {a,z} mid\n",
                        (SpecValidationError, 6, "unknown ground element 'z'")),
    "unknown-label": (ROW_HEAD, "  {a} huge\n",
                      (SpecValidationError, 5, "value 'huge' is not a label of scale 'm'")),
    "rank-token": (ROW_HEAD, "  {a} rank:3\n", {0: 0, 1: 3, 7: 3}),
    "rank-token-padded": (ROW_HEAD, "  {a} rank:05\n",
                          (SpecParseError, 5, "bad rank token 'rank:05'")),
    "rank-token-outside": (ROW_HEAD, "  {a} rank:4\n",
                           (SpecValidationError, 5, "rank 4 outside scale 'm'")),
    "extra-token": (ROW_HEAD, "  {a} mid hi\n",
                    (SpecParseError, 5, "expected `<subset> <value>`, got '{a} mid hi'")),
    "missing-value": (ROW_HEAD, "  {a} mid\n  {b}\n",
                      (SpecParseError, 6, "expected `<subset> <value>`, got '{b}'")),
    "stray-brace": (ROW_HEAD, "  {a}} mid\n",
                    (SpecParseError, 5, "expected `<subset> <value>`, got '{a}} mid'")),
    "no-open-brace": (ROW_HEAD, "  ab} mid\n",
                      (SpecParseError, 5, "expected `<subset> <value>`, got 'ab} mid'")),
    "leading-comma": (ROW_HEAD, "  {,a} mid\n",
                      (SpecValidationError, 5, "unknown ground element ''")),
    "double-comma": (ROW_HEAD, "  {a,,b} mid\n",
                     (SpecValidationError, 5, "unknown ground element ''")),
    "names-without-open-brace": (ROW_HEAD, "  a,b} mid\n",
                                 (SpecParseError, 5,
                                  "expected `<subset> <value>`, got 'a,b} mid'")),
    "doubled-open-brace": (ROW_HEAD, "  {{a} mid\n",
                           (SpecValidationError, 5, "unknown ground element '{a'")),
    "repeated-element-after-another": (ROW_HEAD, "  {a,b,a} mid\n", {0: 0, 3: 1, 7: 3}),
    "duplicate-subset": (ROW_HEAD, "  {a,b} hi\n  {b} mid\n  {b,a} hi\n  {b} mid\n",
                         (SpecParseError, 7, "duplicate subset {a,b}")),
    "comment-after-row": (ROW_HEAD, "  {a} mid # note\n  {b} mid#x\n",
                          {0: 0, 1: 1, 2: 1, 7: 3}),
    "blank-in-body": (ROW_HEAD, "  {a} mid\n\n   \n\t\n  {b} mid\n", {0: 0, 1: 1, 2: 1, 7: 3}),
    "rank-token-digit-labels": (DIGIT_HEAD, "  {a} rank:1\n  {b} 1\n", {0: 0, 1: 1, 2: 2, 7: 3}),
    "plain-scale": (PLAIN_HEAD, "  {} 0\n  {a,b} 2\n  {c}\t1\n", {0: 0, 3: 2, 4: 1, 7: 3}),
    "plain-padded-digits": (PLAIN_HEAD, "  {a} 01\n",
                            (SpecValidationError, 5, "value '01' is not a label of scale 'm'")),
    "plain-rank-token": (PLAIN_HEAD, "  {a} rank:2\n  {b} rank:0\n  {b} 1\n",
                         (SpecParseError, 7, "duplicate subset {b}")),
    "bad-row-after-repeat": (ROW_HEAD, "  {a} mid\n  {a} mid\n  {b} huge\n",
                             (SpecValidationError, 7, "value 'huge' is not a label of scale 'm'")),
    "directive-after-bad-row": (ROW_HEAD, "  {a} huge\n  {b} mid\nscale x 2 y\nfoo 1\n",
                                (SpecParseError, 8, "unknown directive 'foo'")),
    "comment-lines-in-body": (ROW_HEAD,
                              "  {a} mid\n  # note\n# note\n \t \n  {a,b} hi\n  {a} mid\n",
                              (SpecParseError, 10, "duplicate subset {a}")),
    "comment-lines-before-bad-row": (ROW_HEAD, "  # note\n\t# note\n\n  {b} huge\n",
                                     (SpecValidationError, 8,
                                      "value 'huge' is not a label of scale 'm'")),
    "indented-after-omega": ("scale m 4\nomega a b c\n",
                             "  # note\n\n  {a} mid\nmeasure mu scale=m kind=table\n",
                             (SpecParseError, 5, "omega does not take indented lines")),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_measure_row_spellings_are_pinned(case):
    head, rows, expected = ROW_CASES[case]
    if isinstance(expected, dict):
        assert parse(head + rows).measures["mu"].values == expected
        return
    cls, line, message = expected
    with pytest.raises(cls) as info:
        parse(head + rows)
    assert type(info.value) is cls
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text, line", [
    ("  {a} mid\nscale m 4\n", 1),
    ("# head\n\n\t{a} mid\nscale m 4\n", 3),
])
def test_indented_line_before_any_block(text, line):
    with pytest.raises(SpecParseError, match="indented line outside a block") as info:
        parse(text)
    assert info.value.line == line


def test_comment_and_blank_lines_before_any_block_are_skipped():
    sf = parse("  # note\n \t \n\nscale m 4  # four points\n  \n")
    assert sf.scales["m"].size == 4


def test_canonical_measure_rows_skip_the_general_path(monkeypatch):
    """The canonical printer's `{a,b} label` rows resolve without the subset
    pattern: at n = 12 no row of the three printed tables reaches
    `parse_subset`, and each of k rows respelled another way reaches it
    exactly once."""
    from ordagg import specfile

    calls = []

    def counted(token, ground, line=None):
        calls.append(line)
        return parse_subset_orig(token, ground, line)

    parse_subset_orig = specfile.parse_subset
    monkeypatch.setattr(specfile, "parse_subset", counted)
    sf = parse(_labelled_spec(12, 41, 40))
    calls.clear()
    printed = format_specfile(sf)
    assert parse(printed) == sf
    assert calls == []

    lines = printed.splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if line.startswith("  {")]
    assert len(rows) == sum(len(m.values) for m in sf.measures.values()) > 9000
    respell = [
        lambda s, v: f"  {{ {', '.join(s[1:-1].split(','))} }} {v}\n",
        lambda s, v: f"  {s}\t{v}\n",
        lambda s, v: f"  {s}  {v}\n",
        lambda s, v: f"  {s}{v}\n",
        lambda s, v: f"  {s} rank:{int(v[1:])}\n",
    ]
    picked = rows[1::2000]
    assert len(picked) == len(respell)
    for i, how in zip(picked, respell):
        subset, value = lines[i].split()
        lines[i] = how(subset, value)
    assert parse("".join(lines)) == sf
    assert sorted(calls) == [i + 1 for i in picked]


# A full table written in mask order is read by `_full_table`; any other
# body, one by size then mask included, by the row loop.  The tables are
# additive (seeded weights, capped at the top), so they are monotone and
# take many values.
SCALE_POINTS = 21


def _table_spec(n: int, seed: int, labelled: bool = True, kind: str = "table",
                blanks: int = 1, after: bool = True, by_size: bool = False) -> list[str]:
    """A spec's lines: a full table `mu` on e0..e(n-1), in mask order or,
    if `by_size`, by size then mask (the order an older `format_specfile`
    printed), `blanks` blank lines, and, if `after`, a function block."""
    rng = random.Random(f"mask-order:{n}:{seed}")
    top = SCALE_POINTS - 1
    weights = [rng.randint(1, max(1, 3 * top // n)) for _ in range(n)]
    table = [0] * (1 << n)
    for a in range(1, 1 << n):
        low = a & -a
        table[a] = table[a ^ low] + weights[low.bit_length() - 1]
    table = [min(v, top) for v in table]
    table[-1] = top
    names = [f"e{i}" for i in range(n)]
    label = [f"v{k}" if labelled else str(k) for k in range(SCALE_POINTS)]
    lines = [f"scale m {SCALE_POINTS}"]
    if labelled:
        lines.append("labels m " + " ".join(label))
    lines += ["omega " + " ".join(names), f"measure mu scale=m kind={kind}"]
    for a in sorted(range(1 << n), key=int.bit_count) if by_size else range(1 << n):
        lines.append("  {" + ",".join(names[i] for i in range(n) if a >> i & 1) + "} "
                     + label[table[a]])
    lines += [""] * blanks
    if after:
        lines.append("function f scale=m")
        lines += [f"  {e} {label[i % SCALE_POINTS]}" for i, e in enumerate(names)]
    return lines


def _outcome(lines: list[str]):
    """The parsed spec, or the error's class, line and text."""
    try:
        return parse("\n".join(lines) + "\n")
    except (SpecParseError, SpecValidationError) as e:
        return type(e), e.line, str(e)


def _table_items(lines: list[str]) -> list[tuple[int, int]]:
    """`mu`'s subset -> rank dict from `_measure_rows`, in insertion order."""
    blocks = specfile._collect_blocks(lines)
    sf = specfile.SpecFile()
    specfile._build_scales(sf, blocks)
    specfile._build_ground(sf, blocks)
    b = next(b for b in blocks if b.kind == "measure")
    return list(specfile._measure_rows(b, sf.ground, sf.scales["m"]).items())


def _counted_row_reads(monkeypatch) -> list[int]:
    """The header line of each block, each time `_Block.rows()` is entered."""
    reads = []
    rows = specfile._Block.rows

    def counted(self):
        reads.append(self.line)
        return rows(self)

    monkeypatch.setattr(specfile._Block, "rows", counted)
    return reads


def _row_loop(monkeypatch):
    """Send every block to the row loop, as if no table were full and in order."""
    monkeypatch.setattr(specfile, "_full_table", lambda b, ground, scale: None)


FULL_TABLE_CASES = {
    "n12-labelled": dict(n=12, seed=1),
    "n12-unlabelled": dict(n=12, seed=2, labelled=False),
    "n12-last-block-trailing-blanks": dict(n=12, seed=3, blanks=3, after=False),
    "n12-chain-lower": dict(n=12, seed=4, kind="chain-lower"),
    "n16-labelled-trailing-blanks": dict(n=16, seed=5, blanks=2),
    "n16-unlabelled-no-blank": dict(n=16, seed=6, labelled=False, blanks=0),
    "n16-chain-lower": dict(n=16, seed=7, kind="chain-lower"),
    "n12-by-size": dict(n=12, seed=9, by_size=True),
    "n12-by-size-chain-lower": dict(n=12, seed=10, kind="chain-lower", by_size=True),
    "n16-by-size-unlabelled-trailing-blanks": dict(n=16, seed=11, labelled=False, blanks=2,
                                                   by_size=True),
}


@pytest.mark.parametrize("case", sorted(FULL_TABLE_CASES))
def test_full_table_reads_as_the_row_loop(case, monkeypatch):
    """Each table parses to what the row loop reads from the same rows, the
    last one respelled with a trailing comment, into the same dict order.
    A table by size is read by the row loop, so it parses to what the fast
    reader reads from the same table in mask order."""
    spec = FULL_TABLE_CASES[case]
    lines = _table_spec(**spec)
    last = max(i for i, line in enumerate(lines) if line.startswith("  {"))
    respelled = list(lines)
    respelled[last] += "  # the top"
    fast, fast_items = _outcome(lines), _table_items(lines)
    assert fast == _outcome(respelled)
    assert fast_items == _table_items(respelled)
    masks = range(1 << spec["n"])
    if spec.get("by_size"):
        masks = sorted(masks, key=int.bit_count)
    assert [mask for mask, _ in fast_items] == list(masks)
    if spec.get("by_size"):
        other = _table_spec(**{**spec, "by_size": False})
        assert _table_items(other) == sorted(fast_items)
    else:
        other = lines
        _row_loop(monkeypatch)
        assert _table_items(other) == fast_items
    assert _outcome(other) == fast


def _deviate(lines: list[str], row: int, how: str) -> list[str]:
    """`lines` with one deviation at table row `row`."""
    lines = list(lines)
    i = next(i for i, line in enumerate(lines) if line.startswith("measure")) + 1 + row
    subset, value = lines[i].split()
    if how == "blank-line":
        lines.insert(i, "")
    elif how == "comment":
        lines[i] += " # note"
    elif how == "rank-token":
        lines[i] = f"  {subset} rank:{value[1:]}"
    elif how == "tab":
        lines[i] = f"  {subset}\t{value}"
    elif how == "blank-in-braces":
        lines[i] = "  { " + subset[1:] + " " + value
    elif how == "swapped":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif how == "missing":
        del lines[i]
    elif how == "repeated":
        lines[i + 1] = lines[i]
    elif how == "no-subset":  # a bare label, which a prefix must not pass
        lines[i] = f"  {value}"
    elif how == "unknown-label":
        lines[i] = f"  {subset} v999"
    elif how == "non-monotone":  # the top on a set, the bottom on the next
        lines[i] = f"  {subset} v{SCALE_POINTS - 1}"
        lines[i + 1] = f"  {lines[i + 1].split()[0]} v0"
    elif how == "wrong-top":
        lines[i] = f"  {subset} v{SCALE_POINTS - 2}"
    return lines


HARMLESS = ("blank-line", "comment", "rank-token", "tab", "blank-in-braces", "swapped")
DEVIATIONS = HARMLESS + ("missing", "repeated", "no-subset", "unknown-label", "non-monotone",
                         "wrong-top")


@pytest.mark.parametrize("how", DEVIATIONS)
def test_full_table_deviation_reads_as_the_row_loop(how, monkeypatch):
    """One deviating row, in the first chunk, a middle one or the last,
    gives the row loop's result or error: class, line and text.  Only a
    harmless respelling leaves the table as it was."""
    n = 12
    base = _table_spec(n, seed=8)
    rows = [1, 1000, (1 << n) - 2]  # the first, a middle and the last chunk
    if how == "wrong-top":
        rows = [(1 << n) - 1]
    cases = [_deviate(base, row, how) for row in rows]
    fast = [_outcome(lines) for lines in cases]
    _row_loop(monkeypatch)
    assert fast == [_outcome(lines) for lines in cases]
    assert (fast == [_outcome(base)] * len(rows)) == (how in HARMLESS)


@pytest.mark.parametrize("by_size", [False, True])
@pytest.mark.parametrize("n, labelled, blanks", [
    (1, True, 0), (2, False, 1), (3, True, 0), (5, True, 2), (9, False, 0), (12, True, 1),
    (16, True, 2),
])
def test_full_table_skips_the_row_reader(n, labelled, blanks, by_size, monkeypatch):
    """A full table in mask order, and `format_specfile`'s text of it,
    never reach `_Block.rows()`; by size, it reaches it once from n = 3,
    where the two orders part.  The table with one comment reaches it
    once, from its first row."""
    reads = _counted_row_reads(monkeypatch)
    lines = _table_spec(n, seed=n, labelled=labelled, blanks=blanks, by_size=by_size)
    header = next(i for i, line in enumerate(lines) if line.startswith("measure")) + 1
    sf = parse("\n".join(lines) + "\n")
    assert sf.measures["mu"].is_total()
    assert reads.count(header) == (by_size and n > 2)
    printed = format_specfile(sf).splitlines()
    reads.clear()
    assert parse("\n".join(printed) + "\n") == sf
    assert printed.index("measure mu scale=m kind=table") + 1 not in reads
    reads.clear()
    lines[header + (1 << n) - 1] += " # the top"
    assert parse("\n".join(lines) + "\n") == sf
    assert reads.count(header) == 1


def test_full_table_by_size_reads_as_in_mask_order(monkeypatch):
    """A full table by size then mask, as an older `format_specfile`
    printed it, parses to the same spec as in mask order: it leaves the
    fast path at its first chunk, and the row loop reads it once."""
    reads = _counted_row_reads(monkeypatch)
    in_mask_order = parse("\n".join(_table_spec(12, seed=12)) + "\n")
    lines = _table_spec(12, seed=12, by_size=True)
    header = next(i for i, line in enumerate(lines) if line.startswith("measure")) + 1
    assert header not in reads
    assert parse("\n".join(lines) + "\n") == in_mask_order
    assert reads.count(header) == 1


def test_format_specfile_prints_measure_rows_in_mask_order():
    """Every measure block prints its rows in ascending mask order, the
    order `_full_table` reads: a full table and a partial one, each given
    out of that order, and a chain measure, printed as its full table."""
    sf = parse(
        "scale m 4\nomega a b c\n"
        "measure full scale=m kind=table\n  {} 0\n  {a} 1\n  {b} 1\n  {c} 1\n"
        "  {a,b} 2\n  {a,c} 2\n  {b,c} 2\n  {a,b,c} 3\n"
        "measure part scale=m kind=table\n  {c} 1\n  {a,b} 2\n"
        "measure low scale=m kind=chain-lower\n  {} 0\n  {c} 1\n  {b,c} 2\n  {a,b,c} 3\n"
    )
    blocks: dict[str, list[str]] = {}
    for line in format_specfile(sf).splitlines():
        if line.startswith("measure "):
            rows = blocks[line.split()[1]] = []
        elif line.startswith("  {"):
            rows.append(line.split()[0])
    powerset = ["{}", "{a}", "{b}", "{a,b}", "{c}", "{a,c}", "{b,c}", "{a,b,c}"]
    assert blocks == {"full": powerset, "part": ["{}", "{a,b}", "{c}", "{a,b,c}"],
                      "low": powerset}
