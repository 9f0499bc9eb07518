"""Command line behavior: golden outputs, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ordagg.cli import run

REPO = Path(__file__).resolve().parent.parent
SPEC_DIR = REPO / "specs"
E1 = str(SPEC_DIR / "e1.spec")
SIGNED = str(SPEC_DIR / "signed.spec")


def run_ok(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


class TestGoldenEval:
    def test_eval_sharp(self, capsys):
        out = run_ok(
            capsys,
            ["eval", E1, "--measure", "mu", "--function", "f", "--comm", "id",
             "--variant", "sharp"],
        )
        assert out == "interval=[0.4,0.5] sup=0.5\n"

    def test_eval_plain(self, capsys):
        out = run_ok(
            capsys,
            ["eval", E1, "--measure", "mu", "--function", "f", "--comm", "id",
             "--variant", "plain"],
        )
        assert out == "interval=[0.3,0.5] sup=0.5\n"

    def test_eval_default_variant_is_sharp(self, capsys):
        out = run_ok(
            capsys,
            ["eval", E1, "--measure", "mu", "--function", "f", "--comm", "id"],
        )
        assert out == "interval=[0.4,0.5] sup=0.5\n"

    def test_eval_dual(self, capsys):
        out = run_ok(
            capsys,
            ["eval-dual", E1, "--measure", "mu", "--function", "f", "--comm", "id",
             "--variant", "sharp"],
        )
        assert out == "interval=[0.5,0.6]\n"

    def test_byte_stable_across_runs(self, capsys):
        argv = ["eval", E1, "--measure", "mu", "--function", "f", "--comm", "id"]
        first = run_ok(capsys, argv)
        second = run_ok(capsys, argv)
        assert first == second


class TestDistributionQuantile:
    def test_distribution(self, capsys):
        out = run_ok(capsys, ["distribution", E1, "--measure", "mu", "--function", "f"])
        lines = out.splitlines()
        assert lines[0] == "x=0.0 value=1.0"
        assert lines[3] == "x=0.3 value=0.5"
        assert lines[10] == "x=1.0 value=0.0"

    def test_quantile_single_point(self, capsys):
        out = run_ok(
            capsys,
            ["quantile", E1, "--measure", "mu", "--function", "f", "--p", "0.5"],
        )
        assert out == "p=0.5 interval=[0.3,0.6]\n"

    def test_quantile_sweep(self, capsys):
        out = run_ok(capsys, ["quantile", E1, "--measure", "mu", "--function", "f"])
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[3] == "p=0.3 interval=[0.6,0.6]"
        assert lines[7] == "p=0.7 interval=[0.2,0.2]"

    def test_quantile_rank_token(self, capsys):
        out = run_ok(
            capsys,
            ["quantile", E1, "--measure", "mu", "--function", "f", "--p", "rank:5"],
        )
        assert out == "p=0.5 interval=[0.3,0.6]\n"

    def test_quantile_plain(self, capsys):
        out = run_ok(
            capsys,
            ["quantile", E1, "--measure", "mu", "--function", "f", "--p", "0.3",
             "--variant", "plain"],
        )
        assert out == "p=0.3 interval=[0.3,0.6]\n"


class TestSignedCommands:
    def test_eval_sym(self, capsys):
        out = run_ok(
            capsys,
            ["eval-sym", SIGNED, "--measure", "mu", "--function", "f", "--comm", "id"],
        )
        assert out == "interval=[0.25,0.5] sup=0.5\n"

    def test_eval_sym_negated(self, capsys, tmp_path):
        text = Path(SIGNED).read_text(encoding="utf-8").replace("a 0.75", "a -0.75").replace(
            "b -0.5", "b 0.5"
        )
        neg = tmp_path / "negated.spec"
        neg.write_text(text, encoding="utf-8")
        out = run_ok(
            capsys,
            ["eval-sym", str(neg), "--measure", "mu", "--function", "f",
             "--comm", "id"],
        )
        assert out == "interval=-[0.25,0.5] sup=-0.25\n"

    def test_eval_sym_empty_comm_neg_is_unknown(self, capsys):
        # an empty name is a name given, as for --comm, not the --comm default
        argv = ["eval-sym", SIGNED, "--measure", "mu", "--function", "f", "--comm", "id",
                "--comm-neg", ""]
        assert run(argv) == 3
        assert capsys.readouterr() == ("", "error: unknown comm-neg ''\n")

    def test_eval_asym(self, capsys):
        out = run_ok(
            capsys,
            ["eval-asym", SIGNED, "--measure", "mu", "--function", "f",
             "--comm-neg", "lneg", "--comm-pos", "lpos"],
        )
        assert out == "interval=[0.25,0.5] sup=0.5\n"

    def test_distribution_signed_function(self, capsys):
        out = run_ok(
            capsys, ["distribution", SIGNED, "--measure", "mu", "--function", "f"]
        )
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[0] == "x=-1 value=1"
        assert lines[3] == "x=-0.25 value=0.5"
        assert lines[8] == "x=1 value=0"

    def test_quantile_signed_median(self, capsys):
        out = run_ok(
            capsys,
            ["quantile", SIGNED, "--measure", "mu", "--function", "f", "--p", "0.5"],
        )
        assert out == "p=0.5 interval=[-0.25,0.75]\n"

    def test_distance(self, capsys):
        out = run_ok(
            capsys,
            ["distance", SIGNED, "--measure", "mu", "--function", "f",
             "--other", "g", "--comm", "id"],
        )
        assert out == "distance=0.25\n"

    def test_norms(self, capsys):
        out = run_ok(
            capsys,
            ["norm", SIGNED, "--measure", "mu", "--function", "f", "--kind", "kyfan"],
        )
        assert out == "norm=0.5\n"
        out = run_ok(
            capsys,
            ["norm", SIGNED, "--measure", "mu", "--function", "f", "--kind", "esssup"],
        )
        assert out == "norm=0.75\n"
        out = run_ok(
            capsys,
            ["norm", SIGNED, "--measure", "mu", "--function", "f", "--kind", "comm",
             "--comm", "id"],
        )
        assert out == "norm=0.5\n"


class TestCheckAndChains:
    def test_check_file(self, capsys):
        assert run_ok(capsys, ["check", E1]) == "ok=true\n"

    def test_check_minitive(self, capsys):
        out = run_ok(
            capsys, ["check", SIGNED, "--measure", "u12", "--property", "minitive"]
        )
        assert out == "minitive=true\n"
        out = run_ok(
            capsys, ["check", SIGNED, "--measure", "u12", "--property", "maxitive"]
        )
        assert out == "maxitive=false\n"

    def test_check_nullfunction(self, capsys):
        out = run_ok(
            capsys,
            ["check", SIGNED, "--measure", "mu", "--function", "f",
             "--property", "nullfunction"],
        )
        assert out == "nullfunction=false\n"

    def test_chain_verify_derive(self, capsys):
        out = run_ok(capsys, ["chain-verify", SIGNED, "--measure", "u12",
                              "--kind", "lower"])
        assert out == "chain={}|{a,b} verified=true\n"

    def test_chain_verify_derive_builds_the_chain_measure_once(self, capsys, monkeypatch):
        from ordagg import measures

        calls = []
        chain_measure = measures.chain_measure

        def counted(*args):
            calls.append(args)
            return chain_measure(*args)

        monkeypatch.setattr(measures, "chain_measure", counted)
        out = run_ok(capsys, ["chain-verify", SIGNED, "--measure", "u12",
                              "--kind", "lower"])
        assert out == "chain={}|{a,b} verified=true\n"
        assert len(calls) == 1

    def test_chain_verify_sets(self, capsys):
        out = run_ok(
            capsys,
            ["chain-verify", SIGNED, "--measure", "u12", "--kind", "lower",
             "--sets", "{};{a,b}"],
        )
        assert out == "verified=true\n"
        # mu gives {b} a value above bottom, so no chain through {a}
        # reproduces it from below
        out = run_ok(
            capsys,
            ["chain-verify", SIGNED, "--measure", "mu", "--kind", "lower",
             "--sets", "{};{a};{a,b}"],
        )
        assert out == "verified=false\n"
        out = run_ok(
            capsys,
            ["chain-verify", SIGNED, "--measure", "mu", "--kind", "upper",
             "--sets", "{};{a};{a,b}"],
        )
        assert out == "verified=false\n"

    def test_oracle_compare(self, capsys):
        out = run_ok(capsys, ["oracle-compare", E1])
        lines = out.splitlines()
        assert lines[-1] == "all=true"
        assert "compare=fan_sugeno measure=mu function=f comm=id variant=sharp match=true" in lines


    def test_oracle_compare_signed_is_pinned(self, capsys):
        # f and g take values in the carrier r#, so the comm id, into the
        # gain half r+, is left out of the fan_sugeno comparisons
        out = run_ok(capsys, ["oracle-compare", SIGNED])
        assert out == (
            "compare=minitive measure=mu match=true\n"
            "compare=lower-chain measure=mu match=true\n"
            "compare=minitive measure=u12 match=true\n"
            "compare=lower-chain measure=u12 match=true\n"
            "compare=fan_sugeno measure=mu function=f comm=lneg variant=sharp match=true\n"
            "compare=fan_sugeno measure=mu function=f comm=lneg variant=plain match=true\n"
            "compare=fan_sugeno measure=mu function=f comm=lpos variant=sharp match=true\n"
            "compare=fan_sugeno measure=mu function=f comm=lpos variant=plain match=true\n"
            "compare=fan_sugeno measure=mu function=g comm=lneg variant=sharp match=true\n"
            "compare=fan_sugeno measure=mu function=g comm=lneg variant=plain match=true\n"
            "compare=fan_sugeno measure=mu function=g comm=lpos variant=sharp match=true\n"
            "compare=fan_sugeno measure=mu function=g comm=lpos variant=plain match=true\n"
            "compare=fan_sugeno measure=u12 function=f comm=lneg variant=sharp match=true\n"
            "compare=fan_sugeno measure=u12 function=f comm=lneg variant=plain match=true\n"
            "compare=fan_sugeno measure=u12 function=f comm=lpos variant=sharp match=true\n"
            "compare=fan_sugeno measure=u12 function=f comm=lpos variant=plain match=true\n"
            "compare=fan_sugeno measure=u12 function=g comm=lneg variant=sharp match=true\n"
            "compare=fan_sugeno measure=u12 function=g comm=lneg variant=plain match=true\n"
            "compare=fan_sugeno measure=u12 function=g comm=lpos variant=sharp match=true\n"
            "compare=fan_sugeno measure=u12 function=g comm=lpos variant=plain match=true\n"
            "all=true\n"
        )


class TestExitClasses:
    def test_syntax_error_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("scale m 3\nscale m 4\n", encoding="utf-8")
        assert run(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "syntax error" in err and "line 2" in err

    def test_validation_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text(
            "scale m 3\nomega a b\nmeasure mu scale=m kind=table\n"
            "  {a} rank:2\n  {a,b} rank:1\n", encoding="utf-8"
        )
        assert run(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and "{a} > {a,b}" in err

    def test_domain_error_is_3(self, tmp_path, capsys):
        partial = tmp_path / "partial.spec"
        partial.write_text(
            "scale m 3\nomega a b\nmeasure mu scale=m kind=table\n"
            "  {a} rank:1\n"
            "function f scale=m\n  a rank:2\n  b rank:0\n"
            "comm id from=m to=m\n", encoding="utf-8"
        )
        assert run(
            ["eval", str(partial), "--measure", "mu", "--function", "f",
             "--comm", "id"]
        ) == 3
        err = capsys.readouterr().err
        assert "--extend" in err

    @pytest.mark.parametrize("digits", ["1_1", "+1", "05", "٣", "-0"])
    def test_noncanonical_rank_token(self, digits, tmp_path, capsys):
        spec = tmp_path / "rank.spec"
        spec.write_text(
            "scale m 3\nomega a b\nmeasure mu scale=m kind=table\n"
            f"  {{a}} rank:{digits}\n",
            encoding="utf-8",
        )
        assert run(["check", str(spec)]) == 1
        assert f"bad rank token 'rank:{digits}'" in capsys.readouterr().err
        assert run(
            ["quantile", E1, "--measure", "mu", "--function", "f",
             "--p", f"rank:{digits}"]
        ) == 3
        err = capsys.readouterr().err
        assert f"point 'rank:{digits}' is not on scale" in err

    @pytest.mark.parametrize("kind", ["scale", "rscale"])
    @pytest.mark.parametrize("digits", ["1_0", "+3", "03", "٣", "-0", "3.0"])
    def test_noncanonical_scale_size(self, kind, digits, tmp_path, capsys):
        # sizes follow the rank:<k> rule: ASCII decimals with no sign,
        # underscore or leading zero, so format_specfile prints them back
        spec = tmp_path / "size.spec"
        spec.write_text(f"omega a\n{kind} m {digits}\n", encoding="utf-8")
        assert run(["check", str(spec)]) == 1
        message = f"syntax error: line 2: bad size {digits!r}\n"
        assert capsys.readouterr() == ("", message)

    def test_partial_measure_with_extend(self, tmp_path, capsys):
        partial = tmp_path / "partial.spec"
        partial.write_text(
            "scale m 3\nomega a b\nmeasure mu scale=m kind=table\n"
            "  {a} rank:1\n"
            "function f scale=m\n  a rank:2\n  b rank:0\n"
            "comm id from=m to=m\n", encoding="utf-8"
        )
        out = run_ok(
            capsys,
            ["eval", str(partial), "--measure", "mu", "--function", "f",
             "--comm", "id", "--extend", "inner"],
        )
        assert out.startswith("interval=")

    def test_unknown_name_is_3(self, capsys):
        assert run(["eval", E1, "--measure", "nope", "--function", "f",
                    "--comm", "id"]) == 3

    def test_missing_file_is_3(self, capsys):
        assert run(["check", "/nonexistent/x.spec"]) == 3

    def test_file_that_is_not_utf8_is_3(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(b"scale m 2\n\xff\n")
        assert run(["check", str(spec)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read {spec}: 'utf-8' codec can't decode byte 0xff"
            " in position 10: invalid start byte\n"
        )


# Three-element ground set, labelled scales; each case has several faults,
# so the pinned message also pins which one is reported first.
ERR_HEAD = "scale m 4\nlabels m lo mid hi top\nrscale r 2\nlabels r 0 a b\nomega a b c\n"
ERR_CASES = {
    "full-table": (
        "measure mu scale=m kind=table\n  {} lo\n  {a} hi\n  {b} mid\n  {c} top\n"
        "  {a,b} mid\n  {a,c} hi\n  {b,c} hi\n  {a,b,c} top\n",
        "line 6: measure 'mu': measure not monotone: {a} > {a,b}",
    ),
    "partial-table-large": (
        "measure mu scale=m kind=table\n  {a} mid\n  {b} top\n  {c} hi\n"
        "  {a,b} hi\n  {b,c} mid\n",
        "line 6: measure 'mu': measure not monotone: {b} > {a,b}",
    ),
    "partial-table-small": (
        "measure mu scale=m kind=table\n  {b} top\n  {a,b} hi\n",
        "line 6: measure 'mu': measure not monotone: {b} > {a,b}",
    ),
    "value-label": (
        "measure mu scale=m kind=table\n  {a} mid\n  {b} huge\n  {c} huger\n",
        "line 8: value 'huge' is not a label of scale 'm'",
    ),
    "signed-value-label": (
        "function s scale=r\n  a -a\n  b -c\n  c d\n",
        "line 8: value '-c' is not a label of scale 'r'",
    ),
    "subset-element": (
        "measure mu scale=m kind=table\n  {a} mid\n  { b , z } hi\n  {y} hi\n",
        "line 8: unknown ground element 'z'",
    ),
    "function-element": (
        "function f scale=m\n  a mid\n  z hi\n  y hi\n",
        "line 8: unknown ground element 'z'",
    ),
    "chain-not-monotone": (
        "measure c scale=m kind=chain-lower\n  {} lo\n  {a} hi\n  {a,b} mid\n"
        "  {a,b,c} top\n",
        "line 6: measure 'c': chain values must be monotone along the chain",
    ),
    "chain-not-nested": (
        "measure c scale=m kind=chain-upper\n  {} lo\n  {a} mid\n  {b} mid\n"
        "  {a,b,c} top\n",
        "line 6: measure 'c': sets {a} and {b} are not nested; not a chain",
    ),
    "chain-without-endpoints": (
        "measure c scale=m kind=chain-lower\n  {a} mid\n  {a,b} hi\n",
        "line 6: measure 'c': chain must contain the empty set and the whole set",
    ),
}


@pytest.mark.parametrize("case", sorted(ERR_CASES))
def test_validation_error_text_is_pinned(case, tmp_path, capsys):
    body, message = ERR_CASES[case]
    spec = tmp_path / "bad.spec"
    spec.write_text(ERR_HEAD + body, encoding="utf-8")
    assert run(["check", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {message}\n"


def test_colliding_reflection_labels_are_a_validation_error(tmp_path, capsys):
    # "-a" would print signed rank 2 as the reflection of "a", which parses back as -1
    spec = tmp_path / "collide.spec"
    spec.write_text(
        "scale m 3\nrscale r 2\nlabels r 0 a -a\nomega x y\n"
        "measure mu scale=m kind=table\n  {x} rank:1\n  {y} rank:1\n"
        "function f scale=r\n  x a\n  y -a\n"
        "comm k from=m to=r\n", encoding="utf-8"
    )
    message = (
        "validation error: line 3: reflection chain 'r': label '-a' collides "
        "with the reflection of 'a'\n"
    )
    for argv in (["check", str(spec)],
                 ["eval", str(spec), "--measure", "mu", "--function", "f", "--comm", "k"]):
        assert run(argv) == 2
        assert capsys.readouterr().err == message


def test_labels_spelled_like_rank_tokens_are_a_validation_error(tmp_path, capsys):
    # "rank:0" at rank 1 would print f(x) as a token that parses back as rank 0
    spec = tmp_path / "ranklabel.spec"
    spec.write_text(
        "scale m 3\nlabels m lo rank:0 hi\nomega x\n"
        "measure mu scale=m kind=table\n  {x} hi\n"
        "function f scale=m\n  x rank:1\n", encoding="utf-8"
    )
    message = "validation error: line 2: chain 'm': label 'rank:0' starts with 'rank:'\n"
    for argv in (["check", str(spec)],
                 ["distribution", str(spec), "--measure", "mu", "--function", "f"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)


# Loader errors in the block headers and the `<key> <value>` rows, on the
# same head as ERR_CASES: (body, exit code, stderr line).  Header errors
# are reported on the header line, row errors on the row's line; as in
# ERR_CASES, a case with two faults pins which one is reported first.
def _header_cases(kind: str, keys: str) -> dict:
    first = keys.split()[0]
    return {
        f"{kind}-no-name": (f"{kind}\n", 1, f"syntax error: line 6: {kind} needs a name"),
        f"{kind}-invalid-name": (
            f"{kind} 9x\n", 1, "syntax error: line 6: invalid name '9x'"),
        f"{kind}-missing-key": (
            f"{kind} x\n", 1, f"syntax error: line 6: missing {first.split('=')[0]}=..."),
        f"{kind}-unknown-key": (
            f"{kind} x {keys} size=3\n", 1, "syntax error: line 6: unknown key 'size'"),
        f"{kind}-duplicate-key": (
            f"{kind} x {first} {keys}\n", 1,
            f"syntax error: line 6: duplicate key {first.split('=')[0]!r}"),
        f"{kind}-bare-key": (
            f"{kind} x {keys} scale\n", 1,
            "syntax error: line 6: expected key=value, got 'scale'"),
    }


LOADER_CASES = {
    **_header_cases("measure", "scale=m kind=table"),
    **_header_cases("function", "scale=m"),
    **_header_cases("comm", "from=m to=m"),
    "measure-duplicate-name": (
        "measure mu scale=m kind=table\n  {a} mid\nmeasure mu kind=table\n", 1,
        "syntax error: line 8: duplicate measure name 'mu'"),
    "function-duplicate-name": (
        "function f scale=m\n  a lo\n  b lo\n  c lo\nfunction f\n", 1,
        "syntax error: line 10: duplicate function name 'f'"),
    "comm-duplicate-name": (
        "comm k from=m to=m\ncomm k to=r\n", 1,
        "syntax error: line 7: duplicate comm name 'k'"),
    "function-token-count": (
        "function f scale=m\n  a lo\n  d mid hi\n  c\n", 1,
        "syntax error: line 8: expected `<element> <value>`, got 'd mid hi'"),
    "function-unknown-element": (
        "function f scale=m\n  a lo\n  d lo\n  b huge\n", 2,
        "validation error: line 8: unknown ground element 'd'"),
    "function-duplicate-element": (
        "function f scale=m\n  a lo\n  b lo\n  a huge\n", 1,
        "syntax error: line 9: duplicate element 'a'"),
    "function-unknown-label": (
        "function f scale=m\n  a lo\n  b huge\n  b lo\n", 2,
        "validation error: line 8: value 'huge' is not a label of scale 'm'"),
    "function-bad-rank-token": (
        "function f scale=m\n  a lo\n  b rank:01\n  c huge\n", 1,
        "syntax error: line 8: bad rank token 'rank:01'"),
    "function-rank-outside": (
        "function f scale=r\n  a rank:-2\n  b rank:3\n  c huge\n", 2,
        "validation error: line 8: rank 3 outside scale 'r'"),
    "function-missing-elements": (
        "function f scale=m\n  b lo\n", 2,
        "validation error: line 6: function 'f' is missing elements: a, c"),
    "comm-source-refl": (
        "comm k from=r to=m\n  huge\n", 2,
        "validation error: line 6: comm source must be a plain scale"),
    "comm-target-half": (
        "comm k from=m to=m+\n  huge\n", 2,
        "validation error: line 6: 'm+' needs a reflection scale"),
    "comm-token-count": (
        "comm k from=m to=m\n  lo lo\n  huge\n  lo lo\n", 1,
        "syntax error: line 8: expected `<p> <value>`, got 'huge'"),
    "comm-bad-source-label": (
        "comm k from=m to=m\n  lo lo\n  huge lo\n  lo lo\n", 2,
        "validation error: line 8: value 'huge' is not a label of scale 'm'"),
    "comm-bad-source-rank": (
        "comm k from=m to=m\n  lo lo\n  rank:+1 huge\n", 1,
        "syntax error: line 8: bad rank token 'rank:+1'"),
    "comm-duplicate-source": (
        "comm k from=m to=m\n  lo lo\n  rank:0 huge\n", 1,
        "syntax error: line 8: duplicate source point 'rank:0'"),
    "comm-bad-target": (
        "comm k from=m to=r+\n  lo 0\n  mid top\n", 2,
        "validation error: line 8: value 'top' is not a label of scale 'r+'"),
    "comm-not-increasing": (
        "comm k from=m to=m\n  lo lo\n  mid hi\n  hi mid\n  top top\n", 2,
        "validation error: line 6: comm 'k': commensurability function must be increasing"),
    "comm-not-total": (
        "comm k from=m to=m\n  lo lo\n  hi hi\n  top top\n", 2,
        "validation error: line 6: comm 'k' must be total on 'm'"),
    "comm-identity-sizes": (
        "comm k from=m to=r+\n", 2,
        "validation error: line 6: comm 'k': identity commensurability needs "
        "equal sizes: 'm' has 4, 'r+' has 3"),
    "labels-no-labels": (
        "labels m\n", 1, "syntax error: line 6: labels needs a scale name and labels"),
    "labels-duplicate": (
        "labels m lo mid hi top\n", 1,
        "syntax error: line 6: duplicate labels for scale 'm'"),
    "scale-no-size": ("scale x\n", 1, "syntax error: line 6: scale needs a name and a size"),
    "rscale-extra-arg": (
        "rscale s 2 3\n", 1, "syntax error: line 6: rscale needs a name and a size"),
    "scale-indented-line": (
        "scale x 3\n  lo\n", 1, "syntax error: line 7: scale does not take indented lines"),
    "omega-duplicate": ("omega a b\n", 1, "syntax error: line 6: duplicate omega line"),
    "measure-unknown-kind": (
        "measure mu scale=m kind=foo\n", 1, "syntax error: line 6: unknown measure kind 'foo'"),
    "unanimity-two-rows": (
        "measure u scale=m kind=unanimity\n  {a}\n  {b}\n", 1,
        "syntax error: line 6: unanimity needs exactly one coalition line"),
    "unanimity-row-value": (
        "measure u scale=m kind=unanimity\n  {a} rank:1\n", 1,
        "syntax error: line 7: expected a single `<subset>`, got '{a} rank:1'"),
    "measure-on-rscale": (
        "measure mu scale=r kind=table\n", 2,
        "validation error: line 6: measures take values in a plain scale"),
    "rscale-too-large": (
        "rscale s 5000\n", 2,
        "validation error: line 6: reflection chain 's': carrier exceeds the maximum size"),
    "rscale-label-count": (
        "rscale s 2\nlabels s a b\n", 2,
        "validation error: line 7: reflection chain 's': expected 3 labels for the "
        "nonnegative half, got 2"),
}


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_loader_error_text_is_pinned(case, tmp_path, capsys):
    body, code, message = LOADER_CASES[case]
    spec = tmp_path / "bad.spec"
    spec.write_text(ERR_HEAD + body, encoding="utf-8")
    assert run(["check", str(spec)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


# Errors on the omega line itself, which ERR_HEAD already declares.
GROUND_CASES = {
    "omega-bare": ("omega\n", 1, "syntax error: line 2: omega needs at least one element"),
    "omega-repeated": (
        "omega a a\n", 2, "validation error: line 2: ground set elements must be distinct"),
    "omega-17-elements": (
        "omega " + " ".join(f"e{i}" for i in range(17)) + "\n", 2,
        "validation error: line 2: ground set larger than 16 elements"),
}


@pytest.mark.parametrize("case", sorted(GROUND_CASES))
def test_ground_line_error_text_is_pinned(case, tmp_path, capsys):
    line, code, message = GROUND_CASES[case]
    spec = tmp_path / "bad.spec"
    spec.write_text("scale m 4\n" + line, encoding="utf-8")
    assert run(["check", str(spec)]) == code
    assert capsys.readouterr() == ("", message + "\n")


QUANTILE_POINTS = {
    "0.5": (0, "p=0.5 interval=[0.3,0.6]\n", ""),
    "rank:5": (0, "p=0.5 interval=[0.3,0.6]\n", ""),
    "rank:10": (0, "p=1.0 interval=[0.0,0.2]\n", ""),
    "5": (3, "", "error: point '5' is not on scale 'm'\n"),
    "0.55": (3, "", "error: point '0.55' is not on scale 'm'\n"),
    "rank:05": (3, "", "error: point 'rank:05' is not on scale 'm'\n"),
    "rank:": (3, "", "error: point 'rank:' is not on scale 'm'\n"),
    "rank:11": (3, "", "error: point 'rank:11' is not on scale 'm'\n"),
    "rank:-1": (3, "", "error: point 'rank:-1' is not on scale 'm'\n"),
}


@pytest.mark.parametrize("point", sorted(QUANTILE_POINTS))
def test_quantile_point_text_is_pinned(point, capsys):
    code, out, err = QUANTILE_POINTS[point]
    argv = ["quantile", E1, "--measure", "mu", "--function", "f", "--p", point]
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


def test_quantile_point_on_unlabelled_scale(tmp_path, capsys):
    spec = tmp_path / "plain.spec"
    spec.write_text(
        "scale m 3\nomega a\nmeasure mu scale=m kind=table\n"
        "function f scale=m\n  a 1\n", encoding="utf-8"
    )
    argv = ["quantile", str(spec), "--measure", "mu", "--function", "f"]
    assert run(argv + ["--p", "2"]) == 0
    assert capsys.readouterr() == ("p=2 interval=[0,1]\n", "")
    for point in ("3", "02", "rank:3"):
        assert run(argv + ["--p", point]) == 3
        assert capsys.readouterr() == ("", f"error: point {point!r} is not on scale 'm'\n")


# Options a subcommand needs only in some modes: a missing one is a domain
# error (exit 3), reported before any evaluation.
OPTION_CASES = {
    "nullfunction-without-function": (
        ["check", SIGNED, "--measure", "mu", "--property", "nullfunction"],
        "error: missing --function",
    ),
    "minitive-without-measure": (
        ["check", SIGNED, "--property", "minitive"],
        "error: missing --measure",
    ),
    "comm-norm-without-comm": (
        ["norm", SIGNED, "--measure", "mu", "--function", "f", "--kind", "comm"],
        "error: missing --comm",
    ),
    "derive-upper-chain": (
        ["chain-verify", SIGNED, "--measure", "u12", "--kind", "upper"],
        "error: deriving a chain without --sets is supported for kind=lower",
    ),
    "asym-comm-into-half": (
        ["eval-asym", SIGNED, "--measure", "mu", "--function", "f",
         "--comm-neg", "id", "--comm-pos", "lpos"],
        "error: commensurability destination 'r+' differs from function scale 'r#'",
    ),
}


# A bad --sets argument is a domain error, like a bad --p: the spec file
# itself is valid.
SETS_CASES = {
    "a": "error: expected a subset like {a,b}, got 'a'",
    "{a,b": "error: expected a subset like {a,b}, got '{a,b'",
    "{zz}": "error: unknown ground element 'zz'",
}


@pytest.mark.parametrize("sets", sorted(SETS_CASES))
def test_chain_verify_sets_error_is_a_domain_error(sets, capsys):
    argv = ["chain-verify", E1, "--measure", "mu", "--kind", "lower", "--sets", sets]
    assert run(argv) == 3
    assert capsys.readouterr() == ("", SETS_CASES[sets] + "\n")


@pytest.mark.parametrize("case", sorted(OPTION_CASES))
def test_option_error_text_is_pinned(case, capsys):
    argv, message = OPTION_CASES[case]
    assert run(argv) == 3
    assert capsys.readouterr() == ("", message + "\n")


# An empty name is a name given: every option that names a spec entry looks
# it up, so '' is unknown (exit 3), never taken as missing or as a default.
EMPTY_NAME_CASES = {
    "check-measure": ["check", SIGNED, "--measure", "", "--property", "minitive"],
    "check-function": ["check", SIGNED, "--measure", "mu", "--function", "",
                       "--property", "nullfunction"],
    "chain-verify-measure": ["chain-verify", SIGNED, "--measure", "", "--kind", "lower"],
    "distribution-function": ["distribution", SIGNED, "--measure", "mu", "--function", ""],
    "quantile-function": ["quantile", SIGNED, "--measure", "mu", "--function", ""],
    "eval-comm": ["eval", SIGNED, "--measure", "mu", "--function", "f", "--comm", ""],
    "eval-dual-comm": ["eval-dual", SIGNED, "--measure", "mu", "--function", "f",
                       "--comm", ""],
    "eval-sym-measure": ["eval-sym", SIGNED, "--measure", "", "--function", "f",
                         "--comm", "id"],
    "eval-asym-comm-neg": ["eval-asym", SIGNED, "--measure", "mu", "--function", "f",
                           "--comm-neg", "", "--comm-pos", "lpos"],
    "eval-asym-comm-pos": ["eval-asym", SIGNED, "--measure", "mu", "--function", "f",
                           "--comm-neg", "lneg", "--comm-pos", ""],
    "distance-other": ["distance", SIGNED, "--measure", "mu", "--function", "f",
                       "--other", "", "--comm", "id"],
    "norm-comm": ["norm", SIGNED, "--measure", "mu", "--function", "f", "--kind", "comm",
                  "--comm", ""],
}


@pytest.mark.parametrize("case", sorted(EMPTY_NAME_CASES))
def test_empty_name_is_unknown(case, capsys):
    argv = EMPTY_NAME_CASES[case]
    what = argv[argv.index("") - 1].removeprefix("--")
    assert run(argv) == 3
    assert capsys.readouterr() == ("", f"error: unknown {what} ''\n")


EXTEND_SPEC = (
    "scale m 3\nomega a b\nmeasure mu scale=m kind=table\n  {a} rank:1\n"
    "function g scale=m\n  a rank:0\n  b rank:2\ncomm id from=m to=m\n"
)


@pytest.mark.parametrize(
    "extend, distribution, interval",
    [
        # {b} lies in no member of the family but {a,b}: from below it gets
        # the bottom, from above the top
        ("inner", ("2", "0", "0"), "interval=[0,0] sup=0"),
        ("outer", ("2", "2", "2"), "interval=[1,2] sup=2"),
    ],
)
def test_extension_of_a_partial_measure_is_pinned(extend, distribution, interval,
                                                  tmp_path, capsys):
    spec = tmp_path / "partial.spec"
    spec.write_text(EXTEND_SPEC, encoding="utf-8")
    common = [str(spec), "--measure", "mu", "--function", "g", "--extend", extend]
    out = run_ok(capsys, ["distribution", *common])
    assert out == "".join(f"x={x} value={v}\n" for x, v in enumerate(distribution))
    assert run_ok(capsys, ["eval", *common, "--comm", "id"]) == interval + "\n"


# The installed entry point: one real `python -m ordagg.cli` process per
# exit class, output compared byte for byte.
PROCESS_CASES = {
    0: ("", ["eval", "{e1}", "--measure", "mu", "--function", "f", "--comm", "id"],
        "interval=[0.4,0.5] sup=0.5\n", ""),
    1: ("scale m 3\nscale m 4\n", ["check", "{spec}"],
        "", "syntax error: line 2: duplicate scale name 'm'\n"),
    2: ("scale m 3\nomega a b\nmeasure mu scale=m kind=table\n  {a} rank:2\n"
        "  {a,b} rank:1\n", ["check", "{spec}"],
        "", "validation error: line 3: measure 'mu': measure not monotone: {a} > {a,b}\n"),
    3: ("", ["eval", "{e1}", "--measure", "nope", "--function", "f", "--comm", "id"],
        "", "error: unknown measure 'nope'\n"),
}


@pytest.mark.parametrize("code", sorted(PROCESS_CASES))
def test_module_entry_point_exit_code(code, tmp_path):
    text, argv, out, err = PROCESS_CASES[code]
    spec = tmp_path / "case.spec"
    spec.write_text(text, encoding="utf-8")
    argv = [a.format(e1=E1, spec=spec) for a in argv]
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "ordagg.cli", *argv],
        capture_output=True, encoding="utf-8", timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
