"""Spec parsing, budgets, exit codes, and JSON determinism of the CLI."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusionring.cli import _cmd_axioms, main, parse_budget, parse_provider, _split_labels
from fusionring.core import Budget
from fusionring.errors import ParseError, UnsupportedProvider
from fusionring.rings import (
    AuProvider,
    DirectProductProvider,
    FreeProductProvider,
    character_ring,
    dump_ring_json,
    finite_group_ring,
    suq2_ring,
)


def test_parse_provider_simple_specs():
    assert parse_provider("suq2").name == "suq2"
    assert parse_provider("so3").name == "so3"
    assert parse_provider("uqsu11").name == "uqsu11"
    assert isinstance(parse_provider("au"), AuProvider)
    assert isinstance(parse_provider("au:3"), AuProvider)
    assert parse_provider("word:Z2*Z").name == "word:Z2*Z"


def test_parse_provider_composites():
    fp = parse_provider("free(so3,word:Z2)")
    assert isinstance(fp, FreeProductProvider)
    dp = parse_provider("prod(word:Z,word:Z)")
    assert isinstance(dp, DirectProductProvider)
    nested = parse_provider("free(free(so3,word:Z2),au)")
    assert isinstance(nested, FreeProductProvider)
    assert isinstance(nested.factors[0], FreeProductProvider)


def _table_ring_path(fixtures_dir, tmp_path):
    ring = character_ring(fixtures_dir / "s3_characters.json")
    path = tmp_path / "s3_table.json"
    dump_ring_json(ring, path)
    return path


def test_parse_provider_json_table(fixtures_dir, tmp_path):
    provider = parse_provider(f"json:{_table_ring_path(fixtures_dir, tmp_path)}")
    assert provider.num_irreducibles == 3


def test_parse_provider_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_provider("free(so3,")
    assert exc.value.position == 9
    with pytest.raises(ParseError) as exc:
        parse_provider("")
    assert exc.value.position == 0
    with pytest.raises(ParseError) as exc:
        parse_provider("bogus")
    assert exc.value.position == 0
    with pytest.raises(ParseError) as exc:
        parse_provider("suq2trailing")
    assert exc.value.position == 0
    with pytest.raises(ParseError) as exc:
        parse_provider("au:")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse_provider("free(so3,word:Z2")


# Every malformed spec with the message and offset its ParseError gave
# before bracketed ``json:`` paths were accepted.
SPEC_ERRORS = [
    ("", "empty provider spec", 0),
    ("bogus", "unrecognized provider at 'bogus'", 0),
    ("suq2trailing", "unrecognized provider at 'suq2trailing'", 0),
    ("au:x", "expected an integer after au:", 3),
    ("free(so3,", "unrecognized provider at ''", 9),
    ("free(so3,word:Z2", "expected ')'", 16),
    ("free(so3;word:Z2)", "unrecognized provider at 'so3;word:Z2)'", 5),
    ("prod(suq2)", "expected ',' between factors", 9),
    ("free(,suq2)", "unrecognized provider at ',suq2)'", 5),
    ("json:", "expected a path after json:", 5),
    ("free(json:,suq2)", "expected a path after json:", 10),
    ("prod(suq2,json:)", "expected a path after json:", 15),
    ("word:Y2", "bad factor 'Y2' (expected Z or Z<m>)", 5),
    ("free(word:Z2*Q,so3)", "bad factor 'Q' (expected Z or Z<m>)", 13),
    ("free(suq2,so3))", "trailing characters ')'", 14),
    ("free(au:3,au:)", "expected an integer after au:", 13),
]


@pytest.mark.parametrize("spec,message,position", SPEC_ERRORS)
def test_parse_errors_keep_their_message_and_offset(spec, message, position):
    with pytest.raises(ParseError) as exc:
        parse_provider(spec)
    assert (str(exc.value), exc.value.position) == (message, position)


def test_bracketed_json_path_may_hold_commas_and_parens(fixtures_dir, tmp_path, capsys):
    path = tmp_path / "ring (1),b.json"
    dump_ring_json(character_ring(fixtures_dir / "s3_characters.json"), path)
    assert parse_provider(f"json:[{path}]").num_irreducibles == 3
    assert parse_provider(f"free(json:[{path}],word:Z2)").factors[0].num_irreducibles == 3
    assert parse_provider(f"prod(suq2,json:[{path}])").factors[1].num_irreducibles == 3
    assert main(["axioms", "--ring", f"json:[{path}]"]) == 0
    capsys.readouterr()
    # Unbracketed, the path still ends at the first ',' or ')'.
    assert main(["axioms", "--ring", f"json:{path}"]) == 1
    assert f"cannot read ring file '{tmp_path}/ring (1'" in capsys.readouterr().err
    for spec, position in (("json:[]", 6), ("free(json:[],so3)", 11)):
        with pytest.raises(ParseError, match="^expected a path after json:$") as exc:
            parse_provider(spec)
        assert exc.value.position == position


def test_parse_budget():
    assert parse_budget(None).max_irreducibles == 64
    b = parse_budget("max_irreducibles=20,max_rounds=4")
    assert b.max_irreducibles == 20
    assert b.max_rounds == 4
    with pytest.raises(ParseError):
        parse_budget("max_depth=3")
    with pytest.raises(ParseError):
        parse_budget("max_rounds=three")
    with pytest.raises(ParseError):
        parse_budget("max_rounds")
    with pytest.raises(ParseError):
        parse_budget("max_irreducibles=0")
    with pytest.raises(ParseError):
        parse_budget("max_label_size=-2")


@pytest.mark.parametrize(
    "text, message",
    [
        ("max_depth=3",
         "unknown budget key 'max_depth' (allowed: max_irreducibles, max_rounds, max_label_size)"),
        ("max_rounds=three", "budget value for max_rounds must be an integer, got 'three'"),
        ("max_rounds", "budget entries look like key=value, got 'max_rounds'"),
        ("max_rounds=0", "bad budget: max_rounds must be positive"),
        ("max_label_size=-2", "bad budget: max_label_size must be positive"),
    ],
)
def test_budget_errors_keep_their_text(text, message):
    with pytest.raises(ParseError) as exc:
        parse_budget(text)
    assert str(exc.value) == message


def test_nsequence_on_a_group_table_read_from_json(tmp_path, capsys):
    # A group ring is cocommutative whether it was built from its
    # multiplication table or read back from the JSON one.
    path = tmp_path / "z6.json"
    names = [f"g{k}" for k in range(6)]
    table = {(names[a], names[b]): names[(a + b) % 6] for a in range(6) for b in range(6)}
    dump_ring_json(finite_group_ring(table, "group:Z6"), path)
    assert main(["nsequence", "--ring", f"json:{path}"]) == 0
    out = capsys.readouterr().out
    assert "torsion degree: 1 (stabilized)" in out and "totally disconnected" in out


def test_split_labels_respects_parens():
    assert _split_labels("a,(b,c),d") == ["a", "(b,c)", "d"]
    assert _split_labels(" x , y ") == ["x", "y"]


def test_axioms_exit_codes(fixtures_dir, capsys):
    assert main(["axioms", "--ring", "suq2", "--budget", "max_irreducibles=8"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    bad = fixtures_dir / "bad_ring.json"
    assert main(["axioms", "--ring", f"json:{bad}"]) == 1
    err = capsys.readouterr().err
    assert "invalid ring" in err


def test_decompose_refuses_an_id_that_spells_another_word(capsys):
    # On this nested product 0:a.a^2 names a one-letter word but parses as a.a^2.
    assert main(["decompose", "--ring", "free(word:Z2,free(word:Z2,word:Z3))", "0:a.a^2", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no irreducible with id '0:a.a^2'" in captured.err


def test_nsequence_refuses_a_window_above_the_scan_limit(capsys):
    argv = ["nsequence", "--ring", "word:Z2*Z", "--budget"]
    assert main([*argv, "max_irreducibles=10001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: word:Z2*Z: an infinite group is scanned over the budget's window,"
        " and 10001 labels are more than the limit of 10000\n"
    )
    assert main([*argv, "max_irreducibles=10000", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert (report["scanned"], report["degree"]) == (10_000, 1)


@pytest.mark.parametrize("command", ["torsion", "component"])
@pytest.mark.parametrize("count", ["10001", "100000000"])
def test_torsion_scans_refuse_a_window_above_the_scan_limit(command, count, capsys):
    assert main([command, "--ring", "suq2", "--budget", f"max_irreducibles={count}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: suq2: the torsion scan runs over the budget's window,"
        f" and {count} labels are more than the limit of 10000\n"
    )


@pytest.mark.parametrize("kind, scope", [("central", "central closure"), ("forcing", "normal forcing closure")])
@pytest.mark.parametrize("count", ["10001", "100000000"])
def test_conjugation_closures_refuse_a_window_above_the_scan_limit(kind, scope, count, capsys, monkeypatch):
    # Both listed the budget's window first: 10^8 gave no answer in 20 s.
    # Any listing fails at once, so a closure that lists first cannot hang.
    def enumerate_(self, n):
        raise AssertionError(f"listed a window of {n}")

    monkeypatch.setattr(type(suq2_ring()), "enumerate", enumerate_)
    argv = ["closure", "--kind", kind, "--ring", "suq2", "--generators", "u1"]
    assert main([*argv, "--budget", f"max_irreducibles={count}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: suq2: the {scope} conjugates by the budget's window,"
        f" and {count} labels are more than the limit of 10000\n"
    )


def test_forcing_closure_at_a_window_of_two_thousand_answers(capsys):
    # It once ran out of a 2 GB address space in about 15 s: each pair of
    # member and window label kept a triple product with every multiplicity.
    argv = ["closure", "--kind", "forcing", "--ring", "suq2", "--generators", "u1"]
    assert main([*argv, "--budget", "max_irreducibles=2000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "forcing closure of {u1}: 9 labels, status budget_exceeded\n" in captured.out


def test_torsion_scan_at_the_scan_limit_answers_as_before(capsys):
    # The --json bytes of this run before the limit was added.
    assert main(["torsion", "--ring", "suq2", "--budget", "max_irreducibles=10000", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "84fa2cb54201da328447c9c4995b40f1bf74ef563f2d84f3bcbe771fadc9e606"
    )


@pytest.mark.parametrize("spec", ["suq2", "free(so3,word:Z2)"])
@pytest.mark.parametrize("count", ["257", "1000000"])
def test_axioms_refuses_a_window_above_the_limit(spec, count, capsys):
    # suq2 at 10^6 gave no answer in 20 s; the harness's work grows as the
    # cube of the window.
    assert main(["axioms", "--ring", spec, "--budget", f"max_irreducibles={count}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: {spec}: the axiom check runs over the budget's window,"
        f" and {count} labels are more than the limit of 256\n"
    )


def test_axioms_refuses_before_listing_and_answers_at_the_limit(fixtures_dir, tmp_path, capsys):
    ring = suq2_ring()
    with pytest.raises(UnsupportedProvider, match="1000000 labels are more than the limit of 256$"):
        _cmd_axioms(argparse.Namespace(seed=0), ring, Budget(max_irreducibles=10**6))
    assert ring._interned == {}
    assert main(["axioms", "--ring", "word:Z", "--budget", "max_irreducibles=256"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "window: 256 irreducibles, 65536 pairs, 264 triples (seed 0)", "ok",
    ]
    # A finite ring is checked whole whatever its budget.
    path = _table_ring_path(fixtures_dir, tmp_path)
    assert main(["axioms", "--ring", f"json:{path}", "--budget", "max_irreducibles=1000000"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "window: 3 irreducibles, 9 pairs, 227 triples (seed 0)", "ok",
    ]


def test_usage_errors_exit_two(capsys):
    assert main(["nsequence", "--ring", "suq2"]) == 2
    assert main(["nsequence", "--ring", "word:Z99999999999999999999", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "more than the limit of 10000" in captured.err
    assert main(["decompose", "--ring", "so3", "v1", "nope"]) == 2
    assert main(["torsion", "--ring", "free(so3,"]) == 2
    assert "offset 9" in capsys.readouterr().err
    assert main(["uqverify", "--q", "abc"]) == 2
    capsys.readouterr()
    assert main(["torsion", "--ring", "suq2", "--budget", "max_irreducibles=0"]) == 2
    assert capsys.readouterr().err == "error: bad budget: max_irreducibles must be positive\n"
    for dmax in ("0", "-3"):
        assert main(["chain", "--ring", "au", "--dmax", dmax, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --dmax must be positive, got {dmax}\n"


def test_budget_is_refused_where_it_is_not_read(fixtures_dir, tmp_path, capsys):
    # decompose and dimideal run no budgeted computation, so they take no --budget.
    ring = f"json:{_table_ring_path(fixtures_dir, tmp_path)}"
    for argv in (["decompose", "--ring", "so3", "v1", "v1"], ["dimideal", "--ring", ring]):
        assert main(argv + ["--budget", "max_rounds=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --budget max_rounds=1" in captured.err


def test_decompose_text_output(capsys):
    assert main(["decompose", "--ring", "uqsu11", "u+1", "u+1"]) == 0
    assert capsys.readouterr().out.strip() == "u+1 (x) u+1 = u-0 + u-2"
    assert main(["decompose", "--ring", "so3", "v1", "v1"]) == 0
    assert capsys.readouterr().out.strip() == "v1 (x) v1 = v0 + v1 + v2"


def test_torsion_json_is_byte_deterministic(capsys):
    argv = ["torsion", "--ring", "uqsu11", "--budget", "max_irreducibles=12", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "torsion"
    assert doc["report"]["certified"] == ["u+0", "u-0"]
    assert first == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_closure_command(capsys):
    argv = [
        "closure", "--ring", "uqsu11", "--generators", "u-0", "--kind", "generated",
        "--json",
    ]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["labels"] == ["u+0", "u-0"]
    assert doc["report"]["status"] == "saturated"


def test_nsequence_command(capsys):
    assert main(["nsequence", "--ring", "word:Z2*Z2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["degree"] == 1
    assert doc["report"]["totally_disconnected"] is True


def test_component_command(capsys):
    argv = ["component", "--ring", "uqsu11", "--budget", "max_irreducibles=20", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "normal_with_finite_component_group"
    assert doc["report"]["component_group_order"] == 2
    assert main(["component", "--ring", "free(so3,word:Z2)", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "non_normal_witness"
    assert doc["report"]["witness"] == "v1.a.v1"


def test_chain_command_on_block_ring(capsys):
    assert main(["chain", "--ring", "au", "--dmax", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["strictly_increasing_up_to"] == 4
    stages = doc["report"]["stages"]
    assert [s["witnesses"] for s in stages] == [
        ["Uu"], ["UUuu"], ["UUUuuu"], ["UUUUuuuu"]
    ]


def test_chain_command_generic_ring(capsys):
    assert main(["chain", "--ring", "word:Z2*Z3", "--dmax", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["report"]["stages"]) == 2


def test_dimideal_command(fixtures_dir, tmp_path, capsys):
    ring = f"json:{_table_ring_path(fixtures_dir, tmp_path)}"
    assert main(["dimideal", "--ring", ring, "--labels", "triv,sgn"]) == 0
    out = capsys.readouterr().out
    assert "exact recovery" in out
    assert main(["dimideal", "--ring", ring, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["exact"] is True
    assert doc["report"]["recovered"] == ["sgn", "triv", "std"]


@pytest.mark.parametrize(
    "name, content",
    [
        ("missing.json", None),
        ("truncated.json", '{"unit": '),
        ("scalar_irreducibles.json", '{"unit": "e", "irreducibles": 5, "fusion": []}'),
        ("zero_dim.json", '{"unit": "e", "irreducibles": [{"id": "e", "dim": 0, "conj": "e"}], "fusion": []}'),
        ("list_id.json", '{"unit": "e", "irreducibles": [{"id": ["e"], "dim": 1, "conj": "e"}], "fusion": []}'),
        ("list.json", "[1, 2]"),
        ("string.json", '"x"'),
        ("float_dim.json", '{"unit": "e", "irreducibles": [{"id": "e", "dim": 1.9, "conj": "e"}], '
                           '"fusion": [{"left": "e", "right": "e", "result": {"e": 1}}]}'),
        ("string_dim.json", '{"unit": "e", "irreducibles": [{"id": "e", "dim": "1", "conj": "e"}], '
                            '"fusion": [{"left": "e", "right": "e", "result": {"e": 1}}]}'),
        ("bool_dim.json", '{"unit": "e", "irreducibles": [{"id": "e", "dim": true, "conj": "e"}], '
                          '"fusion": [{"left": "e", "right": "e", "result": {"e": 1}}]}'),
        ("float_mult.json", '{"unit": "e", "irreducibles": [{"id": "e", "dim": 1, "conj": "e"}], '
                            '"fusion": [{"left": "e", "right": "e", "result": {"e": 1.7}}]}'),
        ("string_mult.json", '{"unit": "e", "irreducibles": [{"id": "e", "dim": 1, "conj": "e"}], '
                             '"fusion": [{"left": "e", "right": "e", "result": {"e": "1"}}]}'),
        ("bool_mult.json", '{"unit": "e", "irreducibles": [{"id": "e", "dim": 1, "conj": "e"}], '
                           '"fusion": [{"left": "e", "right": "e", "result": {"e": true}}]}'),
        ("empty_id.json", '{"unit": "e", "irreducibles": [{"id": "e", "dim": 1, "conj": "e"}, '
                          '{"id": "", "dim": 1, "conj": ""}], "fusion": ['
                          '{"left": "e", "right": "e", "result": {"e": 1}}, '
                          '{"left": "e", "right": "", "result": {"": 1}}, '
                          '{"left": "", "right": "e", "result": {"": 1}}, '
                          '{"left": "", "right": "", "result": {"e": 1}}]}'),
    ],
)
def test_malformed_ring_file_is_an_invalid_ring(name, content, tmp_path, capsys):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    assert main(["axioms", "--ring", f"json:{path}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid ring: ")
    assert captured.err.count("\n") == 1


def test_not_saturated_error_is_independent_of_the_hash_seed():
    # Set iteration order follows PYTHONHASHSEED; the error must not.
    argv = ["dimideal", "--ring", "prod(word:Z2,word:Z3)", "--labels", "(e,e),(a,e),(e,a),(a,a)"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    errors = set()
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "fusionring.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        errors.add(done.stderr)
    assert errors == {"error: subset not closed under conjugation and products: "
                      "'(a,a^2)' is reached but not listed\n"}


def test_dimideal_on_infinite_ring_without_labels(capsys):
    assert main(["dimideal", "--ring", "suq2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: suq2: dimension-ideal recovery needs a finite ring\n"


def test_uq_verify_alias_and_negative_q(capsys):
    assert main(["uq", "verify", "--q", "-1/2", "--nmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "[pass] relations" in out
    assert out.strip().endswith("ok")
    assert main(["uqverify", "--q=-2/3", "--nmax", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["ok"] is True
    assert doc["report"]["q"] == -2 / 3


OUT_OF_RANGE_Q = [("-1e80", "-1e+80"), ("-1e200", "-1e+200"), ("-1e400", "-1e+400"), ("-1e-200", "-1e-200"),
                  ("-1e60", "-1e+60"), ("-1e-55", "-1e-55")]


@pytest.mark.parametrize("q, shown", OUT_OF_RANGE_Q, ids=[q for q, _ in OUT_OF_RANGE_Q])
def test_uq_verify_refuses_q_out_of_double_range(q, shown, capsys):
    # -1e400 does not fit a double; the others do, but their q-integers
    # or their powers q^n and q^-n up to level 6 do not.  At -1e60 and
    # -1e-55 only q^6 or q^-6 overflows.
    assert main(["uq", "verify", "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q = {shown} is out of range for double precision\n"


@pytest.mark.parametrize("q, shown", [("-10", "-10"), ("-250000", "-250000"), ("-1234567", "-1.23457e+6")])
def test_an_integer_q_out_of_range_is_written_whole(q, shown, capsys):
    # q = -10 fails at level 50, where its unitarizer leaves the normal
    # doubles, and the larger q sooner.  An integer of up to six digits is
    # written out, not as -1e+1.
    assert main(["uq", "verify", "--q", q, "--nmax", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q = {shown} is out of range for double precision\n"


def test_uq_verify_refuses_a_negative_nmax(capsys):
    # A battery over no levels would check nothing and report "ok".
    assert main(["uq", "verify", "--q", "-1/2", "--nmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_max must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv", [["--q", "-1e80"], ["--q", "-1e400"], ["--q", "-1/2", "--nmax", "-1"],
                                  ["--q", "-2", "--nmax", "95"]])
def test_numeric_refusals_exit_two_without_a_traceback(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "fusionring.cli", "uq", "verify", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    # The error line is all: no warning from a model past double range.
    (line,) = done.stderr.splitlines(keepends=True)
    assert line.startswith("error: ") and line.endswith("\n")


def test_uq_verify_at_large_but_representable_q_still_runs(capsys):
    # At -1e40 every q-integer up to level 6 fits a double: the battery
    # runs and reports its failures instead of refusing q.
    assert main(["uq", "verify", "--q", "-1e40"]) == 1
    assert capsys.readouterr().out.strip().endswith("FAILED")


def test_deep_au_cancellation_exits_cleanly(capsys):
    assert main(["decompose", "--ring", "au", "u" * 1500, "U" * 1500, "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)["report"]["terms"]
    assert len(terms) == 1501
    assert [i for i, _m in terms[:2]] == ["e", "uU"]


def test_deep_free_product_cancellation_exits_cleanly(capsys):
    # 1200 junctions cancel in turn: a.a -> e, then v1.v1 -> v0 + v1 + v2.
    left, right = ".".join(["a", "v1"] * 600), ".".join(["v1", "a"] * 600)
    assert main(["decompose", "--ring", "free(so3,word:Z2)", left, right, "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)["report"]["terms"]
    assert len(terms) == 1201
    assert terms[0] == ["e", 1]


def test_au_rank_takes_only_decimal_digits():
    # "²" is a digit to str.isdigit but not to int(): a parse error, not a crash.
    with pytest.raises(ParseError) as exc:
        parse_provider("au:²")
    assert exc.value.position == 3
    with pytest.raises(ParseError) as exc:
        parse_provider("au:12²")
    assert exc.value.position == 5


# int() reads at most 4,300 digits by default; past that each input is
# refused with one error line instead of a ValueError traceback.
_DIGITS = "9" * 5000
LONG_DIGIT_INPUTS = [
    (["--ring", "suq2", "u" + _DIGITS, "u1"], "no irreducible with id 'u9"),
    (["--ring", "uqsu11", "u+" + _DIGITS, "u+1"], "no irreducible with id 'u+9"),
    (["--ring", "word:Z", "a^" + _DIGITS, "a"], "no irreducible with id 'a^9"),
    (["--ring", "word:Z" + _DIGITS, "a", "a"], "too many digits in a cyclic order (at offset 5)"),
    (["--ring", "au:" + _DIGITS, "u", "u"], "too many digits after au: (at offset 3)"),
]


@pytest.mark.parametrize("argv, message", LONG_DIGIT_INPUTS,
                         ids=["suq2-label", "uqsu11-label", "word-label", "word-spec", "au-spec"])
def test_digit_strings_past_the_int_limit_are_refused(argv, message, capsys):
    assert main(["decompose", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def _z2_table(x: str) -> dict:
    """The JSON table of Z2 = {e, x}."""
    pairs = {("e", "e"): "e", ("e", x): x, (x, "e"): x, (x, x): "e"}
    return {
        "unit": "e",
        "irreducibles": [{"id": i, "dim": 1, "conj": i} for i in ("e", x)],
        "fusion": [{"left": l, "right": r, "result": {w: 1}} for (l, r), w in pairs.items()],
    }


# A message quotes at most a fixed prefix of the input text and its length,
# so a long label still gives one short error line.  So does a malformed
# ring table for each long id, pair, entry or row it is refused for.
_LONG = "x" * 5000
_ID = "x" * 3000
_Z2 = _z2_table(_ID)
_E = {"id": "e", "dim": 1, "conj": "e"}
# {e, a, b} with every product of a and b equal to e is not associative:
# (ab)b = b but a(bb) = a.
_LOOP_IDS = ("e", "a" * 3000, "b" * 3000)
_LOOP = {
    "unit": "e",
    "irreducibles": [{"id": i, "dim": 1, "conj": i} for i in _LOOP_IDS],
    "fusion": [{"left": l, "right": r, "result": {r if l == "e" else l if r == "e" else "e": 1}}
               for l in _LOOP_IDS for r in _LOOP_IDS],
}
LONG_TABLES = {
    "unit": {**_Z2, "unit": "u" * 5000},
    "entry": {**_Z2, "irreducibles": [_E, {"id": _ID, "conj": _ID}]},
    "entry-id-type": {**_Z2, "irreducibles": [_E, {"id": [_ID], "dim": 1, "conj": _ID}]},
    "dim": {**_Z2, "irreducibles": [_E, {"id": _ID, "dim": "1" * 3000, "conj": _ID}]},
    "duplicate-id": {**_Z2, "irreducibles": [_E, *_Z2["irreducibles"][1:] * 2]},
    "row": {**_Z2, "fusion": [*_Z2["fusion"], {"left": _ID, "right": _ID}]},
    "duplicate-pair": {**_Z2, "fusion": [*_Z2["fusion"], _Z2["fusion"][-1]]},
    "unknown-pair": {**_Z2, "fusion": [*_Z2["fusion"], {"left": "e", "right": "y" * 3000, "result": {"e": 1}}]},
    "missing-pair": {**_Z2, "fusion": _Z2["fusion"][:-1]},
    "result-id": {**_Z2, "fusion": [{**row, "result": {"y" * 3000: 1}} for row in _Z2["fusion"]]},
    "multiplicity": {**_Z2, "fusion": [{**row, "result": {_ID: "1" * 3000}} for row in _Z2["fusion"]]},
    "conjugation": {**_Z2, "irreducibles": [_E, {"id": _ID, "dim": 1, "conj": "y" * 3000}]},
    "not-a-group": _LOOP,
}
LONG_LABELS = [
    ("suq2", "u" + "9" * 5000, "(5001 characters)"),
    ("uqsu11", _LONG, "(5000 characters)"),
    ("au", _LONG, "(5000 characters)"),
    ("word:Z2*Z", "b" * 5000, "(5000 characters) (it parses as 'b^5000')"),
    ("free(so3,word:Z2)", "v1." * 5000 + "v1", "(15002 characters) does not alternate factors"),
    ("prod(suq2,word:Z2)", _LONG, "bad pair id 'xxx"),
    ("json", _LONG, "(5000 characters)"),
    *((f"malformed:{name}", "e", "characters)") for name in LONG_TABLES),
]


@pytest.mark.parametrize("ring, label, message", LONG_LABELS,
                         ids=["su2", "su11", "au", "words", "free", "prod", "table",
                              *(f"malformed-table-{name}" for name in LONG_TABLES)])
def test_a_long_label_gives_one_short_error_line(ring, label, message, fixtures_dir, tmp_path, capsys):
    code, prefix = 2, "error: "
    if ring == "json":
        ring = f"json:{_table_ring_path(fixtures_dir, tmp_path)}"
    elif ring.startswith("malformed:"):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(LONG_TABLES[ring.removeprefix("malformed:")]))
        ring, code, prefix = f"json:{path}", 1, "invalid ring: "
    assert main(["decompose", "--ring", ring, label, label]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert message in captured.err
    assert len(captured.err) < len(ring) + 160


@pytest.mark.parametrize("argv", [
    ["torsion", "--ring", "suq2", "--budget", _LONG],
    ["torsion", "--ring", "suq2", "--budget", _LONG + "=1"],
    ["torsion", "--ring", "suq2", "--budget", "max_rounds=" + _LONG],
    ["torsion", "--ring", "free(suq2,so3)" + _LONG],
    ["uqverify", "--q", _LONG],
], ids=["budget-entry", "budget-key", "budget-value", "trailing-spec", "q"])
def test_a_long_usage_error_input_gives_one_short_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "(5000 characters)" in captured.err
    assert len(captured.err) < 300


def _nested(depth: int) -> str:
    return "free(" * depth + "suq2" + ",so3)" * depth


def test_products_nested_past_the_limit_are_refused_at_the_first_one_past_it(capsys):
    for depth in (33, 3000):
        with pytest.raises(ParseError) as exc:
            parse_provider(_nested(depth))
        assert exc.value.position == 32 * len("free(")
        assert main(["decompose", "--ring", _nested(depth), "e", "e"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: products nested more than 32 deep (at offset 160)\n"
    right = "prod(so3," * 33 + "word:Z2" + ")" * 33
    with pytest.raises(ParseError) as exc:
        parse_provider(right)
    assert exc.value.position == 32 * len("prod(so3,")


def test_products_nested_at_the_limit_still_run(capsys):
    assert main(["decompose", "--ring", _nested(32), "u1", "u1"]) == 0
    assert capsys.readouterr().out.endswith("= e + u2\n")
    assert main(["axioms", "--ring", _nested(32), "--budget", "max_irreducibles=20"]) == 0
    assert capsys.readouterr().out.endswith("ok\n")


def test_a_reader_that_closes_stdout_early_gets_exit_one_and_no_traceback():
    # The report is about 360 KB, far more than a pipe buffers, so the
    # command is still writing when the reader goes away.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["torsion", "--ring", "word:Z2*Z2", "--budget", "max_irreducibles=400", "--json"]
    with subprocess.Popen([sys.executable, "-m", "fusionring.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 1


def test_chain_refuses_a_dmax_past_its_limit(capsys):
    for dmax in ("33", "100000"):
        assert main(["chain", "--ring", "au", "--dmax", dmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --dmax must be at most 32, got {dmax}\n"


@pytest.mark.parametrize("length", [60, 3000])
def test_axiom_violations_cut_each_long_id(length, tmp_path, capsys):
    # Z2 with x (x) x = 2*e fails six axioms; a Frobenius line names x five
    # times, so each mention is cut: at most 60 characters of the id, then
    # its length.  An id of at most 60 characters is written whole.
    x = "x" * length
    table = _z2_table(x)
    table["fusion"][-1]["result"] = {"e": 2}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(table))
    assert main(["axioms", "--ring", f"json:{path}"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 7
    assert lines[0].startswith(f"invalid ring: json:{path}: 6 axiom violation(s), first: ")
    if length == 60:
        assert lines[1] == f"  [frobenius] ('e', '{x}', '{x}'): N^{x} = 1 but N^e_{{{x},{x}}} = 2"
        assert "characters)" not in captured.err
    else:
        cut, quoted = f"{x[:60]}... (3000 characters)", f"'{x[:60]}'... (3000 characters)"
        assert lines[1] == f"  [frobenius] ('e', {quoted}, {quoted}): N^{cut} = 1 but N^e_{{{cut},{cut}}} = 2"
        assert "x" * 61 not in captured.err
        assert max(map(len, lines)) < 500


def test_uq_verify_refuses_an_nmax_past_its_limit(capsys):
    for nmax in ("201", "100000"):
        assert main(["uq", "verify", "--q", "-1/2", "--nmax", nmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --nmax must be at most 200, got {nmax}\n"
    assert main(["uq", "verify", "--help"]) == 0
    assert "0 to 200" in capsys.readouterr().out


def test_uq_verify_below_the_refused_levels_is_unchanged(capsys):
    assert main(["uq", "verify", "--q", "-2", "--nmax", "90"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "q = -2, n <= 90",
        "[pass] relations: max residual 1.649e+13 over n <= 90",
        "[pass] star: max residual 1.172e-02 over n <= 90",
        "[pass] compact-form obstruction: every n in 1..6 obstructed",
        "[pass] conjugate equations: c = -2+0i, target -2",
        "[pass] permutation intertwiner: n <= 4 all exact",
        "[pass] fusion crosscheck: 64 pairs, 0 mismatches",
        "ok",
    ]
