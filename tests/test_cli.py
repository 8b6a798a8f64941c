"""Spec parsing, budgets, exit codes, and JSON determinism of the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusionring.cli import main, parse_budget, parse_provider, _split_labels
from fusionring.errors import ParseError
from fusionring.rings import (
    AuProvider,
    DirectProductProvider,
    FreeProductProvider,
    character_ring,
    dump_ring_json,
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


def test_usage_errors_exit_two(capsys):
    assert main(["nsequence", "--ring", "suq2"]) == 2
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


def test_uq_verify_refuses_a_negative_nmax(capsys):
    # A battery over no levels would check nothing and report "ok".
    assert main(["uq", "verify", "--q", "-1/2", "--nmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_max must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv", [["--q", "-1e80"], ["--q", "-1e400"], ["--q", "-1/2", "--nmax", "-1"]])
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
