"""Golden outputs: each CLI invocation below must keep its exit code and
the SHA-256 of its stdout, with ``--json`` as recorded in
``fixtures/cli_golden.json`` and as text as recorded in
``fixtures/cli_golden_text.json``.

The table ring is the S3 character ring of ``fixtures/s3_characters.json``
dumped to ``s3_table.json`` in the working directory, so its spec (and the
provider name in the reports) does not depend on where the suite runs.

To record the digests again after an intended output change, run from the
repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from fusionring.cli import main, parse_provider
from fusionring.rings import character_ring, dump_ring_json

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
GOLDEN_TEXT = FIXTURES / "cli_golden_text.json"
TABLE = "s3_table.json"

# spec -> (closure generator, decompose left, decompose right)
RINGS = {
    "suq2": ("u1", "u2", "u3"),
    "uqsu11": ("u-1", "u+1", "u-2"),
    "au": ("uU", "uUu", "Uuu"),
    "word:Z2*Z": ("ab", "ab", "b^-1a"),
    "free(so3,word:Z2)": ("v1.a", "v1.a", "a.v2"),
    "prod(suq2,word:Z2)": ("(u1,a)", "(u1,a)", "(u2,a)"),
    f"json:{TABLE}": ("std", "std", "std"),
}


def commands() -> list[list[str]]:
    out = []
    for spec, (gen, left, right) in RINGS.items():
        for kind in ("generated", "central", "forcing"):
            out.append(["closure", "--ring", spec, "--generators", gen, "--kind", kind,
                        "--budget", "max_irreducibles=16"])
        out += [
            ["torsion", "--ring", spec, "--budget", "max_irreducibles=12"],
            ["component", "--ring", spec, "--budget", "max_irreducibles=12"],
            ["chain", "--ring", spec, "--dmax", "3"],
            ["nsequence", "--ring", spec, "--budget", "max_irreducibles=100"],
            ["axioms", "--ring", spec, "--budget", "max_irreducibles=12", "--seed", "3"],
            ["decompose", "--ring", spec, left, right],
        ]
    # Dimension-ideal recovery needs a finite ring.
    out += [["dimideal", "--ring", f"json:{TABLE}"],
            ["dimideal", "--ring", f"json:{TABLE}", "--labels", "triv,sgn"]]
    # The numerical battery, whose report prints residuals and the
    # cross-check's pair count.
    for q in ("-1/2", "-2/3", "-3/2"):
        for branch in ("principal", "conjugate"):
            out.append(["uq", "verify", "--q", q, "--nmax", "6", "--t-branch", branch])
    return out


def write_table(directory: Path) -> None:
    dump_ring_json(character_ring(FIXTURES / "s3_characters.json"), directory / TABLE)


def run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_cli_json_matches_golden(argv, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    write_table(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--json"]) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_cli_text_matches_golden(argv, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN_TEXT.read_text())
    write_table(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("spec", RINGS)
def test_decompose_prints_the_text_of_the_decomposition(spec, tmp_path, monkeypatch, capsys):
    _, left, right = RINGS[spec]
    write_table(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["decompose", "--ring", spec, left, right]) == 0
    product, _, text = capsys.readouterr().out.rstrip("\n").partition(" = ")
    ring = parse_provider(spec)
    assert product == f"{left} (x) {right}"
    assert str(ring.decompose(ring.parse_label(left), ring.parse_label(right))) == text


def test_golden_covers_every_command():
    assert set(json.loads(GOLDEN.read_text())) == {" ".join(a) for a in commands()}
    assert set(json.loads(GOLDEN_TEXT.read_text())) == {" ".join(a) for a in commands()}


if __name__ == "__main__":
    records = {GOLDEN: {}, GOLDEN_TEXT: {}}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_table(Path(tmp))
        os.chdir(tmp)
        try:
            for argv in commands():
                records[GOLDEN][" ".join(argv)] = run(argv + ["--json"])
                records[GOLDEN_TEXT][" ".join(argv)] = run(argv)
        finally:
            os.chdir(here)
    for path, record in records.items():
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(record)} digests to {path}", file=sys.stderr)
