"""Command-line front end.

Providers are constructed from compact spec strings (`suq2`, `word:Z2*Z`,
`free(so3,word:Z2)`, ...), analyses dispatch to the library, and reports
come out either as readable text or as versioned JSON.  Identical
invocations produce byte-identical JSON.

Exit codes: 0 for a clean verdict (including honest "non-normal" or
"unknown" answers), 1 for violations and mismatches (axiom failures,
numeric verification failures, invalid ring files) and for output cut
short because the reader closed stdout, 2 for usage errors and refused
requests, such as a window of labels over its limit (``torsion._window``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from fractions import Fraction

from .axioms import check_axioms
from .components import identity_component_report
from .core import Budget, FusionProvider, _plain, split_outside_brackets
from .errors import (
    BadParameter,
    FusionError,
    InvalidRing,
    ParseError,
    UnknownLabel,
    UnsupportedProvider,
    _quote,
)
from .rings.au import au_ring
from .rings.products import direct_product, free_product
from .rings.su2 import so3_ring, suq2_ring
from .rings.su11 import uq_su11_ring
from .rings.tables import load_ring_json
from .rings.words import parse_word_group_spec, word_group
from .torsion import (
    _SCAN_LIMIT,
    _finite_size,
    _window,
    ascending_chain_probe,
    central_closure,
    dimension_ideal_recover,
    generated_subring,
    n_sequence_cocommutative,
    normal_forcing_closure,
    torsion_subcategory,
)

SCHEMA_VERSION = "1"

# One spec atom: a builtin name, ``au:N``, ``word:SPEC``, ``json:PATH``,
# ``json:[PATH]``, or the opening of a product.  A builtin name and a
# bracketed path's ``]`` must end at ``,``, ``)`` or the end of the spec; a
# plain path ends at the first ``,`` or ``)``.
_ATOM = re.compile(
    r"(?P<name>suq2|so3|uqsu11|au)(?![^,)])|au:(?P<n>\d*)|word:(?P<word>[^,)]*)"
    r"|json:(?:\[(?P<bracketed>.*?)\](?![^,)])|(?P<path>[^,)]*))|(?P<op>free|prod)\("
)
# A spec may nest products this deep.  Each level costs the ring code a few
# stack frames per label: specs 400 deep ended in RecursionError, and 32
# leaves room under Python's default limit of 1000 frames.
_MAX_NESTING = 32
_MAKE = {"suq2": suq2_ring, "so3": so3_ring, "uqsu11": uq_su11_ring, "au": au_ring,
         "free": free_product, "prod": direct_product}


def _parse_at(spec: str, i: int, depth: int = 0) -> tuple[FusionProvider, int]:
    m = _ATOM.match(spec, i)
    if m is None:
        raise ParseError(f"unrecognized provider at {spec[i:i + 20]!r}", position=i)
    end = m.end()
    if m["name"]:
        return _MAKE[m["name"]](), end
    if m["op"]:
        if depth == _MAX_NESTING:
            raise ParseError(f"products nested more than {_MAX_NESTING} deep", position=i)
        left, j = _parse_at(spec, end, depth + 1)
        if spec[j:j + 1] != ",":
            raise ParseError("expected ',' between factors", position=j)
        right, j = _parse_at(spec, j + 1, depth + 1)
        if spec[j:j + 1] != ")":
            raise ParseError("expected ')'", position=j)
        return _MAKE[m["op"]](left, right), j + 1
    if m["n"] is not None:
        if not m["n"]:
            raise ParseError("expected an integer after au:", position=end)
        try:
            d_gen = int(m["n"])
        except ValueError:  # past Python's length limit for digit strings
            raise ParseError("too many digits after au:", position=m.start("n")) from None
        return au_ring(d_gen), end
    if m["word"] is not None:
        return word_group(parse_word_group_spec(m["word"], offset=m.start("word"))), end
    path = m.lastgroup  # "bracketed" or "path"
    if not m[path]:
        raise ParseError("expected a path after json:", position=m.start(path))
    return load_ring_json(m[path]), end


def parse_provider(spec: str) -> FusionProvider:
    """Build a provider from its spec string; ParseError carries the offset."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty provider spec", position=0)
    provider, end = _parse_at(spec, 0)
    if end != len(spec):
        raise ParseError(f"trailing characters {_quote(spec[end:])}", position=end)
    return provider


_BUDGET_KEYS = tuple(f.name for f in dataclasses.fields(Budget))


def parse_budget(text: str | None) -> Budget:
    budget = Budget()
    if not text:
        return budget
    overrides = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ParseError(f"budget entries look like key=value, got {_quote(chunk)}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in _BUDGET_KEYS:
            raise ParseError(f"unknown budget key {_quote(key)} (allowed: {', '.join(_BUDGET_KEYS)})")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise ParseError(f"budget value for {key} must be an integer, got {_quote(value)}") from None
    try:
        return budget.replace(**overrides)
    except ValueError as exc:
        raise ParseError(f"bad budget: {exc}") from None


def _split_labels(text: str) -> list[str]:
    """Split a comma-separated label list, ignoring commas inside brackets."""
    return [p.strip() for p in split_outside_brackets(text, ",") if p.strip()]


def _ids(labels) -> str:
    """The ids of ``labels``, comma-separated: how text output lists labels."""
    return ", ".join(l.id for l in labels)


def _violation(v) -> str:
    """An axiom violation as text output shows it: the axiom, the tuple of
    label ids (each cut by ``_quote``), the detail."""
    ids = ", ".join(_quote(l.id) for l in v.labels) + ("," if len(v.labels) == 1 else "")
    return f"[{v.axiom}] ({ids}): {v.detail}"


# Each command runs its analysis on the provider and budget ``main`` built
# and returns its report (which ``main`` writes through ``_plain``), its
# text lines and its exit code.


# The harness reads every pair of its window and a product per constituent:
# on suq2, windows of 64, 128 and 256 took 0.22, 1.08 and 8.3 s, and 256 on
# free(so3,word:Z2) took 45 s on a 2-core x86-64 machine.  check_axioms
# itself has no limit, since load_ring_json checks whole tables with it.
_MAX_AXIOMS_WINDOW = 256


def _cmd_axioms(args, provider, budget):
    # The harness lists the same window again: a window within the limit
    # costs far less to list than its pairs cost to check.
    scope = "the axiom check runs over the budget's window"
    _window(provider, budget.max_irreducibles, _MAX_AXIOMS_WINDOW, scope)
    report = check_axioms(provider, budget, seed=args.seed)
    lines = [
        f"ring: {provider.name}",
        f"window: {report.window} irreducibles, "
        f"{report.pairs_checked} pairs, {report.triples_checked} triples (seed {report.seed})",
    ]
    for v in report.violations:
        lines.append(f"VIOLATION {_violation(v)}")
    lines.append("ok" if report.ok else f"{len(report.violations)} violations")
    return report, lines, 0 if report.ok else 1


def _cmd_decompose(args, provider, budget):
    left = provider.parse_label(args.left)
    right = provider.parse_label(args.right)
    product = provider.decompose(left, right)
    lines = [f"{left.id} (x) {right.id} = {product}"]
    return {"left": left, "right": right, "terms": product.entries}, lines, 0


def _cmd_torsion(args, provider, budget):
    report = torsion_subcategory(provider, budget)
    lines = [
        f"ring: {provider.name}",
        f"certified torsion: {_ids(report.certified) or '(none)'}",
        f"status: {report.subcategory.status}",
    ]
    if report.unknowns:
        lines.append(f"unknown: {_ids(report.unknowns)}")
    return report, lines, 0


_CLOSURES = {
    "generated": generated_subring,
    "central": central_closure,
    "forcing": normal_forcing_closure,
}


def _cmd_closure(args, provider, budget):
    gens = [provider.parse_label(s) for s in _split_labels(args.generators)]
    sub = _CLOSURES[args.kind](provider, gens, budget)
    lines = [
        f"ring: {provider.name}",
        f"{args.kind} closure of {{{_ids(gens)}}}: "
        f"{len(sub.labels)} labels, status {sub.status}",
        _ids(sub.labels),
    ]
    if sub.frontier:
        lines.append(f"frontier: {_ids(sub.frontier)}")
    return sub, lines, 0


def _cmd_nsequence(args, provider, budget):
    report = n_sequence_cocommutative(provider, budget)
    lines = [f"ring: {provider.name}"]
    if report.degree is not None:
        lines.append(f"torsion degree: {report.degree} ({'stabilized' if report.stabilized else 'not stabilized'})")
    else:
        lines.append("torsion degree: undetermined in scan window")
    if report.counterexample:
        lines.append(f"counterexample to stabilization at stage 1: {report.counterexample}")
    lines.append(
        "connected" if report.connected else
        ("totally disconnected" if report.totally_disconnected else "neither connected nor totally disconnected")
    )
    if report.quotient_note:
        lines.append(report.quotient_note)
    return report, lines, 0


def _cmd_component(args, provider, budget):
    report = identity_component_report(provider, budget)
    lines = [f"ring: {provider.name}", f"verdict: {report.verdict}"]
    if report.component_group_order is not None:
        lines.append(f"component group order: {report.component_group_order}")
    if report.witness is not None:
        lines.append(f"witness: {report.witness.id}")
    if report.torsion_degree_note:
        lines.append(report.torsion_degree_note)
    if report.inconclusive_reason:
        lines.append(f"reason: {report.inconclusive_reason}")
    return report, lines, 0


# Each chain stage closes a larger generator set: on au, dmax 16 took 0.7 s,
# 64 took 11 s and 256 took 92 s on a 2-core x86-64 machine.
_MAX_DMAX = 32


def _cmd_chain(args, provider, budget):
    if args.dmax < 1:
        raise ParseError(f"--dmax must be positive, got {args.dmax}")
    if args.dmax > _MAX_DMAX:
        raise ParseError(f"--dmax must be at most {_MAX_DMAX}, got {args.dmax}")
    report = ascending_chain_probe(provider, args.dmax, budget)
    lines = [f"ring: {provider.name}", f"strictly increasing up to: {report.strictly_increasing_up_to}"]
    for stage in report.stages:
        lines.append(
            f"  stage {stage.d}: {len(stage.subcategory.labels)} labels"
            f" ({stage.subcategory.status}), witnesses: {_ids(stage.witnesses) or '(none)'}"
        )
    return report, lines, 0


def _cmd_dimideal(args, provider, budget):
    if args.labels:
        given = [provider.parse_label(s) for s in _split_labels(args.labels)]
    else:
        given = list(provider.enumerate(_finite_size(provider)))
    report = dimension_ideal_recover(provider, given)
    lines = [
        f"ring: {provider.name}",
        f"given: {_ids(report.given)}",
        f"recovered: {_ids(report.recovered)}",
        f"lattice rank: {report.lattice_rank}",
        "exact recovery" if report.exact else "recovery is a proper superset of the input"
        if set(report.given) < set(report.recovered)
        else "recovered set differs from input",
    ]
    return report, lines, 0


# The battery builds every model up to --nmax: near q = -1.01, nmax 100 took
# 0.75 s, 200 took 3.2 s and 400 took 33 s on a 2-core x86-64 machine.
_MAX_NMAX = 200


def _cmd_uqverify(args, provider, budget):
    if args.nmax > _MAX_NMAX:
        raise ParseError(f"--nmax must be at most {_MAX_NMAX}, got {args.nmax}")
    # the one numpy user: other commands start without loading it
    from .uqnumeric import full_verification

    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse q value {_quote(args.q)}") from None
    report = full_verification(q, args.nmax, t_branch=args.t_branch)
    lines = [f"q = {args.q}, n <= {args.nmax}"]
    for name, ok, detail in report.checks:
        lines.append(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")
    lines.append("ok" if report.ok else "FAILED")
    return report, lines, 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionring", description="Fusion ring torsion and component analysis."
    )
    parser.set_defaults(ring=None, budget=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, ring=True, budget=True):
        p = sub.add_parser(name, help=help_, description=help_)
        if ring:
            p.add_argument("--ring", required=True, help="provider spec, e.g. suq2 or free(so3,word:Z2)")
        if budget:
            p.add_argument("--budget", help="overrides, e.g. max_irreducibles=20,max_rounds=8")
        p.add_argument("--json", action="store_true", help="emit a versioned JSON report")
        p.set_defaults(fn=fn)
        return p

    p = add("axioms", _cmd_axioms,
            f"check the fusion ring axioms on a window of at most {_MAX_AXIOMS_WINDOW} labels")
    p.add_argument("--seed", type=int, default=0, help="seed for the random associativity triples")

    p = add("decompose", _cmd_decompose, "decompose a product of two irreducibles", budget=False)
    p.add_argument("left")
    p.add_argument("right")

    add("torsion", _cmd_torsion, "scan for torsion irreducibles and certify the torsion set")

    p = add("closure", _cmd_closure, "compute a closure of a generating set")
    p.add_argument("--generators", required=True, help="comma-separated labels")
    p.add_argument("--kind", choices=sorted(_CLOSURES), default="generated",
                   help=f"default generated; central and forcing conjugate by the budget's window,"
                   f" which may hold at most {_SCAN_LIMIT} labels")

    add("nsequence", _cmd_nsequence, "torsion degree for group-like rings")

    add("component", _cmd_component, "identity component analysis")

    p = add("chain", _cmd_chain, "ascending chain probe over growing generator families")
    p.add_argument("--dmax", type=int, default=4, help=f"last stage of the chain, 1 to {_MAX_DMAX} (default 4)")

    p = add("dimideal", _cmd_dimideal, "recover a subring from its dimension ideal", budget=False)
    p.add_argument("--labels", help="comma-separated labels of the subring (default: everything)")

    p = add("uqverify", _cmd_uqverify, "numerical verification battery for the q-deformed models",
            ring=False, budget=False)
    p.add_argument("--q", default="-1/2", help="deformation parameter, e.g. -1/2 or -0.5")
    p.add_argument("--nmax", type=int, default=6, help=f"highest level checked, 0 to {_MAX_NMAX} (default 6)")
    p.add_argument("--t-branch", choices=("principal", "conjugate"), default="principal", dest="t_branch")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:2] == ["uq", "verify"]:
        argv[:2] = ["uqverify"]
    # glue negative values onto --q so argparse does not read them as flags
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--q":
            argv[i:i + 2] = [f"--q={argv[i + 1]}"]
        i += 1
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        provider = None if args.ring is None else parse_provider(args.ring)
        payload, lines, code = args.fn(args, provider, parse_budget(args.budget))
    except ParseError as exc:
        pos = f" (at offset {exc.position})" if exc.position is not None else ""
        print(f"error: {exc}{pos}", file=sys.stderr)
        return 2
    except InvalidRing as exc:
        print(f"invalid ring: {exc}", file=sys.stderr)
        for v in getattr(exc, "violations", []):
            print(f"  {_violation(v)}", file=sys.stderr)
        return 1
    except (UnsupportedProvider, UnknownLabel, BadParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "report": _plain(payload)}
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            print("\n".join(lines))
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader stopped early: send the rest of the output nowhere, so
        # the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
