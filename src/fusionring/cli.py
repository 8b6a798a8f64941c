"""Command-line front end.

Providers are constructed from compact spec strings (`suq2`, `word:Z2*Z`,
`free(so3,word:Z2)`, ...), analyses dispatch to the library, and reports
come out either as readable text or as versioned JSON.  Identical
invocations produce byte-identical JSON.

Exit codes: 0 for a clean verdict (including honest "non-normal" or
"unknown" answers), 1 for violations and mismatches (axiom failures,
numeric verification failures, invalid ring files), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .axioms import check_axioms
from .components import identity_component_report
from .core import Budget, FusionProvider
from .errors import (
    BadParameter,
    FusionError,
    InvalidRing,
    NotFinite,
    ParseError,
    UnknownLabel,
    UnsupportedProvider,
)
from .rings.au import au_ring
from .rings.products import direct_product, free_product
from .rings.su2 import so3_ring, suq2_ring
from .rings.su11 import uq_su11_ring
from .rings.tables import load_ring_json
from .rings.words import parse_word_group_spec, word_group
from .torsion import (
    ascending_chain_probe,
    central_closure,
    dimension_ideal_recover,
    generated_subring,
    n_sequence_cocommutative,
    normal_forcing_closure,
    torsion_subcategory,
)

SCHEMA_VERSION = "1"

_SIMPLE = {
    "suq2": suq2_ring,
    "so3": so3_ring,
    "uqsu11": uq_su11_ring,
}


def _parse_at(spec: str, i: int) -> tuple[FusionProvider, int]:
    rest = spec[i:]
    for name, make in _SIMPLE.items():
        if rest.startswith(name):
            end = i + len(name)
            if end == len(spec) or spec[end] in ",)":
                return make(), end
    if rest.startswith("au"):
        end = i + 2
        if end < len(spec) and spec[end] == ":":
            j = end + 1
            k = j
            while k < len(spec) and spec[k].isdigit():
                k += 1
            if k == j:
                raise ParseError("expected an integer after au:", position=j)
            return au_ring(int(spec[j:k])), k
        if end == len(spec) or spec[end] in ",)":
            return au_ring(), end
    if rest.startswith("word:"):
        j = i + 5
        k = j
        while k < len(spec) and spec[k] not in ",)":
            k += 1
        return word_group(parse_word_group_spec(spec[j:k], offset=j)), k
    if rest.startswith("json:"):
        j = i + 5
        k = j
        while k < len(spec) and spec[k] not in ",)":
            k += 1
        if k == j:
            raise ParseError("expected a path after json:", position=j)
        return load_ring_json(spec[j:k]), k
    for kind in ("free", "prod"):
        if rest.startswith(kind + "("):
            left, j = _parse_at(spec, i + len(kind) + 1)
            if j >= len(spec) or spec[j] != ",":
                raise ParseError("expected ',' between factors", position=j)
            right, j = _parse_at(spec, j + 1)
            if j >= len(spec) or spec[j] != ")":
                raise ParseError("expected ')'", position=j)
            combined = free_product(left, right) if kind == "free" else direct_product(left, right)
            return combined, j + 1
    raise ParseError(f"unrecognized provider at {spec[i:i + 20]!r}", position=i)


def parse_provider(spec: str) -> FusionProvider:
    """Build a provider from its spec string; ParseError carries the offset."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty provider spec", position=0)
    provider, end = _parse_at(spec, 0)
    if end != len(spec):
        raise ParseError(f"trailing characters {spec[end:]!r}", position=end)
    return provider


_BUDGET_KEYS = ("max_irreducibles", "max_rounds", "max_label_size")


def parse_budget(text: str | None) -> Budget:
    budget = Budget()
    if not text:
        return budget
    overrides = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ParseError(f"budget entries look like key=value, got {chunk!r}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in _BUDGET_KEYS:
            raise ParseError(f"unknown budget key {key!r} (allowed: {', '.join(_BUDGET_KEYS)})")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise ParseError(f"budget value for {key} must be an integer, got {value!r}") from None
    try:
        return budget.replace(**overrides)
    except ValueError as exc:
        raise ParseError(f"bad budget: {exc}") from None


def _split_labels(text: str) -> list[str]:
    """Split a comma-separated label list, ignoring commas inside parens."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _emit(args, command: str, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        doc = {"schema_version": SCHEMA_VERSION, "command": command, "report": payload}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_axioms(args) -> int:
    provider = parse_provider(args.ring)
    budget = parse_budget(args.budget)
    report = check_axioms(provider, budget, seed=args.seed)
    lines = [
        f"ring: {provider.name}",
        f"window: {report.window} irreducibles, "
        f"{report.pairs_checked} pairs, {report.triples_checked} triples (seed {report.seed})",
    ]
    for v in report.violations:
        lines.append(f"VIOLATION [{v.axiom}] {v.labels}: {v.detail}")
    lines.append("ok" if report.ok else f"{len(report.violations)} violations")
    _emit(args, "axioms", report.to_dict(), lines)
    return 0 if report.ok else 1


def _cmd_decompose(args) -> int:
    provider = parse_provider(args.ring)
    left = provider.parse_label(args.left)
    right = provider.parse_label(args.right)
    dec = provider.decompose(left, right)
    terms = [[w.id, mult] for w, mult in dec]
    lines = [
        f"{left.id} (x) {right.id} = "
        + (" + ".join(f"{m}*{i}" if m != 1 else i for i, m in terms) if terms else "0")
    ]
    payload = {"left": left.id, "right": right.id, "terms": terms}
    _emit(args, "decompose", payload, lines)
    return 0


def _cmd_torsion(args) -> int:
    provider = parse_provider(args.ring)
    budget = parse_budget(args.budget)
    report = torsion_subcategory(provider, budget)
    lines = [
        f"ring: {provider.name}",
        f"certified torsion: {', '.join(l.id for l in report.certified) or '(none)'}",
        f"status: {report.subcategory.status}",
    ]
    if report.unknowns:
        lines.append(f"unknown: {', '.join(l.id for l in report.unknowns)}")
    _emit(args, "torsion", report.to_dict(), lines)
    return 0


_CLOSURES = {
    "generated": generated_subring,
    "central": central_closure,
    "forcing": normal_forcing_closure,
}


def _cmd_closure(args) -> int:
    provider = parse_provider(args.ring)
    budget = parse_budget(args.budget)
    gens = [provider.parse_label(s) for s in _split_labels(args.generators)]
    sub = _CLOSURES[args.kind](provider, gens, budget)
    lines = [
        f"ring: {provider.name}",
        f"{args.kind} closure of {{{', '.join(g.id for g in gens)}}}: "
        f"{len(sub.labels)} labels, status {sub.status}",
        ", ".join(sub.label_ids),
    ]
    if sub.frontier:
        lines.append(f"frontier: {', '.join(l.id for l in sub.frontier)}")
    _emit(args, "closure", sub.to_dict(), lines)
    return 0


def _cmd_nsequence(args) -> int:
    provider = parse_provider(args.ring)
    budget = parse_budget(args.budget)
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
    _emit(args, "nsequence", report.to_dict(), lines)
    return 0


def _cmd_component(args) -> int:
    provider = parse_provider(args.ring)
    budget = parse_budget(args.budget)
    report = identity_component_report(provider, budget)
    lines = [f"ring: {provider.name}", f"verdict: {report.verdict}"]
    if report.component_group_order is not None:
        lines.append(f"component group order: {report.component_group_order}")
    if report.witness is not None:
        lines.append(f"witness: {report.witness}")
    if report.torsion_degree_note:
        lines.append(report.torsion_degree_note)
    if report.inconclusive_reason:
        lines.append(f"reason: {report.inconclusive_reason}")
    _emit(args, "component", report.to_dict(), lines)
    return 0


def _cmd_chain(args) -> int:
    if args.dmax < 1:
        raise ParseError(f"--dmax must be positive, got {args.dmax}")
    provider = parse_provider(args.ring)
    budget = parse_budget(args.budget)
    report = ascending_chain_probe(
        provider, args.dmax, provider.chain_generators, budget=budget,
        size_cap_for=provider.chain_size_cap,
    )
    lines = [f"ring: {provider.name}", f"strictly increasing up to: {report.strictly_increasing_up_to}"]
    for stage in report.stages:
        lines.append(
            f"  stage {stage.d}: {len(stage.subcategory.labels)} labels"
            f" ({stage.subcategory.status}), witnesses: {', '.join(stage.witnesses) or '(none)'}"
        )
    _emit(args, "chain", report.to_dict(), lines)
    return 0


def _cmd_dimideal(args) -> int:
    provider = parse_provider(args.ring)
    if args.labels:
        given = [provider.parse_label(s) for s in _split_labels(args.labels)]
    elif not isinstance(provider.num_irreducibles, int):
        raise NotFinite(f"{provider.name}: dimension-ideal recovery needs a finite ring")
    else:
        given = list(provider.enumerate(provider.num_irreducibles))
    report = dimension_ideal_recover(provider, given)
    lines = [
        f"ring: {provider.name}",
        f"given: {', '.join(report.given)}",
        f"recovered: {', '.join(report.recovered)}",
        f"lattice rank: {report.lattice_rank}",
        "exact recovery" if report.exact else "recovery is a proper superset of the input"
        if set(report.given) < set(report.recovered)
        else "recovered set differs from input",
    ]
    _emit(args, "dimideal", report.to_dict(), lines)
    return 0


def _cmd_uqverify(args) -> int:
    # the one numpy user: other commands start without loading it
    from .uqnumeric import full_verification

    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse q value {args.q!r}") from None
    report = full_verification(q, args.nmax, t_branch=args.t_branch)
    lines = [f"q = {args.q}, n <= {args.nmax}"]
    for name, ok, detail in report.checks:
        lines.append(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")
    lines.append("ok" if report.ok else "FAILED")
    _emit(args, "uqverify", report.to_dict(), lines)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionring", description="Fusion ring torsion and component analysis."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, ring=True):
        p = sub.add_parser(name, help=help_)
        if ring:
            p.add_argument("--ring", required=True, help="provider spec, e.g. suq2 or free(so3,word:Z2)")
            p.add_argument("--budget", help="overrides, e.g. max_irreducibles=20,max_rounds=8")
        p.add_argument("--json", action="store_true", help="emit a versioned JSON report")
        p.set_defaults(fn=fn)
        return p

    p = add("axioms", _cmd_axioms, "check the fusion ring axioms on a window")
    p.add_argument("--seed", type=int, default=0, help="seed for the random associativity triples")

    p = add("decompose", _cmd_decompose, "decompose a product of two irreducibles")
    p.add_argument("left")
    p.add_argument("right")

    add("torsion", _cmd_torsion, "scan for torsion irreducibles and certify the torsion set")

    p = add("closure", _cmd_closure, "compute a closure of a generating set")
    p.add_argument("--generators", required=True, help="comma-separated labels")
    p.add_argument("--kind", choices=sorted(_CLOSURES), default="generated")

    add("nsequence", _cmd_nsequence, "torsion degree for group-like rings")

    add("component", _cmd_component, "identity component analysis")

    p = add("chain", _cmd_chain, "ascending chain probe over growing generator families")
    p.add_argument("--dmax", type=int, default=4)

    p = add("dimideal", _cmd_dimideal, "recover a subring from its dimension ideal")
    p.add_argument("--labels", help="comma-separated labels of the subring (default: everything)")

    p = add("uqverify", _cmd_uqverify, "numerical verification battery for the q-deformed models", ring=False)
    p.add_argument("--q", default="-1/2", help="deformation parameter, e.g. -1/2 or -0.5")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--t-branch", choices=("principal", "conjugate"), default="principal", dest="t_branch")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:2] == ["uq", "verify"]:
        argv = ["uqverify"] + argv[2:]
    # glue negative values onto --q so argparse does not read them as flags
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--q" and i + 1 < len(argv):
            merged.append(f"--q={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    argv = merged
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as exc:
        pos = f" (at offset {exc.position})" if exc.position is not None else ""
        print(f"error: {exc}{pos}", file=sys.stderr)
        return 2
    except InvalidRing as exc:
        print(f"invalid ring: {exc}", file=sys.stderr)
        for v in getattr(exc, "violations", []):
            print(f"  [{v.axiom}] {v.labels}: {v.detail}", file=sys.stderr)
        return 1
    except (UnsupportedProvider, UnknownLabel, BadParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
