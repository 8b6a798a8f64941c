"""Seeded task lists for the four workloads, each task with its output check.

A task is one CLI invocation (``fusionring.cli.main([..., "--json"])``
in-process, stdout captured) or, where the CLI cannot express it, one
call of the public library function.  Every task builds its providers
afresh, so each pays for its own ``decompose`` cache fill, as a separate
CLI run would.

The seed picks the inputs; the amount of work is kept level across seeds
so that run-to-run spread measures the machine, not the draw:

* closure budgets come in mirrored pairs ``centre +- d`` per provider, and
  closure cost grows like the cube of the budget, so a pair costs nearly
  the same for every ``d``;
* every ``check_axioms`` task uses the same window;
* one fixed task of ``closure`` and of ``ideals`` (the "anchor") is its
  largest, so the process's peak resident set does not depend on the seed;
* generators are drawn only among labels related by a ring symmetry, and
  group rings are relabelled rather than resized.

Checks come, in order of preference, from pinned values (the acceptance
facts), from the oracles in ``tests/oracles.py`` or an independent
computation here, and otherwise from invariants of the report.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from fusionring import cli, torsion, uqnumeric
from fusionring.rings import tables

import oracles

WORKLOADS = ("closure", "axioms", "uq", "ideals")

LIFTED = "max_rounds=1000,max_label_size=1000"


@dataclass
class Task:
    name: str
    run: Callable[[], tuple[int, str]]
    check: Callable[[str], list[str]]


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--json"])
        return code, buf.getvalue()

    return run


def _report(text: str) -> dict:
    return json.loads(text)["report"]


def _expect(problems: list[str], cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)


def _checked(fn):
    """Turn ``fn(report, problems)`` into a check of the CLI's JSON text."""

    def check(text):
        problems: list[str] = []
        fn(_report(text), problems)
        return problems

    return check


# -- closure ------------------------------------------------------------


def _closure_invariants(r, problems, budget, generators, unit="e"):
    labels, frontier = r["labels"], r.get("frontier", [])
    _expect(problems, len(labels) <= budget, f"{len(labels)} labels over budget {budget}")
    _expect(problems, (not frontier) == (r["status"] == "saturated"),
            f"status {r['status']} with {len(frontier)} frontier labels")
    _expect(problems, len(set(labels)) == len(labels), "duplicate labels")
    _expect(problems, not set(labels) & set(frontier), "frontier overlaps the labels")
    for g in (unit, *generators):
        _expect(problems, g in labels, f"{g} missing from its own closure")


_WORD_LETTER = re.compile(r"([a-z])(?:\^(-?\d+))?")


def _word(label_id: str) -> tuple:
    if label_id == "e":
        return ()
    return tuple(("ab".index(m.group(1)), int(m.group(2) or 1)) for m in _WORD_LETTER.finditer(label_id))


Z2_Z = [2, None]


def _check_suq2_prefix(budget):
    def check(r, problems):
        _closure_invariants(r, problems, budget, ["u1"], unit="u0")
        # u_a (x) u_b reaches level a + b and u1 generates every level, so the
        # budget admits a prefix and the products of its top levels reach 2B-2.
        _expect(problems, r["labels"] == [f"u{k}" for k in range(budget)], "labels are not u0..u(B-1)")
        _expect(problems, r.get("frontier", []) == [f"u{k}" for k in range(budget, 2 * budget - 1)],
                "frontier is not u(B)..u(2B-2)")

    return check


def _check_word_cyclic(budget, gen):
    g = _word(gen)
    powers = {()}
    acc, inv, acc_inv = (), oracles.bf_inv(g, Z2_Z), ()
    for _ in range(budget):
        acc, acc_inv = oracles.bf_mul(acc, g, Z2_Z), oracles.bf_mul(acc_inv, inv, Z2_Z)
        powers |= {acc, acc_inv}

    def check(r, problems):
        _closure_invariants(r, problems, budget, [gen])
        outside = [l for l in r["labels"] if _word(l) not in powers]
        _expect(problems, not outside, f"labels outside <{gen}>: {outside[:3]}")

    return check


def _check_balanced(budget, gen):
    def check(r, problems):
        _closure_invariants(r, problems, budget, [gen])
        _expect(problems, all(l == "e" or l.count("u") == l.count("U") for l in r["labels"]),
                "unbalanced au label in a balanced closure")

    return check


def _check_so3_letters(budget, gen):
    def check(r, problems):
        _closure_invariants(r, problems, budget, [gen])
        _expect(problems, all(re.fullmatch(r"e|v\d+", l) for l in r["labels"]),
                "closure of an so3 letter left the so3 factor")

    return check


def _check_prod_parity(budget, gen):
    odd_part = gen.split(",")[1].rstrip(")")

    def check(r, problems):
        _closure_invariants(r, problems, budget, [gen], unit="(u0,e)")
        for label in r["labels"]:
            level, part = re.fullmatch(r"\(u(\d+),(\w+)\)", label).groups()
            want = odd_part if int(level) % 2 else "e"
            _expect(problems, part == want, f"{label}: parity of the Z2 part is wrong")

    return check


def _check_plain(budget, gen, unit="e"):
    def check(r, problems):
        _closure_invariants(r, problems, budget, [gen], unit=unit)

    return check


def _check_normal_in_kernel(budget):
    """Closures of ``a`` in Z2*Z lie in the normal closure of ``a``, which is
    the kernel of b -> 1, a -> 0: words whose b-exponents sum to 0."""

    def check(r, problems):
        _closure_invariants(r, problems, budget, ["a"])
        for label in r["labels"]:
            w = _word(label)
            _expect(problems, sum(e for f, e in w if f == 1) == 0, f"{label} is outside <<a>>")
            _expect(problems, oracles.word_length(w, Z2_Z) <= 8, f"{label} exceeds the size cap 8")

    return check


# Providers for the mirrored generated-subring pairs: spec, generators
# related by a symmetry of the ring, centre budget, largest offset, check.
CLOSURE_PAIRS = [
    ("suq2", ["u1"], 46, 6, lambda b, g: _check_suq2_prefix(b)),
    ("au", ["uU", "Uu"], 40, 4, _check_balanced),
    ("uqsu11", ["u+1", "u-1"], 48, 6, lambda b, g: _check_plain(b, g, unit="u+0")),
    ("word:Z2*Z", ["ab", "ba", "ab^-1", "b^-1a"], 56, 8, _check_word_cyclic),
    ("free(so3,word:Z2)", ["v1"], 30, 3, _check_so3_letters),
    ("prod(suq2,word:Z2)", ["(u1,a)", "(u1,e)"], 38, 5, _check_prod_parity),
]

ANCHOR_BUDGET = 64


def closure_tasks(rng: random.Random, workdir: Path) -> list[Task]:
    tasks = []

    def closure(spec, gen, budget, check, kind="generated", caps=LIFTED):
        caps = f",{caps}" if caps else ""
        argv = ["closure", "--ring", spec, "--generators", gen, "--kind", kind,
                "--budget", f"max_irreducibles={budget}{caps}"]
        tasks.append(Task(f"{kind} {spec} <{gen}> B={budget}", _cli(argv), _checked(check)))

    closure("suq2", "u1", ANCHOR_BUDGET, _check_suq2_prefix(ANCHOR_BUDGET))
    for spec, gens, centre, spread, make_check in CLOSURE_PAIRS:
        d = rng.randint(0, spread)
        for budget in (centre + d, centre - d):
            gen = rng.choice(gens)
            closure(spec, gen, budget, make_check(budget, gen))

    d = rng.randint(0, 7)
    b_central, b_forcing = 23 + d, 23 - d

    def central_u0(r, problems):
        _closure_invariants(r, problems, b_central, ["u-0"], unit="u+0")
        _expect(problems, "u-2" in r["labels"], "u-2 missing from the central closure of u-0")
        _expect(problems, len(r["labels"]) > 2, "central closure not larger than <u-0>")

    def forcing_u0(r, problems):
        _expect(problems, r["labels"] == ["u+0", "u-0"] and r["status"] == "saturated",
                f"forcing closure of u-0 is {r['labels']} ({r['status']})")

    closure("uqsu11", "u-0", b_central, central_u0, kind="central", caps="")
    closure("uqsu11", "u-0", b_forcing, forcing_u0, kind="forcing", caps="")
    d = rng.randint(0, 5)
    closure("word:Z2*Z", "a", 35 + d, _check_normal_in_kernel(35 + d), kind="forcing", caps="")
    closure("word:Z2*Z", "a", 35 - d, _check_normal_in_kernel(35 - d), kind="central", caps="")

    def scan(command, spec, budget, check):
        argv = [command, "--ring", spec, "--budget", f"max_irreducibles={budget}"]
        tasks.append(Task(f"{command} {spec} B={budget}", _cli(argv), _checked(check)))

    def torsion_set(labels):
        def check(r, problems):
            _expect(problems, r["certified"] == labels and r["subcategory"]["status"] == "saturated",
                    f"certified torsion {r['certified']} ({r['subcategory']['status']})")

        return check

    def normal_order_two(r, problems):
        _expect(problems, r["verdict"] == "normal_with_finite_component_group", r["verdict"])
        _expect(problems, r["component_group_order"] == 2, f"order {r['component_group_order']}")

    def witness(r, problems):
        _expect(problems, r["verdict"] == "non_normal_witness", r["verdict"])
        _expect(problems, r["witness"] == "v1.a.v1", f"witness {r['witness']}")
        ev = r["witness_evidence"] or {}
        _expect(problems, ev.get("restriction") == {"v0": 1, "v1": 1, "v2": 1}
                and ev.get("invariant_multiplicity") == 1 and ev.get("dim") == 9,
                f"witness evidence {ev}")
        _expect(problems, r["torsion_degree_bound"] == 1, "torsion degree bound")

    scan("torsion", "uqsu11", rng.randint(16, 30), torsion_set(["u+0", "u-0"]))
    scan("torsion", "free(so3,word:Z2)", rng.randint(10, 16), torsion_set(["e", "a"]))
    scan("component", "uqsu11", rng.randint(16, 24), normal_order_two)
    scan("component", "free(so3,word:Z2)", rng.randint(10, 16), witness)

    def chain(r, problems):
        _expect(problems, r["strictly_increasing_up_to"] == 4, f"chain strict up to {r['strictly_increasing_up_to']}")
        for stage in r["stages"]:
            _expect(problems, all(l == "e" or l.count("u") == l.count("U") for l in stage["subcategory"]["labels"]),
                    f"unbalanced label in stage {stage['d']}")

    tasks.append(Task("chain au dmax=4", _cli(["chain", "--ring", "au", "--dmax", "4"]), _checked(chain)))

    def degree(want, connected, totally):
        def check(r, problems):
            _expect(problems, (r["degree"], r["connected"], r["totally_disconnected"], r["stabilized"])
                    == (want, connected, totally, True), f"n-sequence {r['degree']} {r['connected']}")

        return check

    d = rng.randint(0, 25)
    for group, window, check in (("Z2*Z", 130 + d, degree(1, False, False)),
                                 ("Z*Z", 130 - d, degree(0, True, False)),
                                 ("Z2*Z2", rng.randint(100, 160), degree(1, False, True))):
        scan("nsequence", f"word:{group}", window, check)
    rng.shuffle(tasks)
    return tasks


# -- axioms -------------------------------------------------------------

AXIOM_PROVIDERS = ["suq2", "so3", "uqsu11", "au", "word:Z2*Z2", "prod(suq2,word:Z2)", "free(so3,word:Z2)"]
# One window for every provider: a seeded window moved a pass by up to 25%
# between seeds.  The seed picks the triple samples and the order.
AXIOM_WINDOW = 40


def axioms_tasks(rng: random.Random, workdir: Path) -> list[Task]:
    tasks = []
    for spec in AXIOM_PROVIDERS:
        window, seed = AXIOM_WINDOW, rng.randrange(2 ** 31)

        def check(r, problems, window=window, seed=seed):
            _expect(problems, r["ok"] and not r["violations"], f"violations {r['violations'][:2]}")
            _expect(problems, r["window"] == window, f"window {r['window']}")
            _expect(problems, r["pairs_checked"] == window * window, f"pairs {r['pairs_checked']}")
            _expect(problems, r["triples_checked"] == 4 ** 3 + 200, f"triples {r['triples_checked']}")
            _expect(problems, r["seed"] == seed, "seed not echoed")

        argv = ["axioms", "--ring", spec, "--budget", f"max_irreducibles={window}", "--seed", str(seed)]
        tasks.append(Task(f"axioms {spec} W={window} seed={seed}", _cli(argv), _checked(check)))
    rng.shuffle(tasks)
    return tasks


# -- uq -----------------------------------------------------------------

Q_VALUES = ["-1/3", "-2/5", "-3/7", "-1/2", "-4/7", "-3/5", "-2/3", "-5/7", "-3/4", "-4/5", "-3/2"]
BATTERY = ["relations", "star", "compact-form obstruction", "conjugate equations",
           "permutation intertwiner", "fusion crosscheck"]
CROSSCHECK_N = 4


def uq_tasks(rng: random.Random, workdir: Path) -> list[Task]:
    q1, q2, q3 = rng.sample(Q_VALUES, 3)
    tasks = []
    for q, branch in ((q1, "principal"), (q2, "conjugate")):
        def check(r, problems, q=q):
            _expect(problems, r["ok"], f"failed checks {[c['name'] for c in r['checks'] if not c['ok']]}")
            _expect(problems, [c["name"] for c in r["checks"]] == BATTERY, "battery names")
            _expect(problems, r["q"] == float(Fraction(q)) and r["n_max"] == 6, "q or n_max not echoed")
            _expect(problems, r["checks"][-1]["detail"] == f"{4 * 4 ** 2} pairs, 0 mismatches",
                    r["checks"][-1]["detail"])

        argv = ["uq", "verify", "--q", q, "--nmax", "6", "--t-branch", branch]
        tasks.append(Task(f"uq verify q={q} {branch}", _cli(argv), _checked(check)))

    branch = rng.choice(["principal", "conjugate"])

    def crosscheck():
        report = uqnumeric.fusion_crosscheck(CROSSCHECK_N, Fraction(q3), t_branch=branch)
        return 0, json.dumps(report.to_dict(), sort_keys=True)

    def check_crosscheck(text):
        r = json.loads(text)
        problems: list[str] = []
        _expect(problems, r["pairs_checked"] == 4 * (CROSSCHECK_N + 1) ** 2, f"pairs {r['pairs_checked']}")
        _expect(problems, r["ok"] and not r["mismatches"], f"mismatches {r['mismatches'][:2]}")
        return problems

    tasks.append(Task(f"fusion_crosscheck n_max={CROSSCHECK_N} q={q3} {branch}", crosscheck, check_crosscheck))
    rng.shuffle(tasks)
    return tasks


# -- ideals -------------------------------------------------------------

# Abelian groups of rank <= 2 as products of cyclic orders.  Every subgroup
# of such a group is generated by two elements, which the oracle uses.
IDEAL_GROUPS = [(96,), (4, 12), (2, 24), (24,)]
SUBRING_GROUPS = [(16,), (4, 4), (2, 8)]


def _group(orders, rng):
    """Seeded relabelling of Z_orders: element tuple -> id, and the table."""
    elements = list(itertools.product(*(range(k) for k in orders)))
    ids = [f"x{i:02d}" for i in range(len(elements))]
    rng.shuffle(ids)
    name = dict(zip(elements, ids))

    def add(x, y):
        return tuple((a + b) % k for a, b, k in zip(x, y, orders))

    table = {(name[x], name[y]): name[add(x, y)] for x in elements for y in elements}
    subgroups = set()
    for g in elements:
        for h in elements:
            seen, todo = {elements[0]}, [elements[0]]
            while todo:
                x = todo.pop()
                for step in (g, h):
                    y = add(x, step)
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            subgroups.add(frozenset(name[x] for x in seen))
    return name[elements[0]], table, sorted(subgroups, key=lambda s: (len(s), sorted(s)))


def ideals_tasks(rng: random.Random, workdir: Path) -> list[Task]:
    tasks = []
    for orders in IDEAL_GROUPS:
        label = "Z" + "xZ".join(map(str, orders))
        unit, table, subgroups = _group(orders, rng)
        n = math.prod(orders)
        path = workdir / f"{label}.json"

        def build(table=table, label=label, path=path):
            ring = tables.finite_group_ring(table, f"group:{label}")
            tables.dump_ring_json(ring, path)
            return 0, path.read_text()

        def check_build(text, table=table, unit=unit, n=n):
            data = json.loads(text)
            problems: list[str] = []
            _expect(problems, data["unit"] == unit, "unit")
            _expect(problems, len(data["irreducibles"]) == n, "element count")
            inverse = {g: h for (g, h), p in table.items() if p == unit}
            _expect(problems, all(e["dim"] == 1 and e["conj"] == inverse[e["id"]] for e in data["irreducibles"]),
                    "dims or inverses")
            _expect(problems, all(row["result"] == {table[(row["left"], row["right"])]: 1}
                                  for row in data["fusion"]) and len(data["fusion"]) == n * n,
                    "fusion rows disagree with the group table")
            return problems

        tasks.append(Task(f"write {label}", build, check_build))

        def check_whole(r, problems, n=n):
            _expect(problems, r["exact"] and len(r["recovered"]) == n and r["lattice_rank"] == n - 1,
                    f"whole ring: {len(r['recovered'])} recovered, rank {r['lattice_rank']}")

        argv = ["dimideal", "--ring", f"json:{path.as_posix()}"]
        tasks.append(Task(f"dimideal {label} whole ring", _cli(argv), _checked(check_whole)))

        # The CLI takes one label set per run; recovering every subgroup of
        # one loaded ring is a library loop.
        rng.shuffle(subgroups)
        given = [sorted(sub) for sub in subgroups]

        def recover_all(path=path, given=given):
            ring = cli.parse_provider(f"json:{path.as_posix()}")
            reports = [torsion.dimension_ideal_recover(ring, [ring.parse_label(i) for i in ids]) for ids in given]
            return 0, json.dumps([r.to_dict() for r in reports], sort_keys=True)

        def check_all(text, given=given, n=n):
            problems: list[str] = []
            reports = json.loads(text)
            _expect(problems, len(reports) == len(given), "one report per subgroup")
            for ids, r in zip(given, reports):
                _expect(problems, r["exact"] and r["given"] == ids and r["recovered"] == ids,
                        f"|H|={len(ids)}: recovered {len(r['recovered'])}")
                _expect(problems, r["lattice_rank"] == n - n // len(ids),
                        f"|H|={len(ids)}: lattice rank {r['lattice_rank']}, want {n - n // len(ids)}")
            return problems

        tasks.append(Task(f"dimension ideals of all {len(given)} subgroups of {label}", recover_all, check_all))

    for orders in SUBRING_GROUPS:
        label = "Z" + "xZ".join(map(str, orders))
        _, table, subgroups = _group(orders, rng)

        def enumerate_subrings(table=table, label=label):
            ring = tables.finite_group_ring(table, f"group:{label}")
            found = torsion.enumerate_saturated_subrings(ring)
            return 0, json.dumps([[l.id for l in s] for s in found])

        def check_subrings(text, subgroups=subgroups):
            found = {frozenset(s) for s in json.loads(text)}
            return [] if found == set(subgroups) else [f"{len(found)} subrings, {len(subgroups)} subgroups"]

        tasks.append(Task(f"saturated subrings {label}", enumerate_subrings, check_subrings))
    return tasks


BUILDERS = {
    "closure": closure_tasks,
    "axioms": axioms_tasks,
    "uq": uq_tasks,
    "ideals": ideals_tasks,
}


def build(workload: str, seed: int, workdir: Path) -> list[Task]:
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, workdir)
