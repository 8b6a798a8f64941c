"""fusionring benchmark: one seeded workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Load model: a closed loop.  One client in this process issues the
workload's seeded task list back to back (a "pass"), again and again until
``--seconds`` have passed and at least three passes are done.  It starts
no threads; numpy's BLAS may use its own (the count is printed).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median import
time of ``fusionring`` and ``fusionring.cli`` in fresh interpreters),
``wall_s`` and ``cpu_s`` (the sum over tasks of each task's median time
across the passes, counting only the tasks, not their checks), and
``peak_rss_mb`` (peak resident set of this process).  ``--trace 1`` runs
one untraced pass and two traced passes and prints the per-layer metrics
of the first traced pass; it also checks that every task's output is
byte-identical with and without tracing and that the exact counts repeat
between the two traced passes.  README.md has the details.

Every task's output is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))
sys.dont_write_bytecode = True  # tests/oracles.py is imported read-only
import oracles  # noqa: E402,F401

sys.dont_write_bytecode = False
import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from calibration import CAL_REF_S, calibrate  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 9
WORKDIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "perfbench-spans"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# Units of the per-layer metrics by the last part of their name; names
# ending in _s are times, the rest ratios.  Every metric that is not a time
# is exact and must repeat between two traced passes of one seed.
PER_LAYER_UNITS = {
    "calls": "count", "first_calls": "count", "labels": "count", "decompose_calls": "count",
    "multiply_virtual_calls": "count", "pairs_checked": "count", "triples_checked": "count",
    "rank_max": "count", "ill_conditioned": "count", "coeff_bits_max": "bits",
    "system_rows_max": "rows", "svd_flops": "flop", "svd_bytes": "bytes", "json_bytes": "bytes",
    "calls_exponent": "slope",
}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    return "s" if last.endswith("_s") else "ratio"


# Main-thread CPU time of the import, with the calibration loop timed in the
# same fresh interpreter just before and just after it.
SETUP_CODE = (
    "import time; from calibration import calibrate; before = calibrate(); "
    "t, c = time.perf_counter(), time.thread_time(); import fusionring, fusionring.cli; "
    "wall, cpu = time.perf_counter() - t, time.thread_time() - c; "
    "print(wall, cpu, (before + calibrate()) / 2)"
)


def measure_setup() -> tuple[float, float]:
    """Import cost of ``fusionring`` and ``fusionring.cli`` in fresh
    interpreters, after one warm-up that fills the bytecode cache.

    Returns the median main-thread CPU time in reference seconds, and the
    median measured wall time.  The wall time also counts the main thread
    waiting for the core while OpenBLAS's worker thread starts, which
    doubled it on some runs and not others.
    """
    paths = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    scaled, walls = [], []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        wall, cpu, loop = map(float, out.stdout.split())
        if i:
            scaled.append(cpu * CAL_REF_S / loop)
            walls.append(wall)
    return statistics.median(scaled), statistics.median(walls)


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Pass:
    """Run every task once; keep each output's digest and the failures.

    Only the reference pass (``keep_outputs``) keeps the output text for
    the full check; later passes are compared by digest, so the peak
    resident set does not grow with the number of passes.
    """

    def __init__(self, tasks, recorder=None, keep_outputs=False):
        self.tasks = tasks
        self.recorder = recorder
        self.keep_outputs = keep_outputs
        self.walls: list[float] = []  # measured seconds per task
        self.cpus: list[float] = []
        self.loops: list[float] = []  # calibration loop time around each task
        self.scales: list[float] = []  # reference seconds per measured second (calibration.py)
        self.digests: list[str | None] = []
        self.outputs: list[str | None] = []
        self.errors: list[str | None] = []
        self.json_bytes = 0

    def run(self) -> "Pass":
        before = calibrate()
        for index, task in enumerate(self.tasks):
            if self.recorder is not None:
                self.recorder.task_id = index
            gc.collect()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code, text = task.run()
                error = None if code == 0 else f"exit code {code}"
            except Exception as exc:  # a failing task is counted, and the run goes on
                code, text, error = None, None, f"raised {type(exc).__name__}: {exc}"
            self.walls.append(time.perf_counter() - t0)
            self.cpus.append(time.process_time() - c0)
            after = calibrate()
            self.loops.append((before + after) / 2)
            self.scales.append(CAL_REF_S / self.loops[-1])
            before = after
            if self.keep_outputs:
                self.outputs.append(text)
            self.digests.append(hashlib.sha256(text.encode()).hexdigest() if text is not None else None)
            self.errors.append(error)
            if text is not None:
                self.json_bytes += len(text.encode())
        return self

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def scaled_wall(self) -> float:
        return sum(w * k for w, k in zip(self.walls, self.scales))


def median_of_tasks(passes, attr: str, scaled: bool = True) -> float:
    """Sum over tasks of each task's median time across the passes."""
    total = 0.0
    for i in range(len(passes[0].tasks)):
        total += statistics.median(getattr(p, attr)[i] * (p.scales[i] if scaled else 1.0) for p in passes)
    return total


def check_outputs(reference: Pass) -> list[str | None]:
    """Full check of each output of one pass: None, or what was wrong."""
    verdicts = []
    for task, text, error in zip(reference.tasks, reference.outputs, reference.errors):
        if error is None:
            try:
                problems = task.check(text)
            except Exception as exc:  # a malformed report is a wrong answer
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        verdicts.append(error)
    return verdicts


def compare(reference: Pass, verdicts, other: Pass, what: str) -> list[str | None]:
    """Later passes repeat the same inputs, so they must repeat the output."""
    out = []
    for verdict, ref, digest, error in zip(verdicts, reference.digests, other.digests, other.errors):
        if error is None and digest != ref:
            error = f"output differs from the {what}"
        out.append(error or verdict)
    return out


def report_failures(tasks, verdicts, label: str) -> int:
    failed = 0
    for task, verdict in zip(tasks, verdicts):
        if verdict is not None:
            failed += 1
            print(f"FAIL [{label}] {task.name}: {verdict}", file=sys.stderr)
    return failed


def run_untraced(tasks, seconds: float) -> tuple[dict, int, int]:
    setup_s, setup_wall = measure_setup()
    start = time.perf_counter()
    passes = [Pass(tasks, keep_outputs=True).run()]
    verdicts = check_outputs(passes[0])
    failed = report_failures(tasks, verdicts, "pass 1")
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        p = Pass(tasks).run()
        failed += report_failures(tasks, compare(passes[0], verdicts, p, "first pass"), f"pass {len(passes) + 1}")
        passes.append(p)
    values = {
        "setup_s": setup_s,
        "wall_s": median_of_tasks(passes, "walls"),
        "cpu_s": median_of_tasks(passes, "cpus"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = len(tasks) * len(passes)
    print(f"passes: {len(passes)}; measured seconds: setup wall {setup_wall:.4f}, "
          f"wall {median_of_tasks(passes, 'walls', scaled=False):.4f}, "
          f"cpu {median_of_tasks(passes, 'cpus', scaled=False):.4f}; "
          f"pass walls {' '.join(f'{p.wall:.3f}' for p in passes)}; "
          f"calibration loop median {statistics.median(t for p in passes for t in p.loops) * 1000:.2f} ms")
    return values, attempted, failed


def run_traced(tasks, workload: str, seed: int) -> tuple[dict, int, int]:
    plain = Pass(tasks, keep_outputs=True).run()
    verdicts = check_outputs(plain)
    failed = report_failures(tasks, verdicts, "untraced")
    summaries = []
    changed = 0
    for k in (1, 2):
        recorder = spans.Recorder()
        recorder.install()
        try:
            traced = Pass(tasks, recorder).run()
        finally:
            recorder.uninstall()
        failed += report_failures(tasks, compare(plain, verdicts, traced, "untraced pass"), f"traced {k}")
        changed += sum(a != b for a, b in zip(plain.digests, traced.digests))
        if k == 1:
            recorder.save(SPANS_DIR / f"{workload}-seed{seed}.npz", [t.name for t in tasks])
        m = spans.summarize(recorder)
        m["cli.json_bytes"] = traced.json_bytes
        m["trace.overhead_s"] = traced.scaled_wall - plain.scaled_wall
        summaries.append((m, traced.wall))
        del recorder
    (first, wall), (second, _) = summaries
    exact = [name for name in first if per_layer_unit(name) != "s"]
    unstable = [name for name in exact if first[name] != second[name]]
    print(f"exact per-layer values repeating across two traced passes: {len(exact) - len(unstable)} of {len(exact)}"
          f"; differing: {', '.join(f'{n} ({first[n]} vs {second[n]})' for n in unstable) or 'none'}")
    print(f"task outputs whose digest differs between the untraced and a traced pass: {changed}")
    # Each exact value and the layer claim is a check too: one that does not
    # hold counts as a failure, as a wrong output does.
    layer_ok = print_layer_check(workload, first, wall)
    failed += len(unstable) + (not layer_ok)
    return first, len(tasks) * 3 + len(exact) + 1, failed


LAYER_CLAIMS = {
    "ideals": ("largest", "lattice"),
    "uq": ("largest", "uqnumeric"),
    "closure": ("most", ("torsion", "core", "rings")),
    "axioms": ("most", ("axioms", "core", "rings")),
}


def print_layer_check(workload: str, m: dict, wall: float) -> bool:
    """Does the workload load the layer it was chosen for?"""
    selfs = {layer: m[f"layer.{layer}.self_s"] for layer in spans.LAYERS}
    shares = "  ".join(f"{k} {v / wall:.1%}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]))
    print(f"layer self time as share of the traced tasks' {wall:.3f} s: {shares}")
    kind, target = LAYER_CLAIMS[workload]
    if kind == "largest":
        ok = max(selfs, key=selfs.get) == target
        claim = f"{target} has the largest self time"
    else:
        ok = sum(selfs[layer] for layer in target) > 0.5 * wall
        claim = f"{' + '.join(target)} take most of the traced time"
    print(f"layer check ({workload}): {claim}: {'yes' if ok else 'NO'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    try:
        tasks = workloads.build(args.workload, args.seed, WORKDIR.relative_to(ROOT))
        print(f"workload {args.workload}, seed {args.seed}: {len(tasks)} tasks per pass; "
              f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, numpy {np.__version__}, "
              f"BLAS threads {blas_threads()}")
        if args.trace:
            values, attempted, failed = run_traced(tasks, args.workload, args.seed)
            metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
        else:
            values, attempted, failed = run_untraced(tasks, args.seconds)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            print("  ".join(f"{k} {v['value']:.4f} {v['unit']}" for k, v in metrics.items())
                  + f"  fail_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
