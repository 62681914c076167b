"""braidlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/braidlab`` of that checkout and nowhere else.  BLAS is pinned to one
thread.  A run sets up (imports, seeded inputs, one warm-up call of each task
kind), then repeats the workload's fixed task list ("a pass") for about T
seconds, checking every task's output.

--trace 0 reports the end-to-end metrics:
  setup_s      median of five set-ups, each in a fresh process, from process
               start until the workload is ready to run
  wall_s       median wall time of one pass (program calls only, not checks)
  cpu_s        median user+system CPU time of one pass, children included
  peak_rss_mb  peak resident memory of this process, MiB

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/spans.py (medians over the traced passes), plus
trace.overhead_frac.  It fails the run if any CLI stdout differs between
traced and untraced passes.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the machine facts.  Results and spans are also written
to .perfbench_out/ in the checkout.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# before braidlab imports numpy, here and in the set-up processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def import_program():
    """Import braidlab from this checkout's src/, refusing any other copy."""
    if not (SRC / "braidlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no braidlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import braidlab
    if Path(braidlab.__file__).resolve().parent != SRC / "braidlab":
        raise SystemExit(f"perfbench: imported braidlab from {braidlab.__file__}, not {SRC}")
    return braidlab


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def call(task, recorder=None):
    """Run one task; returns (passed, output, wall seconds, CPU seconds)."""
    if recorder:
        recorder.active = True
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        out, raised = task.run(), None
    except Exception as exc:  # a failing task is counted, the run goes on
        out, raised = None, exc
    t1, cpu1 = time.perf_counter(), cpu_seconds()
    if recorder:
        recorder.active = False
    if raised is not None:
        print(f"perfbench: {task.label}: raised {raised!r}", file=sys.stderr)
        return False, None, t1 - t0, cpu1 - cpu0
    try:
        passed = bool(task.check(out))
    except Exception as exc:  # a malformed output fails its check
        print(f"perfbench: {task.label}: check raised {exc!r}", file=sys.stderr)
        passed = False
    if not passed:
        print(f"perfbench: {task.label}: wrong output", file=sys.stderr)
    return passed, out, t1 - t0, cpu1 - cpu0


class Pass:
    """One run of a task list: wall/CPU totals, failures and CLI stdouts."""

    def __init__(self, tasks, recorder=None):
        start = time.perf_counter()
        self.wall = self.cpu = 0.0
        self.failed = 0
        self.stdout = []
        for task in tasks:
            passed, out, wall, cpu = call(task, recorder)
            self.wall += wall
            self.cpu += cpu
            self.failed += not passed
            if task.cli:
                self.stdout.append(out[1] if out else None)
        self.elapsed = time.perf_counter() - start


def set_up(workload, seed):
    import_program()
    import workloads
    tasks, warmups = workloads.build(workload, seed)
    warm = Pass(warmups)
    return tasks, len(warmups), warm.failed


def setup_seconds(workload, seed):
    """Process start to ready, for one set-up in a fresh interpreter."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, __file__, "--setup-only", "--workload", workload,
                           "--seed", str(seed)], capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def untraced_metrics(workload, seed, seconds, tasks):
    setups = [setup_seconds(workload, seed) for _ in range(SETUP_RUNS)]
    passes = []
    start = time.perf_counter()
    # stop when the next pass would likely overrun `seconds`
    while len(passes) < MIN_PASSES or time.perf_counter() - start + passes[-1].elapsed <= seconds:
        passes.append(Pass(tasks))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": (median(setups), "s"),
               "wall_s": (median(p.wall for p in passes), "s"),
               "cpu_s": (median(p.cpu for p in passes), "s"),
               "peak_rss_mb": (peak, "MB")}
    return passes, metrics, 0


def traced_metrics(workload, seed, seconds, tasks):
    import braidlab
    import spans as span_layer
    recorder = span_layer.Recorder()
    recorder.install(braidlab)
    plain, traced, stats, last_spans = [], [], [], []
    start = time.perf_counter()
    try:
        while not traced or (time.perf_counter() - start + plain[-1].elapsed
                             + traced[-1].elapsed <= seconds):
            plain.append(Pass(tasks))
            traced.append(Pass(tasks, recorder))
            last_spans = recorder.take()
            stats.append(span_layer.LayerStats(last_spans,
                                               sum(len(s or "") for s in traced[-1].stdout)))
    finally:
        recorder.uninstall()
    mismatched = sum(p.stdout != plain[0].stdout for p in plain + traced)
    if mismatched:
        print(f"perfbench: CLI stdout differs between passes ({mismatched})", file=sys.stderr)
    metrics = {name: (median(value(s) for s in stats), unit)
               for name, unit, value, _, _ in span_layer.LAYER_METRICS}
    overhead = median(p.wall for p in traced) / median(p.wall for p in plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    OUT.mkdir(exist_ok=True)
    span_layer.write_jsonl(OUT / f"spans-{workload}.jsonl", last_spans)
    return plain + traced, metrics, mismatched


def blas_threads(numpy):
    """OpenBLAS's own thread count, when the library exports it."""
    for lib in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn()
    return None


def machine_facts(seed):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "braidlab").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(numpy), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock, and exit")
    args = p.parse_args(argv)

    tasks, warm_attempted, warm_failed = set_up(args.workload, args.seed)
    if args.setup_only:
        print(time.monotonic())
        return 0

    measured = traced_metrics if args.trace else untraced_metrics
    passes, metrics, mismatched = measured(args.workload, args.seed, args.seconds, tasks)
    if set(metrics) != declared_metrics(args.trace):
        raise SystemExit("perfbench: reported metrics differ from BENCHMARK.json")
    attempted = warm_attempted + len(tasks) * len(passes)
    failed = warm_failed + sum(p.failed for p in passes) + mismatched
    facts = machine_facts(args.seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "pass_walls": [p.wall for p in passes], "facts": facts, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"facts": facts, "passes": len(passes)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
