"""elastab benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload whole-space|annulus|audit \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` of the
same checkout and nowhere else.  Rounds of the workload run back to back
until ``--seconds`` have passed and at least three rounds are done (a round
that has started always finishes).

--trace 0  end-to-end metrics: wall_s (median round), setup_s (median of
           five cold starts: interpreter, elastab/numpy/scipy import and
           the workload's inputs), peak_rss_mb (this process).
--trace 1  per-layer metrics from rounds run with span wrappers installed,
           alternating with untraced rounds for the tracing overhead.

Human-readable lines go to stdout first; the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  Exit code 2, with no result,
when the package cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("whole-space", "annulus", "audit")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# a run takes at least three rounds, so its median is not one round's time;
# a traced run's third round is its second traced one, needed to compare counts
MIN_ROUNDS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _configure_environment() -> int:
    """Cap BLAS threads at the core count and leave ELASTAB_THREADS unset,
    the defaults a user gets; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("ELASTAB_THREADS", None)
    return nproc


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import elastab
    except ImportError as exc:
        print(f"bench: cannot import elastab from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(elastab.__file__).resolve().is_relative_to(SRC):
        print(f"bench: elastab imported from {elastab.__file__}, not {SRC}", file=sys.stderr)
        return None
    import workloads

    return workloads


def measure_setup(workload: str, seed: int, scratch: Path) -> list:
    """Wall time of fresh interpreters that import the program and build the
    workload's inputs, as every CLI invocation does."""
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
        "import workloads; "
        f"workloads.build_inputs({workload!r}, {seed}, Path({str(scratch)!r}))"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(workload, tracer=None):
    """Run every task once, then check the outputs.  Returns (wall seconds,
    cpu seconds, [(task, value, problems)], output bytes); only the tasks
    are timed."""
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        cpu0, t0 = time.process_time(), time.perf_counter()
        for task in workload.tasks:
            try:
                outcomes.append((task, task.run(), None))
            except Exception as exc:  # a failed task is counted, the loop goes on
                outcomes.append((task, None, exc))
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    checked = []
    for task, value, exc in outcomes:
        try:
            problems = [f"raised {exc!r}"] if exc is not None else task.check(value)
        except Exception as check_exc:  # missing or malformed output file
            problems = [f"output unreadable: {check_exc!r}"]
        checked.append((task, value, problems))
    out_bytes = sum(_bytes_under(t.out_dir) for t in workload.tasks if t.out_dir is not None)
    return wall, cpu, checked, out_bytes


def _emit(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"  {name:28s} {value!r:>24} {units[name]}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _configure_environment()
    workloads = _import_program()
    if workloads is None:
        return 2
    import numpy
    import scipy

    from tracer import EXACT_COUNTS, LAYER_UNITS, Tracer

    scratch = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed, scratch / "setup")
        workload = workloads.build_inputs(args.workload, args.seed, scratch / "run")
        workloads.attach_oracle(workload, args.seed)
        print(
            f"workload {args.workload} seed {args.seed} trace {args.trace}: nproc {nproc}, "
            f"BLAS threads {os.environ[BLAS_VARS[0]]}, ELASTAB_THREADS unset, "
            f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, inputs {json.dumps(workload.sizes)}"
        )

        untraced, layer_rounds, failures = [], [], []
        rounds = 0
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            # a traced run alternates traced and untraced rounds, traced first
            tracer = Tracer() if args.trace and rounds % 2 == 0 else None
            wall, cpu, outcomes, out_bytes = run_round(workload, tracer)
            failures += [(task.name, problems) for task, _, problems in outcomes if problems]
            rounds += 1
            if tracer is None:
                untraced.append(wall)
            else:
                layer_rounds.append((tracer, tracer.layer_metrics(wall, cpu, out_bytes)))
        attempted = rounds * len(workload.tasks)
        failed = len(failures)
        for name, problems in failures:
            print(f"FAILED {name}: {'; '.join(problems[:3])}")
        print(f"fail_frac {failed / attempted!r} share ({failed} of {attempted} tasks)")

        if not args.trace:
            print(f"wall_s over {len(untraced)} rounds: {untraced}")
            print(f"setup_s over {len(setup)} cold starts: {setup}")
            metrics = {
                "wall_s": statistics.median(untraced),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            _emit(failed == 0, attempted, failed, metrics, END_TO_END_UNITS)
            return 0

        first_tracer, first = layer_rounds[0]
        counts_repeat = True
        for _, other in layer_rounds[1:]:
            for name in EXACT_COUNTS:
                if other[name] != first[name]:
                    counts_repeat = False
                    print(f"COUNT MISMATCH {name}: {first[name]} then {other[name]}")
        metrics = {name: statistics.median(m[name] for _, m in layer_rounds) for name in first}
        metrics.update({name: first[name] for name in EXACT_COUNTS})
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics = {name: metrics[name] for name in LAYER_UNITS}
        traced = [m["trace.wall_s"] for _, m in layer_rounds]
        print(f"traced rounds {len(traced)}: {traced}; untraced rounds {len(untraced)}: {untraced}")
        if first_tracer.absent:
            print(f"absent targets (counted as 0): {', '.join(first_tracer.absent)}")
        if first_tracer.uncounted:
            print(f"counts not taken: {', '.join(sorted(first_tracer.uncounted))}")
        calls, own, incl = first_tracer.times()
        print(f"self time by span, first traced round (sum {sum(own.values())!r} s "
              f"of wall {first['trace.wall_s']!r} s):")
        for name in sorted(own, key=own.get, reverse=True):
            print(f"  {name:28s} calls {calls[name]:6d} self {own[name]:10.4f} s incl {incl[name]:10.4f} s")
        _emit(failed == 0 and counts_repeat, attempted, failed, metrics, LAYER_UNITS)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass


if __name__ == "__main__":
    sys.exit(main())
