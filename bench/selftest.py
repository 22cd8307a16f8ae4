"""Self-test of the benchmark's output checks and exact counts.

    python3 bench/selftest.py          (from the repository root, ~1.5 min)

For each workload it runs traced rounds and asserts that
  1. the outputs pass their checks against the stored reference, still pass
     when a reference moves by far less than its tolerance, and count as a
     failure when a reference moves just beyond it (one perturbation per
     checked quantity, plus an oracle built for a wrong material, which
     stands for a wrong kernel);
  2. two traced rounds at one seed give identical counts;
  3. a second seed gives the same counts, except those listed in
     SEED_DEPENDENT.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import shutil
import sys

import run

# the power-iteration start vector is drawn from the seed, so the number of
# iterations to the stopping rule is too
SEED_DEPENDENT = {"fem.iterations"}

class Expectations:
    def __init__(self):
        self.failed: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failed.append(what)


def changed(ref: dict, path: tuple, fn) -> dict:
    """Deep copy of ``ref`` with the value at ``path`` replaced by fn(value)."""
    out = copy.deepcopy(ref)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = fn(node[path[-1]])
    return out


def scaled(ref: dict, path: tuple, factor: float) -> dict:
    return changed(ref, path, lambda v: v * factor)


def perturbations(workloads, name: str, oracle_ref: dict):
    """(label, reference, oracle reference, index of the task that must fail,
    or None when every task must pass)."""
    ref = workloads.REFERENCE
    if name == "whole-space":
        for key in ("ratio", "scalar_ratio_max", "elastic_ratio_max", "grid_consistency"):
            yield f"oracle {key} x(1+1e-11)", ref, scaled(oracle_ref, (key,), 1 + 1e-11), None
            yield f"oracle {key} x(1+3e-9)", ref, scaled(oracle_ref, (key,), 1 + 3e-9), 0
        sources = workloads.greens.random_ball_sources(1.0, workloads.N_SOURCES, 0)
        wrong = workloads.oracle.whole_space_reference(
            sources, 1.0, workloads.GRID_N, workloads.FINE_GRID_N, 1.0, 1.0, 1.05, workloads.OMEGA
        )
        yield "oracle for lambda = 1.05", ref, wrong, 0
        yield "multiplier x(1+1e-9)", scaled(ref, ("whole_space", "multiplier"), 1 + 1e-9), oracle_ref, None
        yield "multiplier x(1+3e-7)", scaled(ref, ("whole_space", "multiplier"), 1 + 3e-7), oracle_ref, 1
    elif name == "annulus":
        yield "c_emp x(1+1e-4)", scaled(ref, ("annulus", "rows", 2, "c_emp"), 1 + 1e-4), {}, None
        yield "c_emp x(1+2e-3)", scaled(ref, ("annulus", "rows", 2, "c_emp"), 1 + 2e-3), {}, 0
        yield "n_dofs + 2", changed(ref, ("annulus", "rows", 0, "n_dofs"), lambda v: v + 2), {}, 0
    else:
        yield "bounds x(1+1e-14)", scaled(ref, ("audit", "bounds", "rows", 7, 6), 1 + 1e-14), {}, None
        yield "bounds x(1+1e-11)", scaled(ref, ("audit", "bounds", "rows", 7, 6), 1 + 1e-11), {}, 2
        yield "identity count - 1", changed(ref, ("audit", "identity_reports"), lambda v: v - 1), {}, 0
        yield "sweep c_emp x(1+2e-3)", scaled(ref, ("audit", "sweep_rows", 8, "c_emp"), 1 + 2e-3), {}, 1


def check_workload(workloads, name: str, scratch, expect: Expectations) -> None:
    from tracer import EXACT_COUNTS, Tracer

    print(f"{name}:")
    workload = workloads.build_inputs(name, 0, scratch)
    workloads.attach_oracle(workload, 0)
    tracer = Tracer()
    wall, cpu, outcomes, out_bytes = run.run_round(workload, tracer)
    first = tracer.layer_metrics(wall, cpu, out_bytes)
    expect(all(not problems for _, _, problems in outcomes), "outputs pass against the reference")

    values = [value for _, value, _ in outcomes]
    for label, reference, oracle_ref, must_fail in perturbations(workloads, name, workload.expected):
        perturbed = workloads.build_inputs(name, 0, scratch, reference=reference)
        perturbed.expected.update(oracle_ref)
        failed = [i for i, (task, value) in enumerate(zip(perturbed.tasks, values)) if task.check(value)]
        expect(failed == ([] if must_fail is None else [must_fail]), f"{label}: failed tasks {failed}")

    tracer = Tracer()
    wall, cpu, _, out_bytes = run.run_round(workload, tracer)
    again = tracer.layer_metrics(wall, cpu, out_bytes)
    expect(all(again[k] == first[k] for k in EXACT_COUNTS), "counts repeat at seed 0")

    other = workloads.build_inputs(name, 1, scratch / "seed1")
    workloads.attach_oracle(other, 1)
    tracer = Tracer()
    wall, cpu, outcomes, out_bytes = run.run_round(other, tracer)
    expect(all(not problems for _, _, problems in outcomes), "seed 1 outputs pass")
    seed1 = tracer.layer_metrics(wall, cpu, out_bytes)
    differ = {k: (first[k], seed1[k]) for k in EXACT_COUNTS if seed1[k] != first[k]}
    expect(set(differ) <= SEED_DEPENDENT, f"seed 1 counts equal seed 0 apart from {differ}")


def main() -> int:
    run._configure_environment()
    workloads = run._import_program()
    if workloads is None:
        return 2
    scratch = run.ROOT / ".bench_out" / "selftest"
    expect = Expectations()
    try:
        for name in run.WORKLOADS:
            check_workload(workloads, name, scratch / name, expect)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(expect.failed)} expectation(s) failed" if expect.failed else "all expectations hold")
    return 1 if expect.failed else 0


if __name__ == "__main__":
    sys.exit(main())
