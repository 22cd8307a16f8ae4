"""Span recording for the traced benchmark run.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces module
attributes that callers resolve at call time (``fem.assemble``,
``greens.quad``, ``identities.quadrature_for``, ...) with wrappers that
record a span per call, and ``Tracer.uninstall`` puts the originals back.
Untraced rounds run the unmodified program.

A span is [name, parent index, start, end].  A layer's self time is the sum
over its spans of the duration minus the durations of direct children;
calls run on one thread, so children never overlap.  Spans nested inside a
span of the same name (``green_tensor`` calling ``elastic_hessian_kernel``)
add to that layer's self time and not to its inclusive time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name): every place a caller looks the layer up.
TARGETS = [
    ("elastab.cli", "main", "cli"),
    ("elastab.cli", "bounds_table", "bounds.table"),
    ("elastab.greens", "_kernel_table", "greens.kernel"),
    ("elastab.greens", "green_tensor", "greens.kernel"),
    ("elastab.greens", "elastic_hessian_kernel", "greens.kernel"),
    ("elastab.greens", "verify_fundamental_sweep", "greens.verify"),
    ("elastab.greens", "fourier_multiplier_norm", "greens.multiplier"),
    ("elastab.greens", "fourier_multiplier_entry", "greens.multiplier_entry"),
    ("elastab.greens", "quad", "greens.quad"),
    ("elastab.mesh", "build_annulus_mesh", "mesh.build"),
    ("elastab.fem", "build_annulus_mesh", "mesh.build"),
    ("elastab.cli", "build_annulus_mesh", "mesh.build"),
    ("elastab.fem", "assemble", "fem.assemble"),
    ("elastab.fem", "empirical_constant", "fem.estimate"),
    ("elastab.fem", "solve", "fem.solve"),
    ("elastab.fem", "evaluate_boundary", "fem.boundary"),
    ("elastab.fem", "boundary_load", "fem.boundary"),
    ("elastab.identities", "garding_audit", "identities.garding"),
    ("elastab.identities", "rellich_audit", "identities.rellich"),
    ("elastab.identities", "mass_identity_audit", "identities.mass"),
    ("elastab.identities", "morawetz_audit", "identities.morawetz"),
    ("elastab.identities", "morawetz_audit_discrete", "identities.morawetz"),
    ("elastab.identities", "korn_audit", "identities.korn"),
    ("elastab.identities", "robin_identity_audit", "identities.robin"),
    ("elastab.identities", "estimate_chain_audit", "identities.chain"),
    ("elastab.identities", "quadrature_for", "quadrature.rule"),
]
# scipy's splu as fem reaches it, through the module attribute fem.spla
FACTOR_TARGET = ("elastab.fem", "spla", "splu")

SUITES = ("garding", "rellich", "mass", "morawetz", "korn", "robin", "chain")

# per-layer metric -> unit; the order is the order of the printed report
LAYER_UNITS = {
    "greens.kernel_s": "s",
    "greens.verify_s": "s",
    "greens.convolution_s": "s",
    "greens.pairs": "count",
    "greens.pairs_per_s": "1/s",
    "greens.multiplier_s": "s",
    "greens.multiplier_points": "count",
    "greens.quad_calls": "count",
    "mesh.build_s": "s",
    "mesh.nodes": "count",
    "fem.assemble_s": "s",
    "fem.assemble_calls": "count",
    "fem.factor_s": "s",
    "fem.factor_calls": "count",
    "fem.lu_nnz": "count",
    "fem.estimate_s": "s",
    "fem.iterate_s": "s",
    "fem.iterations": "count",
    "fem.dofs": "count",
    "fem.solve_s": "s",
    "fem.solve_calls": "count",
    "fem.boundary_s": "s",
    **{f"identities.{s}_s": "s" for s in SUITES},
    "identities.audits": "count",
    "quadrature.rule_s": "s",
    "quadrature.rules": "count",
    "bounds.table_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted": "share",
}

# every count must repeat exactly between traced rounds of one run
EXACT_COUNTS = tuple(name for name, unit in LAYER_UNITS.items() if unit == "count")


class _CountingLU:
    """SuperLU stand-in that counts forward solves made during an estimate."""

    def __init__(self, lu, tracer, in_estimate: bool):
        self._lu, self._tracer, self._in_estimate = lu, tracer, in_estimate

    def solve(self, rhs, trans="N"):
        if self._in_estimate and trans == "N":
            self._tracer.counts["fem.iterations"] += 1
        return self._lu.solve(rhs, trans=trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SplaProxy:
    """scipy.sparse.linalg with ``splu`` replaced; everything else delegates."""

    def __init__(self, real, splu):
        self._real, self.splu = real, splu

    def __getattr__(self, name):
        return getattr(self._real, name)


def _count_result(tracer, name, args, result):
    """Work counts taken at the layer boundary from a call's inputs or result."""
    c = tracer.counts
    if name == "greens.verify":
        n_nodes = args[0].nodes.shape[0]
        values = args[1]
        c["greens.pairs"] += n_nodes * n_nodes * (values.shape[2] if values.ndim == 3 else 1)
    elif name == "mesh.build":
        c["mesh.nodes"] += result.n_nodes
    elif name == "fem.assemble":
        c["fem.dofs"] += result.n_dofs
    elif name == "fem.factor":
        c["fem.lu_nnz"] += result.L.nnz + result.U.nnz


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        try:
            _count_result(self, name, args, result)
        except (AttributeError, IndexError, TypeError):
            self.uncounted.add(name)  # the layer changed its signature
        return result

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target present; a missing one is recorded as absent
        and its counts stay 0."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._patch(module, attr, self._wrap(name, getattr(module, attr)))
            else:
                self.absent.append(f"{module_name}.{attr}")
        module_name, attr, factor = FACTOR_TARGET
        module = importlib.import_module(module_name)
        real = getattr(module, attr, None)
        if real is None or not hasattr(real, factor):
            self.absent.append(f"{module_name}.{attr}.{factor}")
            return
        traced_splu = self._wrap("fem.factor", getattr(real, factor))

        def splu(*args, **kwargs):
            return _CountingLU(traced_splu(*args, **kwargs), self, self.inside("fem.estimate"))

        self._patch(module, attr, _SplaProxy(real, splu))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def times(self):
        """Per span name: (calls, self seconds, inclusive seconds)."""
        calls, own, incl = Counter(), defaultdict(float), defaultdict(float)
        for span in self.spans:
            name, parent, start, end = span
            calls[name] += 1
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                incl[name] += end - start
        return calls, own, incl

    def layer_metrics(self, wall: float, cpu: float, bytes_out: int) -> dict:
        """The per-layer metrics of one traced round (the trace.* entries that
        compare with untraced rounds are filled in by the caller)."""
        calls, own, incl = self.times()
        c = self.counts
        return {
            "greens.kernel_s": own["greens.kernel"],
            "greens.verify_s": incl["greens.verify"],
            "greens.convolution_s": own["greens.verify"],
            "greens.pairs": c["greens.pairs"],
            "greens.pairs_per_s": (
                c["greens.pairs"] / own["greens.verify"] if own["greens.verify"] > 0.0 else 0.0
            ),
            "greens.multiplier_s": incl["greens.multiplier"],
            "greens.multiplier_points": calls["greens.multiplier_entry"],
            "greens.quad_calls": calls["greens.quad"],
            "mesh.build_s": own["mesh.build"],
            "mesh.nodes": c["mesh.nodes"],
            "fem.assemble_s": own["fem.assemble"],
            "fem.assemble_calls": calls["fem.assemble"],
            "fem.factor_s": own["fem.factor"],
            "fem.factor_calls": calls["fem.factor"],
            "fem.lu_nnz": c["fem.lu_nnz"],
            "fem.estimate_s": incl["fem.estimate"],
            "fem.iterate_s": own["fem.estimate"],
            "fem.iterations": c["fem.iterations"],
            "fem.dofs": c["fem.dofs"],
            "fem.solve_s": own["fem.solve"],
            "fem.solve_calls": calls["fem.solve"],
            "fem.boundary_s": own["fem.boundary"],
            **{f"identities.{s}_s": own[f"identities.{s}"] for s in SUITES},
            "identities.audits": sum(calls[f"identities.{s}"] for s in SUITES),
            "quadrature.rule_s": own["quadrature.rule"],
            "quadrature.rules": calls["quadrature.rule"],
            "bounds.table_s": own["bounds.table"],
            "cli.self_s": own["cli"],
            "cli.bytes_out": bytes_out,
            "process.cpu_s": cpu,
            "trace.wall_s": wall,
            "trace.accounted": sum(own.values()) / wall,
        }
