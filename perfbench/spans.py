"""Spans and counters for the traced run, and the per-layer metrics they give.

A span records one call into a layer: its name, the span that caused it,
and its start and end on ``time.perf_counter``.  Spans stay in memory and
are written out when the traced process ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time

SWEEPS = (
    "lambda_well_defined",
    "suslin_cocycle",
    "suslin_lambda_one",
    "inversion_two_torsion",
    "suslin_lambda_one_image",
    "constants",
    "difference_identity",
    "reduced_quotient_identities",
)

# Every span the traced run records; each gives "<name>_s" (inclusive) and
# "<name>.self_s" per-layer metrics.
SPAN_NAMES = (
    "cli.import",
    "cli.main",
    "finite_field.field_from_q",
    "bloch_core.prebloch_presentation",
    "bloch_core.refined_presentation",
    "bloch_core.bloch_invariants",
    "bloch_core.refined_bloch",
    "bloch_core.run_suite",
    "bloch_core.constant_b",
    "bloch_core.rp_lattice",
    "bloch_core.reduced_quotients",
    "bloch_core.reduced_lattice",
    "bloch_core.prebloch_lattice",
    *(f"bloch_core.sweep.{name}" for name in SWEEPS),
    "exact_linalg.invariants",
    "exact_linalg.kernel_with_embedding",
    "group_ring.z_expand",
    "group_ring.character_specialize",
    "laurent.fuzz_specialization",
    "laurent.specialization_target",
    "laurent.target_membership",
)

# Self time of the fuzz span is the series arithmetic: the fuzz minus the
# target build and the membership checks nested in it.
RENAMED_SELF = {"laurent.fuzz_specialization.self_s": "laurent.series_s"}

# Counters the traced process keeps while the command runs.
CALL_COUNTS = (
    "finite_field.mul_code_calls",
    "finite_field.add_code_calls",
    "group_ring.mul_calls",
    *(f"bloch_core.sweep.{name}.checked" for name in SWEEPS),
)

# Relation-matrix shapes, read after the command from what it built.
MATRIX_COUNTS = tuple(
    f"bloch_core.{matrix}.{key}" for matrix in ("prebloch_matrix", "refined_matrix") for key in ("rows", "cols", "nnz")
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in output order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}_s", "s"))
        self_name = f"{name}.self_s"
        out.append((RENAMED_SELF.get(self_name, self_name), "s"))
    out += [
        ("exact_linalg.prebloch_invariants_s", "s"),
        ("exact_linalg.basis_max_bits", "bits"),
        ("bloch_core.rp_lattice_peak_mb", "MB"),
        ("laurent.conclusive_ratio", "ratio"),
    ]
    out += [(name, "count") for name in (*CALL_COUNTS, *MATRIX_COUNTS)]
    out += [("laurent.attempts", "count"), ("laurent.inconclusive", "count"), ("cli.report_bytes", "count")]
    out += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.other_s", "s"),
    ]
    return out


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack.pop() != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, name, fn, on_result=None):
        """``fn`` inside a span; ``on_result(span, args, result)`` may rename it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def count(self, name, fn):
        """``fn`` with every call counted under ``name``."""
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self seconds per span name.

    A span nested inside another span of the same name adds only to the
    self total, so inclusive time is never counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    inclusive: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for s in spans:
        selfs[s["name"]] = selfs.get(s["name"], 0.0) + own[s["id"]]
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            inclusive[s["name"]] = inclusive.get(s["name"], 0.0) + s["end"] - s["start"]
    return inclusive, selfs


def _sum(runs: list[dict], get) -> float:
    return sum(get(run) or 0 for run in runs)


def layer_metrics(runs: list[dict], untraced_wall: float) -> dict[str, object]:
    """Per-layer metrics of one traced pass, summed over its processes.

    ``runs`` holds what each traced process recorded plus its ``wall`` and
    ``report_bytes``.  The traced wall leaves out the process's bookkeeping
    after the command (``bookkeeping_s``), so the overhead is tracing only.
    A metric reads 0 when the workload never reaches the layer, and None
    when the entry point it wraps no longer exists.
    """
    missing = set().union(*(run["missing"] for run in runs))
    inclusive: dict[str, float] = {}
    selfs: dict[str, float] = {}
    covered = 0.0
    prebloch_invariants = 0.0
    for run in runs:
        inc, own = span_totals(run["spans"])
        for name, v in inc.items():
            inclusive[name] = inclusive.get(name, 0.0) + v
        for name, v in own.items():
            selfs[name] = selfs.get(name, 0.0) + v
        names = {s["id"]: s["name"] for s in run["spans"]}
        for s in run["spans"]:
            if s["parent"] is None:
                covered += s["end"] - s["start"]
            elif s["name"] == "exact_linalg.invariants" and names[s["parent"]] == "cli.main":
                prebloch_invariants += s["end"] - s["start"]

    def gone(name: str) -> bool:
        return name in missing or (name.startswith("bloch_core.sweep.") and "bloch_core.sweep" in missing)

    out: dict[str, object] = {}
    for name in SPAN_NAMES:
        self_name = f"{name}.self_s"
        out[f"{name}_s"] = None if gone(name) else inclusive.get(name, 0.0)
        out[RENAMED_SELF.get(self_name, self_name)] = None if gone(name) else selfs.get(name, 0.0)
    out["exact_linalg.prebloch_invariants_s"] = None if gone("exact_linalg.invariants") else prebloch_invariants

    def largest(key: str):
        vals = [run["values"].get(key) for run in runs]
        return None if None in vals else max(vals, default=0)

    out["exact_linalg.basis_max_bits"] = largest("basis_max_bits")
    out["bloch_core.rp_lattice_peak_mb"] = largest("rp_lattice_peak_mb")

    fuzz = [run["values"]["fuzz"] for run in runs if "fuzz" in run["values"]]
    attempts = _sum(fuzz, lambda f: f["attempts"])
    out["laurent.conclusive_ratio"] = _sum(fuzz, lambda f: f["samples"]) / attempts if attempts else 0
    out["laurent.attempts"] = attempts
    out["laurent.inconclusive"] = _sum(fuzz, lambda f: f["inconclusive"])
    for name in CALL_COUNTS:
        out[name] = None if gone(name) else _sum(runs, lambda run: run["counts"].get(name))
    for name in MATRIX_COUNTS:
        _core, matrix, key = name.split(".")
        vals = [run["values"][matrix][key] for run in runs if matrix in run["values"]]
        out[name] = None if None in vals else sum(vals)
    out["cli.report_bytes"] = _sum(runs, lambda run: run["report_bytes"])

    wall = _sum(runs, lambda run: run["wall"] - run["bookkeeping_s"])
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.other_s"] = wall - covered
    return {name: out[name] for name, _unit in per_layer_metrics()}
