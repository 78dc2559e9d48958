"""Run one blochtower CLI command in-process, with spans around layer calls.

Usage: python3 perfbench/traced_cli.py SRC_DIR RESULT_JSON CLI_ARG...

The command runs through ``blochtower.cli.main`` in a fresh interpreter, so
every cache starts cold.  Before it runs, public entry points of
finite_field, exact_linalg, group_ring, bloch_core and laurent are replaced,
in every blochtower module that holds them, by wrappers that record a span
or count calls; the package's files are not changed.  An entry point that
no longer exists is listed as missing, and the metrics it feeds read null.

After the command, outside any span, the script records what the gate and
the per-layer metrics need: the order of c where the command computed it,
the relation-matrix shapes, the largest HNF basis entry of the lattices
built, and the tracemalloc peak of a second build of the refined lattice.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

from spans import Tracer

# (dotted path below the package, span name)
SPANNED = (
    ("finite_field.field_from_q", "finite_field.field_from_q"),
    ("bloch_core.prebloch_presentation", "bloch_core.prebloch_presentation"),
    ("bloch_core.refined_presentation", "bloch_core.refined_presentation"),
    ("bloch_core.bloch_invariants", "bloch_core.bloch_invariants"),
    ("bloch_core.refined_bloch", "bloch_core.refined_bloch"),
    ("bloch_core.run_suite", "bloch_core.run_suite"),
    ("bloch_core.constant_b", "bloch_core.constant_b"),
    ("bloch_core.rp_lattice", "bloch_core.rp_lattice"),
    ("bloch_core.reduced_quotients", "bloch_core.reduced_quotients"),
    ("bloch_core.reduced_lattice", "bloch_core.reduced_lattice"),
    ("bloch_core.prebloch_lattice", "bloch_core.prebloch_lattice"),
    ("exact_linalg.FpPresentation.invariants", "exact_linalg.invariants"),
    ("exact_linalg.kernel_with_embedding", "exact_linalg.kernel_with_embedding"),
    ("group_ring.z_expand", "group_ring.z_expand"),
    ("group_ring.character_specialize", "group_ring.character_specialize"),
    ("laurent.fuzz_specialization", "laurent.fuzz_specialization"),
    ("laurent.specialization_target", "laurent.specialization_target"),
    ("laurent.SpecializationTarget.is_zero_vector", "laurent.target_membership"),
)

COUNTED = (
    ("finite_field.FieldSpec.mul_code", "finite_field.mul_code_calls"),
    ("finite_field.FieldSpec.add_code", "finite_field.add_code_calls"),
    ("group_ring.GroupRingElement.__mul__", "group_ring.mul_calls"),
)

SWEEP_SPAN = "bloch_core.sweep"


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("blochtower") and m is not None]


def _resolve(path: str):
    """(owner, attribute name, current value) for a dotted path, or None."""
    *owner_path, attr = ("blochtower." + path).split(".")
    owner = sys.modules.get(".".join(owner_path[:2]))
    for name in owner_path[2:]:
        owner = getattr(owner, name, None)
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _replace(owner, attr, old, new) -> None:
    """Rebind ``old`` to ``new`` on a class, or in every package module."""
    if isinstance(owner, type):
        setattr(owner, attr, new)
        return
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if value is old:
                setattr(module, name, new)


class Instrumented:
    """The package with wrappers installed, plus what the wrappers saw."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}
        self.results: dict[str, dict[int, tuple]] = {}

    def _seen(self, span, args, result):
        self.results.setdefault(span["name"], {}).setdefault(id(result), (args, result))

    def _sweep_done(self, span, args, result):
        name = getattr(result, "name", "unknown")
        span["name"] = f"{SWEEP_SPAN}.{name}"
        key = f"{SWEEP_SPAN}.{name}.checked"
        self.tracer.counts[key] = self.tracer.counts.get(key, 0) + getattr(result, "checked", 0)

    def install(self) -> None:
        for path, span_name in SPANNED:
            found = _resolve(path)
            if found is None:
                self.missing.append(span_name)
                continue
            owner, attr, fn = found
            self.originals[span_name] = fn
            _replace(owner, attr, fn, self.tracer.wrap(span_name, fn, self._seen))
        for path, count_name in COUNTED:
            found = _resolve(path)
            if found is None:
                self.missing.append(count_name)
                continue
            owner, attr, fn = found
            _replace(owner, attr, fn, self.tracer.count(count_name, fn))
        self._install_sweeps()

    def _install_sweeps(self) -> None:
        bloch_core = sys.modules["blochtower.bloch_core"]
        wrapped = {}
        for name, fn in list(vars(bloch_core).items()):
            if name.startswith("verify_") and callable(fn):
                wrapped[fn] = self.tracer.wrap(SWEEP_SPAN, fn, self._sweep_done)
                _replace(bloch_core, name, fn, wrapped[fn])
        if not wrapped:
            self.missing.append(SWEEP_SPAN)
        for key, fns in getattr(bloch_core, "SWEEPS", {}).items():
            bloch_core.SWEEPS[key] = tuple(wrapped.get(fn, fn) for fn in fns)

    def results_of(self, span_name: str) -> list[tuple]:
        return list(self.results.get(span_name, {}).values())


def _shape(matrix) -> dict:
    try:
        return {"rows": matrix.rows, "cols": matrix.cols, "nnz": len(matrix.entries)}
    except AttributeError:
        return {"rows": None, "cols": None, "nnz": None}


def _max_bits(lattices) -> int | None:
    bits = 0
    for lattice in lattices:
        try:
            rows = lattice.basis_rows()
        except AttributeError:
            return None
        for row in rows:
            for v in row.values():
                bits = max(bits, abs(v).bit_length())
    return bits


def _peak_mb(inst: Instrumented) -> float:
    """tracemalloc peak of rebuilding the refined lattice, 0 if never built."""
    calls = inst.results_of("bloch_core.rp_lattice")
    if not calls:
        return 0.0
    build = inst.originals["bloch_core.rp_lattice"]
    build = getattr(build, "__wrapped__", build)  # bypass the result cache
    tracemalloc.start()
    try:
        build(*calls[0][0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def after_run(inst: Instrumented) -> dict:
    """Gate facts and layer values read from what the command built."""
    values: dict[str, object] = {}
    facts: dict[str, object] = {}
    for args, consts in inst.results_of("bloch_core.constant_b"):
        facts.setdefault("c_orders", []).append([args[0].q, getattr(consts, "c_order", None)])
    for _args, pres in inst.results_of("bloch_core.prebloch_presentation"):
        values["prebloch_matrix"] = _shape(getattr(pres, "relations", None))
    z_expand = inst.originals.get("group_ring.z_expand")
    for _args, pres in inst.results_of("bloch_core.refined_presentation"):
        values["refined_matrix"] = _shape(z_expand(pres)[0]) if z_expand else _shape(None)
    lattices = [r for name in ("bloch_core.rp_lattice", "bloch_core.reduced_lattice", "bloch_core.prebloch_lattice")
                for _a, r in inst.results_of(name)]
    lattices += [getattr(t, "lattice", None) for _a, t in inst.results_of("laurent.specialization_target")]
    values["basis_max_bits"] = _max_bits(lattices)
    for _args, fuzz in inst.results_of("laurent.fuzz_specialization"):
        values["fuzz"] = {k: getattr(fuzz, k, None) for k in ("samples", "attempts", "inconclusive")}
    values["rp_lattice_peak_mb"] = _peak_mb(inst) if "bloch_core.rp_lattice" in inst.originals else None
    return {"values": values, "facts": facts}


def main(argv: list[str]) -> int:
    src, result_path, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    tracer = Tracer()
    span = tracer.open("cli.import")
    import blochtower.cli as cli
    tracer.close(span)

    inst = Instrumented(tracer)
    inst.install()
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    done = time.perf_counter()
    out = {"returncode": code, "spans": tracer.spans, "counts": dict(tracer.counts), "missing": inst.missing}
    out.update(after_run(inst))
    out["bookkeeping_s"] = time.perf_counter() - done
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
