"""Every package name the traced benchmark run reads must still resolve.

``perfbench/traced_cli.py`` wraps entry points by dotted path and reports a
metric as null when its path no longer resolves, so deleting or renaming a
wrapped name fails here instead of silently emptying a benchmark metric.
It also reads attributes off the results it records, through readers that
turn a missing attribute into a null metric; those attributes are read here
off real results, so deleting one fails too.
"""

from pathlib import Path

import blochtower.cli  # noqa: F401  (loads every module the paths name)
from blochtower import bloch_core, laurent
from blochtower.finite_field import field_from_q

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_wrapped_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced_cli

    paths = [path for path, _name in traced_cli.SPANNED + traced_cli.COUNTED]
    assert paths
    assert [path for path in paths if traced_cli._resolve(path) is None] == []


def test_result_attributes_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced_cli

    F = field_from_q(5)
    # FpPresentation.relations, then IntMatrix.rows, cols and entries
    shape = traced_cli._shape(bloch_core.prebloch_presentation(F).relations)
    assert None not in shape.values() and shape["nnz"] > 0
    # Lattice.basis_rows, on a lattice and on SpecializationTarget.lattice
    lattices = [bloch_core.rp_lattice(F), laurent.specialization_target(F).lattice]
    assert traced_cli._max_bits(lattices) > 0
    assert isinstance(bloch_core.constant_b(F).c_order, int)
    fuzz = laurent.fuzz_specialization(F, 8, 5)
    assert all(isinstance(getattr(fuzz, k), int) for k in ("samples", "attempts", "inconclusive"))
