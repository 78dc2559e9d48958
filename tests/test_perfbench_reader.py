"""The traced benchmark's matrix and lattice readers must read real objects.

``perfbench/traced_cli.py`` reads relation-matrix shapes through
``_shape`` and the largest Hermite basis entry through ``_max_bits``, and
either one reports null when the attribute it reads is gone.  A change of
matrix or lattice storage must keep ``prebloch_matrix.*``,
``refined_matrix.*`` and ``basis_max_bits`` numeric, so they are read here
from a real pre-Bloch presentation, refined presentation and lattices.
"""

from pathlib import Path

import pytest

from blochtower import bloch_core as bc
from blochtower.finite_field import field_from_q
from blochtower.group_ring import z_expand

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def traced_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced_cli

    return traced_cli


@pytest.mark.parametrize("q", (2, 13))
def test_shape_reads_relation_matrices(traced_cli, q):
    F = field_from_q(q)
    for matrix in (bc.prebloch_presentation(F).relations, z_expand(bc.refined_presentation(F))[0]):
        nonzeros = sum(1 for row in matrix.to_rows() for v in row if v)
        assert traced_cli._shape(matrix) == {"rows": matrix.rows, "cols": matrix.cols, "nnz": nonzeros}
        assert nonzeros > 0


@pytest.mark.parametrize("q", (2, 13))
def test_max_bits_reads_lattices(traced_cli, q):
    F = field_from_q(q)
    lattices = [bc.prebloch_lattice(F), bc.rp_lattice(F), bc.reduced_lattice(F, "ic")]
    bits = traced_cli._max_bits(lattices)
    expected = max(abs(v).bit_length() for lat in lattices for row in lat.basis_rows() for v in row.values())
    assert isinstance(bits, int) and bits == expected > 0
