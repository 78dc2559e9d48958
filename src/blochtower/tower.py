"""Decomposition predictions for towers of discretely valued fields.

A tower is a base field F_0 (a small finite field, or the symbolic labels
"real-closed" / "quadratically-closed") with n iterated Laurent-series
levels F_i = F_{i-1}((t_i)).  For such towers the third homology of SL(2)
with 2 inverted decomposes as the indecomposable K_3 plus pre-Bloch groups
of the intermediate residue fields, with multiplicities 2^(n-i-1).

This module checks the six hypotheses of that decomposition where they are
computable, emits the predicted summand list (numeric invariants for the
base, symbolic labels for the infinite levels - nothing is fabricated), and
cross-checks the multiplicities against an independent census of the
characters of the square-class group of the top field.
"""

from __future__ import annotations

from typing import Optional, Union

from .bloch_core import prebloch_presentation, rb0_is_trivial, square_class_group
from .exact_linalg import AbelianInvariants
from .finite_field import FieldSpec, has_root_x2_minus_x_plus_1, has_sqrt_minus3, rsq_order

SYMBOLIC_BASES = ("real-closed", "quadratically-closed")

#: square-class rank of each symbolic base (sign class for real-closed)
_SYMBOLIC_RANK = {"real-closed": 1, "quadratically-closed": 0}


class TowerSpec:
    """A base field plus the number of Laurent levels stacked on it."""

    __slots__ = ("base", "levels")

    def __init__(self, base: Union[FieldSpec, str], levels: int):
        if levels < 0:
            raise ValueError("levels must be >= 0")
        if isinstance(base, str) and base not in SYMBOLIC_BASES:
            raise ValueError(f"symbolic base must be one of {SYMBOLIC_BASES}")
        self.base = base
        self.levels = levels

    @property
    def numeric(self) -> bool:
        return isinstance(self.base, FieldSpec)

    def base_label(self) -> str:
        return f"F{self.base.spec_string()}" if self.numeric else self.base

    def level_label(self, i: int) -> str:
        label = self.base_label()
        for k in range(1, i + 1):
            label += f"((t{k}))"
        return label

    def base_residue_rank(self) -> int:
        if self.numeric:
            return square_class_group(self.base).rank
        return _SYMBOLIC_RANK[self.base]

    def to_json(self) -> dict:
        return {
            "base": self.base.spec_string() if self.numeric else self.base,
            "levels": self.levels,
            "top_field": self.level_label(self.levels),
        }


class HypothesisCheck:
    __slots__ = ("index", "name", "status", "note")

    def __init__(self, index: int, name: str, status: str, note: str = ""):
        self.index = index
        self.name = name
        self.status = status  # "verified" | "assumed" | "failed"
        self.note = note


def check_hypotheses(tower: TowerSpec) -> list[HypothesisCheck]:
    """Evaluate the six decomposition hypotheses for the tower.

    Statuses carry the information; nothing raises.  For an even-q base the
    equicharacteristic-2 levels break the square-1-units condition, which is
    reported as failed (the prediction then only bounds the homology from
    above, see the surjection flag on the report).
    """
    checks: list[HypothesisCheck] = []
    vacuous = tower.levels == 0
    if vacuous:
        checks.append(HypothesisCheck(1, "square 1-units at every level", "verified", "no levels"))
    elif tower.numeric and tower.base.q % 2 == 0:
        checks.append(
            HypothesisCheck(
                1,
                "square 1-units at every level",
                "failed",
                "equicharacteristic-2 Laurent levels have non-square 1-units",
            )
        )
    else:
        checks.append(
            HypothesisCheck(
                1,
                "square 1-units at every level",
                "verified",
                "complete equicharacteristic levels over an odd or characteristic-0 base; "
                "for a mixed-characteristic reading of a level this is assumed, not checked",
            )
        )
    if tower.numeric:
        checks.append(HypothesisCheck(2, "base perfect if characteristic 2", "verified", "finite fields are perfect"))
    else:
        checks.append(HypothesisCheck(2, "base perfect if characteristic 2", "verified", "characteristic 0"))
    if tower.numeric:
        if tower.base.p == 3:
            note = "characteristic 3 throughout the equicharacteristic tower"
        else:
            note = f"base characteristic {tower.base.p} != 3"
        checks.append(HypothesisCheck(3, "characteristic-3 escape hatch", "verified", note))
    else:
        checks.append(HypothesisCheck(3, "characteristic-3 escape hatch", "verified", "characteristic 0"))
    rank = tower.base_residue_rank()
    checks.append(
        HypothesisCheck(4, "finitely many base square classes", "verified", f"square-class rank {rank}")
    )
    if tower.numeric:
        trivial = rb0_is_trivial(tower.base)
        checks.append(
            HypothesisCheck(
                5,
                "refined Bloch kernel of the base vanishes away from 2",
                "verified" if trivial else "failed",
                "computed from the nontrivial character eigenspaces",
            )
        )
    else:
        checks.append(
            HypothesisCheck(
                5,
                "refined Bloch kernel of the base vanishes away from 2",
                "verified",
                f"standard for a {tower.base} base",
            )
        )
    if tower.numeric:
        order = rsq_order(tower.base)
        checks.append(
            HypothesisCheck(
                6,
                "base units are +-norms from the cube-root extension",
                "verified" if order == 1 else "failed",
                f"norm-group enumeration gives quotient order {order}",
            )
        )
    else:
        note = (
            "norms from the algebraically closed quadratic extension cover the positive reals"
            if tower.base == "real-closed"
            else "the cube-root extension is trivial"
        )
        checks.append(HypothesisCheck(6, "base units are +-norms from the cube-root extension", "verified", note))
    return checks


class PredictedSummand:
    """One direct summand of the predicted decomposition."""

    __slots__ = ("kind", "field_label", "level", "multiplicity", "invariants")

    def __init__(
        self,
        kind: str,
        field_label: str,
        level: Optional[int],
        multiplicity: int,
        invariants: Optional[AbelianInvariants] = None,
    ):
        if multiplicity < 1 or multiplicity & (multiplicity - 1):
            raise ValueError("multiplicities are powers of two")
        if kind == "prebloch-numeric" and invariants is None:
            raise ValueError("numeric summands carry invariants")
        if kind != "prebloch-numeric" and invariants is not None:
            raise ValueError("symbolic summands never carry invariants")
        self.kind = kind  # "K3ind-symbolic" | "prebloch-numeric" | "prebloch-symbolic"
        self.field_label = field_label
        self.level = level
        self.multiplicity = multiplicity
        self.invariants = invariants

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "field": self.field_label,
            "level": self.level,
            "multiplicity": self.multiplicity,
        }
        if self.invariants is not None:
            out["invariants"] = self.invariants.to_json()
        return out


class DecompositionReport:
    """Predicted structure of the third SL(2)-homology with 2 inverted."""

    __slots__ = (
        "tower",
        "hypotheses",
        "summands",
        "exponents",
        "surjection_only",
        "rsq_order",
        "rsq_note",
        "constant_module_dimension",
        "notes",
    )

    def __init__(
        self,
        tower: TowerSpec,
        hypotheses: tuple[HypothesisCheck, ...],
        summands: tuple[PredictedSummand, ...],
        exponents: tuple[int, ...],
        surjection_only: bool,
        rsq_order: Optional[int],
        rsq_note: str,
        constant_module_dimension: Optional[int],
        notes: tuple[str, ...] = (),
    ):
        self.tower = tower
        self.hypotheses = hypotheses
        self.summands = summands
        self.exponents = exponents
        self.surjection_only = surjection_only
        self.rsq_order = rsq_order
        self.rsq_note = rsq_note
        self.constant_module_dimension = constant_module_dimension
        self.notes = notes


def predict(tower: TowerSpec) -> DecompositionReport:
    """The predicted decomposition: one K3 summand plus pre-Bloch summands.

    Level i contributes the pre-Bloch group of F_i with multiplicity
    2^(n-i-1).  Only the level-0 summand of a numeric base gets computed
    invariants (odd part); infinite fields stay symbolic.  The tracked
    order of the +-norm quotient doubles up the tower only under the
    no-sqrt(-3) side conditions, otherwise that line is withheld.
    """
    n = tower.levels
    hypotheses = tuple(check_hypotheses(tower))
    failed = any(h.status == "failed" for h in hypotheses)
    summands = [
        PredictedSummand("K3ind-symbolic", tower.level_label(n), None, 1)
    ]
    exponents = []
    for i in range(n):
        mult = 1 << (n - i - 1)
        exponents.append(mult)
        if i == 0 and tower.numeric:
            inv = prebloch_presentation(tower.base).invariants().odd_part()
            summands.append(PredictedSummand("prebloch-numeric", tower.level_label(0), 0, mult, inv))
        else:
            summands.append(PredictedSummand("prebloch-symbolic", tower.level_label(i), i, mult))
    notes = []
    if failed:
        notes.append(
            "a hypothesis failed: the decomposition is only a surjection with finite kernel killed by 3"
        )
    rsq: Optional[int]
    if tower.numeric:
        chain_ok = tower.base.p != 3 and not has_sqrt_minus3(tower.base)
        base_rsq = rsq_order(tower.base)
        if n == 0:
            rsq, rsq_note = base_rsq, "computed for the base field"
        elif chain_ok and base_rsq == 1:
            rsq, rsq_note = 1 << n, "doubles per level: no sqrt(-3) in any residue field"
        else:
            rsq, rsq_note = None, "not asserted: sqrt(-3) lives in the base (or characteristic 3)"
    else:
        if tower.base == "real-closed":
            rsq = 1 << n
            rsq_note = "doubles per level from the real-closed base"
        else:
            rsq, rsq_note = None, "not asserted: the cube-root extension of the base is trivial"
    constant_dim: Optional[int]
    if rsq is not None and tower.numeric and not has_root_x2_minus_x_plus_1(tower.base):
        constant_dim = rsq
        notes.append("the cyclic module on c is free of rank one over F3[rsq]")
    elif rsq is not None and tower.base == "real-closed":
        constant_dim = rsq
        notes.append("the cyclic module on c is free of rank one over F3[rsq]")
    else:
        constant_dim = None
    return DecompositionReport(
        tower=tower,
        hypotheses=hypotheses,
        summands=tuple(summands),
        exponents=tuple(exponents),
        surjection_only=failed,
        rsq_order=rsq,
        rsq_note=rsq_note,
        constant_module_dimension=constant_dim,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# character census


class LedgerRow:
    __slots__ = ("signs", "target", "level")

    def __init__(self, signs: tuple[int, ...], target: str, level: Optional[int]):
        self.signs = signs
        self.target = target  # "coinvariants" | "level i" | "residue-nontrivial"
        self.level = level

    def to_json(self) -> dict:
        return {"signs": list(self.signs), "target": self.target, "level": self.level}


class EigenspaceLedger:
    """Census of the characters of the top square-class group.

    Basis order: base square classes first, then the level uniformizers.
    A character trivial on the base classes lands at the largest level where
    it is still trivial; its eigenspace is the pre-Bloch group of that level.
    Characters nontrivial on the base contribute nothing (the base kernel
    vanishes).  Aggregating levels must reproduce the predicted exponents.
    """

    __slots__ = ("basis", "rows", "census")

    def __init__(self, basis: tuple[str, ...], rows: tuple[LedgerRow, ...], census: dict):
        self.basis = basis
        self.rows = rows
        self.census = census

    def to_json(self) -> dict:
        return {
            "basis": list(self.basis),
            "characters": [r.to_json() for r in self.rows],
            "census": {str(k): v for k, v in sorted(self.census.items())},
        }


def eigenspace_ledger(tower: TowerSpec) -> EigenspaceLedger:
    n = tower.levels
    r0 = tower.base_residue_rank()
    rank = r0 + n
    basis = tuple(f"base:{i}" for i in range(r0)) + tuple(f"t{i}" for i in range(1, n + 1))
    rows = []
    census: dict[int, int] = {}
    for mask in range(1 << rank):
        signs = tuple(-1 if (mask >> i) & 1 else 1 for i in range(rank))
        base_part = mask & ((1 << r0) - 1)
        if mask == 0:
            rows.append(LedgerRow(signs, "coinvariants", None))
            continue
        if base_part:
            rows.append(LedgerRow(signs, "residue-nontrivial", None))
            continue
        level = None
        for k in range(n):
            if (mask >> (r0 + k)) & 1:
                level = k
                break
        rows.append(LedgerRow(signs, f"level {level}", level))
        census[level] = census.get(level, 0) + 1
    return EigenspaceLedger(basis, tuple(rows), census)


def census_matches_exponents(report: DecompositionReport, ledger: EigenspaceLedger) -> bool:
    """Independent consistency check: character census vs predicted exponents."""
    expected = {i: mult for i, mult in enumerate(report.exponents)}
    return ledger.census == expected
