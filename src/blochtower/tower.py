"""Decomposition predictions for towers of discretely valued fields.

A tower is a base field F_0 (a small finite field, or one of the symbolic
bases "real-closed" / "quadratically-closed") with n iterated Laurent-series
levels F_i = F_{i-1}((t_i)).  For such towers the third homology of SL(2)
with 2 inverted decomposes as the indecomposable K_3 plus pre-Bloch groups
of the intermediate residue fields, with multiplicities 2^(n-i-1).

This module checks the six hypotheses of that decomposition where they are
computable, predicts the summand list (numeric invariants for the base,
symbolic labels for the infinite levels - nothing is fabricated), and
cross-checks the multiplicities against an independent census of the
characters of the square-class group of the top field.  Each function
returns its part of the ``tower`` report as JSON-ready dicts.
"""

from __future__ import annotations

from typing import Optional, Union

from .bloch_core import prebloch_presentation, rb0_is_trivial, square_class_group
from .finite_field import SYMBOLIC_BASES, FieldSpec, has_root_x2_minus_x_plus_1, has_sqrt_minus3, rsq_order


class TowerSpec:
    """A base field plus the number of Laurent levels stacked on it."""

    __slots__ = ("base", "levels")

    def __init__(self, base: Union[FieldSpec, str], levels: int):
        if levels < 0:
            raise ValueError("levels must be >= 0")
        if isinstance(base, str) and base not in SYMBOLIC_BASES:
            raise ValueError(f"symbolic base must be one of {tuple(SYMBOLIC_BASES)}")
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
        return SYMBOLIC_BASES[self.base]

    def to_json(self) -> dict:
        return {
            "base": self.base.spec_string() if self.numeric else self.base,
            "levels": self.levels,
            "top_field": self.level_label(self.levels),
        }


def check_hypotheses(tower: TowerSpec) -> list[dict]:
    """The six ``hypothesis_i`` checks of the decomposition, in order.

    A status is "verified" or "failed"; nothing raises.  For an even-q base
    the equicharacteristic-2 levels break the square-1-units condition,
    which is reported as failed (the prediction then only bounds the
    homology from above, see ``surjection_only`` in the decomposition).
    """
    base = tower.base
    if tower.levels == 0:
        square_units = True, "no levels"
    elif tower.numeric and base.q % 2 == 0:
        square_units = False, "equicharacteristic-2 Laurent levels have non-square 1-units"
    else:
        square_units = (
            True,
            "complete equicharacteristic levels over an odd or characteristic-0 base; "
            "for a mixed-characteristic reading of a level this is assumed, not checked",
        )
    if tower.numeric:
        order = rsq_order(base)
        perfect = True, "finite fields are perfect"
        if base.p == 3:
            char3 = True, "characteristic 3 throughout the equicharacteristic tower"
        else:
            char3 = True, f"base characteristic {base.p} != 3"
        kernel = rb0_is_trivial(base), "computed from the nontrivial character eigenspaces"
        norms = order == 1, f"norm-group enumeration gives quotient order {order}"
    else:
        perfect = char3 = True, "characteristic 0"
        kernel = True, f"standard for a {base} base"
        if base == "real-closed":
            norms = True, "norms from the algebraically closed quadratic extension cover the positive reals"
        else:
            norms = True, "the cube-root extension is trivial"
    outcomes = {
        "square 1-units at every level": square_units,
        "base perfect if characteristic 2": perfect,
        "characteristic-3 escape hatch": char3,
        "finitely many base square classes": (True, f"square-class rank {tower.base_residue_rank()}"),
        "refined Bloch kernel of the base vanishes away from 2": kernel,
        "base units are +-norms from the cube-root extension": norms,
    }
    return [
        {"name": f"hypothesis_{i}", "status": "verified" if ok else "failed", "condition": condition, "note": note}
        for i, (condition, (ok, note)) in enumerate(outcomes.items(), 1)
    ]


def predict(tower: TowerSpec) -> list[dict]:
    """The hypothesis checks followed by the ``decomposition`` check.

    The decomposition is one K3 summand plus pre-Bloch summands: level i
    contributes the pre-Bloch group of F_i with multiplicity 2^(n-i-1).
    Only the level-0 summand of a numeric base gets computed invariants
    (odd part); infinite fields stay symbolic.  The tracked order of the
    +-norm quotient doubles up the tower only under the no-sqrt(-3) side
    conditions, otherwise that line is withheld.
    """
    n = tower.levels
    checks = check_hypotheses(tower)
    failed = any(c["status"] == "failed" for c in checks)
    summands = [{"kind": "K3ind-symbolic", "field": tower.level_label(n), "level": None, "multiplicity": 1}]
    for i in range(n):
        numeric = i == 0 and tower.numeric
        summand = {
            "kind": "prebloch-numeric" if numeric else "prebloch-symbolic",
            "field": tower.level_label(i),
            "level": i,
            "multiplicity": 1 << (n - i - 1),
        }
        if numeric:
            summand["invariants"] = prebloch_presentation(tower.base).invariants().odd_part().to_json()
        summands.append(summand)
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
    elif tower.base == "real-closed":
        rsq, rsq_note = 1 << n, "doubles per level from the real-closed base"
    else:
        rsq, rsq_note = None, "not asserted: the cube-root extension of the base is trivial"
    constant_dim = None
    if rsq is not None and (tower.base == "real-closed" or not has_root_x2_minus_x_plus_1(tower.base)):
        constant_dim = rsq
        notes.append("the cyclic module on c is free of rank one over F3[rsq]")
    checks.append(
        {
            "name": "decomposition",
            "status": "computed",
            "summands": summands,
            "exponents": [s["multiplicity"] for s in summands[1:]],
            "surjection_only": failed,
            "rsq_order": rsq,
            "rsq_note": rsq_note,
            "constant_module_dimension": constant_dim,
            "notes": notes,
        }
    )
    return checks


# ---------------------------------------------------------------------------
# character census


def eigenspace_ledger(tower: TowerSpec) -> dict:
    """Census of the characters of the top square-class group.

    Basis order: base square classes first, then the level uniformizers.
    A character trivial on the base classes lands at the largest level where
    it is still trivial; its eigenspace is the pre-Bloch group of that level.
    Characters nontrivial on the base contribute nothing (the base kernel
    vanishes).  Aggregating levels must reproduce the predicted exponents.
    """
    n = tower.levels
    r0 = tower.base_residue_rank()
    rank = r0 + n
    basis = [f"base:{i}" for i in range(r0)] + [f"t{i}" for i in range(1, n + 1)]
    characters = []
    census: dict[int, int] = {}
    for mask in range(1 << rank):
        signs = [-1 if (mask >> i) & 1 else 1 for i in range(rank)]
        if mask == 0:
            target, level = "coinvariants", None
        elif mask & ((1 << r0) - 1):
            target, level = "residue-nontrivial", None
        else:
            level = next(k for k in range(n) if (mask >> (r0 + k)) & 1)
            target = f"level {level}"
            census[level] = census.get(level, 0) + 1
        characters.append({"signs": signs, "target": target, "level": level})
    return {
        "basis": basis,
        "characters": characters,
        "census": {str(k): v for k, v in sorted(census.items())},
    }


def census_matches_exponents(checks: list[dict], ledger: dict) -> bool:
    """Independent consistency check: the ledger's census against the
    exponents of the decomposition that ends the ``predict`` checks."""
    return ledger["census"] == {str(i): mult for i, mult in enumerate(checks[-1]["exponents"])}
