"""Value semantics of the records that are compared or used as keys.

``SquareClassGroup`` and ``Character`` key the refined Bloch results and the
augmentation-square lattice cache; the others are compared in the package
or its tests.  Equal fields give equal records with equal hashes, and one
differing field gives unequal records.  That exact series with trailing
zeros equal and hash like the stripped series is checked in test_laurent.py.
"""

import pytest

from blochtower.bloch_core import SweepResult
from blochtower.exact_linalg import AbelianInvariants
from blochtower.finite_field import field_from_q
from blochtower.group_ring import Character, SquareClassGroup
from blochtower.laurent import FuzzReport, RelationCheckOutcome, TruncatedLaurentSeries

F5 = field_from_q(5)


def group(rank=2, labels=()):
    return SquareClassGroup(rank, labels)


# (build from fields, base fields, one variant per field)
CASES = {
    "SquareClassGroup": (group, (2, ()), [(3, ()), (2, ("a", "b"))]),
    "Character": (Character, (group(), 1), [(group(3), 1), (group(), 2)]),
    "AbelianInvariants": (AbelianInvariants, ((2, 6), 1), [((3,), 1), ((2, 6), 0)]),
    "SweepResult": (SweepResult, ("constants", 4, ()), [("cocycle", 4, ()), ("constants", 5, ()), ("constants", 4, ("x",))]),
    "TruncatedLaurentSeries": (
        lambda v, c, e: TruncatedLaurentSeries(F5, v, c, exact=e),
        (1, (2, 3), True),
        [(0, (2, 3), True), (1, (2, 4), True), (1, (2, 3), False)],
    ),
    "RelationCheckOutcome": (RelationCheckOutcome, ("fail", "x"), [("pass", "x"), ("fail", "y")]),
    "FuzzReport": (
        FuzzReport,
        ("5", 64, 10, 1, (), 0, 10),
        [
            ("7", 64, 10, 1, (), 0, 10),
            ("5", 32, 10, 1, (), 0, 10),
            ("5", 64, 11, 1, (), 0, 10),
            ("5", 64, 10, 2, (), 0, 10),
            ("5", 64, 10, 1, ("f",), 0, 10),
            ("5", 64, 10, 1, (), 1, 10),
            ("5", 64, 10, 1, (), 0, 11),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_equal_records(name):
    make, fields, _ = CASES[name]
    a, b = make(*fields), make(*fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_differing_field_unequal(name):
    make, fields, variants = CASES[name]
    a = make(*fields)
    for other in variants:
        assert sum(x != y for x, y in zip(fields, other)) == 1, other
        b = make(*other)
        assert a != b and not a == b, other


def test_records_of_different_classes_unequal():
    assert SquareClassGroup(1, 0) != RelationCheckOutcome(1, 0)
    assert Character(group(), 1) != (group(), 1)
