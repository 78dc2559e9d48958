"""Value semantics of the records that are compared or used as keys.

``SquareClassGroup`` and ``Character`` key the refined Bloch results; the
others are compared in the package or its tests.  Equal fields give equal
records with equal hashes, and one differing field gives unequal records.
That the oracle's exact series with trailing zeros equal and hash like the
stripped series is checked in test_laurent.py.
"""

import pytest

from blochtower.bloch_core import SweepResult
from blochtower.exact_linalg import AbelianInvariants
from blochtower.finite_field import field_from_q
from blochtower.group_ring import Character, SquareClassGroup
from blochtower.laurent import FuzzReport, TruncatedLaurentSeries

F5 = field_from_q(5)


def group(rank=2):
    return SquareClassGroup(rank)


# (build from fields, base fields, one variant per field)
CASES = {
    "SquareClassGroup": (group, (2,), [(3,)]),
    "Character": (Character, (group(), 1), [(group(3), 1), (group(), 2)]),
    "AbelianInvariants": (AbelianInvariants, ((2, 6), 1), [((3,), 1), ((2, 6), 0)]),
    "SweepResult": (SweepResult, ("constants", 4, ()), [("cocycle", 4, ()), ("constants", 5, ()), ("constants", 4, ("x",))]),
    "TruncatedLaurentSeries": (
        lambda v, c: TruncatedLaurentSeries(F5, v, c),
        (1, (2, 3)),
        [(0, (2, 3)), (1, (2, 4))],
    ),
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
    assert SquareClassGroup(1) != AbelianInvariants((), 1)
    assert Character(group(), 1) != (group(), 1)
