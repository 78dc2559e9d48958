"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from blochtower import bloch_core as bc
from blochtower.exact_linalg import AbelianInvariants, IntMatrix, smith_normal_form
from blochtower.finite_field import field, field_from_q
from blochtower.laurent import fuzz_specialization
from blochtower.tower import TowerSpec, census_matches_exponents, eigenspace_ledger, predict

import oracle

BLOCH_FIELDS = [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]
SWEEP_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_finite_field_bloch_orders():
    worst = 0.0
    for q in BLOCH_FIELDS:
        started = time.monotonic()
        F = field_from_q(q)
        expected = AbelianInvariants(((q + 1) // 2 if q % 2 else q + 1,), 0)
        got = bc.bloch_invariants(F)
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        if got != expected:
            _report(1, False, f"q={q}: Bloch group {got}, expected {expected}")
        if elapsed >= 60:
            _report(1, False, f"q={q} took {elapsed:.1f}s, over the 60s budget")
    _report(1, True, f"B(F_q) cyclic of order (q+1)/2 resp. q+1 for q in {BLOCH_FIELDS}; worst field {worst:.2f}s")


def test_criterion_2_trivial_refined_action():
    for q in BLOCH_FIELDS:
        F = field_from_q(q)
        per_char = bc.refined_bloch(F)
        odd_bloch = bc.bloch_invariants(F).odd_part()
        for chi, invs in per_char.items():
            if chi.is_trivial:
                if invs != odd_bloch:
                    _report(2, False, f"q={q}: trivial eigenspace {invs} != odd Bloch {odd_bloch}")
            elif not invs.is_trivial():
                _report(2, False, f"q={q}: eigenspace at {chi.name} is {invs}, not trivial")
    _report(2, True, f"nontrivial eigenspaces vanish and the trivial one is odd(B) for q in {BLOCH_FIELDS}")


def test_criterion_3_lambda_well_defined():
    rows = 0
    for q in SWEEP_FIELDS:
        result = bc.verify_lambda_well_defined(field_from_q(q))
        rows += result.checked
        if not result.ok:
            _report(3, False, f"q={q}: {result.failures[:3]}")
    _report(3, True, f"both invariant maps vanish on all {rows} relation rows, q <= 31")


def test_criterion_4_suslin_identities():
    checked = 0
    for q in SWEEP_FIELDS:
        F = field_from_q(q)
        for result in (
            bc.verify_suslin_identities(F),
            bc.verify_suslin_lambda_one(F),
            bc.verify_two_torsion(F),
        ):
            checked += result.checked
            if not result.ok:
                _report(4, False, f"q={q} {result.name}: {result.failures[:3]}")
    _report(4, True, f"cocycle, lambda_one and 2-torsion identities hold ({checked} checks), q <= 31")


def test_criterion_5_constants():
    for q in SWEEP_FIELDS:
        result = bc.verify_constants(field_from_q(q))
        if not result.ok:
            _report(5, False, f"q={q}: {result.failures[:3]}")
    for p in (5, 7, 11, 13, 17, 19):
        c_order = bc.constant_b(field(p)).c_order
        expected = 1 if p % 3 == 1 else 3
        if c_order != expected:
            _report(5, False, f"p={p}: order of c is {c_order}, expected {expected}")
    if bc.constant_b(field(3, 2)).c_order != 1:
        _report(5, False, "characteristic 3 must force c = 0")
    _report(5, True, "C(x) constant with 6b = 0 for q <= 31; order of c follows the mod-3 rule on p in {5,7,11,13,17,19}")


def test_criterion_6_difference_identity():
    integral = {}
    for q in (5, 7, 11, 13):
        report = bc.df_module(field_from_q(q))
        if not report.difference_identity_two_inverted:
            _report(6, False, f"q={q}: identity fails after inverting 2")
        integral[q] = report.difference_identity_integral
    _report(6, True, f"psi_1 - psi_2 = <<x>>c after inverting 2 for q in (5, 7, 11, 13); integral status {integral}")


def test_criterion_7_specialization_fuzz():
    runs = [(field(5), 64, 500), (field(7), 32, 200)]
    details = []
    for F, precision, samples in runs:
        rep = fuzz_specialization(F, precision, samples)
        if rep.failures:
            _report(7, False, f"F_{F.q}: {len(rep.failures)} failures, first: {rep.failures[0]}")
        if rep.inconclusive_rate >= 0.05:
            _report(7, False, f"F_{F.q}: inconclusive rate {rep.inconclusive_rate:.3f} >= 5%")
        details.append(f"F_{F.q}: {samples} samples, {rep.inconclusive} inconclusive (rate {rep.inconclusive_rate:.3%})")
    _report(7, True, "; ".join(details))


def test_criterion_8_tower_prediction_shape():
    spec = TowerSpec(field(5), 2)
    checks = predict(spec)
    *hypotheses, rep = checks
    if rep["exponents"] != [2, 1]:
        _report(8, False, f"exponents {rep['exponents']} != [2, 1]")
    level0 = next(s for s in rep["summands"] if s["level"] == 0)
    if level0.get("invariants") != AbelianInvariants((3,), 0).to_json() or level0["multiplicity"] != 2:
        _report(8, False, f"level-0 summand wrong: {level0}")
    if any(h["status"] != "verified" for h in hypotheses):
        _report(8, False, "hypothesis checklist not fully verified for base F_5")
    ledger = eigenspace_ledger(spec)
    if not census_matches_exponents(checks, ledger):
        _report(8, False, "character census disagrees with exponents")
    if ledger["census"] != {"0": 2, "1": 1}:
        _report(8, False, f"census {ledger['census']}")
    # the two introductory examples as symbolic reports
    *_, padic_shape = predict(TowerSpec(field(7), 2))
    kinds = [s["kind"] for s in padic_shape["summands"]]
    if kinds != ["K3ind-symbolic", "prebloch-numeric", "prebloch-symbolic"]:
        _report(8, False, f"p-adic double-Laurent shape wrong: {kinds}")
    *_, real = predict(TowerSpec("real-closed", 2))
    if real["exponents"] != [2, 1] or any("invariants" in s for s in real["summands"]):
        _report(8, False, "real-closed report is not symbolic with exponents (2, 1)")
    _report(8, True, "base F_5, n=2 gives exponents [2, 1] with level-0 invariants [3]; intro examples reproduce symbolically")


def test_criterion_9_snf_oracle_equivalence():
    rng = random.Random(0xACCE97)
    for trial in range(1000):
        r = rng.randint(1, 12)
        c = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        D, U, V = smith_normal_form(IntMatrix.from_rows(rows))
        expected = oracle.smith_diagonal(rows)
        diag = oracle.diagonal_entries(D)
        if diag != expected:
            _report(9, False, f"trial {trial}: {rows} -> {diag} vs oracle {expected}")
    _report(9, True, "sparse Smith form matches the dense textbook oracle on 1000 random matrices up to 12x12")
