import pytest

from blochtower.exact_linalg import AbelianInvariants
from blochtower.finite_field import field, field_from_q
from blochtower.tower import (
    TowerSpec,
    census_matches_exponents,
    check_hypotheses,
    eigenspace_ledger,
    predict,
)


def statuses(tower):
    return {h.index: h.status for h in check_hypotheses(tower)}


class TestHypotheses:
    def test_f5_two_levels_all_verified(self):
        assert set(statuses(TowerSpec(field(5), 2)).values()) == {"verified"}

    def test_even_base_fails_square_units(self):
        st = statuses(TowerSpec(field(2), 1))
        assert st[1] == "failed"
        assert st[2] == "verified"  # finite fields are perfect

    def test_even_base_no_levels_vacuous(self):
        assert statuses(TowerSpec(field(2), 0))[1] == "verified"

    def test_real_closed_by_fiat(self):
        st = statuses(TowerSpec("real-closed", 2))
        assert st[5] == "verified" and st[6] == "verified"

    def test_char3_tower(self):
        assert statuses(TowerSpec(field(3, 2), 1))[3] == "verified"

    def test_bad_symbolic_base(self):
        with pytest.raises(ValueError):
            TowerSpec("p-adic", 1)

    def test_negative_levels(self):
        with pytest.raises(ValueError):
            TowerSpec(field(5), -1)


class TestPredict:
    def test_f5_one_level(self):
        rep = predict(TowerSpec(field(5), 1))
        kinds = [(s.kind, s.multiplicity) for s in rep.summands]
        assert kinds == [("K3ind-symbolic", 1), ("prebloch-numeric", 1)]
        assert rep.summands[1].invariants == AbelianInvariants((3,), 0)
        assert rep.exponents == (1,)

    def test_f5_two_levels_shape(self):
        rep = predict(TowerSpec(field(5), 2))
        assert rep.exponents == (2, 1)
        assert not rep.surjection_only
        numeric = [s for s in rep.summands if s.kind == "prebloch-numeric"]
        symbolic = [s for s in rep.summands if s.kind == "prebloch-symbolic"]
        assert len(numeric) == 1 and numeric[0].multiplicity == 2
        assert numeric[0].invariants == AbelianInvariants((3,), 0)
        assert len(symbolic) == 1 and symbolic[0].multiplicity == 1
        assert symbolic[0].field_label == "F5((t1))"
        assert symbolic[0].invariants is None  # never fabricated

    def test_no_levels_degenerates(self):
        rep = predict(TowerSpec(field(5), 0))
        assert len(rep.summands) == 1
        assert rep.summands[0].kind == "K3ind-symbolic"
        assert rep.exponents == ()

    def test_real_closed_symbolic_report(self):
        rep = predict(TowerSpec("real-closed", 2))
        assert rep.exponents == (2, 1)
        assert all(s.invariants is None for s in rep.summands)
        assert [s.multiplicity for s in rep.summands[1:]] == [2, 1]

    def test_prime_base_two_levels_is_padic_shape(self):
        # the p-adic double-Laurent example: symbolic level 1 plus base squared
        rep = predict(TowerSpec(field(7), 2))
        assert [s.kind for s in rep.summands] == [
            "K3ind-symbolic",
            "prebloch-numeric",
            "prebloch-symbolic",
        ]
        assert rep.exponents == (2, 1)

    def test_surjection_flag_for_even_base(self):
        rep = predict(TowerSpec(field(2), 1))
        assert rep.surjection_only
        assert any("surjection" in n for n in rep.notes)

    def test_exactly_one_k3_summand(self):
        for spec in (TowerSpec(field(5), 0), TowerSpec(field(5), 3), TowerSpec("quadratically-closed", 2)):
            rep = predict(spec)
            assert sum(s.kind == "K3ind-symbolic" for s in rep.summands) == 1


class TestRsqChain:
    def test_f5_chain_doubles(self):
        assert predict(TowerSpec(field(5), 2)).rsq_order == 4
        assert predict(TowerSpec(field(5), 3)).rsq_order == 8

    def test_f7_chain_withheld(self):
        # sqrt(-3) lives in F_7, so the doubling argument does not apply
        rep = predict(TowerSpec(field(7), 2))
        assert rep.rsq_order is None
        assert "not asserted" in rep.rsq_note

    def test_char3_withheld(self):
        assert predict(TowerSpec(field(3), 1)).rsq_order is None

    def test_base_only(self):
        assert predict(TowerSpec(field(7), 0)).rsq_order == 1

    def test_constant_module_dimension(self):
        rep = predict(TowerSpec(field(5), 2))
        assert rep.constant_module_dimension == 4
        assert predict(TowerSpec(field(7), 2)).constant_module_dimension is None


class TestLedger:
    def test_f5_one_level_census(self):
        ledger = eigenspace_ledger(TowerSpec(field(5), 1))
        assert len(ledger.rows) == 4
        targets = [r.target for r in ledger.rows]
        assert targets.count("coinvariants") == 1
        assert targets.count("level 0") == 1
        assert targets.count("residue-nontrivial") == 2
        assert ledger.census == {0: 1}

    def test_f5_two_levels_census(self):
        ledger = eigenspace_ledger(TowerSpec(field(5), 2))
        assert len(ledger.rows) == 8
        assert ledger.census == {0: 2, 1: 1}

    def test_no_levels(self):
        ledger = eigenspace_ledger(TowerSpec(field(5), 0))
        assert ledger.census == {}
        assert len(ledger.rows) == 2  # trivial + the residue sign character

    @pytest.mark.parametrize(
        "base,levels",
        [(5, 0), (5, 1), (5, 2), (5, 3), (7, 2), (9, 2), (2, 1), (16, 2)],
    )
    def test_census_matches_exponents_numeric(self, base, levels):
        spec = TowerSpec(field_from_q(base), levels)
        assert census_matches_exponents(predict(spec), eigenspace_ledger(spec))

    @pytest.mark.parametrize("base", ["real-closed", "quadratically-closed"])
    def test_census_matches_exponents_symbolic(self, base):
        spec = TowerSpec(base, 2)
        assert census_matches_exponents(predict(spec), eigenspace_ledger(spec))

    def test_level_labels(self):
        spec = TowerSpec(field(3, 2), 2)
        assert spec.level_label(0) == "F3^2"
        assert spec.level_label(2) == "F3^2((t1))((t2))"
