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
    return {int(c["name"].removeprefix("hypothesis_")): c["status"] for c in check_hypotheses(tower)}


def decomposition(tower):
    *_, deco = predict(tower)
    assert deco["name"] == "decomposition"
    return deco


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


THREE = AbelianInvariants((3,), 0).to_json()


class TestPredict:
    def test_f5_one_level(self):
        deco = decomposition(TowerSpec(field(5), 1))
        kinds = [(s["kind"], s["multiplicity"]) for s in deco["summands"]]
        assert kinds == [("K3ind-symbolic", 1), ("prebloch-numeric", 1)]
        assert deco["summands"][1]["invariants"] == THREE
        assert deco["exponents"] == [1]

    def test_f5_two_levels_shape(self):
        deco = decomposition(TowerSpec(field(5), 2))
        assert deco["exponents"] == [2, 1]
        assert not deco["surjection_only"]
        numeric = [s for s in deco["summands"] if s["kind"] == "prebloch-numeric"]
        symbolic = [s for s in deco["summands"] if s["kind"] == "prebloch-symbolic"]
        assert len(numeric) == 1 and numeric[0]["multiplicity"] == 2
        assert numeric[0]["invariants"] == THREE
        assert len(symbolic) == 1 and symbolic[0]["multiplicity"] == 1
        assert symbolic[0]["field"] == "F5((t1))"
        assert "invariants" not in symbolic[0]  # never fabricated

    def test_no_levels_degenerates(self):
        deco = decomposition(TowerSpec(field(5), 0))
        assert len(deco["summands"]) == 1
        assert deco["summands"][0]["kind"] == "K3ind-symbolic"
        assert deco["exponents"] == []

    def test_real_closed_symbolic_report(self):
        deco = decomposition(TowerSpec("real-closed", 2))
        assert deco["exponents"] == [2, 1]
        assert all("invariants" not in s for s in deco["summands"])
        assert [s["multiplicity"] for s in deco["summands"][1:]] == [2, 1]

    def test_prime_base_two_levels_is_padic_shape(self):
        # the p-adic double-Laurent example: symbolic level 1 plus base squared
        deco = decomposition(TowerSpec(field(7), 2))
        assert [s["kind"] for s in deco["summands"]] == [
            "K3ind-symbolic",
            "prebloch-numeric",
            "prebloch-symbolic",
        ]
        assert deco["exponents"] == [2, 1]

    def test_surjection_flag_for_even_base(self):
        deco = decomposition(TowerSpec(field(2), 1))
        assert deco["surjection_only"]
        assert any("surjection" in n for n in deco["notes"])

    def test_exactly_one_k3_summand(self):
        for spec in (TowerSpec(field(5), 0), TowerSpec(field(5), 3), TowerSpec("quadratically-closed", 2)):
            deco = decomposition(spec)
            assert sum(s["kind"] == "K3ind-symbolic" for s in deco["summands"]) == 1

    def test_checks_are_the_hypotheses_then_the_decomposition(self):
        spec = TowerSpec(field(5), 2)
        assert [c["name"] for c in predict(spec)] == [f"hypothesis_{i}" for i in range(1, 7)] + ["decomposition"]
        assert predict(spec)[:-1] == check_hypotheses(spec)


# square-class rank of each base: odd q has the nonsquare class, even q none
BASE_RANKS = [(2, 0), (3, 1), (4, 0), (5, 1), (7, 1), (9, 1), ("real-closed", 1), ("quadratically-closed", 0)]


@pytest.mark.parametrize("levels", range(5))
@pytest.mark.parametrize("base,rank", BASE_RANKS)
def test_construction_guarantees(base, rank, levels):
    spec = TowerSpec(field_from_q(base) if isinstance(base, int) else base, levels)
    summands = decomposition(spec)["summands"]
    for s in summands:
        m = s["multiplicity"]
        assert m >= 1 and m & (m - 1) == 0, f"multiplicity not a power of two: {s}"
        assert ("invariants" in s) == (s["kind"] == "prebloch-numeric"), f"invariants misplaced: {s}"
    assert [s["kind"] for s in summands].count("K3ind-symbolic") == 1
    ledger = eigenspace_ledger(spec)
    assert len(ledger["basis"]) == rank + levels
    assert len(ledger["characters"]) == 2 ** (rank + levels)
    assert census_matches_exponents(predict(spec), ledger)


class TestRsqChain:
    def test_f5_chain_doubles(self):
        assert decomposition(TowerSpec(field(5), 2))["rsq_order"] == 4
        assert decomposition(TowerSpec(field(5), 3))["rsq_order"] == 8

    def test_f7_chain_withheld(self):
        # sqrt(-3) lives in F_7, so the doubling argument does not apply
        deco = decomposition(TowerSpec(field(7), 2))
        assert deco["rsq_order"] is None
        assert "not asserted" in deco["rsq_note"]

    def test_char3_withheld(self):
        assert decomposition(TowerSpec(field(3), 1))["rsq_order"] is None

    def test_base_only(self):
        assert decomposition(TowerSpec(field(7), 0))["rsq_order"] == 1

    def test_constant_module_dimension(self):
        deco = decomposition(TowerSpec(field(5), 2))
        assert deco["constant_module_dimension"] == 4
        assert decomposition(TowerSpec(field(7), 2))["constant_module_dimension"] is None


class TestLedger:
    def test_f5_one_level_census(self):
        ledger = eigenspace_ledger(TowerSpec(field(5), 1))
        assert len(ledger["characters"]) == 4
        targets = [c["target"] for c in ledger["characters"]]
        assert targets.count("coinvariants") == 1
        assert targets.count("level 0") == 1
        assert targets.count("residue-nontrivial") == 2
        assert ledger["census"] == {"0": 1}

    def test_f5_two_levels_census(self):
        ledger = eigenspace_ledger(TowerSpec(field(5), 2))
        assert len(ledger["characters"]) == 8
        assert ledger["census"] == {"0": 2, "1": 1}

    def test_no_levels(self):
        ledger = eigenspace_ledger(TowerSpec(field(5), 0))
        assert ledger["census"] == {}
        assert len(ledger["characters"]) == 2  # trivial + the residue sign character

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

    def test_census_disagreeing_with_exponents_fails(self):
        spec = TowerSpec(field(5), 2)
        ledger = eigenspace_ledger(spec)
        ledger["census"]["1"] = 2
        assert not census_matches_exponents(predict(spec), ledger)

    def test_level_labels(self):
        spec = TowerSpec(field(3, 2), 2)
        assert spec.level_label(0) == "F3^2"
        assert spec.level_label(2) == "F3^2((t1))((t2))"
