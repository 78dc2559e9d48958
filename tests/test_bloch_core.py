import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blochtower import bloch_core as bc
from blochtower import cli, exact_linalg, laurent
from blochtower.exact_linalg import AbelianInvariants, FpPresentation, IntMatrix, Lattice
from blochtower.finite_field import field, field_from_q, square_class_code
from blochtower.group_ring import (
    GroupRingElement,
    bracket,
    character_specialize,
    double_bracket,
    z_expand,
)

import oracle

UNIT_TEST_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13]
ALL_FIELDS_TO_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def inv(*factors, rank=0):
    return AbelianInvariants(tuple(factors), rank)


class TestPresentations:
    def test_prebloch_f5_odd_part(self):
        assert bc.prebloch_presentation(field(5)).invariants().odd_part() == inv(3)

    def test_prebloch_f4(self):
        assert bc.prebloch_presentation(field(2, 2)).invariants() == inv(5)

    def test_prebloch_f2_order_three(self):
        assert bc.prebloch_presentation(field(2)).invariants() == inv(3)

    def test_f3_coinvariants_cyclic_of_order_four(self):
        rp = bc.refined_presentation(field(3))
        mat, n = character_specialize(rp, rp.group.character(0))
        assert FpPresentation(n, mat).invariants() == inv(4)

    def test_refined_coinvariants_match_prebloch(self):
        for q in (5, 7, 9):
            F = field_from_q(q)
            rp = bc.refined_presentation(F)
            mat, n = character_specialize(rp, rp.group.character(0))
            assert FpPresentation(n, mat).invariants() == bc.prebloch_presentation(F).invariants()

    def test_symbol_one_never_a_generator(self):
        for q in (4, 5, 9):
            assert 1 not in bc.symbol_generators(field_from_q(q))

    def test_five_term_arguments_stay_nonzero(self):
        F = field_from_q(9)
        for x, y in itertools.permutations(bc.symbol_generators(F), 2):
            for arg, _sign, _cls in oracle.five_term_arguments(F, x, y):
                assert arg != 0

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 13, 16, 25, 27, 49])
    def test_five_term_table_matches_pairwise_oracle(self, q):
        F = field_from_q(q)
        assert tuple(bc._relation_rows(F)) == oracle.five_term_rows(F)


ORACLE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 25, 27]


class TestSpecializedRelations:
    @pytest.mark.parametrize("q", ORACLE_FIELDS)
    def test_matches_character_specialize(self, q):
        F = field_from_q(q)
        rp = bc.refined_presentation(F)
        for chi in rp.group.characters():
            mat, n = character_specialize(rp, chi)
            assert n == bc.generator_count(F)
            assert bc.character_presentation(F, chi).relations == mat, chi.name

    @pytest.mark.parametrize("q", ORACLE_FIELDS)
    def test_refined_bloch_matches_specialized_kernels(self, q):
        # the earlier path: specialize the refined module, take the kernel of
        # the specialized invariant pair with one relation per relation row
        F = field_from_q(q)
        rp = bc.refined_presentation(F)
        codomain = FpPresentation(2, IntMatrix.from_rows([[0, bc.asym2_modulus(F)]]))
        expected = {}
        for chi in rp.group.characters():
            mat, n = character_specialize(rp, chi)
            kernel, _ = oracle.kernel_with_all_relation_rows(
                FpPresentation(n, mat), codomain, bc._refined_lambda_matrix(F, chi)
            )
            expected[chi] = kernel.invariants().odd_part()
        assert bc.refined_bloch(F) == expected

    def test_character_of_another_group_rejected(self):
        with pytest.raises(ValueError):
            bc.character_presentation(field(5), bc.square_class_group(field(4)).character(0))


class TestLambdaMaps:
    def test_lambda_two_even_q_vanishes(self):
        F = field(2, 2)
        for x in bc.symbol_generators(F):
            assert bc.lambda_two(F, x) == 0

    def test_lambda_two_f5_by_hand_dlogs(self):
        F = field(5)
        # brute-force dlogs base the canonical generator 2: 2^1=2, 2^2=4, 2^3=3
        dlog = {2: 1, 4: 2, 3: 3, 1: 0}
        for x in (2, 3, 4):
            expected = (dlog[(1 - x) % 5] * dlog[x]) % 2
            assert bc.lambda_two(F, x) == expected

    def test_pairing_antisymmetry(self):
        F = field(5)
        for a, b in itertools.product(F.units(), repeat=2):
            lhs = bc.asym2_pairing(F, a, b)
            rhs = (-bc.asym2_pairing(F, b, a)) % 2
            assert lhs == rhs

    def test_lambda_one_f7_both_nonsquare(self):
        F = field(7)
        G = bc.square_class_group(F)
        val = bc.lambda_one(F, 3)
        assert oracle.equal(val, double_bracket(G, 1) * double_bracket(G, 1))
        assert oracle.equal(val, double_bracket(G, 1) * -2)

    def test_lambda_one_squares_vanish(self):
        F = field(7)
        for x in bc.symbol_generators(F):
            if square_class_code(F, x) == 0 and square_class_code(F, F.sub_code(1, x)) == 0:
                assert bc.lambda_one(F, x).is_zero()

    def test_lambda_one_even_q_vanishes(self):
        F = field(2, 2)
        for x in bc.symbol_generators(F):
            assert bc.lambda_one(F, x).is_zero()

    @pytest.mark.parametrize("q", ALL_FIELDS_TO_64)
    def test_lambda_one_lies_in_the_augmentation_square(self, q):
        # lambda_one is built as <<1-x>><<x>> and never tested for I^2 membership
        F = field_from_q(q)
        for x in bc.symbol_generators(F):
            assert oracle.in_aug_square(bc.lambda_one(F, x)), x

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bc.lambda_two(field(5), 1)
        with pytest.raises(ValueError):
            bc.lambda_one(field(5), 0)


class TestIntegralCoefficients:
    @pytest.mark.parametrize("q", [3, 7, 9, 13])
    def test_relations_and_lambda_one_are_int(self, q):
        F = field_from_q(q)
        values = [c for rel in bc.refined_presentation(F).relations for c in rel.values()]
        values += [bc.lambda_one(F, x) for x in bc.symbol_generators(F)]
        assert any(not v.is_zero() for v in values)
        assert all(type(c) is int for v in values for c in v.coeffs.values())
        psi_two = [c for x in F.units() for c in bc.suslin_element(F, 2, x).values()]
        assert psi_two and all(type(c) is int for c in psi_two)


class TestBlochGroups:
    @pytest.mark.parametrize(
        "q,expected",
        [(5, inv(3)), (7, inv(4)), (8, inv(9)), (2, inv(3)), (3, inv(2))],
    )
    def test_bloch_invariants(self, q, expected):
        assert bc.bloch_invariants(field_from_q(q)) == expected

    @pytest.mark.parametrize("q", UNIT_TEST_FIELDS)
    def test_refined_trivial_character_matches_bloch(self, q):
        F = field_from_q(q)
        per_char = bc.refined_bloch(F)
        trivial_entry = next(invs for chi, invs in per_char.items() if chi.is_trivial)
        assert trivial_entry == bc.bloch_invariants(F).odd_part()

    @pytest.mark.parametrize("q,expected", [(5, inv(3)), (13, inv(7)), (4, inv(5))])
    def test_refined_bloch_examples(self, q, expected):
        F = field_from_q(q)
        per_char = bc.refined_bloch(F)
        for chi, invs in per_char.items():
            assert invs == (expected if chi.is_trivial else inv())

    @pytest.mark.parametrize("q", [5, 11, 16])
    def test_rb0_trivial(self, q):
        assert bc.rb0_is_trivial(field_from_q(q))


class TestSuslinElements:
    def test_psi_at_one_is_zero(self):
        for q in (2, 3, 5, 8):
            F = field_from_q(q)
            for i in (1, 2):
                assert bc.suslin_element(F, i, 1) == {}

    def test_f3_both_liftings_agree(self):
        F = field(3)
        psi1 = bc.suslin_element(F, 1, 2)
        psi2 = bc.suslin_element(F, 2, 2)
        assert psi1 == psi2
        G = bc.square_class_group(F)
        expected = GroupRingElement.one(G) + bracket(G, square_class_code(F, 2))
        assert psi1 == oracle.z_flatten(G, {0: expected})

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bc.suslin_element(field(5), 1, 0)
        with pytest.raises(ValueError):
            bc.suslin_element(field(5), 3, 2)

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
    def test_cocycle_sweep(self, q):
        result = bc.verify_suslin_identities(field_from_q(q))
        assert result.ok, result.failures

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
    def test_lambda_one_formula_sweep(self, q):
        result = bc.verify_suslin_lambda_one(field_from_q(q))
        assert result.ok, result.failures

    @pytest.mark.parametrize("q", [3, 5, 7, 8, 9])
    def test_two_torsion_sweep(self, q):
        result = bc.verify_two_torsion(field_from_q(q))
        assert result.ok, result.failures

    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_image_lattice_sweep(self, q):
        result = bc.verify_suslin_image_lattice(field_from_q(q))
        assert result.ok, result.failures


class TestLambdaWellDefined:
    @pytest.mark.parametrize("q", UNIT_TEST_FIELDS)
    def test_sweep(self, q):
        result = bc.verify_lambda_well_defined(field_from_q(q))
        assert result.ok, result.failures


SWEEP_ORACLE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27]


class TestSweepOracles:
    """The image-sum and integer sweeps against the per-pair, per-row oracles."""

    @pytest.mark.parametrize("q", SWEEP_ORACLE_FIELDS)
    def test_elements_match_group_ring_form(self, q):
        # the package writes z-coordinate ints with twists; the oracle
        # multiplies group-ring elements and flattens the result
        F = field_from_q(q)
        G = bc.square_class_group(F)
        psis = [oracle.psi(F, i, x) for i in (1, 2) for x in F.units()]
        assert [bc.suslin_element(F, i, x) for i in (1, 2) for x in F.units()] == [oracle.z_flatten(G, v) for v in psis]
        for x in bc.symbol_generators(F):
            assert bc.constant_element(F, x) == oracle.z_flatten(G, oracle.constant_element(F, x)), x
        consts = bc.constant_b(F)
        assert consts.b == oracle.z_flatten(G, oracle.b_element(F))
        assert consts.c == oracle.z_flatten(G, oracle.c_element(F))
        for which, rows in bc.reduced_quotients(F).items():
            assert list(rows) == [oracle.z_flatten(G, v) for v in oracle.reduced_rows(F, which)], which
        values = bc._lambda_values(F, (bc._terms(F, oracle.z_flatten(G, v)) for v in psis))
        expected = [oracle.lambda_of_vector(F, v) for v in psis]
        assert list(values) == [(one.to_int_vector(), two) for one, two in expected]

    @pytest.mark.parametrize("q", SWEEP_ORACLE_FIELDS)
    def test_cocycle_sweep_matches_oracle(self, q):
        F = field_from_q(q)
        assert bc.verify_suslin_identities(F) == oracle.suslin_cocycle_sweep(F)

    @pytest.mark.parametrize("q", SWEEP_ORACLE_FIELDS)
    def test_lambda_sweep_matches_oracle(self, q):
        F = field_from_q(q)
        assert bc.verify_lambda_well_defined(F) == oracle.lambda_well_defined_sweep(F)

    @pytest.mark.parametrize("q", [5, 9, 13])
    def test_dropped_psi_two_twist_fails_alike(self, q, monkeypatch):
        # psi_2(x) without its <1-x> factor, <x>[x] + [x^-1], on both sides
        original = bc.suslin_element

        def untwisted(F, i, code):
            if i == 1 or code == 1:
                return original(F, i, code)
            return bc._combine((1, bc._symbol(F, code, square_class_code(F, code))), (1, bc._symbol(F, F.inv_code(code))))

        def untwisted_oracle(F, i, code):
            if i == 1 or code == 1:
                return oracle.psi(F, i, code)
            twist = bracket(bc.square_class_group(F), square_class_code(F, code))
            return oracle.add_vectors(oracle.symbol_vector(F, code, twist), oracle.symbol_vector(F, F.inv_code(code)))

        monkeypatch.setattr(bc, "suslin_element", untwisted)
        F = field_from_q(q)
        mine, expected = bc.verify_suslin_identities(F), oracle.suslin_cocycle_sweep(F, untwisted_oracle)
        assert mine == expected
        assert mine.failures and all(f.startswith("psi_2 ") for f in mine.failures)

    @pytest.mark.parametrize("q", [5, 7, 9, 13])
    def test_perturbed_relation_row_fails_alike(self, q, monkeypatch):
        # the sweep reads the relation rows, and the oracle builds group-ring
        # rows from the same perturbed terms
        F = field_from_q(q)
        values = [oracle.lambda_of_vector(F, oracle.symbol_vector(F, x)) for x in bc.symbol_generators(F)]
        j = next(j for j, (one, two) in enumerate(values) if two or not one.is_zero())
        table = oracle.five_term_table(F)
        perturbed = table[:3] + (table[3] + ((j, 1, 0),),) + table[4:]
        monkeypatch.setattr(bc, "_relation_rows", lambda _F, order=None: iter(perturbed))
        mine, expected = bc.verify_lambda_well_defined(F), oracle.lambda_well_defined_sweep(F, perturbed)
        assert mine == expected
        assert mine.failures and all(f.endswith(" on relation 3") for f in mine.failures)


class TestZeroTestCounts:
    def test_cocycle_sweep_images_each_twisted_psi_once(self, monkeypatch, tmp_path):
        for fn in vars(bc).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        seen = {"inside": False, "images": 0}
        image = exact_linalg.Lattice.image

        def counting(self, v):
            seen["images"] += seen["inside"]
            return image(self, v)

        sweep = bc.verify_suslin_identities

        def tracked(F):
            seen["inside"] = True
            try:
                return sweep(F)
            finally:
                seen["inside"] = False

        monkeypatch.setattr(exact_linalg.Lattice, "image", counting)
        monkeypatch.setitem(bc.SWEEPS, "suslin", tuple(tracked if fn is sweep else fn for fn in bc.SWEEPS["suslin"]))
        assert cli.main(["verify", "--q", "13", "--suite", "all", "--out", str(tmp_path / "report.json")]) == 0
        q, size = 13, bc.square_class_group(field_from_q(13)).size
        assert 0 < seen["images"] <= 2 * size * (q - 1) + 4 * q

    def test_prebloch_lattice_certifies_tail_without_reduction(self, monkeypatch):
        bc.prebloch_presentation.cache_clear()
        reduced = []
        reduce = exact_linalg._reduce
        monkeypatch.setattr(exact_linalg, "_reduce", lambda *args: reduced.append(args) or reduce(*args))
        P = bc.prebloch_presentation(field_from_q(13))
        assert P.relations.rows > 4 * P.generators
        assert P.lattice.invariants() == inv(14)
        assert not reduced


class TestConstants:
    @pytest.mark.parametrize(
        "q,c_order",
        [(2, 3), (3, 1), (4, 1), (5, 3), (7, 1), (9, 1), (11, 3), (13, 1)],
    )
    def test_c_orders(self, q, c_order):
        assert bc.constant_b(field_from_q(q)).c_order == c_order

    @pytest.mark.parametrize("q", UNIT_TEST_FIELDS)
    def test_six_times_b_vanishes(self, q):
        consts = bc.constant_b(field_from_q(q))
        assert 6 % consts.b_order == 0

    def test_f2_distinguished_generator(self):
        consts = bc.constant_b(field(2))
        assert consts.b_order == 3 and consts.c_order == 3

    @pytest.mark.parametrize("q", UNIT_TEST_FIELDS)
    def test_constants_sweep(self, q):
        result = bc.verify_constants(field_from_q(q))
        assert result.ok, result.failures

    def test_order_not_dividing_6_is_the_sweeps_one_failure(self, monkeypatch):
        # constant_b refuses such an order, and the sweep reports the refusal
        F = field_from_q(7)
        b = bc.constant_b(F).b
        order = exact_linalg.Lattice.order
        monkeypatch.setattr(exact_linalg.Lattice, "order", lambda self, v: 4 if v == b else order(self, v))
        bc.constant_b.cache_clear()
        result = bc.verify_constants(F)
        assert result.checked == 1 and len(result.failures) == 1
        assert "order dividing 6, got 4" in result.failures[0]


class TestDfModule:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_difference_identity_two_inverted(self, q):
        report = bc.df_module(field_from_q(q))
        assert report.difference_identity_two_inverted
        assert report.norm_annihilation_two_inverted

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_integral_status_recorded_true(self, q):
        # observed outcome on these fields; recorded, not required
        assert bc.df_module(field_from_q(q)).difference_identity_integral

    def test_f7_module_trivial(self):
        assert bc.df_module(field(7)).c_order == 1


class TestReducedQuotients:
    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_identity_sweep(self, q):
        result = bc.verify_reduced_identities(field_from_q(q))
        assert result.ok, result.failures

    def test_plus_sign_variant_fails_for_f7(self):
        # the one-minus identity holds with the minus sign only
        F = field(7)
        m1 = square_class_code(F, F.neg_code(1))
        bad = 0
        for x in bc.symbol_generators(F):
            om = F.sub_code(1, x)
            v_plus = bc._combine((1, bc._symbol(F, om)), (-1, bc._symbol(F, x, m1)))
            if not bc.reduced_lattice(F, "c").is_member(v_plus, invert_two=True):
                bad += 1
        assert bad > 0

    def test_rp2_coinvariants_quotient_of_prebloch(self):
        F = field(5)
        rp2 = oracle.reduced_quotient(F, "c")
        mat, n = character_specialize(rp2, rp2.group.character(0))
        order = oracle.invariants_order(FpPresentation(n, mat).invariants())
        assert oracle.invariants_order(bc.prebloch_presentation(F).invariants()) % order == 0

    def test_f2_quotients(self):
        mat3, w3 = z_expand(oracle.reduced_quotient(field(2), "ic"))
        assert FpPresentation(w3, mat3).invariants() == inv(3)
        mat2, w2 = z_expand(oracle.reduced_quotient(field(2), "c"))
        assert FpPresentation(w2, mat2).invariants().is_trivial()


class TestEigenspaceReconstruction:
    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_bloch_presentations(self, q):
        F = field_from_q(q)
        assert oracle.eigenspace_reconstruction_ok(bc.refined_presentation(F))
        assert oracle.eigenspace_reconstruction_ok(oracle.reduced_quotient(F, "ic"))
        assert oracle.eigenspace_reconstruction_ok(oracle.reduced_quotient(F, "c"))

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
    def test_refined_bloch_integral_vs_characters(self, q):
        # the integral kernel of the invariant pair, computed on the
        # scalar-restricted presentation, must rebuild (away from 2) from
        # the per-character kernels
        from blochtower.exact_linalg import FpPresentation, IntMatrix, kernel_with_embedding
        from blochtower.group_ring import z_expand

        F = field_from_q(q)
        rp = bc.refined_presentation(F)
        G = rp.group
        zmat, width = z_expand(rp)
        domain = FpPresentation(width, zmat)
        mod = bc.asym2_modulus(F)
        codomain = FpPresentation(G.size + 1, IntMatrix.from_rows([[0] * G.size + [mod]]))
        rows = []
        for lam1, lam2 in zip(bc._lambda_one_table(F), bc._lambda_two_table(F)):
            for e in G.elements():
                rows.append((bracket(G, e) * lam1).to_int_vector() + [lam2])
        kernel = kernel_with_embedding(domain, codomain, IntMatrix.from_rows(rows, cols=G.size + 1))
        integral_odd = kernel.invariants().odd_part()
        merged = oracle.direct_sum(*bc.refined_bloch(F).values())
        assert oracle.direct_sum(integral_odd) == merged


class TestCertifiedLattices:
    @pytest.mark.parametrize("q", [7, 9, 13, 16, 25, 27])
    def test_bases_match_full_elimination(self, q):
        # the reduced lattices start from the refined basis; the oracle
        # eliminates the full z-expanded quotient matrices instead
        F = field_from_q(q)
        lattices = {
            "rp": (bc.rp_lattice(F), oracle.rp_zmatrix(F)),
            "pb": (bc.prebloch_lattice(F), bc.prebloch_presentation(F).relations),
            "ic": (bc.reduced_lattice(F, "ic"), z_expand(oracle.reduced_quotient(F, "ic"))[0]),
            "c": (bc.reduced_lattice(F, "c"), z_expand(oracle.reduced_quotient(F, "c"))[0]),
        }
        for name, (lat, M) in lattices.items():
            assert lat.basis_rows() == oracle.echelon_basis(oracle.sparse_rows(M), M.cols), name
            factors = tuple(d for d in lat.moduli if d)
            assert AbelianInvariants(factors, lat.moduli.count(0)) == FpPresentation(M.cols, M).invariants(), name

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 32, 49, 61, 64])
    def test_zmatrix_matches_group_ring_form(self, q):
        # the rows are written from the relation rows' ints; the oracle
        # z-expands the group-ring elements built from the same rows
        F = field_from_q(q)
        expected = oracle.refined_zmatrix(F)
        mine = IntMatrix.from_sparse_rows(bc._zexpanded_rows(F), bc.generator_count(F) * bc.square_class_group(F).size)
        assert (mine.rows, mine.cols) == (expected.rows, expected.cols)
        assert oracle.sparse_rows(mine) == oracle.sparse_rows(expected)

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
    def test_even_q_reuses_prebloch_lattice(self, q):
        # the square-class group is trivial, so the z-expanded refined
        # relations are the pre-Bloch relations, eliminated once
        F = field_from_q(q)
        P = bc.prebloch_presentation(F)
        assert list(bc._zexpanded_rows(F)) == oracle.sparse_rows(P.relations)
        assert bc.rp_lattice(F) is P.lattice

    @pytest.mark.parametrize("q", [7, 9, 13])
    def test_presentation_invariants_match_textbook_smith(self, q):
        F = field_from_q(q)
        for P in (bc.prebloch_presentation(F), bc.bloch_group(F)):
            diag = oracle.smith_diagonal(P.relations.to_rows())
            factors, rank = oracle.invariants_from_diagonal(diag, P.generators)
            assert P.invariants() == AbelianInvariants(tuple(factors), rank)

    def test_unknown_reduced_quotient_rejected(self):
        F = field_from_q(7)
        with pytest.raises(ValueError, match="'icc'"):
            bc.reduced_lattice(F, "icc")


class TestStreamedRows:
    @pytest.mark.parametrize("q", ALL_FIELDS_TO_64)
    def test_streamed_lattices_match_held_matrices(self, q):
        # the rows made on demand, read in table order, are the held table's,
        # and every lattice built from them as they are made has the basis
        # and moduli of the lattice of the held matrix
        F = field_from_q(q)
        assert tuple(bc._relation_rows(F)) == oracle.five_term_table(F)
        lattices = {"rp": (bc.rp_lattice(F), oracle.rp_zmatrix(F))}
        for chi in bc.square_class_group(F).characters():
            lattices[chi.name] = (bc.character_presentation(F, chi).lattice, oracle.specialized_relations(F, chi))
        trivial = bc.square_class_group(F).character(0)
        lattices["pb"] = (bc.prebloch_presentation(F).lattice, oracle.specialized_relations(F, trivial))
        for which in ("ic", "c"):
            lattices[which] = (bc.reduced_lattice(F, which), z_expand(oracle.reduced_quotient(F, which))[0])
        for name, (lat, M) in lattices.items():
            held = Lattice(M)
            assert lat.cols == held.cols, name
            assert lat.basis_rows() == held.basis_rows(), name
            assert lat.moduli == held.moduli, name


class TestOneEliminationPerMatrix:
    @pytest.fixture
    def eliminated(self, monkeypatch):
        """Row lists given to the elimination entry point, from cold caches."""
        for fn in vars(bc).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        seen = []
        hermite_basis = exact_linalg._hermite_basis

        def recording(rows):
            rows = [dict(row) for row in rows]  # a streamed lattice passes a generator
            seen.append(rows)
            return hermite_basis(rows)

        monkeypatch.setattr(exact_linalg, "_hermite_basis", recording)
        return seen

    def test_prebloch_matrix_eliminated_once(self, eliminated, tmp_path):
        assert cli.main(["prebloch", "--q", "13", "--out", str(tmp_path / "report.json")]) == 0
        # the rows are made in insertion order, so they are compared as multisets
        def multiset(rows):
            return sorted(sorted(row.items()) for row in rows)

        relations = multiset(oracle.sparse_rows(bc.prebloch_presentation(field_from_q(13)).relations))
        assert sum(multiset(rows) == relations for rows in eliminated) == 1

    def test_reduced_lattices_start_from_refined_basis(self, eliminated, tmp_path):
        assert cli.main(["verify", "--q", "13", "--suite", "pb", "--out", str(tmp_path / "report.json")]) == 0
        F = field_from_q(13)
        refined = len(bc.refined_presentation(F).relations)
        sizes = {len(rows) for rows in eliminated}
        basis = len(bc.rp_lattice(F).basis_rows())
        for which in ("ic", "c"):
            full = oracle.reduced_quotient(F, which)
            extra = (len(full.relations) - refined) * full.group.size
            assert basis + extra in sizes
            assert z_expand(full)[0].rows not in sizes


class TestGroupRingRelationsUnreached:
    @pytest.mark.parametrize(
        "argv",
        [
            ["prebloch", "--q", "9"],
            ["verify", "--q", "9", "--suite", "all"],
            ["laurent-fuzz", "--q", "5", "--precision", "8", "--samples", "20"],
        ],
        ids=["prebloch", "verify", "laurent-fuzz"],
    )
    def test_commands_read_only_the_term_table(self, argv, monkeypatch, tmp_path):
        # from cold caches, so that no lattice or target built by an earlier
        # test hides a call
        for module in (bc, laurent):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()

        def refuse(F):
            raise AssertionError("a command built the group-ring relations")

        monkeypatch.setattr(bc, "refined_presentation", refuse)
        assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0


class TestRelationMatrixMemory:
    @pytest.mark.parametrize(
        "argv", [["prebloch", "--q", "125"], ["verify", "--q", "125", "--suite", "all"]], ids=["prebloch", "verify"]
    )
    def test_commands_retain_no_relation_rows(self, argv, tmp_path):
        # In a fresh interpreter, so that no cache of another test counts.
        # Each of the 15 006 relation rows is made as a lattice inserts it,
        # so what stays is the lattices, the 4-byte-a-row insertion order and
        # small per-field tables; a cached row table and matrix held ~10 MB.
        script = (
            "import gc, json, sys, tracemalloc\n"
            "from blochtower import cli\n"
            "tracemalloc.start()\n"
            "code = cli.main(sys.argv[1:])\n"
            "gc.collect()\n"
            "print(json.dumps([code, *tracemalloc.get_traced_memory()]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bc.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "report.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, retained, peak = json.loads(proc.stdout)
        assert code == 0
        assert retained < 2e6 and peak < 4e6, (retained, peak)

    def test_lattice_reads_relation_rows_without_copying(self, monkeypatch):
        F = field_from_q(13)
        pres = bc.prebloch_presentation.__wrapped__(F)  # a fresh presentation, lattice not built
        count = pres.relations.rows
        calls = []  # matrices read through a reader that copies them whole
        built = []  # row counts of the matrices written
        entries, to_rows, of = IntMatrix.entries.fget, IntMatrix.to_rows, IntMatrix._of
        monkeypatch.setattr(IntMatrix, "entries", property(lambda self: calls.append(self) or entries(self)))
        monkeypatch.setattr(IntMatrix, "to_rows", lambda self: calls.append(self) or to_rows(self))
        monkeypatch.setattr(IntMatrix, "_of", classmethod(lambda cls, data, cols: built.append(len(data)) or of(data, cols)))
        # precondition: the hook sees a relation matrix written, here by reading ``relations``
        assert pres.relations.rows == count and built == [count]
        assert pres.lattice.invariants() == bc.prebloch_presentation(F).invariants()
        # the rows go into the lattice as they are made: no relation matrix is written or read
        assert [M for M in calls if M.rows == count] == []
        assert built and count not in built[1:]


class TestSuites:
    def test_run_suite_all(self):
        results = bc.run_suite(field(5), "all")
        assert all(r.ok for r in results)
        names = {r.name for r in results}
        assert "lambda_well_defined" in names and "constants" in names

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            bc.run_suite(field(5), "nope")
