import itertools
import tracemalloc

import pytest

from blochtower import bloch_core as bc
from blochtower import cli, exact_linalg, laurent
from blochtower.exact_linalg import AbelianInvariants, FpPresentation, IntMatrix, _eliminate, cokernel_invariants
from blochtower.finite_field import field, field_from_q, square_class_code
from blochtower.group_ring import (
    GroupRingElement,
    bracket,
    character_specialize,
    double_bracket,
    eigenspace_reconstruction_ok,
    z_expand,
)

import oracle

UNIT_TEST_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


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
        assert cokernel_invariants(mat, n) == inv(4)

    def test_refined_coinvariants_match_prebloch(self):
        for q in (5, 7, 9):
            F = field_from_q(q)
            rp = bc.refined_presentation(F)
            mat, n = character_specialize(rp, rp.group.character(0))
            assert cokernel_invariants(mat, n) == bc.prebloch_presentation(F).invariants()

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
        assert bc._five_term_table(F) == oracle.five_term_rows(F)


ORACLE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 25, 27]


class TestSpecializedRelations:
    @pytest.mark.parametrize("q", ORACLE_FIELDS)
    def test_matches_character_specialize(self, q):
        F = field_from_q(q)
        rp = bc.refined_presentation(F)
        for chi in rp.group.characters():
            mat, n = character_specialize(rp, chi)
            assert n == bc.generator_count(F)
            assert bc.specialized_relations(F, chi) == mat, chi.name

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
            bc.specialized_relations(field(5), bc.square_class_group(field(4)).character(0))


class TestLambdaMaps:
    def test_lambda_two_even_q_vanishes(self):
        F = field(2, 2)
        for x in bc.symbol_generators(F):
            assert bc.lambda_two(F, x).is_zero()

    def test_lambda_two_f5_by_hand_dlogs(self):
        F = field(5)
        # brute-force dlogs base the canonical generator 2: 2^1=2, 2^2=4, 2^3=3
        dlog = {2: 1, 4: 2, 3: 3, 1: 0}
        for x in (2, 3, 4):
            expected = (dlog[(1 - x) % 5] * dlog[x]) % 2
            assert bc.lambda_two(F, x).value == expected

    def test_pairing_antisymmetry(self):
        F = field(5)
        for a, b in itertools.product(F.units(), repeat=2):
            lhs = bc.asym2_pairing(F, a, b).value
            rhs = (-bc.asym2_pairing(F, b, a).value) % 2
            assert lhs == rhs

    def test_lambda_one_f7_both_nonsquare(self):
        F = field(7)
        G = bc.square_class_group(F)
        val = bc.lambda_one(F, 3).value
        assert val == double_bracket(G, 1) * double_bracket(G, 1)
        assert val == double_bracket(G, 1).scale(-2)

    def test_lambda_one_squares_vanish(self):
        F = field(7)
        for x in bc.symbol_generators(F):
            if square_class_code(F, x) == 0 and square_class_code(F, F.sub_code(1, x)) == 0:
                assert bc.lambda_one(F, x).is_zero()

    def test_lambda_one_even_q_vanishes(self):
        F = field(2, 2)
        for x in bc.symbol_generators(F):
            assert bc.lambda_one(F, x).is_zero()

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
        values += [bc.lambda_one(F, x).value for x in bc.symbol_generators(F)]
        values += [c for x in F.units() for c in bc.suslin_element(F, 2, x).coeffs.values()]
        assert any(not v.is_zero() for v in values)
        assert all(type(c) is int for v in values for c in v.coeffs.values())


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
                assert bc.suslin_element(F, i, 1).is_zero_vector()

    def test_f3_both_liftings_agree(self):
        F = field(3)
        psi1 = bc.suslin_element(F, 1, 2)
        psi2 = bc.suslin_element(F, 2, 2)
        assert psi1.coeffs == psi2.coeffs
        G = bc.square_class_group(F)
        expected = GroupRingElement.one(G) + bracket(G, square_class_code(F, 2))
        assert psi1.coeffs == {0: expected}

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
    def test_cocycle_sweep_matches_oracle(self, q):
        F = field_from_q(q)
        assert bc.verify_suslin_identities(F) == oracle.suslin_cocycle_sweep(F)

    @pytest.mark.parametrize("q", SWEEP_ORACLE_FIELDS)
    def test_lambda_sweep_matches_oracle(self, q):
        F = field_from_q(q)
        assert bc.verify_lambda_well_defined(F) == oracle.lambda_well_defined_sweep(F)

    @pytest.mark.parametrize("q", [5, 9, 13])
    def test_dropped_psi_two_twist_fails_alike(self, q, monkeypatch):
        # psi_2(x) without its <1-x> factor: <x>[x] + [x^-1]
        original = bc.suslin_element

        def untwisted(F, i, code):
            if i == 1 or code == 1:
                return original(F, i, code)
            twist = bracket(bc.square_class_group(F), square_class_code(F, code))
            return bc.SymbolVector.symbol(F, code, twist) + bc.SymbolVector.symbol(F, F.inv_code(code))

        monkeypatch.setattr(bc, "suslin_element", untwisted)
        F = field_from_q(q)
        mine, expected = bc.verify_suslin_identities(F), oracle.suslin_cocycle_sweep(F)
        assert mine == expected
        assert mine.failures and all(f.startswith("psi_2 ") for f in mine.failures)

    @pytest.mark.parametrize("q", [5, 7, 9, 13])
    def test_perturbed_relation_row_fails_alike(self, q, monkeypatch):
        # the sweep reads the term table, and the oracle reads the group-ring
        # form built from it; the uncached builder sees the perturbed row too
        F = field_from_q(q)
        j = next(
            j for j in range(bc.generator_count(F))
            if bc._lambda_two_of_generator(F, j) or not bc._lambda_one_of_generator(F, j).is_zero()
        )
        table = bc._five_term_table(F)
        perturbed = table[:3] + (table[3] + ((j, 1, 0),),) + table[4:]
        monkeypatch.setattr(bc, "_five_term_table", lambda _F: perturbed)
        monkeypatch.setattr(bc, "refined_presentation", bc.refined_presentation.__wrapped__)
        mine, expected = bc.verify_lambda_well_defined(F), oracle.lambda_well_defined_sweep(F)
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
        assert P.relations.rows > exact_linalg.CERTIFIED_SUBSET_FACTOR * P.generators
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
        G = bc.square_class_group(F)
        m1 = square_class_code(F, F.neg_code(1))
        bad = 0
        for x in bc.symbol_generators(F):
            om = F.sub_code(1, x)
            v_plus = bc.SymbolVector.symbol(F, om) - bc.SymbolVector.symbol(F, x, bracket(G, m1))
            if not bc.is_zero_in_reduced(F, v_plus, which="c"):
                bad += 1
        assert bad > 0

    def test_rp2_coinvariants_quotient_of_prebloch(self):
        F = field(5)
        rp2 = oracle.reduced_quotient(F, "c")
        mat, n = character_specialize(rp2, rp2.group.character(0))
        order = cokernel_invariants(mat, n).order()
        assert bc.prebloch_presentation(F).invariants().order() % order == 0

    def test_f2_quotients(self):
        mat3, w3 = z_expand(oracle.reduced_quotient(field(2), "ic"))
        assert cokernel_invariants(mat3, w3) == inv(3)
        mat2, w2 = z_expand(oracle.reduced_quotient(field(2), "c"))
        assert cokernel_invariants(mat2, w2).is_trivial()


class TestEigenspaceReconstruction:
    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_bloch_presentations(self, q):
        F = field_from_q(q)
        assert eigenspace_reconstruction_ok(bc.refined_presentation(F))
        assert eigenspace_reconstruction_ok(oracle.reduced_quotient(F, "ic"))
        assert eigenspace_reconstruction_ok(oracle.reduced_quotient(F, "c"))

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
    def test_refined_bloch_integral_vs_characters(self, q):
        # the integral kernel of the invariant pair, computed on the
        # scalar-restricted presentation, must rebuild (away from 2) from
        # the per-character kernels
        from blochtower.exact_linalg import FpPresentation, IntMatrix, map_kernel
        from blochtower.group_ring import z_expand

        F = field_from_q(q)
        rp = bc.refined_presentation(F)
        G = rp.group
        zmat, width = z_expand(rp)
        domain = FpPresentation(width, zmat)
        mod = bc.asym2_modulus(F)
        codomain = FpPresentation(G.size + 1, IntMatrix.from_rows([[0] * G.size + [mod]]))
        rows = []
        for j in range(bc.generator_count(F)):
            lam1 = bc._lambda_one_of_generator(F, j)
            lam2 = bc._lambda_two_of_generator(F, j)
            for e in G.elements():
                rows.append((bracket(G, e) * lam1).to_int_vector() + [lam2])
        kernel = map_kernel(domain, codomain, IntMatrix.from_rows(rows, cols=G.size + 1))
        integral_odd = kernel.invariants().odd_part()
        merged = AbelianInvariants.direct_sum(*bc.refined_bloch(F).values())
        assert AbelianInvariants.direct_sum(integral_odd) == merged


class TestCertifiedLattices:
    @pytest.mark.parametrize("q", [7, 9, 13, 16, 25, 27])
    def test_bases_match_full_elimination(self, q):
        # the reduced lattices start from the refined basis; the oracle
        # eliminates the full z-expanded quotient matrices instead
        F = field_from_q(q)
        lattices = {
            "rp": (bc.rp_lattice(F), bc._rp_zmatrix(F)),
            "pb": (bc.prebloch_lattice(F), bc.prebloch_presentation(F).relations),
            "ic": (bc.reduced_lattice(F, "ic"), z_expand(oracle.reduced_quotient(F, "ic"))[0]),
            "c": (bc.reduced_lattice(F, "c"), z_expand(oracle.reduced_quotient(F, "c"))[0]),
        }
        for name, (lat, M) in lattices.items():
            work, pivots = _eliminate(M.sparse_rows(), M.cols)
            assert lat.basis_rows() == [work[r] for r, _ in pivots], name
            factors = tuple(d for d in lat.moduli if d)
            assert AbelianInvariants(factors, lat.moduli.count(0)) == cokernel_invariants(M, M.cols), name

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 32, 49, 61, 64])
    def test_zmatrix_matches_group_ring_form(self, q):
        # the rows are written from the term table's ints; the oracle
        # z-expands the group-ring elements built from the same table
        F = field_from_q(q)
        expected = oracle.refined_zmatrix(F)
        mine = bc._rp_zmatrix(F)
        assert (mine.rows, mine.cols) == (expected.rows, expected.cols)
        assert mine.sparse_rows() == expected.sparse_rows()

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
    def test_even_q_reuses_prebloch_lattice(self, q):
        # the square-class group is trivial, so the z-expanded refined
        # relations are the pre-Bloch relations, eliminated once
        F = field_from_q(q)
        P = bc.prebloch_presentation(F)
        assert bc._rp_zmatrix(F).sparse_rows() == P.relations.sparse_rows()
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
        v = bc.SymbolVector.symbol(F, bc.symbol_generators(F)[0])
        with pytest.raises(ValueError, match="'icc'"):
            bc.is_zero_in_reduced(F, v, which="icc")


class TestOneEliminationPerMatrix:
    @pytest.fixture
    def eliminated(self, monkeypatch):
        """Row lists given to the elimination entry points, from cold caches."""
        for fn in vars(bc).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        seen = []
        for name in ("_certified_hnf", "_eliminate"):
            def recording(rows, *args, _original=getattr(exact_linalg, name), **kwargs):
                seen.append([dict(row) for row in rows])
                return _original(rows, *args, **kwargs)

            monkeypatch.setattr(exact_linalg, name, recording)
        return seen

    def test_prebloch_matrix_eliminated_once(self, eliminated, tmp_path):
        assert cli.main(["prebloch", "--q", "13", "--out", str(tmp_path / "report.json")]) == 0
        relations = bc.prebloch_presentation(field_from_q(13)).relations.sparse_rows()
        assert sum(rows == relations for rows in eliminated) == 1

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
    def test_specialized_relations_never_holds_two_copies(self):
        # each relation row goes straight into the matrix, so the peak of the
        # call stays close to its result (1.83 times it with a tuple-keyed
        # dict copied into the matrix)
        F = field_from_q(61)
        chi = bc.square_class_group(F).character(1)
        table = bc._five_term_table(F)
        tracemalloc.start()
        try:
            matrix = bc.specialized_relations(F, chi)
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.rows == len(table)
        assert peak < 1.5 * result

    def test_lattice_reads_relation_rows_without_copying(self, monkeypatch):
        F = field_from_q(13)
        pres = bc.prebloch_presentation.__wrapped__(F)  # a fresh presentation, lattice not built
        calls = []
        original = IntMatrix.sparse_rows
        monkeypatch.setattr(IntMatrix, "sparse_rows", lambda self: calls.append(self) or original(self))
        assert pres.lattice.invariants() == bc.prebloch_presentation(F).invariants()
        assert calls == []


class TestSuites:
    def test_run_suite_all(self):
        results = bc.run_suite(field(5), "all")
        assert all(r.ok for r in results)
        names = {r.name for r in results}
        assert "lambda_well_defined" in names and "constants" in names

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            bc.run_suite(field(5), "nope")
