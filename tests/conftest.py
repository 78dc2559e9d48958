import functools

from hypothesis import settings

from blochtower import exact_linalg
from blochtower.exact_linalg import IntMatrix

import oracle

# everything in this package is deterministic; keep the test run that way too
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def _checked_smith_normal_form(smith_normal_form):
    """``smith_normal_form`` that also checks U*M*V == D and that U and V are unimodular."""

    @functools.wraps(smith_normal_form)
    def checked(M):
        D, U, V = smith_normal_form(M)
        if (U @ M) @ V != D:
            raise AssertionError("Smith transform verification failed")
        if abs(oracle.determinant(U)) != 1 or (M.cols and abs(oracle.determinant(V)) != 1):
            raise AssertionError("Smith transforms are not unimodular")
        return D, U, V

    return checked


def _checked_smith_quotient(smith_quotient):
    """``_smith_quotient`` that also checks its map.

    Every basis row must map to zero, and the map must be read from a
    unimodular V: the Smith core is run again on the basis, and the rows
    returned must be its V at the coordinates whose diagonal entry is not 1.
    """

    @functools.wraps(smith_quotient)
    def checked(basis, cols):
        moduli, vrows = smith_quotient(basis, cols)
        for row in basis:
            image = [sum(x * vrows[r][i] for r, x in row.items()) for i in range(len(moduli))]
            if any(y % d if d else y for y, d in zip(image, moduli)):
                raise AssertionError("a basis row has a nonzero quotient image")
        diag, v = exact_linalg._smith_core(basis, cols)
        kept = [i for i in range(cols) if i >= len(diag) or diag[i] != 1]
        if vrows != [tuple(row.get(i, 0) for i in kept) for row in v]:
            raise AssertionError("the quotient map is not read from the Smith transform")
        if cols and abs(oracle.determinant(IntMatrix._of(v, cols))) != 1:
            raise AssertionError("quotient transform is not unimodular")
        return moduli, vrows

    return checked


def pytest_configure(config):
    # Every Smith form and quotient map built in the test run is checked.
    # Installed before any test module is imported, so a name imported from
    # exact_linalg is the checked one too.
    exact_linalg.smith_normal_form = _checked_smith_normal_form(exact_linalg.smith_normal_form)
    exact_linalg._smith_quotient = _checked_smith_quotient(exact_linalg._smith_quotient)
