"""Tests for the small linear-algebra layer."""

import numpy as np
import pytest

from frobcdv.errors import Singular
from frobcdv.numerics import invert, lex_order, solve_eig


def test_eig_identity():
    dec = solve_eig(np.eye(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])
    assert dec.residual <= 1e-14


def test_eig_euler_operator_matrix():
    # [[t1, 16 t2^2], [(2/3) t2, t1]] at (0, 1): eigenvalues are the roots
    # of lambda^2 - 32/3.
    M = np.array([[0.0, 16.0], [2.0 / 3.0, 0.0]])
    dec = solve_eig(M)
    root = np.sqrt(32.0 / 3.0)
    assert np.allclose(dec.eigenvalues, [-root, root], atol=1e-12)
    assert dec.residual <= 1e-12


def test_eig_residual_of_a_huge_matrix_is_inf_without_warning():
    # The norm's squares overflow; inf then fails every caller's residual
    # test.  pytest turns the RuntimeWarning numpy would print into an error.
    dec = solve_eig(1e200 * np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert dec.residual == np.inf


def test_eig_defective_block_visible_in_residual():
    dec = solve_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [0.0, 0.0])
    # numpy returns two (nearly) parallel eigenvectors; the pair residual
    # stays small but the eigenvector matrix is singular.
    assert abs(np.linalg.det(dec.eigenvectors)) < 1e-8


def test_eig_sorted_deterministically():
    vals = np.array([3.0, -1.0, 2.0 + 1.0j, 2.0 - 1.0j])
    dec = solve_eig(np.diag(vals))
    expected = vals[lex_order(vals)]
    assert np.allclose(dec.eigenvalues, expected)
    assert dec.residual <= 1e-14 * np.max(np.abs(vals))


def test_invert_antidiagonal_involution():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(invert(M), M)


def test_invert_diagonal():
    M = np.diag([2.0, 3.0j])
    assert np.allclose(invert(M), np.diag([0.5, -1j / 3.0]))


def test_invert_unitriangular():
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(invert(M), [[1.0, -1.0], [0.0, 1.0]])


def test_invert_rejects_singular():
    with pytest.raises(Singular):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_invert_names_the_matrix_and_first_singular_point():
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2))])
    points = np.array([[0.0, 1.0], [0.5 - 2.0j, 1e-7j], [3.0, 3.0]])
    with pytest.raises(Singular, match=r"^frame M is singular to working precision "
                                       r"at \(0\.5-2j, 0\+1e-07j\)$") as info:
        invert(stack, "frame M", points)
    assert info.value.indices == [1, 2]  # the message names the first


def test_invert_twice_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.max(np.abs(invert(invert(M)) - M)) <= 1e-10 * np.max(np.abs(M))


@pytest.mark.parametrize("guarded", [solve_eig, invert])
@pytest.mark.parametrize("M,message", [
    (np.ones((2, 3)), r"expected a square matrix or a stack of them, got shape \(2, 3\)"),
    (np.eye(9), "dimension 9 exceeds supported maximum 8"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "matrix entries must be finite"),
], ids=["non_square", "9x9", "non_finite"])
def test_guards_reject_what_they_cannot_decompose(guarded, M, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        guarded(M)
