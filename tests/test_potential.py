"""Tests for potentials, exact differentiation, WDVV, homogeneity."""

import dataclasses
import re
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcdv import (
    CATALOG_NAMES,
    PotentialSpec,
    ValidationError,
    canonical_frame,
    catalog,
    check_homogeneity,
    check_wdvv,
    flat_eval,
    flat_metric,
    load_spec,
    solve_tt2d,
    wdvv_reduced_m3,
    wdvv_residual,
    write_spec,
)
from frobcdv.errors import DegenerateMetric, EvaluationFailure
from frobcdv.potential import (
    _symmetric_derivatives,
    diff_terms,
    eval_terms,
    fourth_derivatives,
    third_derivatives,
)
from test_canonical import homogeneity_residual


def eval_derivative(spec, multi_index, t):
    """Oracle: one exact partial derivative of F, its order given per
    coordinate, from the differentiated term list."""
    return eval_terms(diff_terms(spec.terms, multi_index), t)


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
    rep = check_wdvv(spec, canonical_frame(spec, pts), 1e-12)
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
    rep = check_homogeneity(spec, canonical_frame(spec, [(0.3, 0.9), (1.1j, -0.4 + 0.2j)]), 1e-12)
    assert rep.passed


def test_homogeneity_wrong_weight_fails():
    spec = catalog("quartic2")
    bad = dataclasses.replace(spec, d_F=3.0, normal_form=False)
    assert homogeneity_residual(bad, (0.3, 0.9)) > 1e-3


def test_homogeneity_with_exponential_term():
    spec = catalog("p1")
    rep = check_homogeneity(spec, canonical_frame(spec, (0.4, 0.7 - 0.3j)), 1e-12)
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


def _a3_family(s):
    """a3_3d's Euler data with F = 1/2 t1^2 t3 + 1/2 t1 t2^2 + (s/4) t2^2 t3^2
    + (s^2/60) t3^5: WDVV holds at every s (b/a^2 = 4/15), and so does
    homogeneity, up to the round-off of terms of size ~s^2."""
    a3 = catalog("a3_3d")
    return dataclasses.replace(a3, monomials=a3.monomials[:2] + ((s / 4, (0, 2, 2)),
                                                                 (s * s / 60, (0, 0, 5))))


@pytest.mark.parametrize("s", [1e4, 1e5])
def test_homogeneous_spec_with_large_coefficients_loads(tmp_path, s):
    # The spot check is relative to the size of the residual's terms; at
    # s = 1e5 an absolute 1e-8 refused a round-off residual of 1.7e-7.
    spec = _a3_family(s)
    write_spec(spec, tmp_path / "a3.json")
    assert load_spec(tmp_path / "a3.json") == spec
    assert wdvv_residual(spec, (0.1, 0.2, 0.3)) <= 1e-12 * s * s


NOT_HOMOGENEOUS = {
    # Finite, but the fourth partials overflow at the spot points, so the
    # residual reads nan.
    "huge_quintic": dataclasses.replace(
        catalog("a3_3d"), monomials=catalog("a3_3d").monomials[:3] + ((1e307, (0, 0, 5)),)),
    # quartic2 with cubic2's Euler data: t2^4 has degree 4, not d_F = 3.
    "quartic2_d_F_3": dataclasses.replace(catalog("quartic2"), degrees=(1.0, 1.0), d=0.0,
                                          d_F=3.0),
}


@pytest.mark.parametrize("name", sorted(NOT_HOMOGENEOUS))
def test_spec_that_is_not_homogeneous_is_refused_wherever_it_is_evaluated(tmp_path, name):
    # flat_metric runs the spot check, so a spec built in Python is held to
    # it at its first evaluation as a spec file is at load.
    spec = NOT_HOMOGENEOUS[name]
    write_spec(spec, tmp_path / "spec.json")
    t = (0.1, 0.2, 0.3)[:spec.dim]
    calls = [lambda: load_spec(tmp_path / "spec.json"), lambda: flat_eval(spec, t),
             lambda: canonical_frame(spec, t)]
    if spec.dim == 2:
        calls.append(lambda: solve_tt2d(spec, (-1.0, -1.0, 1.0, 1.0), 9, 1.0))
    for call in calls:
        with pytest.raises(ValidationError, match="homogeneity spot-check"):
            call()


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


def test_spec_built_from_any_numbers_and_sequences_is_the_catalog_spec(tmp_path):
    # Lists, numpy integers and Fractions: one representation, so the spec
    # equals and hashes as the catalog's, and JSON can write it.
    quartic2 = PotentialSpec(
        dim=np.int64(2), monomials=[[Fraction(1, 2), [np.int64(2), 1]], (1, np.array([0, 4]))],
        exponentials=[], degrees=[1, Fraction(2, 3)], shifts=np.zeros(2, dtype=int),
        d=Fraction(1, 3), d_F=Fraction(8, 3), normal_form=np.True_,
    )
    p1 = PotentialSpec(2, [(Fraction(1, 2), [2, 1])], [[np.complex128(1), [0, 0], [0, 1.0]]],
                       [1, 0], [0, np.int32(2)], 1, 2, True)
    for spec, name in ((quartic2, "quartic2"), (p1, "p1")):
        assert spec == catalog(name) and hash(spec) == hash(catalog(name))
        assert np.array_equal(flat_metric(spec)[0], np.eye(2)[::-1])
        path = tmp_path / f"{name}.json"
        write_spec(spec, path)
        assert load_spec(path) == catalog(name)


MISTYPED_FIELDS = [
    ("monomials", ((None, (2, 1)),), "monomial coefficient must be a complex number, got None"),
    ("monomials", (("1", (2, 1)),), "monomial coefficient must be a complex number, got '1'"),
    ("monomials", ((True, (2, 1)),), "monomial coefficient must be a complex number, got True"),
    ("monomials", ((10**400, (2, 1)),), "monomial coefficient 1000"),
    ("exponentials", ((1.0, (0, 0), (0.0, "1")),), "exponential linear form must be a complex"),
    ("exponentials", ((None, (0, 0), (0.0, 1.0)),), "exponential coefficient must be a complex"),
    ("degrees", (1.0, "0"), "euler degree must be a real number, got '0'"),
    ("shifts", (0.0, 2j), "euler shift must be a real number, got 2j"),
    ("d", None, "euler d must be a real number, got None"),
    ("d_F", "2", "euler d_F must be a real number, got '2'"),
    ("normal_form", "no", "normal_form must be True or False, got 'no'"),
    # A malformed structure: the shape of a field is checked before its
    # numbers.  Each of these used to end in a bare ValueError or TypeError.
    ("monomials", ((0.5, (2, 1), ()),), "monomial (0.5, (2, 1), ()) must have 2 entries, got 3"),
    ("monomials", ((0.5, 2),), "monomial powers must be a sequence, got 2"),
    ("monomials", None, "monomials must be a sequence, got None"),
    ("degrees", 1.0, "euler degrees must be a sequence, got 1.0"),
    ("degrees", (1.0,), "euler degrees (1.0,) must have 2 entries, got 1"),
    ("exponentials", ((1.0, (0, 0)),), "exponential (1.0, (0, 0)) must have 3 entries, got 2"),
    ("exponentials", ((1.0, (0, 0), 1),), "exponential linear form must be a sequence, got 1"),
]


@pytest.mark.parametrize("field, value, named", MISTYPED_FIELDS,
                         ids=[f"{field}={value!r}"[:40] for field, value, _ in MISTYPED_FIELDS])
def test_mistyped_spec_field_is_a_validation_error_naming_it(field, value, named):
    with pytest.raises(ValidationError, match=re.escape(named)):
        dataclasses.replace(catalog("p1"), **{field: value})


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_wdvv_residuals_of_a_stack_are_the_per_point_maxima(name):
    spec = catalog(name)
    rng = np.random.default_rng(8)
    points = rng.uniform(-1.0, 1.0, (16, spec.dim)) + 1j * rng.uniform(-1.0, 1.0, (16, spec.dim))
    checks = [wdvv_residual] + ([wdvv_reduced_m3] if spec.dim == 3 else [])
    for check in checks:
        assert check(spec, points) == pytest.approx(max(check(spec, t) for t in points),
                                                    rel=1e-12, abs=1e-15)
    if name == "broken_wdvv":
        assert wdvv_residual(spec, points) > 1e-3


@pytest.mark.parametrize("name,point", [("p1", (0.0, 1e3)), ("quartic2", (0.0, 1e300))])
def test_flat_eval_rejects_a_point_where_the_tensors_overflow(name, point):
    # e^1000 and (1e300)^2 overflow; numpy would warn and return inf.
    with pytest.raises(EvaluationFailure, match="overflow at"):
        flat_eval(catalog(name), np.array([[0.0, 1.0], point]))
