"""Frobenius potentials in flat coordinates.

A potential is a finite sum of monomials c * t^p and exponential terms
c * t^p * exp(w . t).  This class is closed under partial differentiation,
so all tensors (third derivatives, the flat metric, the Euler
multiplication operator) are evaluated exactly, never by finite
differences.
"""

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import DegenerateMetric, EvaluationFailure, ValidationError
from .numerics import MAX_DIM, format_point
from .report import VerificationReport

DET_G_MIN = 1e-12

# A term is (coeff: complex, powers: tuple[int], w: tuple[complex]); the
# term value is coeff * prod(t_i**powers_i) * exp(sum(w_i * t_i)).


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _number(x, kind, field):
    """x as a kind (complex or float), after checking that it is a number
    of that kind, so that complex("1") cannot pass; field names it."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real if kind is float else numbers.Complex):
        raise ValidationError(f"{field} must be a {'real' if kind is float else 'complex'} "
                              f"number, got {x!r}")
    try:
        return kind(x)
    except OverflowError:
        raise ValidationError(f"{field} {x} does not fit a float") from None


def _sequence(x, field, n=None):
    """x as a tuple, once it is a sequence (of n entries, if n is given);
    field names it."""
    try:
        out = tuple(x)
    except TypeError:
        raise ValidationError(f"{field} must be a sequence, got {x!r}") from None
    if n is not None and len(out) != n:
        raise ValidationError(f"{field} {out} must have {n} entries, got {len(out)}")
    return out


def _term(coeff, powers, w, what):
    """A validated term as (complex coeff, int powers, complex linear form)."""
    # Derivatives multiply the coefficient by a power, so it must fit a float.
    if not all(_is_int(p) and 0 <= p <= sys.float_info.max for p in powers):
        raise ValidationError(
            f"term powers {list(powers)} must be non-negative integers that fit a float"
        )
    coeff = _number(coeff, complex, f"{what} coefficient")
    w = tuple(_number(x, complex, "exponential linear form") for x in w)
    if not all(cmath.isfinite(c) for c in (coeff, *w)):
        raise ValidationError("term coefficients and linear forms must be finite")
    return coeff, tuple(int(p) for p in powers), w


@dataclass(frozen=True)
class PotentialSpec:
    """Potential F plus Euler data (degrees d_i, shifts r_i, d, d_F).

    Any numbers (ints, floats, complex, Fractions, numpy scalars) in any
    sequences are accepted, validated and stored as tuples of complex
    coefficients and linear forms, int powers, float Euler data and a bool
    normal_form.  flat_metric checks the metric and the homogeneity of F
    once per spec (a normal_form spec's metric must be antidiag(1, ...,
    1)), and flat_eval (so every frame) and the tt* source call it.
    """

    dim: int
    monomials: tuple
    exponentials: tuple
    degrees: tuple
    shifts: tuple
    d: float
    d_F: float
    normal_form: bool = False

    def __post_init__(self):
        m = self.dim
        if not _is_int(m) or not 1 <= m <= MAX_DIM:
            raise ValidationError(f"dim must be an integer from 1 to {MAX_DIM}, got {m!r}")
        # The shape of each field is checked before its numbers.
        monomials = []
        for term in _sequence(self.monomials, "monomials"):
            coeff, powers = _sequence(term, "monomial", 2)
            powers = _sequence(powers, "monomial powers", m)
            monomials.append(_term(coeff, powers, (), "monomial")[:2])
        exponentials = []
        for term in _sequence(self.exponentials, "exponentials"):
            coeff, powers, w = _sequence(term, "exponential", 3)
            powers = _sequence(powers, "exponential powers", m)
            exponentials.append(_term(coeff, powers, _sequence(w, "exponential linear form", m),
                                      "exponential"))
        degrees = _sequence(self.degrees, "euler degrees", m)
        shifts = _sequence(self.shifts, "euler shifts", m)
        degrees = tuple(_number(x, float, "euler degree") for x in degrees)
        shifts = tuple(_number(x, float, "euler shift") for x in shifts)
        d, d_F = _number(self.d, float, "euler d"), _number(self.d_F, float, "euler d_F")
        if not all(math.isfinite(x) for x in (*degrees, *shifts, d, d_F)):
            raise ValidationError("euler degrees, shifts, d and d_F must be finite")
        for di, ri in zip(degrees, shifts):
            if ri != 0 and di != 0:
                raise ValidationError("euler shift allowed only where the degree vanishes")
        if not isinstance(self.normal_form, (bool, np.bool_)):
            raise ValidationError(f"normal_form must be True or False, got {self.normal_form!r}")
        if self.normal_form:
            if abs(degrees[0] - 1.0) > 1e-9:
                raise ValidationError("normal form requires d_1 = 1")
            for i in range(m):
                if abs(degrees[i] + degrees[m - 1 - i] - (2.0 - d)) > 1e-9:
                    raise ValidationError("normal form requires d_i + d_{m+1-i} = 2 - d")
            if abs(d_F - (3.0 - d)) > 1e-9:
                raise ValidationError("normal form requires d_F = 3 - d")
        # One representation however the spec was built, so that equal specs
        # hash alike and every field is JSON-ready.
        for name, value in (("dim", int(m)), ("monomials", tuple(monomials)),
                            ("exponentials", tuple(exponentials)), ("degrees", degrees),
                            ("shifts", shifts), ("d", d), ("d_F", d_F),
                            ("normal_form", bool(self.normal_form))):
            object.__setattr__(self, name, value)

    @cached_property
    def terms(self):
        zero = (0j,) * self.dim
        return tuple((c, p, zero) for c, p in self.monomials) + self.exponentials

    def euler_components(self, t):
        """Components of the Euler field: E^i = d_i t^i + r_i."""
        t = np.asarray(t, dtype=complex)
        return np.asarray(self.degrees, dtype=complex) * t + np.asarray(
            self.shifts, dtype=complex
        )


@dataclass(frozen=True)
class FlatPointEval:
    """All flat-frame tensors of a potential at one point, or at a stack
    of points: then point, C3, Cmix and U gain a leading axis."""

    point: np.ndarray
    C3: np.ndarray       # C_ijk, totally symmetric
    Cmix: np.ndarray     # C_ij^k = sum_l C_ijl g^{lk}
    g: np.ndarray
    g_inv: np.ndarray
    U: np.ndarray        # U[k, j] = coefficient of d_k in E o d_j


def _diff_term(term, j):
    coeff, powers, w = term
    out = []
    if powers[j] > 0:
        p = list(powers)
        p[j] -= 1
        out.append((coeff * powers[j], tuple(p), w))
    if w[j] != 0:
        out.append((coeff * w[j], powers, w))
    return out


def diff_terms(terms, multi_index):
    for j, count in enumerate(multi_index):
        for _ in range(count):
            terms = [d for term in terms for d in _diff_term(term, j)]
    return tuple(terms)


def _term_arrays(terms, m):
    """Coefficients (T,), powers (T, m) and linear forms (T, m) of a term
    list; the linear forms are None when no term has an exponential."""
    coeff = np.array([c for c, _, _ in terms], dtype=complex)
    powers = np.array([p for _, p, _ in terms], dtype=float).reshape(-1, m)
    w = np.array([w for _, _, w in terms], dtype=complex).reshape(-1, m)
    return coeff, powers, w if np.any(w) else None


def _term_values(arrays, t):
    """The value of each term at each point of t (..., m), on a last axis."""
    coeff, powers, w = arrays
    vals = coeff * np.prod(t[..., None, :] ** powers, axis=-1)
    if w is not None:
        vals = vals * np.exp(t @ w.T)
    return vals


def eval_terms(terms, t):
    """Sum of the terms at t.

    Each coordinate t[i] may be an array (all of one shape); the result
    is then an array of that shape, and a plain complex otherwise.
    """
    t = np.asarray(t, dtype=complex)
    total = np.sum(_term_values(_term_arrays(terms, len(t)), np.moveaxis(t, 0, -1)), axis=-1)
    return complex(total) if t.ndim == 1 else total


@lru_cache(maxsize=None)
def _derivative_terms(terms, m, order):
    """The terms of every distinct partial of the given order of a sum of
    terms in m coordinates, and where each partial's value goes in the
    flattened, totally symmetric tensor.

    The terms of all partials form one list (_term_arrays), partial by
    partial; starts[q] is the first term of partial q.  A partial without
    terms gets the zero term, so that no block is empty.
    """
    shape = (m,) * order
    zero = (0j, (0,) * m, (0j,) * m)
    partials, starts, slots = [], [], []
    for idx in combinations_with_replacement(range(m), order):
        starts.append(len(partials))
        partials.extend(diff_terms(terms, tuple(idx.count(i) for i in range(m))) or (zero,))
        slots.append([np.ravel_multi_index(p, shape) for p in set(permutations(idx))])
    owner = np.repeat(np.arange(len(slots)), [len(s) for s in slots])
    return _term_arrays(partials, m), np.array(starts), np.concatenate(slots), owner


def _symmetric_derivatives(terms, m, t, order):
    """Each distinct partial of a sum of terms, evaluated once over all
    points of t, which is one point (m,) or a stack (N, m); the tensor
    axes come last."""
    arrays, starts, flat, owner = _derivative_terms(terms, m, order)
    t = np.asarray(t, dtype=complex)
    vals = np.add.reduceat(_term_values(arrays, t), starts, axis=-1)
    out = np.empty(t.shape[:-1] + (m**order,), dtype=complex)
    out[..., flat] = vals[..., owner]
    return out.reshape(t.shape[:-1] + (m,) * order)


def third_derivatives(spec: PotentialSpec, t):
    """Totally symmetric tensor C_ijk at t (one point, or a stack of them)."""
    return _symmetric_derivatives(spec.terms, spec.dim, t, 3)


def fourth_derivatives(spec: PotentialSpec, t):
    """Totally symmetric tensor F_ijkl of fourth partials of F at t (one
    point, or a stack of them)."""
    return _symmetric_derivatives(spec.terms, spec.dim, t, 4)


def fifth_derivatives(spec: PotentialSpec, t):
    """Totally symmetric tensor of fifth partials of F at t (one point, or
    a stack of them)."""
    return _symmetric_derivatives(spec.terms, spec.dim, t, 5)


# Two fixed generic points of the unit polydisk, with pairwise distinct
# coordinates, at which flat_metric spot-checks every spec; a spec of
# dimension m reads the first m coordinates of each.
SPOT_POINTS = (
    (0.31 + 0.12j, -0.27 + 0.41j, 0.18 - 0.36j, -0.44 - 0.09j,
     0.52 + 0.23j, -0.13 + 0.58j, 0.07 - 0.61j, -0.55 + 0.34j),
    (-0.21 - 0.47j, 0.39 + 0.28j, -0.62 + 0.05j, 0.26 - 0.53j,
     -0.08 + 0.33j, 0.45 - 0.17j, -0.36 - 0.24j, 0.14 + 0.66j),
)
HOMOGENEITY_SPOT = 1e-8


@lru_cache(maxsize=None)
def flat_metric(spec: PotentialSpec):
    """Constant flat metric g_ij = C_1ij and its inverse, validated once
    per spec at the two SPOT_POINTS, evaluated as one stack.

    The metric must be finite, constant across the points and
    nondegenerate (against DET_G_MIN).  A spec flagged normal_form must
    have g = J = antidiag(1, ..., 1), to the drift the constancy test
    allows: the normal-form checks (lowdim, wdvv_reduced_m3) read the
    metric as J.  Last, the declared Euler data must make F
    quasi-homogeneous: the homogeneity residual must be finite and within
    HOMOGENEITY_SPOT of the size of its two terms (at least 1).
    """
    m = spec.dim
    t = np.array(SPOT_POINTS)[:, :m]
    # A huge coefficient can overflow the tensors and the determinant, and
    # NaN would pass the degeneracy test below.
    with np.errstate(over="ignore", invalid="ignore"):
        C3 = third_derivatives(spec, t)
        det = np.linalg.det(C3[0, 0])
    g0, g1 = C3[:, 0]
    if not (np.all(np.isfinite(C3[:, 0])) and np.isfinite(det)):
        raise ValidationError("flat metric C_1ij or its determinant is not finite")
    scale = max(1.0, float(np.max(np.abs(g0))))
    if np.max(np.abs(g0 - g1)) > 1e-10 * scale:
        raise ValidationError("metric C_1ij is not constant across points")
    if abs(det) < DET_G_MIN:
        raise DegenerateMetric("flat metric C_1ij is degenerate")
    if spec.normal_form and np.max(np.abs(g0 - np.eye(m)[::-1])) > 1e-10:
        metric = " ".join(np.array2string(np.real_if_close(g0), separator=", ").split())
        raise ValidationError(f"normal_form needs the metric C_1ij = antidiag(1, ..., 1), "
                              f"got {metric}")
    with np.errstate(over="ignore", invalid="ignore"):
        euler, weighted = _homogeneity_terms(spec, t, C3)
        residual = np.max(np.abs(euler + weighted))
        size = max(1.0, np.max(np.abs(euler)), np.max(np.abs(weighted)))
    if not (np.isfinite(residual) and residual <= HOMOGENEITY_SPOT * size):
        raise ValidationError("declared Euler data fails the homogeneity spot-check")
    g = g0.copy()
    g.setflags(write=False)
    g_inv = np.linalg.inv(g)
    g_inv.setflags(write=False)
    return g, g_inv


def flat_eval(spec: PotentialSpec, t) -> FlatPointEval:
    """C_ijk, C_ij^k, g, and the Euler multiplication matrix at t (one
    point (m,), or a stack (N, m) evaluated at once)."""
    g, g_inv = flat_metric(spec)
    t = np.asarray(t, dtype=complex)
    # Far out, the tensors overflow; such a point is rejected, not evaluated.
    with np.errstate(over="ignore", invalid="ignore"):
        C3 = third_derivatives(spec, t)
        Cmix = np.einsum("...ijl,lk->...ijk", C3, g_inv)
        U = np.einsum("...i,...ijk->...kj", spec.euler_components(t), Cmix)
    finite = np.isfinite(np.concatenate([C3, Cmix, U[..., None, :, :]], axis=-3))
    if not np.all(finite):
        at = t if t.ndim == 1 else t[np.argmin(np.all(finite, axis=(-3, -2, -1)))]
        raise EvaluationFailure(f"the third derivatives of F overflow at {format_point(at)}")
    return FlatPointEval(point=t, C3=C3, Cmix=Cmix, g=g, g_inv=g_inv, U=U)


def wdvv_residual(spec: PotentialSpec, t) -> float:
    """Max associativity defect |sum_l C_ij^l C_lk^p - sum_l C_jk^l C_il^p|
    over t, one point or a stack of them."""
    Cmix = flat_eval(spec, t).Cmix
    left = np.einsum("...ijl,...lkp->...ijkp", Cmix, Cmix)
    right = np.einsum("...jkl,...ilp->...ijkp", Cmix, Cmix)
    return float(np.max(np.abs(left - right)))


def reduced_wdvv_scalar(C):
    """The m=3 normal-form scalar |C223^2 - C222*C233 - C333| of the third
    partials C of F, at one point (3, 3, 3) or at each of a stack."""
    return np.abs(C[..., 1, 1, 2] ** 2 - C[..., 1, 1, 1] * C[..., 1, 2, 2] - C[..., 2, 2, 2])


def wdvv_reduced_m3(spec: PotentialSpec, t) -> float:
    """reduced_wdvv_scalar maximised over t, one point or a stack of them."""
    if spec.dim != 3:
        raise ValidationError("reduced WDVV scalar is defined for dim 3 only")
    return float(np.max(reduced_wdvv_scalar(third_derivatives(spec, t))))


def check_wdvv(spec: PotentialSpec, points, tol) -> VerificationReport:
    points = np.asarray(points, dtype=complex)
    report = VerificationReport()
    report.add("wdvv_associativity", wdvv_residual(spec, points), tol, points_checked=len(points))
    if spec.dim == 3 and spec.normal_form:
        report.add("wdvv_reduced_m3", wdvv_reduced_m3(spec, points), tol,
                   points_checked=len(points))
    return report


def _homogeneity_terms(spec: PotentialSpec, t, C3):
    """The two terms E^i F_ijkl and (d_j + d_k + d_l - d_F) F_jkl of the
    third derivatives of L_E F - d_F F at t, given the third partials C3
    of F there."""
    d = np.asarray(spec.degrees, dtype=float)
    weight = d[:, None, None] + d[None, :, None] + d[None, None, :] - spec.d_F
    return (np.einsum("...i,...ijkl->...jkl", spec.euler_components(t),
                      fourth_derivatives(spec, t)),
            weight * C3)


def homogeneity_residual(spec: PotentialSpec, t) -> float:
    """Max third derivative of L_E F - d_F F over t, one point or a stack
    of them (exact differentiation).

    For the affine Euler field E^i = d_i t^i + r_i it is d_jkl(L_E F -
    d_F F) = E^i F_ijkl + (d_j + d_k + d_l - d_F) F_jkl, so quadratic
    slack in L_E F - d_F F is not seen.
    """
    t = np.asarray(t, dtype=complex)
    euler, weighted = _homogeneity_terms(spec, t, third_derivatives(spec, t))
    return float(np.max(np.abs(euler + weighted)))


def check_homogeneity(spec: PotentialSpec, points, tol) -> VerificationReport:
    report = VerificationReport()
    residual = homogeneity_residual(spec, points)
    report.add("euler_homogeneity", residual, tol, points_checked=len(points))
    return report
