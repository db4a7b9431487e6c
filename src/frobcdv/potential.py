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

from .errors import DegenerateMetric, ValidationError
from .report import VerificationReport

DET_G_MIN = 1e-12

# A term is (coeff: complex, powers: tuple[int], w: tuple[complex]); the
# term value is coeff * prod(t_i**powers_i) * exp(sum(w_i * t_i)).


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_term(coeff, powers, w):
    # Derivatives multiply the coefficient by a power, so it must fit a float.
    if not all(_is_int(p) and 0 <= p <= sys.float_info.max for p in powers):
        raise ValidationError(
            f"term powers {list(powers)} must be non-negative integers that fit a float"
        )
    if not all(cmath.isfinite(c) for c in (coeff, *w)):
        raise ValidationError("term coefficients and linear forms must be finite")


@dataclass(frozen=True)
class PotentialSpec:
    """Potential F plus Euler data (degrees d_i, shifts r_i, d, d_F)."""

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
        if not _is_int(m) or m < 1:
            raise ValidationError(f"dim must be an integer >= 1, got {m!r}")
        for coeff, powers in self.monomials:
            if len(powers) != m:
                raise ValidationError(f"monomial powers {powers} do not match dim {m}")
            _check_term(coeff, powers, ())
        for coeff, powers, w in self.exponentials:
            if len(powers) != m or len(w) != m:
                raise ValidationError("exponential term arrays do not match dim")
            _check_term(coeff, powers, w)
        if len(self.degrees) != m or len(self.shifts) != m:
            raise ValidationError("euler degree/shift arrays do not match dim")
        if not all(math.isfinite(x) for x in (*self.degrees, *self.shifts, self.d, self.d_F)):
            raise ValidationError("euler degrees, shifts, d and d_F must be finite")
        for di, ri in zip(self.degrees, self.shifts):
            if ri != 0 and di != 0:
                raise ValidationError("euler shift allowed only where the degree vanishes")
        if self.normal_form:
            if abs(self.degrees[0] - 1.0) > 1e-9:
                raise ValidationError("normal form requires d_1 = 1")
            for i in range(m):
                if abs(self.degrees[i] + self.degrees[m - 1 - i] - (2.0 - self.d)) > 1e-9:
                    raise ValidationError("normal form requires d_i + d_{m+1-i} = 2 - d")
            if abs(self.d_F - (3.0 - self.d)) > 1e-9:
                raise ValidationError("normal form requires d_F = 3 - d")

    @cached_property
    def terms(self):
        zero = (0.0 + 0.0j,) * self.dim
        mono = tuple((complex(c), tuple(p), zero) for c, p in self.monomials)
        expo = tuple((complex(c), tuple(p), tuple(complex(x) for x in w))
                     for c, p, w in self.exponentials)
        return mono + expo

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


def eval_derivative(spec: PotentialSpec, multi_index, t) -> complex:
    """Exact partial derivative of F, given the order per coordinate."""
    if len(multi_index) != spec.dim:
        raise ValidationError("multi_index length does not match dim")
    return eval_terms(diff_terms(spec.terms, multi_index), t)


def third_derivatives(spec: PotentialSpec, t):
    """Totally symmetric tensor C_ijk at t (one point, or a stack of them)."""
    return _symmetric_derivatives(spec.terms, spec.dim, t, 3)


def fourth_derivatives(spec: PotentialSpec, t):
    """Totally symmetric tensor F_ijkl of fourth partials of F at t (one
    point, or a stack of them)."""
    return _symmetric_derivatives(spec.terms, spec.dim, t, 4)


@lru_cache(maxsize=None)
def flat_metric(spec: PotentialSpec):
    """Constant flat metric g_ij = C_1ij, validated once per spec.

    Constancy is spot-checked at two fixed generic points; a non-finite
    metric or determinant is rejected, and degeneracy against DET_G_MIN.
    """
    rng = np.random.default_rng(20240817)
    m = spec.dim
    t0 = rng.uniform(-0.7, 0.7, m) + 1j * rng.uniform(-0.7, 0.7, m)
    t1 = rng.uniform(-0.7, 0.7, m) + 1j * rng.uniform(-0.7, 0.7, m)
    g0 = third_derivatives(spec, t0)[0]
    g1 = third_derivatives(spec, t1)[0]
    # A huge coefficient can overflow the determinant, and NaN would pass
    # the degeneracy test below.
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(g0)
    if not (np.all(np.isfinite(g0)) and np.all(np.isfinite(g1)) and np.isfinite(det)):
        raise ValidationError("flat metric C_1ij or its determinant is not finite")
    scale = max(1.0, float(np.max(np.abs(g0))))
    if np.max(np.abs(g0 - g1)) > 1e-10 * scale:
        raise ValidationError("metric C_1ij is not constant across points")
    if abs(det) < DET_G_MIN:
        raise DegenerateMetric("flat metric C_1ij is degenerate")
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
    C3 = third_derivatives(spec, t)
    Cmix = np.einsum("...ijl,lk->...ijk", C3, g_inv)
    E = spec.euler_components(t)
    U = np.einsum("...i,...ijk->...kj", E, Cmix)
    return FlatPointEval(point=t, C3=C3, Cmix=Cmix, g=g, g_inv=g_inv, U=U)


def wdvv_residual(spec: PotentialSpec, t) -> float:
    """Max associativity defect |sum_l C_ij^l C_lk^p - sum_l C_jk^l C_il^p|."""
    ev = flat_eval(spec, t)
    left = np.einsum("ijl,lkp->ijkp", ev.Cmix, ev.Cmix)
    right = np.einsum("jkl,ilp->ijkp", ev.Cmix, ev.Cmix)
    return float(np.max(np.abs(left - right)))


def wdvv_reduced_m3(spec: PotentialSpec, t) -> float:
    """The single m=3 normal-form scalar |C223^2 - C222*C233 - C333|."""
    if spec.dim != 3:
        raise ValidationError("reduced WDVV scalar is defined for dim 3 only")
    C3 = third_derivatives(spec, t)
    return float(abs(C3[1, 1, 2] ** 2 - C3[1, 1, 1] * C3[1, 2, 2] - C3[2, 2, 2]))


def check_wdvv(spec: PotentialSpec, points, tol) -> VerificationReport:
    report = VerificationReport()
    residual = max(wdvv_residual(spec, t) for t in points)
    report.add("wdvv_associativity", residual, tol, points_checked=len(points))
    if spec.dim == 3 and spec.normal_form:
        reduced = max(wdvv_reduced_m3(spec, t) for t in points)
        report.add("wdvv_reduced_m3", reduced, tol, points_checked=len(points))
    return report


def homogeneity_residual(spec: PotentialSpec, t) -> float:
    """Max third derivative of L_E F - d_F F over t, one point or a stack
    of them (exact differentiation).

    For the affine Euler field E^i = d_i t^i + r_i it is d_jkl(L_E F -
    d_F F) = E^i F_ijkl + (d_j + d_k + d_l - d_F) F_jkl, so quadratic
    slack in L_E F - d_F F is not seen.
    """
    t = np.asarray(t, dtype=complex)
    d = np.asarray(spec.degrees, dtype=float)
    weight = d[:, None, None] + d[None, :, None] + d[None, None, :] - spec.d_F
    residual = (np.einsum("...i,...ijkl->...jkl", spec.euler_components(t),
                          fourth_derivatives(spec, t))
                + weight * third_derivatives(spec, t))
    return float(np.max(np.abs(residual)))


def check_homogeneity(spec: PotentialSpec, points, tol) -> VerificationReport:
    report = VerificationReport()
    residual = homogeneity_residual(spec, points)
    report.add("euler_homogeneity", residual, tol, points_checked=len(points))
    return report
