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
from functools import lru_cache
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

    @property
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
    """All flat-frame tensors of a potential at one point."""

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


def eval_terms(terms, t):
    """Sum of the terms at t.

    Each coordinate t[i] may be an array (all of one shape); the result
    is then an array of that shape, and a plain complex otherwise.
    """
    t = np.asarray(t, dtype=complex)
    total = 0.0 + 0.0j
    for coeff, powers, w in terms:
        val = coeff
        for ti, p in zip(t, powers):
            if p:
                val = val * ti**p
        if any(w):
            val = val * np.exp(sum(wi * ti for wi, ti in zip(w, t)))
        total += val
    if t.ndim == 1:
        return complex(total)
    return total + np.zeros(t.shape[1:], dtype=complex)


def _scale_by_coordinate(terms, i):
    out = []
    for coeff, powers, w in terms:
        p = list(powers)
        p[i] += 1
        out.append((coeff, tuple(p), w))
    return out


@lru_cache(maxsize=None)
def _derivative_terms(spec: PotentialSpec, order):
    """Terms of each distinct partial of F of the given order, and where
    its value goes in the flattened, totally symmetric tensor."""
    m = spec.dim
    shape = (m,) * order
    terms, slots = [], []
    for idx in combinations_with_replacement(range(m), order):
        terms.append(diff_terms(spec.terms, tuple(idx.count(i) for i in range(m))))
        slots.append([np.ravel_multi_index(p, shape) for p in set(permutations(idx))])
    owner = np.repeat(np.arange(len(slots)), [len(s) for s in slots])
    return tuple(terms), np.concatenate(slots), owner


def _symmetric_derivatives(spec: PotentialSpec, t, order):
    terms, flat, owner = _derivative_terms(spec, order)
    vals = np.array([eval_terms(tm, t) for tm in terms])
    out = np.empty(spec.dim**order, dtype=complex)
    out[flat] = vals[owner]
    return out.reshape((spec.dim,) * order)


def eval_derivative(spec: PotentialSpec, multi_index, t) -> complex:
    """Exact partial derivative of F, given the order per coordinate."""
    if len(multi_index) != spec.dim:
        raise ValidationError("multi_index length does not match dim")
    return eval_terms(diff_terms(spec.terms, multi_index), t)


def third_derivatives(spec: PotentialSpec, t):
    """Totally symmetric tensor C_ijk at t."""
    return _symmetric_derivatives(spec, t, 3)


def fourth_derivatives(spec: PotentialSpec, t):
    """Totally symmetric tensor F_ijkl of fourth partials of F at t."""
    return _symmetric_derivatives(spec, t, 4)


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
    """C_ijk, C_ij^k, g, and the Euler multiplication matrix at t."""
    g, g_inv = flat_metric(spec)
    t = np.asarray(t, dtype=complex)
    C3 = third_derivatives(spec, t)
    Cmix = np.einsum("ijl,lk->ijk", C3, g_inv)
    E = spec.euler_components(t)
    U = np.einsum("i,ijk->kj", E, Cmix)
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


@lru_cache(maxsize=None)
def _homogeneity_terms(spec: PotentialSpec):
    """Terms of L_E F - d_F * F (quadratic slack is killed by d^3 later)."""
    out = []
    for i in range(spec.dim):
        di = spec.degrees[i]
        ri = spec.shifts[i]
        dFi = diff_terms(spec.terms, tuple(1 if j == i else 0 for j in range(spec.dim)))
        if di != 0:
            out.extend((di * c, p, w) for c, p, w in _scale_by_coordinate(dFi, i))
        if ri != 0:
            out.extend((ri * c, p, w) for c, p, w in dFi)
    out.extend((-spec.d_F * c, p, w) for c, p, w in spec.terms)
    return tuple(out)


def homogeneity_residual(spec: PotentialSpec, t) -> float:
    """Max third derivative of L_E F - d_F F at t (exact differentiation)."""
    base = _homogeneity_terms(spec)
    m = spec.dim
    worst = 0.0
    for idx in combinations_with_replacement(range(m), 3):
        multi = [0] * m
        for i in idx:
            multi[i] += 1
        worst = max(worst, abs(eval_terms(diff_terms(base, tuple(multi)), t)))
    return worst


def check_homogeneity(spec: PotentialSpec, points, tol) -> VerificationReport:
    report = VerificationReport()
    residual = max(homogeneity_residual(spec, t) for t in points)
    report.add("euler_homogeneity", residual, tol, points_checked=len(points))
    return report
