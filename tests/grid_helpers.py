"""Test-only helpers on grids and forms: a full-grid weighted pairing, dbar of
a scalar grid field, a support check, the two sides of the metric energy
identity behind alpha_from_f, and the orthogonality of a Bergman residual."""

import math

import numpy as np

from pshlab.bochner import node_values
from pshlab.dbar1d import _weights
from pshlab.extension import _monomial_values, monomial_exponents
from pshlab.fields import unshift, weight_exp
from pshlab.geometry import as_points


def weighted_pairing(a, b, weight, grid):
    """Trapezoid approximation of int <a, b> e^{-weight} over the grid box.

    Forms pair componentwise (sum_j a_j conj(b_j)); scalars pair as a conj(b).
    Arguments may be FormField01 instances or node-value arrays.
    """
    av = node_values(a, grid)
    bv = node_values(b, grid)
    if av.ndim != bv.ndim:
        raise ValueError("cannot pair a form with a scalar")
    e, shift = weight_exp(-weight(grid.points))
    integrand = np.sum(av * np.conj(bv), axis=0) if av.ndim == 2 else av * np.conj(bv)
    return unshift(complex(np.dot(integrand, e * grid.weights)), shift)


def scalar_dbar(values, grid):
    """dbar of a scalar grid field: components (d v / dzbar_j)_j as (n, m)."""
    return np.stack([grid.d_dzbar(values, j) for j in range(grid.n)])


def check_support(form, pts, tol=1e-12):
    """The form's coefficients vanish outside its support region at the given nodes."""
    z = as_points(pts, form.n)
    outside = ~form.support.contains(z)
    if not np.any(outside):
        return True
    vals = form.evaluate(z[outside])
    return bool(np.max(np.abs(vals)) <= tol)


def metric_quadratic(metric, vec):
    """sum_{j,k} B_jk v_j conj(v_k) (real for Hermitian B)."""
    v = np.asarray(vec, dtype=complex)
    return float(np.real(np.dot(v, np.asarray(metric) @ np.conj(v))))


def form_norm_sq(metric, f_coeffs):
    """|f|^2_B = sum_{j,k} (B^{-1})_jk f_j conj(f_k) via a linear solve."""
    f = np.asarray(f_coeffs, dtype=complex)
    return float(np.real(np.dot(f, np.linalg.solve(np.asarray(metric), np.conj(f)))))


def projection_orthogonality(u_values, h_values, eta_values, degree: int, grid) -> float:
    """Max relative pairing of (u - h) against the basis monomials."""
    pts = grid.points
    w, _ = _weights(eta_values, grid)
    mono = _monomial_values(pts, monomial_exponents(1, degree))
    res = np.asarray(u_values) - np.asarray(h_values)
    pair = mono.conj().T @ (w * res)
    res_norm = math.sqrt(max(float(np.real(np.dot(np.conj(res), w * res))), 1e-300))
    mono_norms = np.sqrt(np.maximum(np.real(np.einsum("ma,m,ma->a", np.conj(mono), w, mono)), 1e-300))
    return float(np.max(np.abs(pair) / (res_norm * mono_norms)))
