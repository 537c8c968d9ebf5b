"""One way to reduce over the coordinate axis: geometry.row_sum and row_sq_norm.

row_sum adds the columns of the last axis one at a time from 0.0, which is
how numpy's add.reduce sums fewer than 8 contiguous values.  row_sq_norm adds
the columns' squared moduli re * re + im * im (geometry.abs_sq) the same way,
and row_norm is its root.  So every field, form and membership test that moved
from np.sum / np.linalg.norm over the last axis to these kernels must give its
old expression's values bit for bit, with each squared modulus written as
re * re + im * im: each is compared here with a test-local copy of that
expression at n = 1, 2 and 3.
"""

import ast
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from pshlab import fields
from pshlab.bochner import bump_const_form, bump_zbar_form
from pshlab.geometry import (
    DomainBox,
    HolomorphicCylinder,
    abs_sq,
    random_unitary,
    row_norm,
    row_sq_norm,
    row_sum,
)
from pshlab.witness import (
    _psi_delta_norm_sq,
    build_alpha_eps,
    build_psi_delta,
    build_psi_s,
    build_witness_form,
    cutoff,
    cutoff_deriv,
)

from cylinder_helpers import assert_bits, contains

SRC = Path(__file__).resolve().parents[1] / "src" / "pshlab"
DIMS = (1, 2, 3)


def sq(x):
    """|x|^2 elementwise, as re * re + im * im."""
    return x.real * x.real + x.imag * x.imag


def old_sq(z):
    return np.sum(sq(z), axis=-1)


def old_norm(d):
    return np.sqrt(old_sq(d))


def edge_columns(rng, rows: int, cols: int) -> np.ndarray:
    """Magnitudes 1e-300 to 1e300 of both signs, with +-0.0, +-inf and nan entries."""
    a = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 301, (rows, cols))
    for value, share in ((-0.0, 0.2), (0.0, 0.05), (np.inf, 0.01), (-np.inf, 0.01), (np.nan, 0.01)):
        a[rng.random(a.shape) < share] = value
    a[:4] = [[-0.0] * cols, [0.0] * cols, [np.inf] * cols, [np.nan] * cols]
    return a


def points(n: int, seed: int, radius: float = 1.0) -> np.ndarray:
    """(m, n) complex points: standard normal, within a few ulps of |z| = radius,
    spread over 1e-150..1e150, the origin and signed zeros."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 2000, n)) + 1j * rng.standard_normal((3, 2000, n))
    rim = g[1] / np.linalg.norm(g[1], axis=-1, keepdims=True)
    rim *= radius * (1.0 + 1e-16 * rng.integers(-8, 9, (2000, 1)))
    wide = g[2] * 10.0 ** rng.integers(-150, 151, (2000, 1))
    zeros = np.array([[0.0] * n, [complex(-0.0, -0.0)] * n, [complex(0.0, -0.0)] * n])
    return np.concatenate([g[0], rim, wide, zeros])


class TestKernel:
    @pytest.mark.parametrize("cols", range(1, 8))
    def test_row_sum_is_numpys_reduce(self, cols):
        a = edge_columns(np.random.default_rng(cols), 50000, cols)
        with np.errstate(invalid="ignore"):
            assert_bits(row_sum(a), np.sum(a, axis=-1))

    def test_row_sum_three_dimensional(self):
        a = edge_columns(np.random.default_rng(9), 4 * 500, 3).reshape(4, 500, 3)
        with np.errstate(invalid="ignore"):
            assert_bits(row_sum(a), np.sum(a, axis=-1))

    def test_row_sum_returns_a_new_array(self):
        a = np.arange(12.0).reshape(4, 3)
        for cols in (1, 3):
            out = row_sum(a[:, :cols])
            out[:] = -1.0
            assert_bits(a, np.arange(12.0).reshape(4, 3))

    @pytest.mark.parametrize("n", DIMS)
    def test_row_norm_is_numpys_norm(self, n):
        """row_norm is the root of the re * re + im * im sum bit for bit, and so
        np.linalg.norm up to rounding (its (conj(d) d).real may use an FMA)."""
        z = points(n, n)
        with np.errstate(over="ignore"):
            assert_bits(row_norm(z), old_norm(z))
            np.testing.assert_allclose(row_norm(z), np.linalg.norm(z, axis=-1), rtol=4e-16)
        pairs = z[:60, None, :] - z[None, :70, :]  # (k, m, n), as in modulus_of_continuity
        assert_bits(row_norm(pairs), old_norm(pairs))


def kernel_points(n: int) -> np.ndarray:
    """(m, n) complex points whose parts are signed zeros, subnormals, magnitudes near
    1e-160 (squares subnormal) and 1e154 (squares near the top of the double range,
    sums past it), ordinary magnitudes and a few infinities."""
    rng = np.random.default_rng(60 + n)
    scale = 10.0 ** rng.choice([-315.0, -160.0, -1.0, 0.0, 1.0, 154.0], (4000, 2 * n))
    parts = rng.standard_normal((4000, 2 * n)) * scale
    for value, share in ((-0.0, 0.1), (0.0, 0.1), (np.inf, 0.002), (-np.inf, 0.002)):
        parts[rng.random(parts.shape) < share] = value
    return parts.view(complex)


class TestSquaredModulus:
    """abs_sq, row_sq_norm and row_norm against Python floats: a * a + b * b per
    coordinate, the coordinates added in order, and math.sqrt of the sum."""

    @pytest.mark.parametrize("n", DIMS)
    def test_kernels_equal_python_floats(self, n):
        z = kernel_points(n)
        sq_parts = [[c.real * c.real + c.imag * c.imag for c in row] for row in z.tolist()]
        sums = [reduce(lambda a, b: a + b, row) for row in sq_parts]
        with np.errstate(over="ignore", under="ignore"):
            got = abs_sq(z)
            assert_bits(got, np.array(sq_parts))
            assert_bits(row_sq_norm(z), np.array(sums))
            assert_bits(row_norm(z), np.array([math.sqrt(v) for v in sums]))
        # the cases reached: subnormal squares, and sums past the double range
        assert np.any((got > 0.0) & (got < np.finfo(float).tiny)) and np.isinf(sums).any()

    def test_real_input_and_signed_zeros(self):
        x = np.array([-0.0, 0.0, -3.0, 5e-324])
        assert_bits(abs_sq(x), np.array([0.0, 0.0, 9.0, 0.0]))
        assert_bits(abs_sq(np.array([complex(-0.0, -0.0)])), np.array([0.0]))

    @pytest.mark.parametrize("n", DIMS)
    def test_row_sq_norm_is_the_row_sum_of_abs_sq(self, n):
        z = points(n, 70 + n)
        pairs = z[:60, None, :] - z[None, :70, :]
        with np.errstate(over="ignore"):
            for d in (z, pairs):
                assert_bits(row_sq_norm(d), row_sum(abs_sq(d)))
                assert_bits(row_norm(d), np.sqrt(row_sum(abs_sq(d))))


def old_log_abs(av, n):
    def grad(z):
        d = z - av
        return 0.5 * np.conj(d) / old_sq(d)[:, None]

    def hess(z):
        d = z - av
        u = old_sq(d)
        outer = np.conj(d)[:, :, None] * d[:, None, :]
        return 0.5 * (np.eye(n)[None] / u[:, None, None] - outer / (u**2)[:, None, None])

    return {"evaluate": lambda z: np.log(old_norm(z - av)), "grad": grad, "hess": hess}


def old_log1p_sq(n):
    def hess(z):
        u = 1.0 + old_sq(z)
        outer = np.conj(z)[:, :, None] * z[:, None, :]
        return np.eye(n)[None] / u[:, None, None] - outer / (u**2)[:, None, None]

    return {"evaluate": lambda z: np.log1p(old_sq(z)),
            "grad": lambda z: np.conj(z) / (1.0 + old_sq(z))[:, None], "hess": hess}


def old_neg_gauss(n):
    def hess(z):
        outer = np.conj(z)[:, :, None] * z[:, None, :]
        return np.exp(-old_sq(z))[:, None, None] * (np.eye(n)[None] - outer)

    return {"evaluate": lambda z: -np.exp(-old_sq(z)),
            "grad": lambda z: np.exp(-old_sq(z))[:, None] * np.conj(z), "hess": hess}


def old_psi_delta(w, delta, n):
    def ev(z):
        return old_sq(z) + n * np.log(old_sq(z - w) + delta * delta)

    def grad(z):
        d = z - w
        return np.conj(z) + n * np.conj(d) / (old_sq(d) + delta * delta)[:, None]

    def hess(z):
        d = z - w
        u = old_sq(d) + delta * delta
        eye = np.eye(n)[None]
        outer = np.conj(d)[:, :, None] * d[:, None, :]
        return eye + n * (eye / u[:, None, None] - outer / (u**2)[:, None, None])

    return {"evaluate": ev, "grad": grad, "hess": hess}


def field_cases(n):
    """name -> (field, old expressions by attribute, its pole or None)."""
    a = np.linspace(0.3, -0.2, n) + 0.1j
    w = np.linspace(-0.1, 0.4, n) - 0.2j
    return {
        "sq_norm": (fields.sq_norm(n), {"evaluate": old_sq}, None),
        "neg_sq_norm": (fields.neg_sq_norm(n), {"evaluate": lambda z: -old_sq(z)}, None),
        "log_abs": (fields.log_abs(a, n), old_log_abs(a, n), a),
        "log1p_sq": (fields.log1p_sq(n), old_log1p_sq(n), None),
        "neg_gauss": (fields.neg_gauss(n), old_neg_gauss(n), None),
        "psi_s": (build_psi_s(a, 0.7, 30.0),
                  {"evaluate": lambda z: 30.0 * (old_sq(z - a) - 0.7 * 0.7 / 4.0)}, None),
        "psi_delta": (build_psi_delta(w, 0.25, n), old_psi_delta(w, 0.25, n), None),
        "psi_delta:0": (build_psi_delta(w, 0.0, n), {
            "evaluate": lambda z: old_sq(z) + n * np.log(old_sq(z - w))}, w),
    }


@pytest.mark.parametrize("name", sorted(field_cases(1)))
@pytest.mark.parametrize("n", DIMS)
def test_fields_match_their_old_expressions(n, name):
    phi, old, pole = field_cases(n)[name]
    z = points(n, 10 + n)
    if pole is not None:
        z = np.concatenate([z, pole[None, :]])
    with np.errstate(all="ignore"):
        for attr, expr in old.items():
            assert_bits(getattr(phi, attr)(z), expr(z))


@pytest.mark.parametrize("n", DIMS)
def test_omega_and_metric_norm_match_their_old_expressions(n):
    z = points(n, 20 + n)
    w = np.linspace(-0.1, 0.4, n) - 0.2j
    f_values = z.T[::-1] * (0.5 - 0.25j)
    with np.errstate(all="ignore"):
        g = old_sq(z)[:, None, None] * np.eye(n)[None] * 0.75
        assert_bits(fields.scaled_sq_omega(0.75, n).evaluate(z), g)
        d = z - w
        u = old_sq(d) + 0.25 * 0.25
        q = n / u
        a, b = 1.0 + q, q / u
        pair = f_values.T * np.conj(d)
        along_d = sq(sum(pair[:, j] for j in range(n)))  # added in j order
        want = np.sum(sq(f_values), axis=0) / a + b * along_d / (
            a * (1.0 + q * (0.25 * 0.25 / u)))
        assert_bits(_psi_delta_norm_sq(f_values, z, w, 0.25, n), want)


def old_bump(c, radius):
    def value(z):
        return np.maximum(1.0 - old_sq(z - c) / (radius * radius), 0.0) ** 4

    return value


@pytest.mark.parametrize("n", DIMS)
def test_forms_match_their_old_expressions(n):
    z = points(n, 30 + n, radius=0.8)
    c = np.linspace(0.05, -0.05, n) + 0.02j
    xi = np.ones(n, dtype=complex) / np.sqrt(n)
    with np.errstate(all="ignore"):
        b = old_bump(np.zeros(n), 0.8)(z)
        assert_bits(bump_const_form(xi, radius=0.8).evaluate(z), xi[:, None] * b)
        if n == 1:
            zbar = (b * (1.0 + np.conj(z[:, 0])))[None, :]
        else:
            zbar = np.zeros((n, z.shape[0]), dtype=complex)
            zbar[0] = b
            zbar[n - 1] = b * np.conj(z[:, n - 1])
        assert_bits(bump_zbar_form(n, radius=0.8).evaluate(z), zbar)

        r, d = 0.6, z - c
        t = old_sq(d) / (r * r)
        pair = d @ np.conj(xi)
        want = xi[:, None] * cutoff(t) + np.conj(pair) * cutoff_deriv(t) * d.T / (r * r)
        assert_bits(build_witness_form(c, xi, r).evaluate(z), want)

        eps = 0.5
        t = old_sq(d) / (eps * eps)
        assert_bits(build_alpha_eps(c, eps).evaluate(z), cutoff_deriv(t) * d.T / (eps * eps))


@pytest.mark.parametrize("n", DIMS)
def test_membership_matches_its_old_expression(n):
    center = np.linspace(0.2, -0.3, n) + 0.1j
    z = points(n, 40 + n, radius=1.5) + center
    ball = DomainBox("ball", center, np.array([1.5]))
    with np.errstate(over="ignore"):
        assert_bits(ball.contains(z), old_norm(z - center) <= 1.5)
        cyl = HolomorphicCylinder(center, random_unitary(n, n), 1.1, 0.9)
        w = (z - center) @ cyl.frame.conj()
        ok = np.abs(w[:, 0]) <= 1.1 * (1.0 + 1e-12)
        if n > 1:
            ok &= old_norm(w[:, 1:]) <= 0.9 * (1.0 + 1e-12)
        assert_bits(contains(cyl, z), ok)


@pytest.mark.parametrize("n", DIMS)
def test_ball_inradius_is_the_distance_contains_compares(n):
    """inradius_from is extents[0] minus the norm that contains compares with
    extents[0], so it is >= 0 exactly at the members."""
    center = np.linspace(0.2, -0.3, n) + 0.1j
    ball = DomainBox("ball", center, np.array([1.5]))
    z = points(n, 50 + n, radius=1.5)[:4000] + center
    room = ball.inradius_from(z)
    assert_bits(room, 1.5 - old_norm(z - center))
    assert_bits(room >= 0.0, ball.contains(z))


def test_one_way_to_reduce_over_the_coordinate_axis():
    """No np.sum or np.linalg.norm over axis -1 or 1 stays in src/pshlab:
    geometry.row_sum (and row_norm on it) is the one way."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if name not in ("np.sum", "np.linalg.norm", "numpy.sum", "numpy.linalg.norm"):
                continue
            position = 1 if name.endswith("sum") else 2  # np.linalg.norm(x, ord, axis)
            axis = [kw.value for kw in node.keywords if kw.arg == "axis"] + node.args[position:][:1]
            if axis and ast.unparse(axis[0]) in ("-1", "1"):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []

