import numpy as np
import pytest

from pshlab import fields
from pshlab.errors import PoleInStencilError
from pshlab.fields import (
    HermitianField,
    ScalarField,
    check_lower_bound,
    fd_levi_form,
    get_field,
    get_omega,
    levi_form,
    scaled_sq_omega,
    zero_omega,
)
from pshlab.geometry import row_sum, unit_ball
from pshlab.witness import build_psi_delta

# corpus entries, a safe evaluation point for each, and whether the entry has
# nonvanishing fourth derivatives (so FD error is genuinely O(h^2))
CORPUS = [
    (fields.sq_norm(2), np.array([0.3 + 0.2j, -0.1 + 0.4j]), False),
    (fields.neg_sq_norm(2), np.array([0.5 + 0.1j, 0.2 - 0.3j]), False),
    (fields.saddle(2.0), np.array([0.4 - 0.2j, 0.3 + 0.1j]), False),
    (fields.log_abs(np.zeros(1), 1), np.array([0.8 + 0.3j]), True),
    (fields.re_linear([1.0, 0.0], 2), np.array([0.1 + 0.7j, -0.4 + 0.2j]), False),
    (fields.log1p_sq(1), np.array([0.5 + 0.25j]), True),
    (fields.max_log(), np.array([0.9 + 0.1j, 0.3 - 0.2j]), False),
    (fields.cross(), np.array([0.2 + 0.3j, -0.5 + 0.1j]), False),
    (fields.neg_gauss(2), np.array([0.4 + 0.1j, 0.2 + 0.5j]), True),
]


def fd_at_default_step(phi, pts):
    return fd_levi_form(phi, pts, fields.DEFAULT_FD_STEP)


def hessian_rel_error(phi, z, h):
    fd = fd_levi_form(phi, z, h)
    exact = levi_form(phi, z)
    scale = max(np.max(np.abs(exact)), 1.0)
    return np.max(np.abs(fd - exact)) / scale


class TestLeviForm:
    def test_sq_norm_identity(self):
        m = fd_at_default_step(fields.sq_norm(2), np.array([0.1 + 0.2j, 0.3j]))[0]
        assert np.allclose(m, np.eye(2), atol=1e-8)

    def test_saddle_diag(self):
        m = fd_at_default_step(fields.saddle(2.0), np.array([0.2j, 0.1]))[0]
        assert np.allclose(m, np.diag([1.0, -2.0]), atol=1e-8)

    def test_log1p_sq_at_zero(self):
        # closed form d2/dz dzbar log(1+|z|^2) = 1/(1+|z|^2)^2 -> 1 at 0
        m = fd_at_default_step(fields.log1p_sq(1), np.array([0.0j]))[0]
        assert m[0, 0] == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("phi,z,_smooth", CORPUS, ids=lambda c: getattr(c, "name", ""))
    def test_corpus_fd_matches_closed_form(self, phi, z, _smooth):
        assert hessian_rel_error(phi, z, h=1e-3) <= 1e-4

    def test_fd_is_second_order(self):
        for phi, z, smooth in CORPUS:
            if not smooth:
                continue
            ratio = hessian_rel_error(phi, z, 1e-2) / hessian_rel_error(phi, z, 5e-3)
            assert 3.5 <= ratio <= 4.5, phi.name

    def test_exactly_hermitian(self):
        m = fd_at_default_step(fields.neg_gauss(2), np.array([0.4 + 0.1j, -0.2j]))[0]
        assert np.array_equal(m, m.conj().T)

    @pytest.mark.parametrize("use_analytic", [True, False])
    @pytest.mark.parametrize("phi,z,_smooth", CORPUS, ids=lambda c: getattr(c, "name", ""))
    def test_batch_equals_pointwise(self, phi, z, _smooth, use_analytic):
        # nearby points keep max_log off its tie set and log_abs off its pole
        rng = np.random.default_rng(17)
        pts = z + 0.05 * (rng.standard_normal((6, phi.n)) + 1j * rng.standard_normal((6, phi.n)))
        levi = levi_form if use_analytic else fd_at_default_step
        batch = levi(phi, pts)
        single = np.concatenate([levi(phi, p) for p in pts])
        assert batch.shape == (6, phi.n, phi.n)
        assert np.array_equal(batch, single)

    def test_pole_in_stencil(self):
        # the second node's stencil meets the pole
        pts = np.array([[0.5 + 0.0j], [0.0 + 0.0j]])
        with pytest.raises(PoleInStencilError, match="pole in stencil"):
            fd_at_default_step(fields.log_abs(np.zeros(1), 1), pts)

    @pytest.mark.parametrize("phi,z,_smooth", CORPUS, ids=lambda c: getattr(c, "name", ""))
    def test_undeclared_hessian_takes_the_default_step(self, phi, z, _smooth):
        bare = ScalarField(phi.name, phi.n, phi.evaluate)
        assert np.array_equal(levi_form(bare, z), fd_at_default_step(phi, z))

    def test_pole_of_psi_delta_0_rejected(self):
        # psi_delta:0 declares no Hessian and is -inf at its pole w: the stencil
        # of a node at w reads the pole
        w = np.array([0.1 - 0.2j])
        with pytest.raises(PoleInStencilError, match="pole in stencil"):
            levi_form(build_psi_delta(w, 0.0, 1), w[None, :])

    def test_declared_hessian_must_be_hermitian(self):
        upper = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        bad = ScalarField(
            "bad", 2, lambda z: np.zeros(z.shape[0]),
            hess=lambda z: np.broadcast_to(upper, (z.shape[0], 2, 2)),
        )
        with pytest.raises(ValueError, match="declared Hessian of 'bad' is not Hermitian"):
            levi_form(bad, np.zeros((3, 2)))


class TestLogLeviForm:
    """log_abs, log1p_sq and psi_delta take their Hessians from the one closed form
    fields.log_levi; each gives the bytes of the expression it wrote out before,
    copied here, at |z| from 1e-3 to 1e3."""

    @staticmethod
    def points(n, a):
        rng = np.random.default_rng(11 * n)
        u = rng.standard_normal((5000, n)) + 1j * rng.standard_normal((5000, n))
        radius = 10.0 ** rng.uniform(-3.0, 3.0, 5000)
        return a + u / np.linalg.norm(u, axis=1)[:, None] * radius[:, None]

    @staticmethod
    def written_out(d, u):
        n = d.shape[-1]
        eye = np.eye(n)[None, :, :]
        outer = np.conj(d)[:, :, None] * d[:, None, :]
        return eye, eye / u[:, None, None] - outer / (u**2)[:, None, None]

    @pytest.mark.parametrize("n", [1, 2])
    def test_log_abs(self, n):
        a = np.full(n, 0.3 - 0.1j)
        z = self.points(n, a)
        d = z - a
        _, form = self.written_out(d, row_sum(np.abs(d) ** 2))
        assert fields.log_abs(a, n).hess(z).tobytes() == (0.5 * form).tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_log1p_sq(self, n):
        z = self.points(n, 0.0)
        _, form = self.written_out(z, 1.0 + row_sum(np.abs(z) ** 2))
        assert fields.log1p_sq(n).hess(z).tobytes() == form.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("delta", [0.25, 1e-3])
    def test_psi_delta(self, n, delta):
        w = np.full(n, -0.2 + 0.4j)
        z = self.points(n, w)
        d = z - w
        eye, form = self.written_out(d, row_sum(np.abs(d) ** 2) + delta * delta)
        got = build_psi_delta(w, delta, n).hess(z)
        assert got.tobytes() == (eye + n * form).tobytes()


def min_levi_eigenpair(phi, omega, z):
    """Smallest eigenvalue and unit eigenvector of the Levi gap at one point."""
    w, v = np.linalg.eigh(levi_form(phi, z)[0] - omega(z)[0])
    return float(w[0]), v[:, 0]


class TestMinLeviEigenvalue:
    def test_diagonal(self):
        lam, xi = min_levi_eigenpair(fields.saddle(2.0), zero_omega(2), np.array([0.1, 0.2j]))
        assert lam == pytest.approx(-2.0, abs=1e-10)
        assert abs(xi[1]) == pytest.approx(1.0, abs=1e-10)

    def test_identity(self):
        lam, _ = min_levi_eigenpair(fields.sq_norm(2), zero_omega(2), np.array([0.0j, 0.0j]))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_cross_eigenpair(self):
        z = np.array([0.1 + 0.2j, 0.3j])
        lam, xi = min_levi_eigenpair(fields.cross(), zero_omega(2), z)
        assert lam == pytest.approx(-0.5, abs=1e-12)
        m = levi_form(fields.cross(), z)[0]
        res = np.linalg.norm(m @ xi - lam * xi)
        assert res <= 1e-8
        assert abs(np.linalg.norm(xi) - 1.0) <= 1e-12


class TestCheckLowerBound:
    def test_sq_norm_holds(self):
        v = check_lower_bound(fields.sq_norm(2), zero_omega(2), unit_ball(2), 5, fields.LEVI_TOL)
        assert v.holds

    def test_neg_sq_norm_violated(self):
        v = check_lower_bound(
            fields.neg_sq_norm(1), zero_omega(1), unit_ball(1), 9, fields.LEVI_TOL)
        assert not v.holds
        assert v.c == pytest.approx(1.0, abs=1e-4)

    def test_quartic_versus_scaled_form(self):
        # d2 |z|^4 / dz dzbar = 4|z|^2 >= 2|z|^2, so the bound holds
        quartic = ScalarField(
            "quartic", 1,
            lambda z: np.sum(np.abs(z) ** 2, axis=-1) ** 2,
            hess=lambda z: (4.0 * np.sum(np.abs(z) ** 2, axis=-1))[:, None, None].astype(complex),
        )
        v = check_lower_bound(quartic, scaled_sq_omega(2.0, 1), unit_ball(1), 9, fields.LEVI_TOL)
        assert v.holds

    def test_pole_in_region(self):
        with pytest.raises(PoleInStencilError):
            check_lower_bound(fields.log_abs(np.zeros(1), 1), zero_omega(1), unit_ball(1), 9, fields.LEVI_TOL)


class TestRegistry:
    def test_round_trip_ids(self):
        for spec, n in [
            ("sq_norm", 1), ("neg_sq_norm", 2), ("saddle:2", 2),
            ("log_abs:[[1.0,0.0]]", 1), ("re_linear:[[2.0,0.0]]", 1),
            ("log1p_sq", 2), ("max_log", 2), ("cross", 2), ("neg_gauss", 1),
        ]:
            phi = get_field(spec, n)
            assert phi.n == n

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown field id"):
            get_field("nope", 1)

    def test_dimension_mismatches_rejected(self):
        for spec in ("saddle:2", "max_log", "cross"):
            with pytest.raises(ValueError, match="dim 2"):
                get_field(spec, 1)
        with pytest.raises(ValueError, match="dimension"):
            get_field("log_abs:[[1.0,0.0]]", 2)
        with pytest.raises(ValueError, match="dimension"):
            get_field("re_linear:[[1.0,0.0]]", 2)

    def test_omegas(self):
        assert np.allclose(get_omega("zero", 2)(np.zeros((1, 2))), 0.0)
        g = get_omega("const:3", 2)(np.zeros((1, 2)))
        assert np.allclose(g[0], 3.0 * np.eye(2))
        g = get_omega("sq:2", 1)(np.array([[1.0 + 1.0j]]))
        assert g[0, 0, 0] == pytest.approx(4.0)

    def test_hermitian_field_validates(self):
        bad = HermitianField(
            2, lambda z: np.broadcast_to(np.array([[0.0, 1.0], [0.0, 0.0]]), (z.shape[0], 2, 2))
        )
        with pytest.raises(ValueError, match="not Hermitian"):
            bad(np.zeros((1, 2)))

    def test_hermitian_deviation_message(self):
        # the deviation is max |g - g^H| over every entry, checked one (j, k) pair at a time
        rng = np.random.default_rng(5)
        g = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
        bad = HermitianField(3, lambda z: g)
        dev = np.max(np.abs(g - g.conj().swapaxes(-1, -2)))
        with pytest.raises(ValueError) as info:
            bad(np.zeros((7, 3)))
        assert str(info.value) == f"coefficient matrix not Hermitian: deviation {dev:.3e}"

    def test_hermitian_deviation_on_diagonal(self):
        g = np.zeros((4, 2, 2), dtype=complex)
        g[2, 1, 1] = 3.0j  # |g_11 - conj(g_11)| = 6
        with pytest.raises(ValueError, match="deviation 6.000e"):
            HermitianField(2, lambda z: g)(np.zeros((4, 2)))

    @pytest.mark.parametrize("omega", [fields.zero_omega(2), fields.scaled_sq_omega(0.5, 2)])
    def test_hermitian_field_on_zero_points(self, omega):
        g = omega(np.zeros((0, 2)))
        assert g.shape == (0, 2, 2)
