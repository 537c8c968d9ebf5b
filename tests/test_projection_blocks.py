"""The block passes of the weighted projection.

extension.weighted_bergman_projection reads its basis through rows(nodes), a
block of bochner.BAND_BLOCK nodes at a time: one pass accumulates the Gram
matrix and the right-hand side, a second forms the residual.  At any block size
its minimal norm equals the whole-basis formula's to 1e-14 relative and its
residual is orthogonal to every basis function; criterion 8 and the README
`dbar` command never hold more than one block of basis values; a basis or Gram
matrix that overflows is a typed refusal; and on a coarse grid the minimal norm
agrees with an 80-digit QR of the same weighted least-squares problem.
"""

import math

import numpy as np
import pytest

from pshlab import acceptance, bochner, cli, dbar1d, extension, fields
from pshlab.dbar1d import _centered_powers
from pshlab.errors import SingularGramError
from pshlab.extension import best_extension_constant, weighted_bergman_projection
from pshlab.geometry import HolomorphicCylinder, QuadratureRule, seeded_frame

from grid_helpers import whole_basis_projection

# a block far smaller than any basis, the constant, and one block for every node
BLOCKS = pytest.mark.parametrize("block", [7, bochner.BAND_BLOCK, 10**9],
                                 ids=["7", "BAND_BLOCK", "one-block"])


def readme_dbar(grid: int, out) -> list:
    return ["dbar", "--weight", "neg_sq_norm", "--psi", "psi_s:[1000, 0.5]", "--rhs", "dbar_nu",
            "--grid", str(grid), "--degree", "10", "--out", str(out)]


def recorded_projections(module, run) -> list:
    """The (u, w, rows) of every projection that run() makes through module's binding,
    and each call's return."""
    calls = []

    def recorded(u, w, rows):
        out = project(u, w, rows)
        calls.append(((u, w, rows), out))
        return out

    project = module.weighted_bergman_projection
    mp = pytest.MonkeyPatch()
    mp.setattr(module, "weighted_bergman_projection", recorded)
    try:
        run()
    finally:
        mp.undo()
    return calls


def best_constant_cases():
    """best_extension_constant at n = 1 and n = 2: (phi, cylinder, degree)."""
    centers = [np.array([0.3 + 0.2j]), np.array([0.3 - 0.2j, -0.1 + 0.4j])]
    return [(fields.neg_sq_norm(1), HolomorphicCylinder(centers[0], seeded_frame(3, 1), 0.7), 8),
            (fields.cross(), HolomorphicCylinder(centers[1], seeded_frame(1, 2), 0.7, 0.9), 6)]


@pytest.fixture(scope="module")
def projections(tmp_path_factory):
    """(u, w, rows) of criterion 8's six projections, the README dbar command's, and
    best_extension_constant's at n = 1 and n = 2."""
    out = tmp_path_factory.mktemp("dbar") / "solve.json"

    def grid_solves():
        assert acceptance.criterion_hormander_ratio(0).passed
        cli.main(readme_dbar(256, out))  # its verdict (the residual gate) is not checked here

    def best_constants():
        for phi, cyl, degree in best_constant_cases():
            best_extension_constant(phi, cyl, degree, QuadratureRule("tensor-grid", 4096, seed=0))

    calls = recorded_projections(dbar1d, grid_solves) + recorded_projections(extension, best_constants)
    assert len(calls) == 9
    return [args for args, _ in calls]


def orthogonality(u, residual, w, basis) -> float:
    """Max over the basis functions v of |sum w conj(v) r| / (|u|_w |v|_w), for r the
    residual of u: relative to u, which r equals to rounding when u is in the span."""
    pair = basis.conj() @ (w * residual)
    u_norm = math.sqrt(float(np.real(np.dot(np.conj(u), w * u))))
    return float(np.max(np.abs(pair) / (u_norm * np.sqrt(np.abs(basis) ** 2 @ w))))


def assert_equals_the_whole_basis_one(u, w, rows):
    residual, coeffs, norm = weighted_bergman_projection(u, w, rows)
    basis = rows(slice(0, u.size))
    want = whole_basis_projection(u, w, basis.T)[2]
    assert residual.shape == u.shape and coeffs.shape == basis.shape[:1]
    assert abs(norm - want) <= 1e-14 * want
    assert norm == pytest.approx(float(np.real(np.dot(np.conj(residual), w * residual))), rel=1e-15)
    assert orthogonality(u, residual, w, basis) <= 1e-13


@BLOCKS
def test_blocked_projection_equals_the_whole_basis_one(block, projections, monkeypatch):
    monkeypatch.setattr(bochner, "BAND_BLOCK", block)
    for u, w, rows in projections:
        assert_equals_the_whole_basis_one(u, w, rows)


@pytest.mark.parametrize("block", [7, bochner.BAND_BLOCK], ids=["7", "BAND_BLOCK"])
@pytest.mark.parametrize("size", ["1", "B-1", "B", "B+1", "3B+5"])
def test_blocked_projection_at_every_block_edge(block, size, monkeypatch):
    monkeypatch.setattr(bochner, "BAND_BLOCK", block)
    m = {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "3B+5": 3 * block + 5}[size]
    rng = np.random.default_rng(m)
    z = rng.uniform(-1.0, 1.0, m) + 1j * rng.uniform(-1.0, 1.0, m)
    w = rng.uniform(0.1, 1.0, m) / m
    u = np.conj(z) * np.exp(z.real) + 0.1 * rng.standard_normal(m)
    assert_equals_the_whole_basis_one(u, w, _centered_powers(z, w, min(4, m - 1)))


def test_no_rows_call_returns_more_than_a_block(monkeypatch, tmp_path):
    # criterion 8 and the README dbar command read each weight's basis in two passes
    # over its live nodes, never more than BAND_BLOCK columns at once
    centred = dbar1d._centered_powers
    reads = []  # (live nodes, the column count of each rows call)

    def recorded(z, w, degree):
        rows, widths = centred(z, w, degree), []
        reads.append((z.size, widths))

        def call(nodes):
            out = rows(nodes)
            widths.append(out.shape[1])
            return out

        return call

    monkeypatch.setattr(dbar1d, "_centered_powers", recorded)
    assert acceptance.criterion_hormander_ratio(0).passed
    cli.main(readme_dbar(256, tmp_path / "solve.json"))
    assert len(reads) == 7
    assert max(m for m, _ in reads) == 65536
    for m, widths in reads:
        assert max(widths) <= bochner.BAND_BLOCK
        assert sum(widths) == 2 * m


@pytest.mark.parametrize("grid", [11, 13])
def test_overflowing_basis_is_refused(grid, tmp_path, capsys):
    # psi_s at s = 1000 is live at 13 (21) nodes of the 11 (13) grid, whose far ones
    # reach |t|^10 (|t|^20) past the double range; this used to warn of an overflow in
    # the powers and the Gram product before "Gram solve is not finite"
    out = tmp_path / "d.json"
    assert cli.main(readme_dbar(grid, out)) == 1
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_gram_is_refused():
    # finite basis values whose squares overflow in the Gram product
    with pytest.raises(SingularGramError, match="Gram matrix overflows"):
        weighted_bergman_projection(np.ones(2), np.ones(2), lambda nodes: np.full((1, 2), 1e200)[:, nodes])


def test_minimal_norm_on_a_coarse_grid_agrees_with_an_80_digit_qr(tmp_path):
    mpmath = pytest.importorskip("mpmath")
    [((u, w, rows), (_, _, norm))] = recorded_projections(
        dbar1d, lambda: cli.main(readme_dbar(32, tmp_path / "solve.json")))
    basis = rows(slice(0, u.size))
    assert u.size == 148
    ctx = mpmath.mp.clone()
    ctx.dps = 80
    root_w = [ctx.sqrt(ctx.mpf(x)) for x in w]
    a = ctx.matrix([[root_w[i] * ctx.mpc(basis[k, i]) for k in range(basis.shape[0])]
                    for i in range(u.size)])
    b = ctx.matrix([root_w[i] * ctx.mpc(u[i]) for i in range(u.size)])
    q, _ = ctx.qr(a, mode="skinny")
    r = b - q * (q.H * b)
    oracle = ctx.fsum(abs(x) ** 2 for x in r)
    assert abs(norm - oracle) <= 1e-8 * oracle
