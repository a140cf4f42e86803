import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracobstacle import Grid, assemble_operator, kernel_constant, solve_linear

from conftest import make_op


# --- kernel constant --------------------------------------------------------

def test_kernel_constant_half_is_cauchy_normalization():
    assert kernel_constant(0.5) == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_kernel_constant_quarter_against_high_precision_gamma():
    # independent evaluation of the same Gamma formula with mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    s = mp.mpf(1) / 4
    expected = float(4**s * mp.gamma(mp.mpf(1) / 2 + s) * s
                     / (mp.sqrt(mp.pi) * mp.gamma(1 - s)))
    assert kernel_constant(0.25) == pytest.approx(expected, abs=1e-12)


def test_kernel_constant_vanishes_as_s_to_zero():
    assert 0.0 < kernel_constant(1e-8) < 1e-7


@pytest.mark.parametrize("s", [0.0, 1.0, -0.3, 2.0])
def test_kernel_constant_rejects_out_of_range(s):
    with pytest.raises(ValueError):
        kernel_constant(s)


# --- grid --------------------------------------------------------------------

def test_grid_nodes_and_spacing():
    g = Grid(0.0, 1.0, 3)
    assert g.h == pytest.approx(0.25)
    np.testing.assert_allclose(g.nodes(), [0.25, 0.5, 0.75])


@pytest.mark.parametrize("a,b,n", [(1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 0),
                                   (0.0, 1.0, -2)])
def test_grid_rejects_bad_construction(a, b, n):
    with pytest.raises(ValueError):
        Grid(a, b, n)


# --- assembly ----------------------------------------------------------------

def test_assembly_closed_forms_at_half():
    # h = 0.5 with two interior nodes on (0, 1.5)
    op = make_op(n=2, s=0.5, a=0.0, b=1.5)
    assert op.grid.h == pytest.approx(0.5)
    assert op.diag == pytest.approx(8.0 / math.pi, rel=1e-14)
    assert op.weights[0] == pytest.approx((8.0 / 3.0) / math.pi, rel=1e-14)


def test_weights_positive_and_strictly_decreasing():
    for s in (0.1, 0.5, 0.9):
        op = make_op(n=40, s=s)
        assert np.all(op.weights > 0)
        assert np.all(np.diff(op.weights) < 0)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("n,a,b", [(2, 0.0, 1.0), (17, -1.0, 3.0), (128, 0.0, 1.0)])
def test_telescoping_identity(s, n, a, b):
    op = make_op(n=n, s=s, a=a, b=b)
    total = math.fsum(op.weights) + float(op.tail(n))
    assert abs(total - op.diag / 2.0) <= 1e-13 * (op.diag / 2.0)


def test_telescoping_holds_for_every_partial_sum():
    op = make_op(n=30, s=0.6)
    for K in range(0, 30):
        total = math.fsum(op.weights[:K]) + float(op.tail(K + 1))
        assert total == pytest.approx(op.diag / 2.0, rel=1e-14)


def test_m_matrix_strict_dominance_with_exterior_margin():
    for s in (0.25, 0.5, 0.75):
        op = make_op(n=12, s=s)
        A = op.dense()
        off = A - np.diag(np.diag(A))
        assert np.all(off <= 0)
        margins = op.diag - np.abs(off).sum(axis=1)
        assert np.all(margins > 0)
        # the exterior mass in row i is tail(i) + tail(n+1-i) >= tail(n)
        assert np.all(margins >= float(op.tail(op.grid.n)) * (1 - 1e-12))
        i = np.arange(1, op.grid.n + 1)
        expected = op.tail(i) + op.tail(op.grid.n + 1 - i)
        np.testing.assert_allclose(margins, expected, rtol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_column_is_readonly_view_of_dense_column(n):
    op = make_op(n=n, s=0.3)
    A = op.dense()
    for i in range(n):
        col = op.column(i)
        np.testing.assert_array_equal(col, A[:, i])
        assert not col.flags.writeable


def test_column_rejects_out_of_range_index():
    op = make_op(n=4)
    for i in (-1, 4):
        with pytest.raises(IndexError):
            op.column(i)


# --- apply ---------------------------------------------------------------------

def test_apply_zero_vector():
    op = make_op(n=7)
    np.testing.assert_array_equal(op.apply(np.zeros(7)), np.zeros(7))


def test_apply_ones_is_positive_everywhere():
    op = make_op(n=25, s=0.3)
    assert np.all(op.apply(np.ones(25)) > 0)


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(0)
    op = make_op(n=8, s=0.5)
    A = op.dense()
    for _ in range(20):
        v = rng.normal(size=8)
        np.testing.assert_allclose(op.apply(v), A @ v, rtol=1e-14, atol=1e-14)


def test_apply_rejects_wrong_length():
    op = make_op(n=6)
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))


@pytest.mark.parametrize("bad", [np.zeros((2, 601)), np.zeros(601)])
def test_strang_solve_checks_its_input_as_apply_does(bad):
    op = make_op(n=600)
    with pytest.raises(ValueError) as want:
        op.apply(bad)
    with pytest.raises(ValueError) as got:
        op.strang_solve(bad)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("b, diag", [(1e-300, "inf"), (1e300, "0.0")])
def test_assembly_rejects_operator_that_over_or_underflows(b, diag):
    with pytest.raises(ValueError, match=f"operator diagonal D = {diag} .* s = 0.9"):
        make_op(n=8, s=0.9, b=b)


def test_fft_path_agrees_with_direct_sum():
    # The FFT matvec at every n against the dense product, down to n = 1
    # (a length-2 FFT).
    rng = np.random.default_rng(1)
    for n in (1, 2, 12, 64, 255, 256):
        op = make_op(n=n, s=0.7)
        A = op.dense()
        for _ in range(5):
            v = rng.normal(size=n)
            direct = A @ v
            assert np.abs(op.apply(v) - direct).max() <= 1e-12 * np.abs(direct).max()


def test_apply_matches_principal_value_integral_on_quadratic():
    # For q(y) = (y-a)(b-y) extended by zero, the order-1/2 operator at the
    # midpoint m has the closed principal value c*[(b-a) + q(m)(1/(m-a) + 1/(b-m))]
    # = 2c(b-a): q'' = -2 makes the interior PV integrand identically 1 and the
    # exterior tails integrate in closed form.  The cell rule reproduces this
    # EXACTLY for every h (the per-cell excess 2ch/(4k^2-1) telescopes against
    # the exterior tail: c(L-2h) + ch - ch/n + cL^2/(L-h) = 2cL), so any error
    # here is a kernel-normalization bug, not discretization error.
    a, b = 0.0, 1.0
    c = kernel_constant(0.5)
    m = 0.5 * (a + b)
    qm = (m - a) * (b - m)
    exact = c * ((b - a) + qm * (1.0 / (m - a) + 1.0 / (b - m)))
    assert exact == pytest.approx(2.0 / math.pi, rel=1e-14)
    for n in (5, 31, 63, 127):
        op = make_op(n=n, s=0.5, a=a, b=b)
        x = op.grid.nodes()
        center = n // 2
        assert x[center] == pytest.approx(m)
        val = op.apply((x - a) * (b - x))[center]
        assert val == pytest.approx(exact, rel=1e-13)


def test_apply_consistent_with_quadrature_oracle_off_center():
    # Away from symmetry there is no exact identity; compare against the
    # analytic principal value of the continuous operator and require the
    # interior error to shrink with h (boundary nodes see the kink of the
    # zero-extension and are excluded).
    a, b, c = 0.0, 1.0, kernel_constant(0.5)
    sup_errors = []
    for n in (31, 63, 127):
        op = make_op(n=n, s=0.5, a=a, b=b)
        x = op.grid.nodes()
        q = (x - a) * (b - x)
        qp = (b + a) - 2.0 * x
        exact = c * ((b - a) - qp * np.log((b - x) / (x - a))
                     + q * (1.0 / (x - a) + 1.0 / (b - x)))
        inner = slice(n // 4, n - n // 4)
        sup_errors.append(np.abs(op.apply(q) - exact)[inner].max())
    assert sup_errors[2] < sup_errors[1] < sup_errors[0]
    assert sup_errors[2] < 1e-3


# Midpoint errors |w(0) - 1| of A w = K on (-1, 1) at n = 255, 1023, 4095.
GETOOR_MIDPOINT_ERRORS = {
    0.25: (1.6e-3, 4.0e-4, 1.0e-4),
    0.5: (2.0e-3, 4.9e-4, 1.2e-4),
    0.75: (3.4e-2, 1.7e-2, 8.6e-3),
    0.9: (3.8e-1, 2.6e-1, 1.9e-1),
}


@pytest.mark.parametrize("s", GETOOR_MIDPOINT_ERRORS)
def test_linear_solve_approaches_getoor_closed_form(s):
    # Getoor (1961): (-Delta)^s (1 - x^2)_+^s = K on (-1, 1).  Every theorem
    # check holds for any M-matrix, so only a continuum identity catches a
    # wrong s, C(1,s) or exterior tail that keeps A an M-matrix.  The
    # midpoint order in h is min(1, 2 - 2s), that of the dropped singular cell.
    K = 2.0 ** (2 * s) * math.gamma(1 + s) * math.gamma(0.5 + s) / math.gamma(0.5)
    errors = []
    for n, expected in zip((255, 1023, 4095), GETOOR_MIDPOINT_ERRORS[s]):
        op = make_op(n=n, s=s, a=-1.0, b=1.0)
        assert op.grid.nodes()[n // 2] == 0.0
        errors.append(abs(solve_linear(op, np.full(n, K))[n // 2] - 1.0))
        assert expected / 2 <= errors[-1] <= 2 * expected
    order = math.log(errors[1] / errors[2]) / math.log(4.0)
    assert order == pytest.approx(min(1.0, 2.0 - 2.0 * s), abs=0.1)


# --- bilinear form and energy ---------------------------------------------------

def test_symmetry_of_bilinear_form():
    rng = np.random.default_rng(2)
    op = make_op(n=20, s=0.4)
    for _ in range(100):
        v, w = rng.normal(size=20), rng.normal(size=20)
        lhs = op.bilinear(v, w)
        rhs = op.bilinear(w, v)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(w)


def test_positive_definiteness():
    rng = np.random.default_rng(3)
    op = make_op(n=15, s=0.6)
    for _ in range(100):
        v = rng.normal(size=15)
        assert op.bilinear(v, v) > 0


def test_energy_zero_vector():
    op = make_op(n=9)
    assert op.energy(np.zeros(9), np.ones(9)) == 0.0


def test_energy_positive_without_forcing():
    rng = np.random.default_rng(4)
    op = make_op(n=9)
    for _ in range(20):
        v = rng.normal(size=9)
        assert op.energy(v, np.zeros(9)) > 0


def test_energy_matches_dense_quadratic_form():
    rng = np.random.default_rng(5)
    op = make_op(n=6, s=0.35)
    A, h = op.dense(), op.grid.h
    for _ in range(20):
        v, f = rng.normal(size=6), rng.normal(size=6)
        expected = 0.5 * h * v @ A @ v - h * f @ v
        assert op.energy(v, f) == pytest.approx(expected, rel=1e-13, abs=1e-15)


# --- spectral bound ----------------------------------------------------------

def test_lambda_max_bound_dominates_rayleigh_quotients():
    rng = np.random.default_rng(6)
    op = make_op(n=30, s=0.55)
    h = op.grid.h
    for _ in range(50):
        v = rng.normal(size=30)
        rayleigh = op.bilinear(v, v) / (h * v @ v)
        assert op.lambda_max_bound() >= rayleigh


def test_lambda_max_bound_dominates_dense_eigenvalue():
    op = make_op(n=8, s=0.5)
    lam = np.linalg.eigvalsh(op.dense()).max()
    assert op.lambda_max_bound() >= lam


def test_lambda_max_bound_closed_form_at_half():
    op = make_op(n=2, s=0.5, a=0.0, b=1.5)
    assert op.lambda_max_bound() == pytest.approx(16.0 / math.pi, rel=1e-14)


# --- truncation inequalities (operator level) ---------------------------------

def test_truncation_pairing_two_node_case():
    op = make_op(n=5, s=0.5)
    h = op.grid.h
    v = np.zeros(5)
    v[0], v[1] = 1.0, -1.0
    vp, vm = np.maximum(v, 0), np.maximum(-v, 0)
    assert op.bilinear(vp, vm) == pytest.approx(-op.weights[0] * h, rel=1e-14)


def test_truncation_pairing_vanishes_for_one_signed_vectors():
    op = make_op(n=6, s=0.5)
    v = np.abs(np.random.default_rng(7).normal(size=6))
    vp, vm = np.maximum(v, 0), np.maximum(-v, 0)
    assert op.bilinear(vp, vm) == 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), s=st.floats(min_value=0.05, max_value=0.95))
def test_truncation_inequalities_hypothesis(data, s):
    n = data.draw(st.integers(min_value=2, max_value=12))
    vals = data.draw(st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=n, max_size=n))
    v = np.asarray(vals)
    # strictness of the cross pairing needs representable products; entries in
    # the subnormal range would make W_1 * v_i+ * v_j- underflow to exactly 0
    v[np.abs(v) < 1e-6] = 0.0
    op = make_op(n=n, s=s)
    vp, vm = np.maximum(v, 0), np.maximum(-v, 0)
    scale = 1.0 + float(v @ v)
    assert op.bilinear(vp, vm) <= 1e-12 * scale
    assert op.bilinear(v, vm) + op.bilinear(vm, vm) <= 1e-12 * scale
    assert op.bilinear(v, vp) - op.bilinear(vp, vp) >= -1e-12 * scale
    if vp.any() and vm.any():
        assert op.bilinear(vp, vm) < 0


def test_level_truncation_energy_inequality():
    rng = np.random.default_rng(8)
    op = make_op(n=14, s=0.45)
    for _ in range(200):
        v = rng.normal(size=14) * 2.0
        m = abs(rng.normal()) + 0.05
        vm = np.minimum(v, m)
        excess = np.maximum(v - m, 0.0)
        lhs = op.bilinear(vm, vm)
        rhs = op.bilinear(v, v) - op.bilinear(excess, excess)
        assert lhs <= rhs + 1e-11 * (1.0 + abs(rhs))
