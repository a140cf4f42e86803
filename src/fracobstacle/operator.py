"""Discrete restricted fractional Laplacian on a uniform 1-D grid.

The operator (-Delta)^s, 0 < s < 1, acts on functions of one variable that
vanish outside a bounded interval (a, b).  It is realized here through the
equivalent singular-integral form

    (-Delta)^s u(x) = C(1,s) * PV int (u(x) - u(y)) |x - y|^(-1-2s) dy,

with the kernel integrated in closed form over grid cells of width h
centered at the nodes (the singular cell |y - x| < h/2 is dropped; for C^2
functions its contribution is O(h^(2-2s))).  The result is a symmetric
Toeplitz matrix with constant diagonal D and positive, strictly decreasing
off-diagonal weights W_k, A_ij = -W_|i-j|.  The zero exterior condition is
exact: exterior nodes never appear as unknowns, their kernel mass enters D
through closed-form tails.  Consequently A is strictly diagonally dominant
with nonpositive off-diagonals, i.e. an M-matrix, and the comparison and
maximum principles of the continuous problem hold exactly in the discrete
setting, not just asymptotically.

All dualities use the h-weighted Euclidean pairing h * v.w so that energies
approximate integrals; A itself is stored unweighted and the weight is
applied at the pairing site.

Only uniform grids are supported.  No discrete counterpart of boundary
irregularity is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gamma, inf, pi, sqrt

import numpy as np

__all__ = [
    "Grid",
    "FracLapOperator",
    "SolverError",
    "IterationLimitError",
    "kernel_constant",
    "assemble_operator",
]

# Iteration budget of each preconditioned conjugate-gradient solve.
PCG_MAX_ITER = 20_000
# Relative residual of each preconditioned conjugate-gradient solve: the
# inverse generators' and the active set's free blocks'.
PCG_TOL = 1e-15


class SolverError(RuntimeError):
    """A solver could not produce a solution meeting its contract."""


class IterationLimitError(SolverError):
    """An obstacle solver hit its budget; best is its best iterate as a
    solvers.Solution.  A conjugate-gradient solve that runs out raises a
    plain SolverError instead."""

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best


def _pcg(matvec, precondition, b: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """Preconditioned conjugate gradients for an SPD system M x = b.

    Stops once the recursively updated residual satisfies
    ||b - M x||_2 <= PCG_TOL ||b||_2.  Starts from x0 when that beats x = 0
    (||b - M x0|| < ||b||), else from 0, and iterates on the system scaled
    by max|b|, so that tiny or huge data neither underflow nor overflow.
    x = 0 solves b = 0, an empty b included.  Raises SolverError, with no
    iterate, after PCG_MAX_ITER iterations.  Both constants are read at
    call time.
    """
    if not b.any():
        return np.zeros_like(b)
    scale = np.abs(b).max()
    b = b / scale
    x, r = np.zeros_like(b), b.copy()
    if x0 is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            y = x0 / scale
            ry = b - matvec(y)
            if np.linalg.norm(ry) < np.linalg.norm(b):
                x, r = y, ry
    stop = PCG_TOL * np.linalg.norm(b)
    for it in range(PCG_MAX_ITER + 1):
        if np.linalg.norm(r) <= stop:
            return x * scale
        if it == PCG_MAX_ITER:
            break
        z = precondition(r)
        if it:
            rz, rz_old = np.dot(r, z), rz
            p = z + (rz / rz_old) * p
        else:
            p, rz = z, np.dot(r, z)
        q = matvec(p)
        alpha = rz / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
    raise SolverError(f"preconditioned conjugate gradients did not reach relative "
                      f"residual {PCG_TOL:g} within {PCG_MAX_ITER} iterations")


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of (a, b) with n interior nodes and zero exterior values.

    Functions on the grid are vectors of length n holding values at the
    interior nodes x_i = a + i*h, i = 1..n, h = (b - a)/(n + 1).  The value
    is 0 at the endpoints and outside them.
    """

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"need b > a, got a={self.a}, b={self.b}")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError(f"interior node count must be a positive integer, got {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        """Interior node coordinates x_i = a + i*h."""
        return self.a + self.h * np.arange(1, self.n + 1)

    def check_vector(self, v) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"grid vector must have shape ({self.n},), got {v.shape}")
        return v

    def check_vectors(self, v) -> np.ndarray:
        """check_vector, or for a 2-D v a (k, n) stack of grid vectors."""
        if np.ndim(v) != 2:
            return self.check_vector(v)
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape[1] != self.n:
            raise ValueError(f"stack of grid vectors must have shape (k, {self.n}), got {v.shape}")
        return v


def kernel_constant(s: float) -> float:
    """Normalization constant C(1,s) of the 1-D singular-integral kernel.

    C(1,s) = 4^s * Gamma(1/2 + s) * s / (sqrt(pi) * Gamma(1 - s)).
    C(1, 1/2) = 1/pi, the Cauchy-kernel normalization.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"order s must lie in (0, 1), got {s}")
    return 4.0**s * gamma(0.5 + s) * s / (sqrt(pi) * gamma(1.0 - s))


@dataclass(frozen=True, eq=False)
class FracLapOperator:
    """Assembled discrete operator: Toeplitz weights, constant diagonal.

    (A v)_i = D v_i - sum_{j != i} W_|i-j| v_j, with

        W_k  = (c_ker / 2s) * [((k - 1/2) h)^(-2s) - ((k + 1/2) h)^(-2s)],
        D    = 2 * tail(1) = (c_ker / s) * (h/2)^(-2s),
        tail(K) = (c_ker / 2s) * ((K - 1/2) h)^(-2s) = sum_{k >= K} W_k.

    The telescoping identity sum_{k<=K} W_k + tail(K+1) = D/2 holds for every
    K >= 0; row dominance is strict with margin tail(i) + tail(n+1-i) > 0
    (the exterior mass).  Instances are immutable after assembly and safely
    shareable across threads; apply/energy are pure and reentrant.

    The stencil behind column() and dense(), the FFT symbol, the Strang
    circulant symbol behind strang_solve() and the inverse generators are
    cached on first use; threads racing on a first use compute identical
    values, so sharing stays safe.  dense(), the oracles' O(n^2) matrix, is
    built anew on each call.
    """

    grid: Grid
    s: float
    c_ker: float
    diag: float
    weights: np.ndarray = field(repr=False)

    def tail(self, K: int | np.ndarray) -> float | np.ndarray:
        """Closed-form remainder sum_{k >= K} W_k."""
        return (self.c_ker / (2.0 * self.s)) * ((np.asarray(K) - 0.5) * self.grid.h) ** (-2.0 * self.s)

    @cached_property
    def _stencil(self) -> np.ndarray:
        # [A_{n-1,0} ... A_{0,0} ... A_{0,n-1}]; A_ji = stencil[n-1+j-i].
        off = -self.weights
        stencil = np.concatenate([off[::-1], [self.diag], off])
        stencil.flags.writeable = False
        return stencil

    def column(self, i: int) -> np.ndarray:
        """Column i of A as a read-only view of the stencil; no copy."""
        n = self.grid.n
        if not 0 <= i < n:
            raise IndexError(f"column index {i} out of range for n={n}")
        return self._stencil[n - 1 - i : 2 * n - 1 - i]

    @cached_property
    def _circulant_symbol(self) -> np.ndarray:
        # Embed the symmetric Toeplitz matrix in a circulant of size 2n.
        col = self.column(0)
        circ = np.concatenate([col, [0.0], col[:0:-1]])
        return np.fft.rfft(circ)

    @cached_property
    def strang_symbol(self) -> np.ndarray:
        """Eigenvalues of the Strang circulant C, read-only, strictly positive.

        C is the n x n circulant whose first column copies the central
        diagonals of A: c_k = A_{k,0} for k <= n/2 and A_{n-k,0} above.  Every
        eigenvalue exceeds D - 2 * sum_{k <= n/2} W_k > D - 2 tail(1) = 0.
        """
        col = self.column(0)
        n = self.grid.n
        k = np.arange(n)
        c = col[np.minimum(k, n - k)]
        symbol = np.fft.rfft(c).real
        symbol.flags.writeable = False
        return symbol

    def strang_solve(self, v) -> np.ndarray:
        """C^{-1} v with the Strang circulant C: one length-n FFT pair.

        v may be a (k, n) stack; the FFT runs along its last axis, and each
        row gets the bits of its own call.  C approximates A closely enough
        that preconditioned conjugate gradients take 6-13 iterations on
        A w = 1 for n up to 16384 and s in [0.05, 0.95].
        """
        v = self.grid.check_vectors(v)
        return np.fft.irfft(np.fft.rfft(v) / self.strang_symbol, self.grid.n)

    @cached_property
    def inverse_generators(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(x_0, rfft(x, 2n), rfft(Z J x, 2n)), read-only, with x = A^{-1} e_0.

        x is the first column of A^{-1}, J reverses and Z shifts down one
        place.  A is symmetric Toeplitz, so these fix its inverse (Gohberg &
        Semencul 1972):

            A^{-1} = (L(x) L(x)^T - L(ZJx) L(ZJx)^T) / x_0,

        L(v) the lower triangular Toeplitz matrix with first column v.  x
        comes from conjugate gradients preconditioned by the Strang
        circulant, to relative residual PCG_TOL.
        """
        n = self.grid.n
        e0 = np.zeros(n)
        e0[0] = 1.0
        x = _pcg(self.apply, self.strang_solve, e0)
        zy = np.concatenate([[0.0], x[:0:-1]])
        gx, gy = np.fft.rfft(x, 2 * n), np.fft.rfft(zy, 2 * n)
        gx.flags.writeable = gy.flags.writeable = False
        return float(x[0]), gx, gy

    def dense(self) -> np.ndarray:
        """Full matrix, C-ordered, gathered from a strided view of the
        stencil whose row i is column(i) (A is symmetric); O(n^2) memory."""
        n = self.grid.n
        return np.lib.stride_tricks.sliding_window_view(self._stencil, n)[::-1].copy()

    def apply(self, v) -> np.ndarray:
        """Matvec A v, or A v_j for each row of a (k, n) stack: the circulant
        embedding of A, one length-2n FFT pair along the last axis.  Each row
        of a stack gets the bits of its own call.
        """
        v = self.grid.check_vectors(v)
        n = self.grid.n
        vhat = np.fft.rfft(v, 2 * n)
        return np.fft.irfft(self._circulant_symbol * vhat, 2 * n)[..., :n]

    def inner(self, v, w) -> float:
        """h-weighted Euclidean pairing, the discrete L^2 product."""
        return float(self.grid.h * np.dot(np.asarray(v, float), np.asarray(w, float)))

    def bilinear(self, v, w) -> float:
        """Energy form <A v, w> with the h-weighted pairing."""
        return self.inner(self.apply(v), w)

    def energy_norm(self, v) -> float:
        """sqrt(h * v.(A v)), the discrete fractional Sobolev seminorm."""
        return sqrt(max(self.bilinear(v, v), 0.0))

    def energy(self, v, f) -> float:
        """Quadratic functional J(v) = (1/2) h v.(A v) - h f.v."""
        v = self.grid.check_vector(v)
        f = self.grid.check_vector(f)
        av = self.apply(v)
        return float(self.grid.h * (0.5 * np.dot(v, av) - np.dot(f, v)))

    def lambda_max_bound(self) -> float:
        """Certified upper bound 2D on the spectral radius (Gershgorin)."""
        return 2.0 * self.diag


def assemble_operator(grid: Grid, s: float) -> FracLapOperator:
    """Assemble the cell-integrated kernel discretization on a grid.

    The off-diagonal weight for nodes k cells apart is the exact integral of
    c |x - y|^(-1-2s) over the source cell; the diagonal collects the total
    kernel mass of everything at distance >= h/2, including the exterior.
    """
    c = kernel_constant(s)
    h = grid.h
    try:
        diag = (c / s) * (h / 2.0) ** (-2.0 * s)
    except OverflowError:
        diag = inf
    if not 0.0 < diag < inf:  # then every W_k <= D/2 is finite too
        raise ValueError(f"operator diagonal D = {diag!r} is not a positive finite "
                         f"number at h = {h!r}, s = {s!r}")
    k = np.arange(1, grid.n, dtype=float)
    weights = (c / (2.0 * s)) * (((k - 0.5) * h) ** (-2.0 * s) - ((k + 0.5) * h) ** (-2.0 * s))
    return FracLapOperator(grid=grid, s=s, c_ker=c, diag=diag, weights=weights)
