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

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import gamma, pi, sqrt

import numpy as np

__all__ = [
    "Grid",
    "FracLapOperator",
    "kernel_constant",
    "assemble_operator",
    "lapack",
    "cholesky_upper",
    "cho_solve",
    "spd_solve",
]

# Matvecs switch to the circulant-embedding FFT path from this size on.
_FFT_MIN_N = 256


@cache
def lapack():
    """scipy's LAPACK extension module (scipy/linalg/_flapack), loaded once.

    The extension is loaded from its file, so scipy/linalg/__init__.py and
    the imports it pulls in (numpy.f2py and numpy.testing among them) are
    not run.  The routines are the ones scipy.linalg calls, so they give
    its bits.  Raises ImportError when the file is missing.
    """
    scipy = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "linalg")
            for d in (scipy and scipy.submodule_search_locations) or ()]
    spec = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {dirs}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cholesky_upper(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of a symmetric a by LAPACK dpotrf, called as
    scipy.linalg.cho_factor calls it (the lower triangle is left as is).

    Raises LinAlgError when a is not positive definite.
    """
    c, info = lapack().dpotrf(a, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrf")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b from the upper Cholesky factor c of a: LAPACK dpotrs as
    scipy.linalg.cho_solve((c, False), b) calls it; b is not overwritten."""
    x, info = lapack().dpotrs(c, b, lower=0)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrs")
    return x


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a principal block a of A, bit for bit what
    scipy.linalg.solve(a, b, assume_a="pos") returns (b / a when 1 x 1).

    scipy's rcond check is left out: by Varah's bound every such block has
    rcond >= 1 / (2 (2n-1)^{2s}) > 1 / (8 n^2).  Raises ValueError for a
    non-finite b and LinAlgError when a is not positive definite.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if a.shape == (1, 1):
        if a[0, 0] == 0.0:
            raise np.linalg.LinAlgError("A singular matrix detected.")
        return b / a[0, 0]
    return cho_solve(cholesky_upper(a), b)


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

    The stencil behind column() and block(), the FFT symbol, the Strang
    circulant symbol behind strang_solve() and the Cholesky factor are
    cached on first use; threads racing on a first use compute identical
    values, so sharing stays safe.
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

        C approximates A closely enough that the preconditioned conjugate
        gradients of solve_linear take 6-13 iterations on A w = 1 for n up
        to 16384 and s in [0.05, 0.95].
        """
        n = self.grid.n
        return np.fft.irfft(np.fft.rfft(v) / self.strang_symbol, n)

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Upper Cholesky factor of dense(), read-only, with the bits of
        scipy.linalg.cho_factor(dense())[0]; O(n^2) memory.  Raises
        ValueError for a non-finite matrix, as cho_factor does."""
        a = self.dense()
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
        c = cholesky_upper(a)
        c.flags.writeable = False
        return c

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """A[np.ix_(rows, cols)] for boolean masks, C-ordered, gathered from
        a strided view of the stencil whose row i is column(i) (A is
        symmetric); no index array of the block's size is built."""
        n = self.grid.n
        view = np.lib.stride_tricks.sliding_window_view(self._stencil, n)[::-1]
        return view[np.ix_(rows, cols)]

    def dense(self) -> np.ndarray:
        """Full matrix, block(all, all); O(n^2) memory."""
        every = np.ones(self.grid.n, dtype=bool)
        return self.block(every, every)

    def apply(self, v) -> np.ndarray:
        """Matvec A v.

        Uses the direct Toeplitz sum below _FFT_MIN_N and circulant-embedding
        FFT from it on; the two agree to 1e-12 relative.
        """
        v = self.grid.check_vector(v)
        if self.grid.n >= _FFT_MIN_N:
            return self._apply_fft(v)
        return self._apply_direct(v)

    def _apply_direct(self, v: np.ndarray) -> np.ndarray:
        n = self.grid.n
        if n == 1:
            return self.diag * v
        w = self.weights
        kern = np.concatenate([w[::-1], [0.0], w])
        offdiag = np.convolve(v, kern)[n - 1 : 2 * n - 1]
        return self.diag * v - offdiag

    def _apply_fft(self, v: np.ndarray) -> np.ndarray:
        n = self.grid.n
        vhat = np.fft.rfft(v, 2 * n)
        return np.fft.irfft(self._circulant_symbol * vhat, 2 * n)[:n]

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
    k = np.arange(1, grid.n, dtype=float)
    weights = (c / (2.0 * s)) * (((k - 0.5) * h) ** (-2.0 * s) - ((k + 0.5) * h) ** (-2.0 * s))
    diag = (c / s) * (h / 2.0) ** (-2.0 * s)
    return FracLapOperator(grid=grid, s=s, c_ker=c, diag=diag, weights=weights)
