"""Structured matrices and transforms: difference-operator covariances, built
from and drawn through their integer factor (applied as running
differences), the dense half-shifted cosine basis that diagonalizes them
exactly, and the whitening transform behind the eigenvalue form of the
Fisher information.  A white signal under the noise I or D D^t is whitened
in closed form by that basis, its data map applied by FFT.

The LAPACK and BLAS routines are scipy's compiled f2py wrappers, the
``scipy.linalg._flapack`` and ``_fblas`` extension modules that
``scipy.linalg.lapack`` and ``.blas`` re-export.  ``_scipy_wrappers`` loads
each from its file on first use, without importing the ``scipy.linalg``
package: that import takes longer than importing numpy and the rest of this
package together, and the spectral and closed-form routes need no LAPACK."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np
from numpy.linalg import LinAlgError

from .model import CONVENTIONS, DELTA_DELTAT, DELTAT_DELTA, DomainError, noise_symbol

NEG_EIG_TOL = 1e-8
# columns of every BLAS-3 panel.  OpenBLAS gives a column of a width-8 panel
# the same bits at every position whatever its neighbours hold, so a vector
# alone and a vector among others agree; at width 16 they do not on the
# SkylakeX kernels (tests/test_linalg.py::test_panel_columns_are_position_independent)
PANEL = 8


def _panel_ranges(count: int) -> list[range]:
    """Consecutive ranges of at most PANEL that cover range(count), in
    order: the columns of each BLAS-3 panel."""
    return [range(lo, min(lo + PANEL, count)) for lo in range(0, count, PANEL)]


_WRAPPERS_LOCK = threading.Lock()


def _scipy_wrappers(name: str) -> ModuleType:
    """scipy's compiled LAPACK (``"_flapack"``) or BLAS (``"_fblas"``)
    wrapper module, ``scipy.linalg.<name>``, the module whose routines
    ``scipy.linalg.lapack`` / ``.blas`` re-export.

    A module already in ``sys.modules`` is returned as it is.  Otherwise the
    extension is loaded from its file next to the ``scipy.linalg`` package,
    after importing only the top-level ``scipy``, and registered under its
    full name, so a later ``import scipy.linalg`` reuses the same module
    object.  The ``scipy.linalg`` package's own import, which loads scipy's
    array API layer and with it ``numpy.f2py`` and ``numpy.testing``, is
    skipped.  The load runs once, under a lock, since threads may call the
    dense routes together."""
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    with _WRAPPERS_LOCK:
        module = sys.modules.get(full)
        if module is None:
            import scipy
            folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
            paths = [os.path.join(folder, name + suffix)
                     for suffix in importlib.machinery.EXTENSION_SUFFIXES]
            path = next((p for p in paths if os.path.isfile(p)), None)
            if path is None:
                raise ImportError(f"no compiled {full}: none of {paths} exists", name=full)
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
    return module


# rows per tile of the in-place symmetrisation, which bounds its temporaries
TILE = 64


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky factorization failed; the matrix is not positive definite."""


def diff_cov(n: int, K: int, tau: float, convention: str = DELTA_DELTAT) -> np.ndarray:
    """Noise covariance tau^2 (D D^t)^K or tau^2 (D^t D)^K with exact
    integer combinatorial entries before the tau^2 scaling.

    The power is banded: away from the ends it is the stencil
    (-1)^m C(2K, K+m), |m| <= K, of (2 - 2 cos)^K, and only the K x K corner
    at each end differs.  The corners come from F F^t over a (4K + 2)-point
    block, F the integer factor of ``_difference_noise`` (which turns the
    identity's rows into F^t).  The block's ends are those of the full
    matrix, and no path of K steps from a corner entry reaches its other
    end; at n <= 4K + 2 the block is the whole matrix.  Every entry is a
    small integer, so the float64 result equals the integer matrix power
    exactly."""
    if convention not in CONVENTIONS:
        raise DomainError(f"convention must be one of {CONVENTIONS}")
    if K == 0:
        out = np.eye(n)
        out *= tau ** 2
        return out
    block = 4 * K + 2
    g = _difference_noise(np.eye(min(n, block)), K, convention)
    corner = g.T @ g
    if n <= block:
        out = corner
    else:
        out = np.zeros((n, n))
        flat = out.reshape(-1)
        for m in range(K + 1):
            c = (-1.0) ** m * math.comb(2 * K, K + m)
            flat[m:(n - m) * n:n + 1] = c     # m-th superdiagonal
            flat[m * n::n + 1] = c            # m-th subdiagonal
        out[:K, :K] = corner[:K, :K]
        out[-K:, -K:] = corner[-K:, -K:]
    out *= tau ** 2     # in place: one n x n array
    return out


def _difference_noise(rows, K: int, convention: str) -> np.ndarray:
    """F v along the last axis of ``rows``, for the integer factor F with
    F F^t exactly ``diff_cov(n, K, 1.0, convention)``.

    Under D D^t, F = (D D^t)^(K // 2) D^(K % 2), applied as K running
    differences, rightmost factor first: D (v_i - v_{i-1}, first entry
    kept) while an odd number of steps is left, D^t (v_i - v_{i+1}, last
    entry kept) while an even number is.  Under D^t D, F is that factor with
    its rows reversed, since reversing the index turns D into D^t.  Each
    step is elementwise along a row, so each row of a batch gets the bits
    of its one-row call."""
    y = np.array(rows, dtype=float)
    for left in range(K, 0, -1):
        # numpy buffers overlapping operands, so each entry reads its
        # neighbour as it was before the step
        if left % 2:
            y[..., 1:] -= y[..., :-1]
        else:
            y[..., :-1] -= y[..., 1:]
    return y[..., ::-1] if convention == DELTAT_DELTA else y


def dct_nodes(n: int) -> np.ndarray:
    """u_i = pi (2i - 1) / (2n + 1), i = 1..n."""
    return np.pi * (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n + 1.0)


def dct_basis(n: int) -> np.ndarray:
    """Orthonormal symmetric cosine basis C_ij = 2/sqrt(2n+1) cos((i-1/2) u_j).

    C diagonalizes D D^t exactly; the row-reversed basis E C diagonalizes
    D^t D, both with eigenvalues 4 sin^2(u_i / 2).  The angle
    pi (2i - 1)(2j - 1) / (4n + 2) is reduced modulo 2 pi in integers, so
    every entry is correct to rounding at any n.  Read-only."""
    odd = 2 * np.arange(1, n + 1, dtype=np.int64) - 1
    turn = 8 * n + 4    # 2 pi in units of pi / (4n + 2)
    basis = 2.0 / np.sqrt(2.0 * n + 1.0) * np.cos(
        np.pi / (4 * n + 2) * (np.outer(odd, odd) % turn))
    basis.flags.writeable = False
    return basis


def _sine_basis(n: int) -> np.ndarray:
    """Orthonormal basis S_ij = 2/sqrt(2n+1) sin(i u_j), which is
    D^t C diag(4 sin^2(u_j / 2))^(-1/2) in closed form: the eigenbasis of
    D^t D in the order of ``dct_nodes``.  The angle is reduced modulo 2 pi
    in integers, as in ``dct_basis``.  Read-only."""
    i = np.arange(1, n + 1, dtype=np.int64)
    turn = 4 * n + 2    # 2 pi in units of pi / (2n + 1)
    basis = 2.0 / np.sqrt(2.0 * n + 1.0) * np.sin(
        np.pi / (2 * n + 1) * (np.outer(i, 2 * i - 1) % turn))
    basis.flags.writeable = False
    return basis


def _tridiagonal_eigenvectors(c: np.ndarray, tau: np.ndarray, d: np.ndarray,
                               e: np.ndarray) -> np.ndarray:
    """Eigenvectors, in descending eigenvalue order, of the symmetric matrix
    that ``dsytrd(lower=1)`` reduced to the tridiagonal (d, e); ``c`` is the
    Fortran-ordered array it returned, with the reflectors below the
    subdiagonal, and ``tau`` their scales.  Read-only, C-ordered.

    The tridiagonal is solved by divide and conquer (LAPACK stevd, the
    method of dsyevd), and its vectors z are mapped back by Q = diag(1, Q'):
    Q' z[1:] is an ormqr over the reflector block c[1:, :n - 1], which is
    what ormtr does for lower storage.  scipy's ormqr takes no leading
    dimension, so the block is copied out once z is gone, and dropped before
    the basis is built: with c, at most three n x n arrays are alive."""
    lapack = _scipy_wrappers("_flapack")
    _, z, info = lapack.dstevd(d, e, compute_v=1)
    if info != 0:
        raise LinAlgError(f"tridiagonal eigenvectors did not converge (LAPACK info {info})")
    n = d.size
    z0, z1 = z[0, ::-1].copy(), np.asfortranarray(z[1:])
    del z
    refl = np.asfortranarray(c[1:, :n - 1])
    lwork = int(lapack.dormqr("L", "N", refl, tau, z1, -1, overwrite_c=1)[1][0])
    z1, _, info = lapack.dormqr("L", "N", refl, tau, z1, lwork, overwrite_c=1)
    del refl
    if info != 0:
        raise LinAlgError(f"eigenvector back-transform failed (LAPACK info {info})")
    basis = np.empty((n, n))
    basis[0] = z0
    basis[1:] = z1[:, ::-1]
    basis.flags.writeable = False
    return basis


@dataclass(frozen=True, eq=False)
class WhitenedSystem:
    """Joint reduction of (Cov(x), Cov(y)): Cov(y) = A^t A with A upper
    triangular, and lam (descending) the eigenvalues of A^-t Cov(x) A^-1
    with orthogonal eigenbasis D.  The data map z -> (A^-1 D)^t z makes the
    transformed noise white and the transformed signal diagonal.

    A is held only as ``a_band``, its upper band in LAPACK band storage:
    a_band[kd + i - j, j] = A[i, j] for the band width kd, shape (kd + 1, n).
    The noise covariance is banded, so kd = min(K, n - 1) and A's entries
    beyond the band are exact zeros; every solve with A, in ``whiten`` and
    in the transform, is a banded one, and the dense A is never rebuilt.
    For Cov(y) = I or D D^t, A is I or D^t in closed form; otherwise it is
    the dense Cholesky factor's band.

    ``lam`` is computed when the system is built.  D is ``basis``: the
    tridiagonal form that gave ``lam`` is kept until ``basis`` is first read,
    which computes D once from it (under a lock, so threads that read it
    together build it once) and then drops the tridiagonal form.  The exact
    Fisher information reads only ``lam`` and never pays for D.  A white
    signal under the noise I or D D^t has the closed-form subclass
    ``_CosineSystem``, which holds no n x n array until ``basis`` is read."""
    a_band: np.ndarray
    lam: np.ndarray
    _tridiagonal: tuple | None = field(repr=False)    # (c, tau, d, e) from dsytrd
    _basis: np.ndarray | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def basis(self) -> np.ndarray:
        """The eigenbasis D, columns in the order of ``lam``; read-only."""
        if self._basis is None:
            with self._lock:
                if self._basis is None:
                    object.__setattr__(self, "_basis", self._eigenvectors())
                    object.__setattr__(self, "_tridiagonal", None)
        return self._basis

    def _eigenvectors(self) -> np.ndarray:
        return _tridiagonal_eigenvectors(*self._tridiagonal)

    def transform(self, z: np.ndarray) -> np.ndarray:
        """(A^-1 D)^t z, with no explicit inverse.  A matrix has each column
        transformed.  The columns go through
        ``_transform_each`` PANEL at a time, a vector as the one live column
        of its panel, so a column's result does not depend on its
        neighbours."""
        z = np.asarray(z, dtype=float)
        cols = z.reshape(z.shape[0], -1)
        out = np.empty(cols.shape)
        for part in _panel_ranges(cols.shape[1]):
            live = slice(part.start, part.stop)
            panel = np.zeros((self.n, PANEL), order="F")
            panel[:, :len(part)] = cols[:, live]
            out[:, live] = self._transform_each(panel)[:, :len(part)]
        return out.reshape(z.shape)

    def _transform_each(self, panel: np.ndarray) -> np.ndarray:
        """(A^-1 D)^t of each column of an n x PANEL Fortran-ordered panel,
        by one banded solve with A^t over the panel (LAPACK tbtrs, O(n kd)
        per column) and one product with D^t (BLAS gemm), so each n x n
        array is read once per panel.  gemm reads ``basis.T``, the Fortran
        view of the C-ordered basis, so no n x n copy is made.

        A is a closed-form or Cholesky factor, so its diagonal is positive
        and the solve cannot fail; non-finite data give non-finite output."""
        w = _scipy_wrappers("_flapack").dtbtrs(self.a_band, panel, uplo="U", trans="T")[0]
        return _scipy_wrappers("_fblas").dgemm(1.0, self.basis.T, w)


@dataclass(frozen=True, eq=False)
class _CosineSystem(WhitenedSystem):
    """The system of a white signal, Cov(x) = gamma_0 I, under the noise
    Cov(y) = I (kd = 0) or D D^t (kd = 1), whose factor A is I or D^t.

    M = gamma_0 (A A^t)^-1 is gamma_0 I or gamma_0 (D^t D)^-1, diagonalised
    exactly by the cosine basis C: lam_j = gamma_0 / s_j^kd with
    s_j = 4 sin^2(u_j / 2), u = ``dct_nodes``, descending as s ascends.  The
    eigenbasis is A C diag(s^(-kd/2)): C itself, or the sine basis S.  So
    the data map (A^-1 D)^t z is diag(s^(-kd/2)) C^t z, with no solve.

    C^t v is the sum of v_k cos(pi p q / (4n + 2)) over the odd p = 2k + 1,
    at q = 2j + 1.  Since 2 p q = p^2 + q^2 - (q - p)^2, it is a chirp
    times the convolution of the chirped v with a chirp kernel (the chirp-z
    form of a DFT): two FFTs of a power of two L >= 2n - 1, one each way,
    whereas the DFT of length 2n + 1 it stands for has that length's prime
    factors (4097 = 17 * 241 at n = 2048).  ``_chirp`` holds the n input
    weights, ``_kernel`` the kernel's L-point FFT over L, ``_post`` the n
    output weights with the scaling folded in.  Each column of a panel is
    transformed alone, so its bits do not depend on its position or its
    neighbours."""
    _chirp: np.ndarray = field(default=None, repr=False)
    _kernel: np.ndarray = field(default=None, repr=False)
    _post: np.ndarray = field(default=None, repr=False)

    def _eigenvectors(self) -> np.ndarray:
        return _sine_basis(self.n) if self.a_band.shape[0] == 2 else dct_basis(self.n)

    def _transform_each(self, panel: np.ndarray) -> np.ndarray:
        """diag(s^(-kd/2)) C^t of each column of an n x PANEL panel: one
        numpy FFT each way over the panel's columns, as the rows of its
        transpose, and O(n) weights.  The inverse FFT runs in place, which
        halves its time: a fresh output is a fresh page-faulted buffer."""
        x = np.fft.fft(panel.T * self._chirp, self._kernel.size, axis=1)
        x *= self._kernel
        np.fft.ifft(x, axis=1, norm="forward", out=x)
        return (x[:, :self.n] * self._post).real.T


def _cosine_system(gamma0: float, n: int, kd: int) -> WhitenedSystem:
    """``_CosineSystem`` of Cov(x) = gamma0 I against Cov(y) = I (kd = 0)
    or D D^t (kd = 1): lam, the band of A and the O(n) FFT weights, with no
    n x n array.  ``whiten`` gives the same system to rounding."""
    u = dct_nodes(n)
    lam = gamma0 / noise_symbol(u, kd, 1.0)
    size = 2 * n + 1
    p = 2 * np.arange(n, dtype=np.int64) + 1
    # exp(-i pi p^2 / (4 size)) and exp(i pi m^2 / size), angles reduced in integers
    chirp = np.exp(-1j * np.pi / (4 * size) * (p * p % (8 * size)))
    m = np.arange(n, dtype=np.int64)
    half = np.exp(1j * np.pi / size * (m * m % (2 * size)))
    # the kernel's lags run over -(n - 1) .. n - 1, so a circular convolution
    # of the smallest power of two >= 2n - 1 points is exact on outputs 0 .. n - 1
    length = 1 << (2 * n - 2).bit_length()
    kernel = np.zeros(length, dtype=complex)
    kernel[:n] = half
    kernel[length - n + 1:] = half[:0:-1]     # the negative lags, wrapped
    kernel = np.fft.fft(kernel) / length
    # 2 / sqrt(size) of C, times s^(-1/2) = 1 / (2 sin(u / 2)) for kd = 1
    scale = 1.0 / (np.sqrt(size) * np.sin(u / 2.0)) if kd else np.full(n, 2.0 / np.sqrt(size))
    a_band, post = _unit_band(n, kd), scale * chirp
    for arr in (a_band, chirp, kernel, post):
        arr.flags.writeable = False
    return _CosineSystem(a_band=a_band, lam=_checked_lam(lam), _tridiagonal=None,
                         _chirp=chirp, _kernel=kernel, _post=post)


def _unit_difference_width(cov_y: np.ndarray) -> int | None:
    """0 if Cov(y) is exactly I, 1 if it is exactly D D^t, else None.

    Their Cholesky factors are exactly the integer I and D^t, since every
    step of the factorisation is sqrt(1), -1 / 1 or sqrt(2 - 1).  A scaled
    noise tau^2 D D^t is not taken: its rounded Cholesky factor differs from
    tau D^t in the last bit, and the band the transform solves with would
    move.  The band is read first, so a mismatch costs O(n)."""
    n = cov_y.shape[0]
    diag = np.diagonal(cov_y)
    if diag[0] != 1.0:
        return None
    if np.all(diag == 1.0):
        return 0 if np.count_nonzero(cov_y) == n else None
    if (np.all(diag[1:] == 2.0) and np.all(np.diagonal(cov_y, 1) == -1.0)
            and np.all(np.diagonal(cov_y, -1) == -1.0)
            and np.count_nonzero(cov_y) == 3 * n - 2):
        return 1
    return None


def _running_sum_reduction(cov_x: np.ndarray, kd: int) -> tuple[np.ndarray, np.ndarray]:
    """(a_band, M) for the noise factor A = I (kd = 0) or A = D^t (kd = 1),
    with no factorisation and no solve.  A^-t = D^-1 is the running sum
    down a column, so M = D^-1 Cov(x) D^-t is a running sum along each row
    of Cov(x), then down each column of that.  Each sum is taken in the
    order the banded solve with A^t takes it, with the same operands, so M
    has the bits the Cholesky route gives.  Rows are summed by row adds in
    place rather than by a strided cumsum down axis 0; M is the one new
    n x n array."""
    n = cov_x.shape[0]
    m = np.empty((n, n))
    if kd == 0:
        m[...] = cov_x
    else:
        np.cumsum(cov_x, axis=1, out=m)
        for i in range(1, n):
            np.add(m[i - 1], m[i], out=m[i])
    return _unit_band(n, kd), m


def _unit_band(n: int, kd: int) -> np.ndarray:
    """Band storage of A = I (kd = 0) or A = D^t (kd = 1)."""
    a_band = np.zeros((kd + 1, n), order="F")
    a_band[kd] = 1.0
    if kd:
        a_band[0, 1:] = -1.0
    return a_band


def _cholesky_reduction(cov_x: np.ndarray, cov_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a_band, M) with A the dense Cholesky factor of Cov(y), of which only
    the band is kept: M = A^-t Cov(x) A^-1 comes from two banded solves
    (LAPACK tbtrs) over n right-hand sides, W = A^-t Cov(x) and then
    A^-t W^t, in O(n^2 kd) rather than O(n^3)."""
    lapack = _scipy_wrappers("_flapack")
    a, info = lapack.dpotrf(np.asarray_chkfinite(cov_y), lower=0, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError("noise covariance is not positive definite")
    n = a.shape[0]
    # band width: the largest j - i with A[i, j] != 0, from each row's last nonzero
    kd = int(np.max(n - 1 - np.argmax(a[:, ::-1] != 0, axis=1) - np.arange(n)))
    a_band = np.zeros((kd + 1, n), order="F")
    for d in range(kd + 1):
        a_band[kd - d, d:] = np.diagonal(a, d)
    del a
    # Cov(x) is symmetric, so its transpose is the same matrix in Fortran order
    w = lapack.dtbtrs(a_band, cov_x.T, uplo="U", trans="T")[0]
    return a_band, lapack.dtbtrs(a_band, w.T, uplo="U", trans="T")[0]


def _symmetrize(m: np.ndarray) -> None:
    """m = (m + m^t) / 2 in place, TILE x TILE tiles at a time, so no
    n x n temporary is made; each entry gets the bits 0.5 * (m + m.T) gives."""
    n = m.shape[0]
    for i in range(0, n, TILE):
        for j in range(0, i + 1, TILE):
            lower, upper = m[i:i + TILE, j:j + TILE], m[j:j + TILE, i:i + TILE]
            s = lower + upper.T
            s *= 0.5
            lower[...] = s
            if i != j:
                upper[...] = s.T


def _reduce(a_band: np.ndarray, m: np.ndarray) -> WhitenedSystem:
    """The system from the band of A and M = A^-t Cov(x) A^-1, which it
    symmetrises and overwrites.  M is reduced once to tridiagonal form
    (LAPACK sytrd, in place); its eigenvalues ``lam`` come from that form at
    once (sterf), and the eigenvectors only if ``basis`` is read, from
    sytrd's output c as it is, the reflectors below its subdiagonal."""
    _symmetrize(m)
    n = m.shape[0]
    if n == 1:
        # sytrd and sterf reject an empty off-diagonal
        lam, tridiagonal, basis = m[0].copy(), None, np.ones((1, 1))
        basis.flags.writeable = False
    else:
        # m is symmetric, so whichever of m and m.T is Fortran-ordered is it,
        # and sytrd reduces it in place; the default workspace of n would
        # leave sytrd unblocked
        lapack = _scipy_wrappers("_flapack")
        lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
        c, d, e, tau, info = lapack.dsytrd(m if m.flags.f_contiguous else m.T, lower=1,
                                           lwork=lwork, overwrite_a=1)
        if info != 0:
            raise LinAlgError(f"tridiagonal reduction failed (LAPACK info {info})")
        lam, info = lapack.dsterf(d, e)
        if info != 0:
            raise LinAlgError(f"eigenvalues did not converge (LAPACK info {info})")
        lam = lam[::-1].copy()
        tridiagonal, basis = (c, tau, d, e), None
    a_band.flags.writeable = False
    return WhitenedSystem(a_band=a_band, lam=_checked_lam(lam), _tridiagonal=tridiagonal,
                          _basis=basis)


def _checked_lam(lam: np.ndarray) -> np.ndarray:
    """The descending eigenvalues lam, clipped at 0 in place and made
    read-only; NotPositiveDefiniteError if lam_1 < 0, or if the least is
    below -NEG_EIG_TOL * lam_1."""
    if lam[0] < 0:
        raise NotPositiveDefiniteError("whitened signal covariance is negative definite")
    if lam[-1] < -NEG_EIG_TOL * max(lam[0], 0.0):
        raise NotPositiveDefiniteError(
            f"whitened signal covariance has eigenvalue {lam[-1]:.3e} below "
            f"-{NEG_EIG_TOL:g} * lambda_1")
    np.clip(lam, 0.0, None, out=lam)
    lam.flags.writeable = False
    return lam


def whiten(cov_x: np.ndarray, cov_y: np.ndarray) -> WhitenedSystem:
    """Whitening transform for a PSD signal covariance against a positive
    definite noise covariance.  The inputs are left as they are; the
    returned arrays are read-only, because the system is shared through the
    ``whitened_system`` cache.

    The noise factor A is taken in closed form when Cov(y) is exactly I or
    D D^t (K = 0, or K = 1 under D D^t, at tau = 1): A = I or D^t, and M =
    A^-t Cov(x) A^-1 is a pair of running sums.  Any other Cov(y) is
    factorised densely by Cholesky, and M comes from two banded solves with
    the factor's band.  Both routes give the same bits where both apply.
    Counting the two inputs, whitening peaks at three n x n arrays on the
    closed-form route and four on the Cholesky route.  For a white signal
    under the noise I or D D^t this is the dense reference of the system
    ``fisher.whitened_system`` builds in closed form."""
    cov_x = np.asarray(cov_x, dtype=float)
    cov_y = np.asarray(cov_y, dtype=float)
    kd = _unit_difference_width(cov_y)
    if kd is None:
        return _reduce(*_cholesky_reduction(cov_x, cov_y))
    return _reduce(*_running_sum_reduction(cov_x, kd))
