"""Minimum-norm least-squares solves via a rank-truncated SVD pseudoinverse.

The Gauss-Newton systems solved here are underdetermined (more weights than
residuals) and often numerically rank deficient, so the step is computed as
the minimum-2-norm solution of the least-squares problem restricted to the
singular directions above a cutoff.

There is one cutoff rule, LAPACK's ``rcond`` semantics (``xGELSD``, and
``np.linalg.lstsq`` / ``np.linalg.pinv``): singular values
sigma <= rcond * sigma_max count as zero and only sigma > rcond * sigma_max
are kept.  rcond defaults to max(rows, cols) * machine epsilon, the
conventional pseudoinverse tolerance; a zero matrix has rank 0.

Every SVD here runs with OpenBLAS limited to one thread.  These SVDs are
most of a solve's time, and at the Gauss-Newton sizes of the default
``SolverConfig`` (smaller side at most 160 on the benchmark problems)
OpenBLAS's thread start-up and synchronisation cost more than the second
core gains.  Median thin SVD of r x 2r on a 2-vCPU x86-64 machine (numpy 2.4,
OpenBLAS 0.3.31), default threads -> one thread:

    ======== ============== ===============
    r x 2r   default (ms)   one thread (ms)
    ======== ============== ===============
    40x80    0.71           0.60
    160x320  20.1           12.5
    320x640  78             62
    480x960  204            164
    ======== ============== ===============

Much larger matrices can be faster on several threads (20000x200: 395 ms on
two, 550 ms on one); no benchmark workload makes them, so they are pinned too.

On HIRES, ROBER, van der Pol (mu=100) and Prothero-Robinson (lam=-1e5) at
the default ``SolverConfig``, seeds 0-2, the pinned solve gives bit for bit
the weights of a solve on two threads (pthreads scipy-openblas64 build,
checked in ``tests/test_blas_threads.py``).  That does not hold for every
matrix: threaded OpenBLAS may split a sum across threads, and a 320x640 or a
20000x200 SVD on two threads differs from the one-thread result in the last
bits.  With the pin, an SVD's result does not depend on the caller's thread
count.  The caller's thread count is restored on exit, also when the SVD
raises, and also when several Python threads solve at once: the first to
enter saves the count, the last to leave restores it, and in between every
BLAS call of the process runs on one thread.  One solve enters the pin from
two threads where it may use two CPUs and its Jacobian is large enough: its
caller and the worker that trains the width rule's failure branch (``solver``).
Changing the BLAS thread count from another Python thread while a solve
runs is not supported: the solve would put back the count it found.

The thread controls are looked up on the first SVD, never at import, through
the extension module that implements ``np.linalg.svd``: the dynamic linker
resolves a symbol through a library's handle by searching the library and its
dependencies, so this finds exactly the BLAS numpy calls, even when another
package has loaded an OpenBLAS of its own.  When numpy is not built on
OpenBLAS (MKL, Accelerate) nothing is found and every SVD runs on the
caller's threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np

from .errors import NumericError, _real

_EPS = float(np.finfo(np.float64).eps)

# (get, set) thread-count symbols, by OpenBLAS build: the scipy-openblas
# wheels numpy ships with (64-bit and 32-bit integers), then plain OpenBLAS.
_THREAD_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for get_name, set_name in _THREAD_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread; restore the count after."""
    global _pin_depth, _pin_saved
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def _as_matrix(a) -> np.ndarray:
    """a as a float matrix; ValueError unless 2-d, NumericError unless finite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix contains non-finite entries")
    return a


def _truncated_svd(a: np.ndarray, rcond: float | None):
    """Thin SVD of a checked matrix on one BLAS thread, and the kept mask.

    The mask keeps sigma > rcond * sigma_max; rcond=None means
    max(rows, cols) * machine epsilon, else rcond is finite and >= 0;
    ValueError for any other value, before the SVD runs.
    """
    if rcond is None:
        rcond = max(a.shape) * _EPS
    else:
        _real("rcond", rcond, "nonnegative")
    try:
        with _one_blas_thread():
            u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    sigma_max = float(s[0]) if len(s) else 0.0
    return u, s, vt, s > rcond * sigma_max


def truncated_pinv_solve(a: np.ndarray, b: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Minimum-norm solution of the rank-truncated least-squares problem.

    Computes x = V_r diag(1/s_r) U_r^T b over the singular triplets with
    s > rcond * s_max (LAPACK's rcond; default max(rows, cols) * machine
    epsilon).  For consistent full-rank systems this is the exact solution;
    otherwise it minimizes the residual over the retained subspace and has
    the smallest 2-norm among all such minimizers.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"b must have shape ({a.shape[0]},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise NumericError("right-hand side contains non-finite entries")
    u, s, vt, keep = _truncated_svd(a, rcond)
    return vt[keep].T @ ((u[:, keep].T @ b) / s[keep])

