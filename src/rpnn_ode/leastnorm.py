"""Minimum-norm least-squares solves via a rank-truncated SVD pseudoinverse.

The Gauss-Newton systems solved here are underdetermined (more weights than
residuals) and often numerically rank deficient, so the step is computed as
the minimum-2-norm solution of the least-squares problem restricted to the
singular directions above a cutoff.

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
BLAS call of the process runs on one thread.  Changing the BLAS thread
count from another Python thread while a solve runs is not supported: the
solve would put back the count it found.

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
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_EPS = float(np.finfo(np.float64).eps)

# (get, set) thread-count symbols, by OpenBLAS build: the scipy-openblas
# wheels numpy ships with (64-bit and 32-bit integers), then plain OpenBLAS.
_THREAD_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


@dataclass(frozen=True)
class TruncationRule:
    """Singular-value cutoff policy.

    mode "relative": cutoff = epsilon * sigma_max, with epsilon defaulting to
    max(rows, cols) * machine epsilon when left unset (the conventional
    default pseudoinverse tolerance).  mode "absolute": cutoff = epsilon.
    Singular values strictly above the cutoff are kept; a zero matrix
    therefore has effective rank 0 under either mode.
    """

    mode: str = "relative"
    epsilon: float | None = None

    def __post_init__(self):
        if self.mode not in ("relative", "absolute"):
            raise ValueError(f"mode must be 'relative' or 'absolute', got {self.mode!r}")
        if self.epsilon is None:
            if self.mode == "absolute":
                raise ValueError("absolute mode requires an explicit epsilon")
        elif self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")

    def cutoff(self, shape: tuple[int, int], singular_values: np.ndarray) -> float:
        if self.mode == "absolute":
            return float(self.epsilon)
        rel = max(shape) * _EPS if self.epsilon is None else self.epsilon
        sigma_max = float(singular_values[0]) if len(singular_values) else 0.0
        return rel * sigma_max


DEFAULT_TRUNCATION = TruncationRule()


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


def _svd(a: np.ndarray):
    """Thin SVD of a checked matrix, on one BLAS thread."""
    try:
        with _one_blas_thread():
            return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc


def truncated_pinv_solve(a: np.ndarray, b: np.ndarray, rule: TruncationRule = DEFAULT_TRUNCATION) -> np.ndarray:
    """Minimum-norm solution of the rank-truncated least-squares problem.

    Computes x = V_r diag(1/s_r) U_r^T b where only singular triplets with
    s > cutoff are retained.  For consistent full-rank systems this is the
    exact solution; otherwise it minimizes the residual over the retained
    subspace and has the smallest 2-norm among all such minimizers.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"b must have shape ({a.shape[0]},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise NumericError("right-hand side contains non-finite entries")
    u, s, vt = _svd(a)
    keep = s > rule.cutoff(a.shape, s)
    if not np.any(keep):
        return np.zeros(a.shape[1])
    return vt[keep].T @ ((u[:, keep].T @ b) / s[keep])


def effective_rank(a: np.ndarray, rule: TruncationRule = DEFAULT_TRUNCATION) -> int:
    """Number of singular values above the rule's cutoff."""
    a = _as_matrix(a)
    _, s, _ = _svd(a)
    return int(np.count_nonzero(s > rule.cutoff(a.shape, s)))
