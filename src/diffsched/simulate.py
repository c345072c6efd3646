"""Time-domain Monte Carlo of the reverse process with the exact denoiser.

This is the independent oracle for the closed-form spectral results: it runs
the sampler as dense affine steps on the original coordinates and never
touches the eigenbasis shortcut.

Reproducibility: samples are drawn in blocks of ``_STREAM_ROWS = 64``
consecutive indices, and block ``b = i // 64`` has its own counter-based RNG
stream: Philox keyed by the seed, counter offset ``b << 128``.  Standard
normals come from numpy's ``Generator.standard_normal`` on that stream, and
fill the block's rows in order, ``d`` per sample: sample ``i`` is row
``i % 64``.  A stream's first normals do not depend on how many are drawn,
so sample ``i`` depends only on ``(seed, i)`` and ``d``.  The Philox bits
are fixed by the algorithm; the normal sampler's stream follows numpy's
NEP 19 policy, as ``Generator.random``'s does.

Both samplers are affine in Gaussian draws, so their output is Gaussian.
``compose_affine`` folds the dense per-step maps, taken one at a time from
``_dense_steps``, into one ``d x d`` factor ``F`` and an offset, and a
sample is ``x_0 = F z + offset`` with ``z`` its row of ``d`` normals.  Each
step's gain and offset come from one LU solve against ``[C | mean]``.  For
ddim, ``F`` is the composed map itself, and its bytes differ from a
per-step loop by rounding only.  For ddpm, ``F F^T`` is the output
covariance of the per-step process, noise included, so the samples have its
exact law without drawing its per-step noise path; ``F`` is folded by one
QR per three steps over a preallocated stack.

Samples are drawn in chunks of a whole number of blocks.  Chunk starts are
claimed from one iterator under a lock, and each drawn chunk joins one
queue.  ``simulate_reverse`` starts one helper thread that claims chunks
and draws their normals straight into the output array while the calling
thread runs ``compose_affine``; both release the interpreter lock in
numpy's RNG and LAPACK calls.  Once ``F`` is ready, the calling thread maps
queued chunks in whatever order they were drawn, each in place with one
``(rows, d) @ (d, d)`` product.  While the queue is empty it claims and
draws a chunk itself rather than wait, and it joins the helper only once
every chunk is claimed.  Each chunk resets one Philox's counter to each
block's ``b << 128`` in turn and draws the block's normals into the chunk's
rows, so the bytes depend neither on which thread drew a chunk nor on when
it is mapped.  The output holds whole chunks, zero past the sample count,
and the last chunk draws only its own rows, so every sample passes through
the same matrix-product shapes at the same row position and its bytes do
not depend on the sample count.  An error in the fold, a map or a draw, in
either thread, stops further claims and is raised in the caller once the
helper is joined.

For the whole call numpy's bundled OpenBLAS runs on one thread: its thread
count is set to 1 through ``ctypes`` and restored afterwards, under one lock,
so concurrent calls take turns.  That keeps an idle BLAS worker from
spinning on a CPU the helper needs, and makes the bytes independent of the
BLAS thread count (tests check ddpm at ``d = 7`` and ``d = 50`` and ddim at
``d = 200`` under one and two threads).  The count is process-wide, so other
threads' BLAS calls run on one thread meanwhile, and a large-``d`` fold loses
the threads it had.  Where the wheel's OpenBLAS exports no thread-count
symbol, the same code runs unpinned (``blas_pinned`` says which), and large-``d``
bytes may then depend on the BLAS thread count.
"""

from __future__ import annotations

import collections
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Schedule,
    _require_finite,
    _require_integer,
    _require_process,
    _step_coefficients,
)

__all__ = [
    "DenseGaussian",
    "SimConfig",
    "simulate_reverse",
]

SYMMETRY_TOL = 1e-12
# A negative eigenvalue within this many ``d * eps`` of the largest
# |eigenvalue| is rounding: a dense covariance is refused below it, and an
# estimate's is clamped to zero above it without a warning.
_ROUNDING_SLACK = 4

# Normals drawn per chunk, d per sample: a chunk is about this // d rows.
# Fewer make small matrix products; many more spill the chunk out of cache.
_CHUNK_NORMALS = 2**18
_STREAM_ROWS = 64  # consecutive samples that share one Philox stream
_WORD = 2**64 - 1  # mask of one of Philox's four 64-bit counter words
# ddpm's fold runs one QR per this many steps.  More steps per QR make the
# stack larger: at d = 64, S = 200 the fold peaks near 15.5 d^2 doubles with
# 3 and 17.5 with 4, over the memory bound its test sets.
_QR_BLOCK = 3

# numpy >= 2 wheels, then numpy 1.26 wheels: (get, set) of the thread count.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)
_BLAS_LOCK = threading.Lock()


def _chunk_rows(d: int) -> int:
    """Rows per chunk at ``d`` normals a row: a whole number of stream blocks."""
    return max(_STREAM_ROWS, (_CHUNK_NORMALS // d) // _STREAM_ROWS * _STREAM_ROWS)


@dataclass
class DenseGaussian:
    """Gaussian in original coordinates: mean vector and dense covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        _require_finite(self.mean, "mean")
        _require_finite(self.covariance, "covariance")
        if self.mean.ndim != 1:
            raise ValueError("mean must be a vector")
        d = len(self.mean)
        if self.covariance.shape != (d, d):
            raise ValueError(
                f"covariance shape {self.covariance.shape} does not match mean length {d}"
            )
        asym = np.max(np.abs(self.covariance - self.covariance.T))
        if asym > SYMMETRY_TOL * np.max(np.abs(self.covariance)):
            raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.3e})")

    @property
    def dim(self) -> int:
        return len(self.mean)


@dataclass
class SimConfig:
    process: str
    samples: int
    seed: int
    schedule: Schedule

    def __post_init__(self):
        _require_process(self.process)
        _require_integer(self.samples, "samples", 1)
        _require_integer(self.seed, "seed", 0, bits=128)


def _sample_stream_normals(seed: int, index: int, count: int) -> np.ndarray:
    """Sample ``index``'s ``count`` normals: one row of ``_chunk_stream_normals``."""
    return _chunk_stream_normals(seed, index, 1, count)[0]


def _chunk_stream_normals(
    seed: int, start: int, rows: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The ``count`` normals of each sample ``i`` in ``start..start+rows-1``.

    Block ``b``'s stream fills its 64 rows of ``count`` in order, so a
    sample's normals depend on ``count``.  One Philox serves the whole
    chunk.  Before each block its counter words are set to ``b << 128`` with
    an empty output buffer, the state a fresh ``Philox(key=seed, counter=b
    << 128)`` starts in, and the block's rows are drawn in one call; rows of
    a block before ``start`` are drawn and dropped.  The normals go into
    ``out`` (shape ``(rows, count)``, C order), allocated when not given.
    Returns ``out``.
    """
    if out is None:
        out = np.empty((rows, count))
    bits = np.random.Philox(key=seed)
    state = bits.state  # a fresh generator's: buffer_pos 4, nothing buffered
    counter = state["state"]["counter"]
    gen = np.random.Generator(bits)
    stop = start + rows
    for block in range(start // _STREAM_ROWS, -(-stop // _STREAM_ROWS)):
        first = block * _STREAM_ROWS
        lo, hi = max(start, first), min(stop, first + _STREAM_ROWS)
        counter[2], counter[3] = block & _WORD, block >> 64
        bits.state = state
        if lo > first:
            gen.standard_normal((lo - first) * count)
        gen.standard_normal(out=out[lo - start : hi - start])
    return out


def _rounding_level(eigenvalues: np.ndarray) -> float:
    """How far below zero rounding alone puts an eigenvalue of this spectrum."""
    return _ROUNDING_SLACK * len(eigenvalues) * np.finfo(float).eps * np.max(np.abs(eigenvalues))


def _check_psd(covariance: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(covariance)
    if eigs[0] < -_rounding_level(eigs):
        raise ValueError(f"covariance is not PSD (smallest eigenvalue {eigs[0]:.3e})")


def _dense_steps(
    target: DenseGaussian, alpha_bar: np.ndarray, a: np.ndarray, b: np.ndarray, order
):
    """Yield the dense affine map ``(W_s, o_s)`` of each step ``s`` in ``order``.

    Step ``s`` maps state ``s + 1`` to ``s`` via ``x <- W_s x + o_s (+ c_s z)``;
    ``a`` and ``b`` are ``_step_coefficients``'.  One step at a time, so a
    fold over the steps never holds more than one of them.
    """
    d = target.dim
    eye = np.eye(d)
    rhs = np.column_stack([target.covariance, target.mean])  # one LU solves both
    for s in order:
        ab_s = alpha_bar[s + 1]
        shifted = ab_s * target.covariance + (1.0 - ab_s) * eye
        wiener = np.linalg.solve(shifted, rhs)
        gain = a[s] * eye + b[s] * np.sqrt(ab_s) * wiener[:, :d]
        yield gain, b[s] * (1.0 - ab_s) * wiener[:, d]


def compose_affine(
    target: DenseGaussian, schedule: Schedule, process: str
) -> tuple[np.ndarray, np.ndarray]:
    """The whole sampler as ``x_0 = F @ z + offset``, ``z`` of ``d`` normals.

    Step ``s`` maps state ``s + 1`` to ``s``, for ``s = S-1, ..., 0``.  The
    fold runs from the clean end: with ``P_0 = I`` and ``P_{s+1} = P_s W_s``,
    ``x_0 = P_S x_S + sum_s c_s P_s z_s + offset`` with ``offset = sum_s P_s
    o_s``.  ddim has no noise, so ``F = P_S``.  ddpm's output is Gaussian with
    covariance ``C = P_S P_S^T + sum_s c_s^2 P_s P_s^T``, and ``F`` is one
    ``d x d`` factor with ``F F^T = C``: the same law as the per-step noise
    path, from ``d`` draws instead of ``(S + 1) d``.

    ``F`` is folded by QR: a running upper-triangular ``R`` with ``R^T R``
    the noise covariance so far.  Each step's rows ``c_s P_s^T`` are written
    below ``R`` into one preallocated stack of ``_QR_BLOCK + 1`` blocks of
    ``d`` rows, and whenever the stack is full ``R`` is replaced by its R:
    after the first time, once every ``_QR_BLOCK`` steps.  The last QR is
    that of ``[R; pending rows; P_S^T]``, and ``F = R^T``.  QR never forms
    ``C``, so it does not square ``C``'s condition number, and it needs no
    rule for a singular ``C``, where Cholesky of ``C`` would fail.  Refuses a
    covariance that is not positive semidefinite.
    """
    _check_psd(target.covariance)
    a, b, c2 = _step_coefficients(schedule.alpha_bar, process)
    d, S = target.dim, len(a)
    prefix = np.eye(d)
    offset = np.zeros(d)
    if c2 is not None:
        # [R; _QR_BLOCK steps' rows]; before the first QR, steps' rows only.
        stack = np.empty(((_QR_BLOCK + 1) * d, d))
        top = 0
    for s, (gain, off) in enumerate(_dense_steps(target, schedule.alpha_bar, a, b, range(S))):
        offset += prefix @ off
        if c2 is not None:
            np.multiply(np.sqrt(c2[s]), prefix.T, out=stack[top : top + d])
            top += d
            if top == len(stack):
                stack[:d] = np.linalg.qr(stack[:top], mode="r")
                top = d
        prefix = prefix @ gain
    if c2 is None:
        return prefix, offset
    stack[top : top + d] = prefix.T
    return np.linalg.qr(stack[: top + d], mode="r").T, offset


@functools.cache
def _blas_thread_api():
    """``(get, set)`` of the OpenBLAS bundled in numpy's wheel, or ``None``.

    Looked up once, in the wheel's library directories only (``numpy.libs``
    beside the package, ``numpy/.dylibs``), under the names numpy >= 2
    (``scipy_openblas_*``) and numpy 1.26 (``openblas_*``) export.
    """
    import ctypes
    from pathlib import Path

    package = Path(np.__file__).parent
    for directory in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(directory.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get_name, set_name in _BLAS_THREAD_SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def blas_pinned() -> bool:
    """Whether ``simulate_reverse`` runs numpy's OpenBLAS on one thread here."""
    return _blas_thread_api() is not None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the previous count.

    The count is process-wide: one lock spans the save and the restore, so
    concurrent callers take turns.  Without the symbols the body runs as is.
    """
    api = _blas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    with _BLAS_LOCK:
        before = get()
        set_(1)
        try:
            yield
        finally:
            set_(before)


def simulate_reverse(target: DenseGaussian, cfg: SimConfig) -> np.ndarray:
    """Draw ``cfg.samples`` outputs of the reverse process, shape (n, d).

    Both samplers fold all steps into one ``d x d`` factor and an offset
    (``compose_affine``), applied to each sample's ``d`` normals as one
    matrix product per chunk of samples.  A helper thread draws chunks of
    normals into the output while this thread folds; then this thread maps
    drawn chunks in any order, drawing unclaimed ones itself rather than
    wait, each chunk at the full shape: the output holds whole chunks, zero
    past ``n``.  The call runs numpy's OpenBLAS on one thread where it can
    (``blas_pinned``).  Sample ``i`` depends only on ``(seed, i)`` and ``d``.
    """
    d = target.dim
    n = cfg.samples
    rows = _chunk_rows(d)
    out = np.empty((-(-n // rows) * rows, d))  # whole chunks
    out[n:] = 0.0
    starts = iter(range(0, n, rows))
    claim = threading.Lock()
    drawn = collections.deque()  # starts of drawn chunks, not yet mapped
    errors: list[BaseException] = []

    def draw_next() -> bool:
        """Claim and draw the next chunk; ``False`` once none is left or on any error."""
        with claim:
            start = None if errors else next(starts, None)
        if start is None:
            return False
        m = min(rows, n - start)
        try:
            _chunk_stream_normals(cfg.seed, start, m, d, out[start : start + m])
        except BaseException as exc:  # raised in the calling thread after the join
            errors.append(exc)
            return False
        drawn.append(start)
        return True

    def draw_all() -> None:
        while draw_next():
            pass

    with _one_blas_thread():
        helper = threading.Thread(target=draw_all, name="diffsched-draws")
        helper.start()
        try:
            F, offset = compose_affine(target, cfg.schedule, cfg.process)
            tmp = np.empty((rows, d))
            while not errors:
                if not drawn and not draw_next():
                    helper.join()  # nothing left to claim: wait for the helper's last chunk
                    if not drawn:
                        break
                start = drawn.popleft()
                chunk = out[start : start + rows]
                np.matmul(chunk, F.T, out=tmp)
                np.add(tmp, offset, out=chunk)
        except BaseException as exc:  # a fold or map error stops the claims too
            errors.append(exc)
        helper.join()
    if errors:
        raise errors[0]
    return out[:n]

