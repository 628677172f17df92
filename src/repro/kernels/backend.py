"""Compiled-backend resolution for the kernel tier.

Two interchangeable implementations of the block primitives
(``viterbi_block`` — branch-major ACS over a trellis stage-block,
returning its first all-0̄ row; ``banded_block`` — banded alignment
rows with the left-gap prefix scan; ``traceback`` — the backward walk
over a contiguous predecessor block), in preference order:

1. **cc** — the embedded C source below compiled on first use with the
   system C compiler (``-O2``, *never* ``-ffast-math``) and loaded via
   ``ctypes``.  Build artifacts are cached on disk keyed by a source
   hash; concurrent builders race benignly through ``os.replace``.
2. **numpy** — no compiled primitives; kernels fall back to their
   blocked pure-NumPy paths (still several stages per Python dispatch)
   and :func:`traceback` to a Python loop.

``REPRO_KERNEL_BACKEND`` (``cc`` / ``numpy``) pins the choice for tests
and CI; an unavailable or unrecognized pin resolves to ``numpy``, never
to an error — the tier degrades, it does not fail.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Backend", "get_backend", "reset_backend_cache", "traceback"]

#: The block primitives of the cc build.  Plain IEEE double arithmetic;
#: tie-breaking matches the dense kernels exactly (Viterbi: branch 0 on
#: equal candidates = NumPy argmax; banded: diagonal wins ties, scan
#: keeps the earliest running max).
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Viterbi stage-block: branch-major ACS.
   v0: (S,) input; M: (k, 2S) branch metrics; perm: (2S,) predecessor
   permutation; pred0: (S,) branch-0 predecessor states (branch 1 is
   pred0+1, asserted at plan time).  out_s: (k, S); out_p: (k, S).
   Returns the first row whose entries are all -inf, or -1. */
int64_t viterbi_block(const double *v0, const double *M, const int64_t *perm,
                      const int64_t *pred0, int64_t k, int64_t S,
                      double *out_s, int64_t *out_p)
{
    const double *vin = v0;
    int64_t zero_row = -1;
    for (int64_t t = 0; t < k; t++) {
        const double *m = M + t * 2 * S;
        double *os = out_s + t * S;
        int64_t *op = out_p + t * S;
        int64_t live = 0;
        for (int64_t s = 0; s < S; s++) {
            double c0 = vin[perm[s]] + m[s];
            double c1 = vin[perm[S + s]] + m[S + s];
            /* Branch-free select (compiled to a conditional move, so
               no mispredicts on noisy metrics); ties keep branch 0. */
            int64_t gt = c1 > c0;
            double best = gt ? c1 : c0;
            os[s] = best;
            op[s] = pred0[s] + gt;
            live |= best != -INFINITY;
        }
        if (!live && zero_row < 0) zero_row = t;
        vin = os;
    }
    return zero_row;
}

/* Traceback over a contiguous predecessor block P: (k, W).  Walks rows
   k-1 .. 0 from index x (x = P[r][x]; out[r] = x).  With ref, stops at
   the first row whose entry equals ref[r] and returns that row; returns
   -1 after a full walk and -2 on an index outside the block. */
int64_t traceback(const int64_t *P, int64_t k, int64_t W, int64_t x,
                  const int64_t *ref, int64_t *out)
{
    for (int64_t r = k - 1; r >= 0; r--) {
        if (x < 0 || x >= W) return -2;
        x = P[r * W + x];
        out[r] = x;
        if (ref && ref[r] == x) return r;
    }
    return -1;
}

/* Banded alignment stage-block (LCS / NW, linear gaps).
   Geometry per row r (int64, stride 8):
     [0] W    output band width
     [1] u0   up-move slice start in the output band
     [2] u1   up-move slice stop (exclusive)
     [3] us0  up-move source start in the input band
     [4] d0   diag-move slice start in the output band
     [5] d1   diag-move slice stop (exclusive)
     [6] vs0  diag-move source start in the input band
     [7]      pad (alignment)
   MS: (k, Wmax) match scores, row r valid on [d0, d1).
   Outputs are (k, Wmax) row-major padded; entry / epred are one
   (Wmax,) scratch row each, reused by every row. */
void banded_block(const double *v0, int64_t k, int64_t Wmax,
                  const int64_t *geom, const double *MS,
                  double gu, double g, double neg_inf,
                  double *out_s, int64_t *out_p,
                  double *entry, int64_t *epred)
{
    const double *vin = v0;
    for (int64_t r = 0; r < k; r++) {
        const int64_t *gm = geom + r * 8;
        int64_t W = gm[0], u0 = gm[1], u1 = gm[2], us0 = gm[3];
        int64_t d0 = gm[4], d1 = gm[5], vs0 = gm[6];
        const double *ms = MS + r * Wmax;
        for (int64_t j = 0; j < W; j++) { entry[j] = neg_inf; epred[j] = 0; }
        for (int64_t j = u0; j < u1; j++) {
            entry[j] = vin[us0 + (j - u0)] - gu;
            epred[j] = us0 + (j - u0);
        }
        for (int64_t j = d0; j < d1; j++) {
            double dv = vin[vs0 + (j - d0)] + ms[j];
            if (dv >= entry[j]) { entry[j] = dv; epred[j] = vs0 + (j - d0); }
        }
        double *os = out_s + r * Wmax;
        int64_t *op = out_p + r * Wmax;
        double cm = 0.0;
        int64_t es = 0;
        for (int64_t j = 0; j < W; j++) {
            double gj = g * (double)j;
            double t = entry[j] + gj;
            if (j == 0) { cm = t; es = 0; }
            else if (t > cm) { cm = t; es = j; }
            os[j] = cm - gj;
            op[j] = epred[es];
        }
        vin = os;
    }
}
"""

@dataclass(frozen=True)
class Backend:
    """Resolved block primitives; ``None`` entries mean pure-NumPy."""

    kind: str  # "cc" | "numpy"
    viterbi_block: object = None
    banded_block: object = None
    traceback: object = None


def _ptr(a: np.ndarray | None) -> int | None:
    """Data address for a ``c_void_p`` argument (``None`` is NULL).

    A plain address instead of ``data_as``: the wrappers below keep
    every array alive in a parameter or local for the whole call, and
    the address costs a third of a typed pointer per argument.
    """
    return None if a is None else a.ctypes.data


def _wrap_cc(lib: ctypes.CDLL) -> Backend:
    P, I, D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    cvb = lib.viterbi_block
    cvb.restype = I
    cvb.argtypes = [P, P, P, P, I, I, P, P]
    ctb = lib.traceback
    ctb.restype = I
    ctb.argtypes = [P, I, I, I, P, P]
    cbb = lib.banded_block
    cbb.restype = None
    cbb.argtypes = [P, I, I, P, P, D, D, D, P, P, P, P]

    def viterbi_block(v0, M, perm, pred0, out_s, out_p):
        k, S = out_s.shape
        return cvb(_ptr(v0), _ptr(M), _ptr(perm), _ptr(pred0), k, S,
                   _ptr(out_s), _ptr(out_p))

    def traceback(P, x, out, ref):
        k, W = P.shape
        return ctb(_ptr(P), k, W, x, _ptr(ref), _ptr(out))

    def banded_block(v0, geom, MS, gu, g, neg_inf, out_s, out_p):
        k, Wmax = out_s.shape
        entry = np.empty(Wmax, dtype=np.float64)
        epred = np.empty(Wmax, dtype=np.int64)
        cbb(
            _ptr(v0), k, Wmax, _ptr(geom), _ptr(MS), gu, g, neg_inf,
            _ptr(out_s), _ptr(out_p), _ptr(entry), _ptr(epred),
        )

    return Backend(kind="cc", viterbi_block=viterbi_block,
                   banded_block=banded_block, traceback=traceback)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _try_cc() -> Backend | None:
    cc = shutil.which(os.environ.get("CC", "").strip() or "cc") or shutil.which("gcc")
    if cc is None:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"repro_kernels_{digest}.so"
    try:
        if not so_path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            src = cache / f"repro_kernels_{digest}.c"
            src.write_text(_C_SOURCE)
            # Unique build target per process; the final rename is atomic,
            # so concurrent pool workers race benignly.
            tmp = cache / f".build_{digest}_{os.getpid()}.so"
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", str(tmp), str(src)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so_path)
        return _wrap_cc(ctypes.CDLL(str(so_path)))
    except (OSError, subprocess.SubprocessError):
        return None


_NUMPY = Backend(kind="numpy")
_RESOLVED: list = []  # one-slot memo; avoids `global` for REP003

#: glibc ``mallopt`` parameters, and the thresholds the tier sets (bytes).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap() -> None:
    """Let this process reuse the heap it frees between sweeps.

    Every sweep allocates its output block (a 1,544-stage, 256-state
    Viterbi sweep is two 3.2 MB arrays, a 386-stage range two 790 KB
    ones) and frees it when the answer or the pool session is dropped.
    With glibc's default, dynamically adjusted thresholds the freed top
    of the heap goes back to the OS and the next sweep faults every
    page in again (about 1,500 minor faults per in-process solve of a
    viterbi-decode packet, 840 per pooled solve in a worker).  Raising
    the mmap and trim thresholds once per process keeps those pages.
    A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def get_backend() -> Backend:
    """The process-wide resolved backend (memoized after first call).

    The first call also sets this process's allocator thresholds for
    the tier's block-sized allocations (:func:`_keep_freed_heap`).
    """
    if _RESOLVED:
        return _RESOLVED[0]
    _keep_freed_heap()
    forced = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
    if forced == "numpy":
        backend = _NUMPY
    elif forced == "cc":
        backend = _try_cc() or _NUMPY
    elif forced:
        # An unrecognized pin degrades to pure NumPy rather than
        # silently auto-detecting something the caller didn't ask for.
        backend = _NUMPY
    else:
        backend = _try_cc() or _NUMPY
    _RESOLVED.append(backend)
    return backend


def _traceback_loop(P, x, out, ref) -> int:
    """The NumPy backend's traceback: the same walk, one row per step."""
    W = P.shape[1]
    for r in range(len(P) - 1, -1, -1):
        if not 0 <= x < W:
            return -2
        x = int(P[r, x])
        out[r] = x
        if ref is not None and ref[r] == x:
            return r
    return -1


def traceback(P: np.ndarray, x: int, out: np.ndarray, ref: np.ndarray | None = None) -> int | None:
    """Walk predecessor block ``P`` (``(k, W)`` int64) from index ``x``.

    For ``r = k-1 .. 0``: ``x = P[r, x]``, ``out[r] = x``.  With ``ref``
    (the stored path entries of the same rows) the walk stops at the
    first row whose entry equals ``ref[r]`` and returns that row;
    otherwise (or when no entry matches) it returns ``None``.  Raises
    ``IndexError`` when an index falls outside the block.
    """
    P = np.ascontiguousarray(P, dtype=np.int64)
    fn = get_backend().traceback or _traceback_loop
    stop = fn(P, int(x), out, ref)
    if stop == -2:
        raise IndexError(f"traceback index outside a {P.shape} predecessor block")
    return None if stop < 0 else int(stop)


def reset_backend_cache() -> None:
    """Forget the resolved backend (tests re-resolve under a new env)."""
    _RESOLVED.clear()
