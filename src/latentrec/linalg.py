"""Dense matrix and vector primitives used by the recommenders.

Matrices are plain 2-D ``numpy.ndarray`` objects in row-major layout; no
wrapper class is introduced.  The singular value decomposition here is
self-contained (one-sided Jacobi rotations) so the package carries no
linear-algebra dependency beyond numpy array arithmetic, and its output is
deterministic for a fixed input, which the test suite and the model file
format rely on.

The Jacobi sweep follows the round-robin ordering of Brent and Luk (1985):
the columns, padded to an even count, meet in rounds of disjoint pairs, so
every round rotates all of its pairs at once with array operations, and a
sweep of n - 1 rounds meets every pair once.  A pair is rotated only while
it is coupled beyond ``JACOBI_TOL`` and both of its columns are above
``max(m, n) * eps * (largest input column norm)``.  Below that the column
is zero to working precision (``svd`` drops every column below a cutoff at
least that large) and its direction is rounding noise, which a purely
relative test would keep rotating on rank-deficient input until the sweep
cap.  The orthonormal completion of the left vectors for zero singular
values uses ``numpy.linalg.qr``: only numpy's own SVD is kept out of this
package, because the decomposition itself is what this module implements.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    MagnitudeError,
    ShapeError,
    ZeroNormError,
)
from .metrics import check_table

# Convergence for the Jacobi sweep: a column pair (p, q) counts as orthogonal
# once |<w_p, w_q>| <= JACOBI_TOL * ||w_p|| * ||w_q||.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


class SvdResult(NamedTuple):
    """Thin singular value decomposition ``a = u @ diag(s) @ v.T``.

    Attributes
    ----------
    u : ndarray, shape (m, r)
        Left singular vectors, orthonormal columns, r = min(m, n).
    s : ndarray, shape (r,)
        Singular values, nonnegative, sorted descending.
    v : ndarray, shape (n, r)
        Right singular vectors, orthonormal columns.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def cosine(u, v):
    """Cosine similarity ``<u, v> / (||u|| ||v||)``, clipped to [-1, 1].

    Raises
    ------
    ZeroNormError
        If either vector has zero norm; the caller decides the fallback.
    ShapeError
        If the lengths differ.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1:
        raise ShapeError("cosine expects 1-D vectors")
    if u.shape != v.shape:
        raise ShapeError(f"cosine needs equal lengths, got {u.shape[0]} and {v.shape[0]}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroNormError("cosine similarity is undefined for a zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _round_robin(n):
    """Brent-Luk round-robin seatings for one sweep over ``n`` columns.

    ``n`` is padded to an even ``size`` with one dummy column when odd.
    Seating ``r`` lists the columns in the row order of round ``r``: rows
    ``2k`` and ``2k + 1`` form a pair, so each round holds ``size / 2``
    disjoint pairs and over the ``size - 1`` rounds every pair meets once.
    """
    size = n + n % 2
    ring = np.arange(1, size)
    seatings = []
    for r in range(size - 1):
        seats = np.concatenate(([0], np.roll(ring, r)))
        top, bottom = seats[: size // 2], seats[size // 2:][::-1]
        seatings.append(np.column_stack((top, bottom)).ravel())
    return seatings


def _row_dots(x, y):
    return np.einsum("ij,ij->i", x, y)


def _jacobi_tall(a):
    """One-sided Jacobi SVD of ``a`` with at least as many rows as columns.

    Works on the transposed copy so every column of ``a`` is a contiguous
    row.  Returns (w, v, sweeps) where the rows of ``w`` are the rotated
    columns (pairwise orthogonal on success), the rows of ``v`` are the
    accumulated right singular vectors and ``sweeps`` counts the sweeps run.

    Raises ConvergenceError when the sweep cap is reached and a pair of
    nonzero columns is still coupled beyond ``JACOBI_TOL``.
    """
    m, n = a.shape
    seatings = _round_robin(n)
    size = seatings[0].size
    # Row j holds column j of a followed by row j of v, so one rotation
    # moves both; an odd n gets a zero padding row, which never rotates.
    wv = np.zeros((size, m + n))
    wv[:n, :m] = a.T
    wv[:n, m:] = np.eye(n)
    # Columns at or below this norm are zero to working precision; their
    # direction is rounding noise, so they take part in no rotation.
    zero = max(m, n) * np.finfo(float).eps * float(np.linalg.norm(a, axis=0).max())
    # moves[r] reorders the rows from seating r to seating r + 1 (cyclic)
    moves = [
        np.argsort(seatings[r])[seatings[(r + 1) % len(seatings)]]
        for r in range(len(seatings))
    ]
    wv = wv[seatings[0]]
    buf = np.empty_like(wv)
    half = size // 2
    for sweep in range(1, JACOBI_MAX_SWEEPS + 1):
        rotated = False
        for move in moves:
            pairs = wv.reshape(half, 2, m + n)
            wp, wq = pairs[:, 0, :m], pairs[:, 1, :m]
            alpha = _row_dots(wp, wp)
            beta = _row_dots(wq, wq)
            gamma = _row_dots(wp, wq)
            act = (
                (np.abs(gamma) > JACOBI_TOL * np.sqrt(alpha * beta))
                & (np.sqrt(alpha) > zero)
                & (np.sqrt(beta) > zero)
            )
            if act.any():
                rotated = True
                zeta = (beta[act] - alpha[act]) / (2.0 * gamma[act])
                t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
                c = np.ones(half)
                s = np.zeros(half)
                c[act] = 1.0 / np.sqrt(1.0 + t * t)
                s[act] = c[act] * t
                # per pair: p <- c p - s q, q <- s p + c q; idle pairs get I
                rot = np.stack((np.stack((c, -s), 1), np.stack((s, c), 1)), 1)
                np.matmul(rot, pairs, out=buf.reshape(half, 2, m + n))
            else:
                buf, wv = wv, buf
            # mode="clip": with the default mode, take() buffers all of out
            np.take(buf, move, axis=0, out=wv, mode="clip")
        if not rotated:
            break
    else:
        # Sweep cap reached with rotations still firing; report how far off
        # the worst remaining pair of nonzero columns is.
        w = wv[:, :m]
        norms = np.sqrt(_row_dots(w, w))
        live = norms > zero
        ratio = np.abs(w[live] @ w[live].T) / np.outer(norms[live], norms[live])
        np.fill_diagonal(ratio, 0.0)
        worst = float(ratio.max()) if ratio.size else 0.0
        if worst > JACOBI_TOL:
            raise ConvergenceError(
                f"jacobi svd did not converge in {JACOBI_MAX_SWEEPS} sweeps, "
                f"worst off-diagonal ratio {worst:.3e}",
                off_diagonal=worst,
            )
    # back from seating 0 to row j = column j, padding row dropped
    wv = wv[np.argsort(seatings[0])][:n]
    return wv[:, :m].copy(), wv[:, m:].copy(), sweep


def _complete_basis(ut, filled):
    """Fill unfilled rows of ``ut`` with unit vectors orthogonal to the rest.

    Used for singular values that are numerically zero, where the rotated
    column carries no direction.  The k filled rows, as columns, are
    followed by unit columns up to one column per row of ``ut``, and the
    reduced QR factorization of that rows x cols matrix is taken: its Q
    has orthonormal columns whatever the rank, and the first k span the
    filled rows, so the trailing ones are orthogonal to them.  A complete
    QR of the filled rows alone would build a rows x rows Q.
    """
    cols, rows = ut.shape
    k = int(filled.sum())
    q, _ = np.linalg.qr(np.hstack([ut[filled].T, np.eye(rows, cols - k)]))
    ut[~filled] = q[:, k:].T
    return ut


def svd(a):
    """Thin singular value decomposition by one-sided Jacobi rotations.

    Parameters
    ----------
    a : array_like, shape (m, n)
        Real matrix with finite entries.

    Returns
    -------
    SvdResult
        ``u @ diag(s) @ v.T`` reconstructs ``a``; the columns of ``u`` and
        ``v`` are orthonormal; ``s`` is sorted descending.  The sign of each
        column pair is normalized so the largest-magnitude entry of every
        ``u`` column is nonnegative, making the result deterministic.

    Input whose largest magnitude lies outside _scale_window(m, n) is
    decomposed as ``a * 2**-e`` (``2**(e - 1) <= max|a| < 2**e``), which
    is exact, and ``s`` is scaled back by ``2**e``; u and v are those of
    the scaled input. Inside the window nothing is scaled.

    Raises
    ------
    ShapeError, ValidationError
        On non-2-D or empty input, or non-finite input
        (``metrics.check_table``).
    ConvergenceError
        If the sweep cap is reached while column pairs remain coupled.
    MagnitudeError
        If a singular value overflows when scaled back.
    """
    a = check_table(a, "svd input", (None, None))
    if a.size == 0:
        raise ShapeError(f"svd expects a nonempty matrix, got shape {a.shape}")

    m, n = a.shape
    lo, hi = _scale_window(m, n)
    e = math.frexp(max(a.max(), -a.min()))[1]
    scaled = not lo <= e <= hi
    if scaled:
        a = np.ldexp(a, -e)
    transposed = m < n
    work = a.T if transposed else a
    rows, cols = work.shape  # rows >= cols

    w, vt, _ = _jacobi_tall(work)
    norms = np.linalg.norm(w, axis=1)
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    w = w[order]
    vt = vt[order]

    smax = float(norms[0]) if norms.size else 0.0
    cutoff = max(rows, cols) * np.finfo(float).eps * smax
    ut = np.zeros((cols, rows))
    filled = norms > cutoff
    ut[filled] = w[filled] / norms[filled, None]
    if not filled.all():
        ut = _complete_basis(ut, filled)

    u = ut.T
    v = vt.T
    s = norms.copy()
    if transposed:
        u, v = v, u

    # Deterministic sign: largest-|entry| of each left column made positive.
    for j in range(s.size):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    if scaled:
        with np.errstate(over="ignore"):
            s = np.ldexp(s, e)
        if not np.isfinite(s).all():
            raise MagnitudeError(f"the singular values of a {m} x {n} matrix with entries up "
                                 f"to 2^{e} overflow float64")
    return SvdResult(u=u, s=s, v=v)


def _scale_window(m, n):
    """(lo, hi): the exponents e of max|a| (2**(e - 1) <= max|a| < 2**e)
    an m x n input is decomposed at unscaled.

    The Jacobi coupling test multiplies two squared column norms, the
    fourth power of a norm. A column norm is below sqrt(m * n) * 2**e, so
    up to hi that power stays finite. The largest column norm is at least
    2**(e - 1) and the zero-column threshold at least 2**-52 times it, so
    from lo on the fourth power of that threshold is normal.
    """
    return 53 - 1022 // 4, (1023 - 2 * math.ceil(math.log2(m * n))) // 4


def _check_spectrum(singular_values):
    s = check_table(singular_values, "singular values", (None,))
    if s.size == 0:
        raise ShapeError("expected a nonempty array of singular values")
    if np.any(s < 0):
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(s) > 1e-12 * max(1.0, float(s[0]))):
        raise ValueError("singular values must be sorted descending")
    if not np.any(s > 0):
        raise DegenerateSpectrumError("all singular values are zero")
    return s


def rank_by_energy(singular_values, threshold=0.95):
    """Smallest rank whose squared singular values reach ``threshold``.

    Parameters
    ----------
    singular_values : array_like
        Finite, nonnegative, sorted descending.
    threshold : float
        Fraction of total squared energy to retain, in (0, 1].  Default 0.95.

    Returns
    -------
    int
        Smallest f with ``sum(s[:f] ** 2) / sum(s ** 2) >= threshold``.

    Raises
    ------
    DegenerateSpectrumError
        If every singular value is zero.
    """
    s = _check_spectrum(singular_values)
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    # shares of the running sum's own last entry, so the last share is
    # exactly 1.0 and energy:1 keeps the full numeric rank; squares of s
    # scaled by a power of two that puts s[0] in [0.5, 1) neither overflow
    # nor lose the leading values to underflow, and the shares are unchanged
    scaled = np.ldexp(s, -math.frexp(s[0])[1])
    energy = np.cumsum(scaled * scaled)
    return int(np.argmax(energy / energy[-1] >= threshold)) + 1


def rank_by_ratio(singular_values, c=10.0):
    """Smallest rank whose retained sum dominates the tail ``c`` times over.

    Returns the smallest f with ``sum(s[:f]) >= c * sum(s[f:])``; falls back
    to the full rank when no proper prefix satisfies the ratio. ``c`` must
    be positive and finite.

    Raises
    ------
    DegenerateSpectrumError
        If every singular value is zero.
    """
    s = _check_spectrum(singular_values)
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    # the tail is a suffix sum, never total - head, which rounding can take
    # to 0.0 or below while sum(s[f:]) is still positive; the sums are of s
    # scaled by a power of two that puts s[0] in [0.5, 1), as in
    # rank_by_energy, so they stay below s.size and the ratios are unchanged
    s = np.ldexp(s, -math.frexp(s[0])[1])
    head, tail = np.cumsum(s), np.cumsum(s[::-1])[::-1]
    with np.errstate(over="ignore"):  # a tail c times over past the float range
        hits = np.flatnonzero(head[:-1] >= c * tail[1:])
    return int(hits[0]) + 1 if hits.size else int(s.size)


def truncate(result, f):
    """Keep the first ``f`` singular triplets of a decomposition.

    Parameters
    ----------
    result : SvdResult
    f : int
        Retained rank, 1 <= f <= len(result.s).

    Returns
    -------
    (u_f, s_f, v_f)
        ``u_f`` is (m, f), ``s_f`` is the (f, f) diagonal matrix, ``v_f`` is
        (n, f), so ``u_f @ s_f @ v_f.T`` is the rank-f reconstruction.
    """
    r = result.s.size
    if not 1 <= f <= r:
        raise ValueError(f"rank f must be in [1, {r}], got {f}")
    return result.u[:, :f].copy(), np.diag(result.s[:f]), result.v[:, :f].copy()
