"""
Dense GF(2) linear algebra.

Row echelon form, rank, solving, null spaces and inverses over the
two-element field.  Matrices are numpy uint8 arrays of 0s and 1s; all
routines are deterministic: pivots are chosen lowest column first,
free variables are set to zero.

Every elimination goes through ``row_echelon``, which stores the rows
one of two ways, picked by shape:

* At most ``INT_ROWS_MAX`` rows and columns: each row is one Python int,
  bit c holding column c (the word-packed rows of M4RI, Albrecht, Bard &
  Hart, ACM TOMS 2010), and a row operation is one int XOR.  Packing is
  one numpy product with the powers of two; unpacking is
  ``np.unpackbits`` of the rows as uint64 words.
* Larger: numpy uint8 arrays, with XORs on whole blocks of rows.

The strict factorizations eliminate tens of thousands of matrices of
at most 16x16, where numpy's per-call cost dominates and int rows are
several times faster.  Once both sides exceed 64 the Python loop over
rows costs more than numpy's vectorized XORs; on the large sparse lift
systems numpy is many times faster.  64 columns is also one uint64 word.

Both paths pivot alike (lowest column first, swap with the first row
holding it, clear below, and above when reducing), so they return
bit-for-bit the same ``R`` and pivot columns.
"""

from __future__ import annotations

import numpy as np


def asmat(M, rows=None, cols=None):
    """Coerce *M* to a uint8 matrix mod 2; empty inputs need explicit shape."""
    A = np.asarray(M, dtype=np.uint8) % 2
    if A.ndim != 2:
        if A.size == 0:
            if rows is None or cols is None:
                raise ValueError("empty matrix needs an explicit shape")
            return np.zeros((rows, cols), dtype=np.uint8)
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    return A


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.uint8)


def eye(n):
    return np.eye(n, dtype=np.uint8)


def matmul(A, B):
    """Matrix product mod 2."""
    return (A.astype(np.uint32) @ B.astype(np.uint32) % 2).astype(np.uint8)


def mat_eq(A, B):
    return A.shape == B.shape and bool(np.array_equal(A, B))


INT_ROWS_MAX = 64  # both sides at most this: eliminate on Python-int rows
_POW2 = np.left_shift(np.uint64(1), np.arange(INT_ROWS_MAX, dtype=np.uint64))


def row_echelon(M, reduce=True):
    """Row-reduce *M* over GF(2).

    Returns:
        (R, pivot_cols): R is the (reduced) row-echelon form and
        pivot_cols the list of pivot column indices; len(pivot_cols)
        is the GF(2) rank.
    """
    m, n = M.shape
    if m <= INT_ROWS_MAX and n <= INT_ROWS_MAX:
        return _row_echelon_int(M, reduce)
    return _row_echelon_numpy(M, reduce)


def _row_echelon_int(M, reduce):
    m, n = M.shape
    rows = (M @ _POW2[:n]).tolist()
    pivot_cols: list[int] = []
    pr = 0
    for col in range(n):
        if pr >= m:
            break
        bit = 1 << col
        for row in range(pr, m):
            if rows[row] & bit:
                break
        else:
            continue
        p = rows[row]
        rows[row] = rows[pr]
        lo = 0 if reduce else pr + 1
        rows[lo:] = [r ^ p if r & bit else r for r in rows[lo:]]
        rows[pr] = p
        pivot_cols.append(col)
        pr += 1
    packed = np.array(rows, dtype="<u8").view(np.uint8).reshape(m, 8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little"), pivot_cols


def _row_echelon_numpy(M, reduce):
    R = M.copy()
    m, n = R.shape
    pivot_cols: list[int] = []
    pr = 0
    for col in range(n):
        if pr >= m:
            break
        hit = np.flatnonzero(R[pr:, col])
        if hit.size == 0:
            continue
        row = pr + int(hit[0])
        if row != pr:
            R[[pr, row]] = R[[row, pr]]
        below = np.flatnonzero(R[pr + 1:, col]) + pr + 1
        R[below] ^= R[pr]
        if reduce:
            above = np.flatnonzero(R[:pr, col])
            R[above] ^= R[pr]
        pivot_cols.append(col)
        pr += 1
    return R, pivot_cols


def rank(M):
    if M.size == 0:
        return 0
    return len(row_echelon(M, reduce=False)[1])


def solve(A, B):
    """One solution X of A @ X = B mod 2, or None if inconsistent.

    B may be a vector or a matrix (solved column by column through one
    elimination).  Free variables are zero, so the result is the
    deterministic minimal-pivot solution.
    """
    A = asmat(A, A.shape[0] if A.ndim == 2 else None, None)
    vec = B.ndim == 1
    Bm = B.reshape(-1, 1) if vec else B
    m, n = A.shape
    if Bm.shape[0] != m:
        raise ValueError("shape mismatch in solve")
    aug = np.concatenate([A, Bm], axis=1).astype(np.uint8)
    R, piv = row_echelon(aug)
    piv_in_A = [c for c in piv if c < n]
    if len(piv_in_A) != len(piv):
        return None  # a pivot in the augmented block: inconsistent
    X = zeros(n, Bm.shape[1])
    for i, c in enumerate(piv_in_A):
        X[c] = R[i, n:]
    return X[:, 0] if vec else X


def null_space(M):
    """Basis of the right null space, as columns; deterministic order."""
    m, n = M.shape
    if n == 0:
        return zeros(0, 0)
    R, piv = row_echelon(M)
    free = [c for c in range(n) if c not in piv]
    N = zeros(n, len(free))
    for j, fc in enumerate(free):
        N[fc, j] = 1
        for i, pc in enumerate(piv):
            N[pc, j] = R[i, fc]
    return N


def inverse(M):
    """Inverse of a square matrix, or None if singular."""
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    X = solve(M, eye(n))
    if X is None or not mat_eq(matmul(M, X), eye(n)):
        return None
    return X


def image_basis(M):
    """Basis of the column space, as columns (pivot columns of M)."""
    if M.size == 0:
        return zeros(M.shape[0], 0)
    _, pivc = row_echelon(M, reduce=False)
    return M[:, pivc]


def quotient_map(U, dim):
    """Projection F_2^dim -> F_2^dim/span(columns of U), as a matrix.

    Returns (Q, k) with Q of shape (k, dim); Q is surjective with
    kernel exactly the column span of U.  Coordinates are the non-pivot
    positions after reducing U.
    """
    if dim == 0:
        return zeros(0, 0), 0
    if U.size == 0:
        return eye(dim), dim
    R, piv = row_echelon(U.T)  # row space of U.T = column space of U
    # R's rows (the pivot rows) span the subspace; reduce a vector by them,
    # then read off non-pivot coordinates.
    rows = R[: len(piv)]
    free = [c for c in range(dim) if c not in piv]
    Q = zeros(len(free), dim)
    for j, fc in enumerate(free):
        Q[j, fc] = 1
    # eliminate pivot coordinates: v |-> v - sum v[pc]*rows[i], then take free coords
    for i, pc in enumerate(piv):
        for j, fc in enumerate(free):
            Q[j, pc] ^= rows[i, fc]
    return Q, len(free)
