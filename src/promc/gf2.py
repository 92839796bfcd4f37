"""
Dense GF(2) linear algebra.

Row echelon form, rank, solving, null spaces and inverses over the
two-element field.  Matrices are numpy uint8 arrays; every routine reads
its input mod 2, as ``asmat`` does.  All routines are deterministic:
pivots are the lowest columns, free variables are set to zero.

Eliminations run on rows packed into Python ints, bit c holding column c
(the word-packed rows of M4RI, Albrecht, Bard & Hart, ACM TOMS 2010), so
a row operation is one int XOR whatever the width.  Each row is inserted
into a basis keyed by its lowest set bit: it is XORed with the basis row
owning that bit until its lowest bit is new or it vanishes.  The keys
are then the pivot columns of the reduced row echelon form (RREF); back
substitution, highest pivot first, clears every other pivot column from
each basis row and gives the RREF rows.  The RREF and its pivot columns
are unique for a matrix, so the result does not depend on the order in
which rows are inserted.  ``rank`` and ``image_basis`` read only the
keys and skip the back substitution; ``solve`` packs [A | B] straight
into ints and reads X from the bits above A's columns of the reduced
rows, so it makes no dense copy of the system.

The lift systems are large and very sparse: the 162 inputs above 64
rows or columns in one round of the ``chainf2-factor`` and
``chainf2-lift`` benchmark workloads were 0.05-4.9% ones, up to 8176 x
5977.  An insertion there XORs a few basis rows, where a column sweep
visits every row for every column.  Dense matrices are the trade-off:
on uniform-random square ones (median of 7, one 2-vCPU Xeon) int rows
beat numpy elimination (whole uint8 rows XORed per pivot) up to 200 x
200 and are 1.2-1.3x slower from 500 x 500 up (1000 x 1000
``row_echelon``: 188 ms against 148 ms).

The non-reduced echelon form is not unique; ``row_echelon(M,
reduce=False)`` keeps the column algorithm: lowest column first, swap
with the first row holding it, clear below.
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


# ------------------------------------------------------------- int rows

_WORD = 64  # up to this many columns a row is one uint64: packed by a product
_POW2 = np.left_shift(np.uint64(1), np.arange(_WORD, dtype=np.uint64))
_PACK_ROWS = 1024  # rows per block when packing wider matrices


def _pack(M):
    """The rows of *M*, read mod 2, as Python ints (bit c = column c).
    Wide matrices are packed a block of rows at a time, so no copy of the
    whole matrix is made."""
    m, n = M.shape
    if M.size == 0:
        return [0] * m
    if n <= _WORD:
        return ((np.asarray(M, dtype=np.uint8) & 1) @ _POW2[:n]).tolist()
    w = (n + 7) // 8
    rows = []
    for lo in range(0, m, _PACK_ROWS):
        block = np.asarray(M[lo:lo + _PACK_ROWS], dtype=np.uint8) & 1
        data = np.packbits(block, axis=1, bitorder="little").tobytes()
        rows.extend(int.from_bytes(data[k:k + w], "little")
                    for k in range(0, len(data), w))
    return rows


def _unpack(rows, n):
    """The uint8 matrix with the int *rows* as its rows, *n* columns."""
    if n <= _WORD:
        packed = np.array(rows, dtype="<u8").view(np.uint8).reshape(len(rows), 8)
    else:
        w = (n + 7) // 8
        data = b"".join(r.to_bytes(w, "little") for r in rows)
        packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), w)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def _basis(rows):
    """{pivot column: row}: each row inserted by its lowest set bit."""
    basis = {}
    for r in rows:
        while r:
            c = (r & -r).bit_length() - 1
            p = basis.get(c)
            if p is None:
                basis[c] = r
                break
            r ^= p
    return basis


def _back_substitute(basis, shift=0):
    """(pivots, rows): the pivot columns in order and, for each, the bits
    from *shift* up of its RREF row.  The RREF row of pivot c is its
    basis row XOR the RREF rows of the higher pivots set in it."""
    pivots = sorted(basis)
    mask = 0
    for c in pivots:
        mask |= 1 << c
    done = {}
    for c in reversed(pivots):
        r = basis[c]
        v = r >> shift
        above = (r & mask) ^ (1 << c)
        while above:
            low = above & -above
            v ^= done[low.bit_length() - 1]
            above ^= low
        done[c] = v
    return pivots, [done[c] for c in pivots]


def row_echelon(M, reduce=True):
    """Row-reduce *M* over GF(2).

    Returns:
        (R, pivot_cols): R is the (reduced) row-echelon form and
        pivot_cols the list of pivot column indices; len(pivot_cols)
        is the GF(2) rank.
    """
    m, n = M.shape
    if not reduce:
        return _column_echelon(M)
    pivots, rows = _back_substitute(_basis(_pack(M)))
    return _unpack(rows + [0] * (m - len(rows)), n), pivots


def _column_echelon(M):
    m, n = M.shape
    rows = _pack(M)
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
        rows[pr + 1:] = [r ^ p if r & bit else r for r in rows[pr + 1:]]
        rows[pr] = p
        pivot_cols.append(col)
        pr += 1
    return _unpack(rows, n), pivot_cols


def rank(M):
    if M.size == 0:
        return 0
    return len(_basis(_pack(M)))


def solve(A, B):
    """One solution X of A @ X = B mod 2, or None if inconsistent.

    B may be a vector or a matrix (solved column by column through one
    elimination).  Free variables are zero, so the result is the
    deterministic minimal-pivot solution.
    """
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    vec = B.ndim == 1
    Bm = B.reshape(-1, 1) if vec else B
    m, n = A.shape
    if Bm.shape[0] != m:
        raise ValueError("shape mismatch in solve")
    basis = _basis([a | b << n for a, b in zip(_pack(A), _pack(Bm))])
    if basis and max(basis) >= n:
        return None  # a pivot in the right-hand block: inconsistent
    pivots, rows = _back_substitute(basis, n)
    X = zeros(n, Bm.shape[1])
    if pivots:
        X[pivots] = _unpack(rows, Bm.shape[1])
    return X[:, 0] if vec else X


def null_space(M):
    """Basis of the right null space, as columns; deterministic order."""
    m, n = M.shape
    if n == 0:
        return zeros(0, 0)
    if m == 0:
        return eye(n)
    pivots, rows = _back_substitute(_basis(_pack(M)))
    # the identity with each pivot row XORed with its RREF row: its free
    # column fc is the null vector that is 1 at fc and 0 at the other
    # free columns
    full = [1 << c for c in range(n)]
    for c, r in zip(pivots, rows):
        full[c] ^= r
    return _unpack(full, n)[:, _free_columns(pivots, n)]


def _free_columns(pivots, n):
    piv = set(pivots)
    return [c for c in range(n) if c not in piv]


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
    return asmat(M[:, sorted(_basis(_pack(M)))])


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
    # R's rows (the pivot rows) span the subspace; v |-> v - sum v[pc]*R[i]
    # eliminates the pivot coordinates, then read off the free ones
    free = _free_columns(piv, dim)
    Q = zeros(len(free), dim)
    Q[range(len(free)), free] = 1
    Q[:, piv] = R[:len(piv), free].T
    return Q, len(free)
