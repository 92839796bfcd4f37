"""
GF(2) linear algebra on packed rows.

Row echelon form, rank, solving, null spaces and inverses over the
two-element field.  A matrix is a ``Mat``: a tuple of Python ints, one
per row, bit c of a row holding column c (the word-packed rows of M4RI,
Albrecht, Bard & Hart, ACM TOMS 2010), plus its column count.  A vector
is one int, bit i holding entry i.  Values are immutable, so equality
and hashing are tuple operations and the zero and identity matrices of
a shape are shared.  ``asmat`` reads nested lists of integers (or
anything with ``tolist``) mod 2, ``pack01`` packs lists of 0/1 rows
without a Python step per entry, and ``unpack`` reads a range of bits of
int rows back into 0/1 lists; every other routine takes and returns
``Mat`` values and never unpacks them.  All routines are deterministic:
pivots are the lowest columns, free variables are set to zero.

A product XORs, for each row of A, the rows of B picked by its set
bits, so a row operation is one int XOR whatever the width.
Eliminations insert each row into a basis keyed by its lowest set bit:
it is XORed with the basis row owning that bit until its lowest bit is
new or it vanishes.  The keys are then the pivot columns of the reduced
row echelon form (RREF); back substitution, highest pivot first, clears
every other pivot column from each basis row and gives the RREF rows.
The RREF and its pivot columns are unique for a matrix, so the result
does not depend on the order in which rows are inserted.
``solve`` inserts the rows of [A | B] and reads X from the bits above
A's columns of the reduced rows.  ``rank`` counts the pivots of
``row_echelon``, back substitution included, so that tracing that wraps
``row_echelon`` (the benchmark's counts by shape) sees every rank.

The lift systems are large and very sparse: the 162 inputs above 64
rows or columns in one round of the ``chainf2-factor`` and
``chainf2-lift`` benchmark workloads were 0.05-4.9% ones, up to 8176 x
5977.  An insertion there XORs a few basis rows, where a column sweep
visits every row for every column.  Each XOR can add ones to the row
(fill-in), so the insertion order sets the cost but not the result
(Markowitz, Mgmt. Sci. 1957).  Routines here keep the caller's row
order; ``chainf2.chain_map_system`` picks one.  With its order the
basis of the 8176 x 5977 system holds 9,794 ones, and the 121 systems
above 64 rows or columns that one seed-1 ``chainf2-lift`` round solves
(operations and replays) eliminate in 74 ms (least of three, one 2-vCPU
Xeon); with the naturality rows first, degrees ascending, 33,723 ones
and 150 ms.

Dense matrices are the trade-off: on uniform-random square ones
(median of 7, one 2-vCPU Xeon) int rows beat numpy elimination (whole
uint8 rows XORed per pivot) up to 200 x 200 and are 1.2-1.3x slower
from 500 x 500 up (1000 x 1000 ``row_echelon``: 188 ms against 148 ms).
"""

from __future__ import annotations

import functools
import itertools


class Mat:
    """An immutable 0/1 matrix: *rows* is a tuple of ints (bit c = column
    c, no bit at or above *ncols*) and *ncols* the column count."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols):
        self.rows = rows
        self.ncols = ncols

    @property
    def shape(self):
        return len(self.rows), self.ncols

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        return f"Mat({self.tolist()!r}, ncols={self.ncols})"

    def tolist(self):
        """The entries as a list of 0/1 row lists."""
        return unpack(self.rows, self.ncols)

    def copy(self):
        """A mutable copy, indexed [row, col]; ``asmat`` packs it back."""
        return Grid(self.tolist())


_TABLE_WIDTH = 8  # rows up to this wide are (un)packed by table lookup


@functools.cache
def _bit_lists(n):
    """For every row r of width n, its entries as a tuple."""
    return [tuple(r >> c & 1 for c in range(n)) for r in range(1 << n)]


def unpack(rows, ncols, shift=0):
    """Bits shift to shift + ncols - 1 of each int of *rows*, as 0/1
    lists; no bit above them may be set."""
    if ncols <= _TABLE_WIDTH:
        table = _bit_lists(ncols)
        return [list(table[r >> shift]) for r in rows]
    cols = range(shift, shift + ncols)
    return [[r >> c & 1 for c in cols] for r in rows]


class Grid(list):
    """A mutable 0/1 matrix: a list of row lists that also takes
    numpy-style [row, col] indices."""

    def __getitem__(self, key):
        if isinstance(key, tuple):
            r, c = key
            return super().__getitem__(r)[c]
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        if isinstance(key, tuple):
            r, c = key
            super().__getitem__(r)[c] = value
        else:
            super().__setitem__(key, value)


def asmat(M, rows=None, cols=None):
    """*M* read mod 2 as a fresh ``Mat``: a ``Mat``, nested lists of
    integers, or anything with ``tolist``.  An empty *M* is the zero
    matrix of the explicit shape (rows, cols)."""
    if isinstance(M, Mat):
        mask = (1 << M.ncols) - 1
        return Mat(tuple(r & mask for r in M.rows), M.ncols)
    if hasattr(M, "tolist"):
        M = M.tolist()
    packed = pack01(M)
    if packed is not None:
        return packed
    try:
        data = [list(r) for r in M]
    except TypeError:
        raise ValueError("expected a matrix: a list of rows") from None
    if not data:
        if rows is None or cols is None:
            raise ValueError("empty matrix needs an explicit shape")
        return zeros(rows, cols)
    n = len(data[0])
    if any(len(r) != n for r in data):
        raise ValueError("expected a matrix: rows of different lengths")
    out = []
    for r in data:
        v = 0
        for c, x in enumerate(r):
            try:
                bit = int(x) & 1
            except (TypeError, ValueError):
                raise ValueError(f"not a matrix entry: {x!r}") from None
            v |= bit << c
        out.append(v)
    return Mat(tuple(out), n)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class _RowInts(dict):
    """The bytes of a 0/1 row -> the row as an int, bit c = entry c.  It
    holds every row up to ``_TABLE_WIDTH`` wide; a wider one is read as a
    binary numeral, last entry first.  KeyError for any other entry."""

    def __missing__(self, row):
        if len(row) <= _TABLE_WIDTH or row.translate(None, b"\x00\x01"):
            raise KeyError(row)
        return int(row[::-1].translate(_DIGITS), 2)


@functools.cache
def _row_ints():
    return _RowInts({bytes(bits): r for n in range(_TABLE_WIDTH + 1)
                     for r, bits in enumerate(_bit_lists(n))})


def pack01(M):
    """*M* as a ``Mat`` if it is a non-empty list of equally long lists
    of the ints 0 and 1 (not bools), else None.  Checked and packed at C
    level, with no Python step per entry: each row's bytes are looked up
    in ``_row_ints()``."""
    if not isinstance(M, list) or not M or set(map(type, M)) != {list}:
        return None
    entries = itertools.chain.from_iterable(M)
    if len(set(map(len, M))) > 1 or not set(map(type, entries)) <= {int}:
        return None
    try:
        return Mat(tuple(map(_row_ints().__getitem__, map(bytes, M))), len(M[0]))
    except (KeyError, ValueError):  # an entry other than 0 or 1
        return None


@functools.cache
def zeros(rows, cols):
    return Mat((0,) * rows, cols)


@functools.cache
def eye(n):
    return Mat(tuple(1 << c for c in range(n)), n)


def transpose(M):
    out = [0] * M.ncols
    for i, r in enumerate(M.rows):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return Mat(tuple(out), len(M.rows))


def matmul(A, B):
    """Matrix product mod 2: row r of A·B XORs the rows of B picked by
    the set bits of row r of A."""
    brows = B.rows
    if A.ncols != len(brows):
        raise ValueError(f"shape mismatch in matmul: {A.shape} @ {B.shape}")
    out = []
    for a in A.rows:
        acc = 0
        while a:
            low = a & -a
            acc ^= brows[low.bit_length() - 1]
            a ^= low
        out.append(acc)
    return Mat(tuple(out), B.ncols)


# ------------------------------------------------------------ elimination


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


def row_echelon(M):
    """Row-reduce *M* over GF(2).

    Returns:
        (R, pivot_cols): R is the reduced row-echelon form and
        pivot_cols the list of pivot column indices; len(pivot_cols)
        is the GF(2) rank.
    """
    m, n = M.shape
    pivots, rows = _back_substitute(_basis(M.rows))
    return Mat(tuple(rows) + (0,) * (m - len(rows)), n), pivots


def rank(M):
    return len(row_echelon(M)[1])


def solve(A, B):
    """One solution X of A·X = B mod 2, or None if inconsistent.

    B is a ``Mat`` (solved column by column through one elimination) or
    a vector, an int whose bit r is the right side of row r; X is then
    a ``Mat``, or a vector whose bit c is unknown c.  Free variables are
    zero, so the result is the deterministic minimal-pivot solution.
    """
    m, n = A.shape
    vec = isinstance(B, int)
    if vec:
        rhs = [B >> r & 1 for r in range(m)]
    elif len(B.rows) != m:
        raise ValueError("shape mismatch in solve")
    else:
        rhs = B.rows
    basis = _basis([a | b << n for a, b in zip(A.rows, rhs)])
    if basis and max(basis) >= n:
        return None  # a pivot in the right-hand block: inconsistent
    pivots, rows = _back_substitute(basis, n)
    if vec:
        x = 0
        for c, r in zip(pivots, rows):
            x |= r << c
        return x
    X = [0] * n
    for c, r in zip(pivots, rows):
        X[c] = r
    return Mat(tuple(X), B.ncols)


def null_vectors(M):
    """A basis of the right null space, each vector an int; one per free
    column fc, in increasing order: the vector that is 1 at fc and 0 at
    the other free columns.  Its other ones are at pivots below fc (a
    pivot's RREF row holds only columns above it), so fc is its highest
    set bit."""
    pivots, rows = _back_substitute(_basis(M.rows))
    vecs = {fc: 1 << fc for fc in _free_columns(pivots, M.ncols)}
    # the RREF row of pivot c holds, besides c, the free columns whose
    # null vector has a 1 at c
    for c, r in zip(pivots, rows):
        r ^= 1 << c
        while r:
            low = r & -r
            vecs[low.bit_length() - 1] |= 1 << c
            r ^= low
    return list(vecs.values())


def _free_columns(pivots, n):
    piv = set(pivots)
    return [c for c in range(n) if c not in piv]


def inverse(M):
    """Inverse of a square matrix, or None if singular."""
    n = M.ncols
    if len(M.rows) != n:
        raise ValueError("inverse needs a square matrix")
    X = solve(M, eye(n))
    if X is None or matmul(M, X) != eye(n):
        return None
    return X


def quotient_map(U, dim):
    """Projection F_2^dim -> F_2^dim/span(columns of U), as (Q, k).

    Q has shape (k, dim), is surjective and its kernel is exactly the
    column span of U: its rows are the ``null_vectors`` of Uᵀ, so the row
    of free column fc is 1 at fc and 0 at the other free columns, and
    picking the free columns is a section R of Q (Q·R = I).
    """
    Q = null_vectors(transpose(U))
    return Mat(tuple(Q), dim), len(Q)
