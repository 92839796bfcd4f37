"""The packed int-row kernel of ``gf2`` against numpy uint8 arithmetic.

Seeded random shapes, 0 rows and 0 columns included, up to 70 on a
side.  numpy is the oracle here only: each expected value is computed
from uint8 arrays, and the packed values are compared through
``tolist``.
"""

import numpy as np
import pytest
from helpers import (image_basis, mat, null_space, random_complex, shifted, to_np,
                     unvec, vec)

from promc import gf2
from promc.chainf2 import chain_map_system

SHAPES = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (7, 3), (16, 16),
          (33, 65), (65, 33), (70, 70), (70, 1), (1, 70)]


def rand(rng, rows, cols, density=0.5):
    return (rng.random((rows, cols)) < density).astype(np.uint8)


def low_rank(rng, rows, cols, rank):
    return rand(rng, rows, rank).astype(int) @ rand(rng, rank, cols) % 2


def np_mul(A, B):
    return (A.astype(np.int64) @ B.astype(np.int64) % 2).astype(np.uint8)


def np_pivots(A):
    """The pivot columns of A by numpy row operations on a uint8 copy."""
    A = (A % 2).astype(np.uint8)
    pivots, r = [], 0
    for c in range(A.shape[1]):
        if r == A.shape[0]:
            break
        hits = np.flatnonzero(A[r:, c])
        if not hits.size:
            continue
        p = r + hits[0]
        A[[r, p]] = A[[p, r]]
        others = np.flatnonzero(A[:, c])
        A[others[others != r]] ^= A[r]
        pivots.append(c)
        r += 1
    return pivots


def np_rank(A):
    return len(np_pivots(A))


def matrices(seed):
    """Matrices of every shape in SHAPES: uniform, sparse and low-rank."""
    rng = np.random.default_rng(seed)
    for rows, cols in SHAPES:
        yield rand(rng, rows, cols)
        yield rand(rng, rows, cols, 0.05)
        yield low_rank(rng, rows, cols, min(rows, cols) // 3)


@pytest.mark.parametrize("seed", range(3))
def test_matmul_equality_and_hash(seed):
    rng = np.random.default_rng(seed)
    for rows, cols in SHAPES:
        for inner in (0, 1, 9, 70):
            A, B = rand(rng, rows, inner), rand(rng, inner, cols)
            P = gf2.matmul(mat(A), mat(B))
            assert P.shape == (rows, cols)
            assert P == mat(np_mul(A, B))
            assert P.tolist() == np_mul(A, B).tolist()
        A = rand(rng, rows, cols)
        a, b = mat(A), mat(A.copy())
        assert a == b and hash(a) == hash(b)
        assert np.array_equal(to_np(a), A)
        assert a != mat(np.zeros((rows, cols + 1), dtype=np.uint8))
        assert a != A.tolist()  # a Mat equals only a Mat
        if A.size:
            r, c = rng.integers(0, rows), rng.integers(0, cols)
            flipped = A.copy()
            flipped[r, c] ^= 1
            assert a != mat(flipped)


@pytest.mark.parametrize("seed", range(3))
def test_rank_image_basis_and_null_space(seed):
    for A in matrices(seed):
        m, n = A.shape
        piv = np_pivots(A)
        assert gf2.rank(mat(A)) == len(piv)
        assert image_basis(mat(A)) == mat(A[:, piv])
        N = to_np(null_space(mat(A)))
        assert N.shape == (n, n - len(piv))
        assert not np_mul(A, N).any()
        assert np_rank(N) == n - len(piv)
        # each vector's highest set bit is its free column, where every
        # other vector is 0: the coordinates ``ChainF2.limit`` reads
        free = [c for c in range(n) if c not in piv]
        assert [v.bit_length() - 1 for v in gf2.null_vectors(mat(A))] == free
        assert N[free].tolist() == np.eye(len(free), dtype=np.uint8).tolist()


@pytest.mark.parametrize("seed", range(3))
def test_solve_matrix_and_vector(seed):
    rng = np.random.default_rng(100 + seed)
    for A in matrices(seed):
        m, n = A.shape
        piv = np_pivots(A)
        free = [c for c in range(n) if c not in piv]
        for B in (np_mul(A, rand(rng, n, 3)), rand(rng, m, 2), rand(rng, m, 0)):
            X = gf2.solve(mat(A), mat(B))
            solvable = np_rank(np.concatenate([A, B], axis=1)) == len(piv)
            assert (X is not None) == solvable
            if X is not None:
                X = to_np(X)
                assert np.array_equal(np_mul(A, X), B)
                assert not X[free].any()  # free variables are zero
        b = rand(rng, m, 1)
        x = gf2.solve(mat(A), vec(b[:, 0]))
        X = gf2.solve(mat(A), mat(b))
        assert (x is None) == (X is None)
        if X is not None:
            assert np.array_equal(unvec(x, n), to_np(X)[:, 0])


@pytest.mark.parametrize("seed", range(3))
def test_inverse(seed):
    rng = np.random.default_rng(200 + seed)
    for n in (0, 1, 2, 5, 16, 40, 70):
        for _ in range(3):
            A = rand(rng, n, n)
            inv = gf2.inverse(mat(A))
            assert (inv is None) == (np_rank(A) < n)
            if inv is not None:
                assert np.array_equal(np_mul(A, to_np(inv)), np.eye(n, dtype=np.uint8))


@pytest.mark.parametrize("seed", range(3))
def test_quotient_map(seed):
    rng = np.random.default_rng(300 + seed)
    for dim in (0, 1, 4, 17, 70):
        for cols in (0, 1, 3, dim + 2):
            U = low_rank(rng, dim, cols, max(1, cols // 2)) if cols else rand(rng, dim, 0)
            Q, k = gf2.quotient_map(mat(U), dim)
            Q = to_np(Q)
            r = np_rank(U)
            assert Q.shape == (k, dim) and k == dim - r
            assert np_rank(Q) == k  # surjective
            assert not np_mul(Q, U).any()
            # the kernel of Q is exactly the column span of U
            K = to_np(null_space(mat(Q))) if dim else U
            assert np_rank(np.concatenate([U, K], axis=1)) == r


# ----------------------------------------------- chain-map linear systems


def dense_system(S, T, blocks):
    """The system of ``chain_map_system`` built densely with np.kron, in
    the standard layout (unknown c at column c, the right side apart):
    naturality d_T·h_n + h_{n+1}·d_S = 0, then (L ⊗ Rᵀ)·vec(h_n) = vec(out)."""
    degs = sorted(set(S.degrees) | set(T.degrees) | {blk[0] for blk in blocks})
    offs, total = {}, 0
    for n in degs:
        offs[n] = total
        total += T.dim(n) * S.dim(n)
    rows, rhs = [], []

    def place(n, K):
        out = np.zeros((K.shape[0], total), dtype=np.uint8)
        out[:, offs[n]:offs[n] + K.shape[1]] = K
        return out

    for n in degs:
        if T.dim(n + 1) and S.dim(n):
            nat = place(n, np.kron(to_np(T.d(n)), np.eye(S.dim(n), dtype=np.uint8))) \
                ^ place(n + 1, np.kron(np.eye(T.dim(n + 1), dtype=np.uint8), to_np(S.d(n)).T))
            rows.append(nat)
            rhs.append(np.zeros(nat.shape[0], dtype=np.uint8))
    for n, L, R, out in blocks:
        rows.append(place(n, np.kron(L, R.T)))
        rhs.append(out.ravel())
    A = np.concatenate(rows) if rows else np.zeros((0, total), dtype=np.uint8)
    b = np.concatenate(rhs) if rhs else np.zeros(0, dtype=np.uint8)
    return A % 2, b, offs


@pytest.mark.parametrize("seed", range(30))
def test_chain_map_system_has_the_row_space_of_the_dense_build(seed):
    rng = np.random.default_rng(400 + seed)
    S = random_complex(rng, max_deg=3, max_dim=4)
    T = shifted(random_complex(rng, max_deg=3, max_dim=4), int(rng.integers(-1, 2)))
    blocks = []
    for _ in range(int(rng.integers(0, 4))):
        n = int(rng.integers(-1, 5))
        a, b = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        blocks.append((n, rand(rng, a, T.dim(n)), rand(rng, S.dim(n), b), rand(rng, a, b)))
    M, offs = chain_map_system(S, T, [(n, mat(L), mat(R), mat(out))
                                      for n, L, R, out in blocks])
    D, d, dense_offs = dense_system(S, T, blocks)
    assert offs == dense_offs and M.shape == (D.shape[0], D.shape[1] + 1)
    # column 0 of M is the right side, column k unknown total - k
    aug_p = to_np(M)
    aug_d = np.concatenate([d[:, None], D[:, ::-1]], axis=1)
    for X, Y in ((aug_p[:, 1:], D[:, ::-1]), (aug_p, aug_d)):
        r = np_rank(X)
        assert r == np_rank(Y) == np_rank(np.concatenate([X, Y]))


def bitwise_system(S, T, blocks):
    """``chain_map_system`` with each row XORed together one bit at a
    time: row (p, q) of L·h_n·R holds, over the set bits i of row p of L
    and j of column q of R, entry (i, j) of h_n, unknown c = offs[n] +
    i·S.dim(n) + j at bit total - c, and its right side out[p, q] at bit
    0; the reference for its one-multiplication rows."""
    degs = sorted(set(S.degrees) | set(T.degrees) | {blk[0] for blk in blocks})
    offs, total = {}, 0
    for n in degs:
        offs[n] = total
        total += T.dim(n) * S.dim(n)

    def kron(n, L, R):
        s, o = S.dim(n), offs[n]
        out = []
        for a in L.rows:
            for q in range(R.ncols):
                acc = 0
                for i in range(L.ncols):
                    for j in range(s):
                        if a >> i & 1 and R.rows[j] >> q & 1:
                            acc ^= 1 << (total - (o + i * s + j))
                out.append(acc)
        return out

    rows = []
    for n, L, R, out in blocks:
        rhs = [r >> q & 1 for r in out.rows for q in range(out.ncols)]
        rows += [r ^ b for r, b in zip(kron(n, L, R), rhs)]
    for n in reversed(degs):
        if T.dim(n + 1) and S.dim(n):
            nat = [x ^ y for x, y in zip(kron(n, T.d(n), gf2.eye(S.dim(n))),
                                         kron(n + 1, gf2.eye(T.dim(n + 1)), S.d(n)))]
            rows += reversed(nat)
    return gf2.Mat(tuple(rows), total + 1), offs


def system_case(seed):
    """(S, T, blocks): seeded complexes, max_dim 4 so that some degrees
    are zero-dimensional, and blocks that may reach degrees outside both
    complexes, where h_n has no entries."""
    rng = np.random.default_rng(900 + seed)
    S = random_complex(rng, max_deg=3, max_dim=4)
    T = shifted(random_complex(rng, max_deg=3, max_dim=4), int(rng.integers(-1, 2)))
    blocks = []
    for _ in range(int(rng.integers(0, 5))):
        n = int(rng.integers(-1, 5))
        a, b = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        blocks.append((n, mat(rand(rng, a, T.dim(n))), mat(rand(rng, S.dim(n), b)),
                       mat(rand(rng, a, b))))
    return S, T, blocks


@pytest.mark.parametrize("seed", range(30))
def test_chain_map_system_equals_the_bitwise_build(seed):
    S, T, blocks = system_case(seed)
    assert chain_map_system(S, T, blocks) == bitwise_system(S, T, blocks)


def test_the_bitwise_cases_hold_zero_dimensional_degrees():
    cases = [system_case(seed) for seed in range(30)]
    assert sum(any(X.dim(n) == 0 for X in (S, T) for n in X.degrees)
               for S, T, _ in cases) >= 10
    assert sum(any(n not in S.degrees for n, *_ in blocks)
               for S, _, blocks in cases) >= 5
