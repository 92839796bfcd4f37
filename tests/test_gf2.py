import numpy as np
import pytest
from helpers import image_basis, mat, null_space, to_np, unvec, vec

from promc import gf2
from promc.chainf2 import chain_map, chain_obj
from promc.errors import MalformedError


def M(rows):
    return gf2.asmat(rows)


def test_rank_and_echelon():
    A = M([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert gf2.rank(A) == 2
    R, piv = gf2.row_echelon(A)
    assert piv == [0, 1]
    assert gf2.rank(gf2.eye(4)) == 4
    assert gf2.rank(gf2.zeros(3, 5)) == 0


def test_solve_consistent_and_inconsistent():
    A = M([[1, 1], [0, 1]])
    b = np.array([1, 1], dtype=np.uint8)
    x = gf2.solve(A, vec(b))
    assert np.array_equal(to_np(gf2.matmul(A, mat(unvec(x, 2).reshape(-1, 1)))).ravel(), b)
    A2 = M([[1, 1], [1, 1]])
    assert gf2.solve(A2, vec(np.array([0, 1], dtype=np.uint8))) is None


def test_solve_underdetermined_is_deterministic():
    A = M([[1, 1, 0]])
    b = np.array([1], dtype=np.uint8)
    x = gf2.solve(A, vec(b))
    # free variables are zeroed: lowest pivot carries the value
    assert list(unvec(x, 3)) == [1, 0, 0]


def test_null_space():
    A = M([[1, 1, 0], [0, 0, 1]])
    N = null_space(A)
    assert N.shape == (3, 1)
    assert not any(gf2.matmul(A, N).rows)
    assert null_space(gf2.eye(3)).shape == (3, 0)


def test_inverse():
    A = M([[1, 1], [0, 1]])
    Ainv = gf2.inverse(A)
    assert gf2.matmul(A, Ainv) == gf2.eye(2)
    assert gf2.inverse(M([[1, 1], [1, 1]])) is None


def test_image_basis():
    A = M([[1, 1, 0], [1, 1, 1]])
    B = image_basis(A)
    assert B.shape == (2, 2)
    assert gf2.rank(B) == 2


def test_quotient_map():
    U = M([[1], [1], [0]])  # span{(1,1,0)}
    Q, k = gf2.quotient_map(U, 3)
    assert k == 2
    assert not any(gf2.matmul(Q, U).rows)
    assert gf2.rank(Q) == 2
    # kernel of Q is exactly the span
    N = null_space(Q)
    assert N.shape[1] == 1
    assert gf2.solve(U, vec(to_np(N)[:, 0])) is not None


@pytest.mark.parametrize("seed", range(8))
def test_quotient_map_random(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    U = mat(rng.integers(0, 2, size=(dim, int(rng.integers(0, 4)))).astype(np.uint8))
    Q, k = gf2.quotient_map(U, dim)
    assert k == dim - gf2.rank(U)
    assert not any(gf2.matmul(Q, U).rows)
    assert gf2.rank(Q) == k


# ------------------------------------------- against a pure-Python reference


def ref_row_echelon(M, reduce):
    """Row reduction on lists of 0/1 ints: lowest pivot column first, swap
    with the first row holding it, clear below (and above if reducing)."""
    R = [[int(x) for x in row] for row in M.tolist()]
    m, n = M.shape
    pivots, pr = [], 0
    for col in range(n):
        if pr >= m:
            break
        hit = next((r for r in range(pr, m) if R[r][col]), None)
        if hit is None:
            continue
        R[pr], R[hit] = R[hit], R[pr]
        targets = range(m) if reduce else range(pr + 1, m)
        for r in targets:
            if r != pr and R[r][col]:
                R[r] = [a ^ b for a, b in zip(R[r], R[pr])]
        pivots.append(col)
        pr += 1
    return R, pivots


# (rows, cols, rank): rank None is a uniform random matrix; otherwise a
# product of random (rows x rank) and (rank x cols) factors, so at most rank
REF_SHAPES = [
    (0, 5, None), (5, 0, None), (0, 0, None), (1, 1, None),
    (16, 16, None), (63, 64, None), (64, 64, None), (64, 65, None),
    (65, 64, None), (200, 10, None), (10, 200, None),
    (16, 16, 5), (64, 64, 7), (64, 65, 30), (65, 64, 1), (40, 30, 0),
]


def ref_matrix(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
    L = rng.integers(0, 2, size=(rows, rank)).astype(np.uint8)
    Rt = rng.integers(0, 2, size=(rank, cols)).astype(np.uint8)
    return to_np(gf2.matmul(mat(L), mat(Rt)))


# direct: row-reduce the matrix itself; otherwise the reference's
# non-reduced echelon form of it, a row-equivalent matrix with the same RREF
@pytest.mark.parametrize("direct", [True, False])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows,cols,rank", REF_SHAPES)
def test_row_echelon_matches_reference(rows, cols, rank, seed, direct):
    A = ref_matrix(rows, cols, rank, seed)
    given = A if direct else np.array(ref_row_echelon(A, False)[0],
                                      dtype=np.uint8).reshape(A.shape)
    R, piv = gf2.row_echelon(mat(given))
    ref, ref_piv = ref_row_echelon(A, True)
    assert isinstance(R, gf2.Mat) and R.shape == A.shape
    assert R.tolist() == ref
    assert piv == ref_piv
    if rank is not None:
        assert len(piv) <= rank


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows,cols,rank", REF_SHAPES)
def test_solve_and_null_space_on_reference_shapes(rows, cols, rank, seed):
    A = ref_matrix(rows, cols, rank, seed)
    r = len(ref_row_echelon(A, False)[1])
    rng = np.random.default_rng(100 + seed)
    X0 = rng.integers(0, 2, size=(cols, 3)).astype(np.uint8)
    A = mat(A)
    B = gf2.matmul(A, mat(X0))
    X = gf2.solve(A, B)
    assert X is not None and X.shape == (cols, 3)
    assert gf2.matmul(A, X) == B
    if cols:
        N = null_space(A)
        assert N.shape == (cols, cols - r)
        assert not any(gf2.matmul(A, N).rows)
        assert gf2.rank(N) == cols - r


# --------------------------- the int-row kernel against the reference, all


def ref_solve(A, B):
    """X with free variables zero from the reference RREF of [A | B] mod 2,
    or None when a pivot lands in the B block."""
    n = A.shape[1]
    R, piv = ref_row_echelon(np.concatenate([A % 2, B % 2], axis=1), True)
    if any(c >= n for c in piv):
        return None
    X = np.zeros((n, B.shape[1]), dtype=np.uint8)
    for i, c in enumerate(piv):
        X[c] = R[i][n:]
    return X


def ref_null_space(A):
    n = A.shape[1]
    R, piv = ref_row_echelon(A % 2, True)
    free = [c for c in range(n) if c not in piv]
    N = np.zeros((n, len(free)), dtype=np.uint8)
    for j, fc in enumerate(free):
        N[fc, j] = 1
        for i, pc in enumerate(piv):
            N[pc, j] = R[i][fc]
    return N


def assert_matches_reference(A, B):
    """row_echelon, solve, null_space, rank and image_basis on A (and B),
    entries read mod 2, equal the pure-Python reference."""
    A2 = A % 2
    Am, Bm = mat(A), mat(B)
    R, piv = gf2.row_echelon(Am)
    ref, ref_piv = ref_row_echelon(A2, True)
    assert isinstance(R, gf2.Mat) and R.shape == A.shape
    assert R.tolist() == ref and piv == ref_piv
    assert gf2.rank(Am) == len(ref_piv)
    assert image_basis(Am) == mat(A2[:, ref_piv])
    if A.shape[1]:
        assert null_space(Am) == mat(ref_null_space(A))
    X, ref_X = gf2.solve(Am, Bm), ref_solve(A, B)
    if ref_X is None:
        assert X is None
    else:
        assert X is not None and X == mat(ref_X)
        assert gf2.matmul(mat(A2), X) == mat(B % 2)
    return ref_X


def sparse_matrix(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.uint8)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("rows,cols,density", [
    (300, 200, 0.01), (200, 300, 0.01), (400, 150, 0.005), (150, 400, 0.02),
])
def test_sparse_shapes_above_64(rows, cols, density, seed):
    A = sparse_matrix(rows, cols, density, seed)
    rng = np.random.default_rng(50 + seed)
    X0 = rng.integers(0, 2, size=(cols, 2)).astype(np.uint8)
    assert assert_matches_reference(A, to_np(gf2.matmul(mat(A), mat(X0)))) is not None
    assert_matches_reference(A, rng.integers(0, 2, size=(rows, 1)).astype(np.uint8))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("rows,cols,rank", [
    (300, 200, 40), (200, 300, 90), (130, 70, 3),
])
def test_sparse_rank_deficient_shapes_above_64(rows, cols, rank, seed):
    L = sparse_matrix(rows, rank, 0.05, seed)
    Rt = sparse_matrix(rank, cols, 0.05, 10 + seed)
    A = to_np(gf2.matmul(mat(L), mat(Rt)))
    B = to_np(gf2.matmul(mat(A), mat(sparse_matrix(cols, 3, 0.1, 20 + seed))))
    assert_matches_reference(A, B)
    assert gf2.rank(mat(A)) <= rank


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("rows,cols,rank", [
    (100, 80, None), (80, 130, None), (129, 129, None), (150, 120, 40),
])
def test_dense_shapes_above_64(rows, cols, rank, seed):
    A = ref_matrix(rows, cols, rank, seed)
    rng = np.random.default_rng(70 + seed)
    B = to_np(gf2.matmul(mat(A), mat(rng.integers(0, 2, size=(cols, 4)).astype(np.uint8))))
    assert assert_matches_reference(A, B) is not None
    assert_matches_reference(A, rng.integers(0, 2, size=(rows, 70)).astype(np.uint8))


@pytest.mark.parametrize("rows,cols", [(65, 0), (0, 65), (65, 33), (3, 70)])
def test_zero_right_hand_side_columns(rows, cols):
    A = ref_matrix(rows, cols, None, 0)
    X = assert_matches_reference(A, np.zeros((rows, 0), dtype=np.uint8))
    assert X.shape == (cols, 0)


@pytest.mark.parametrize("rows,cols", [(70, 66), (10, 12), (66, 200)])
def test_inconsistent_system_pivots_in_the_b_block(rows, cols):
    A = ref_matrix(rows, cols, 20 if min(rows, cols) > 20 else 4, 3)
    A[5] = 0
    b = to_np(gf2.matmul(mat(A), mat(ref_matrix(cols, 1, None, 4))))[:, 0]
    b[5] = 1  # row 5 reads 0 = 1
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    _, piv = ref_row_echelon(aug, True)
    _, piv_A = ref_row_echelon(A, True)
    assert piv == piv_A + [cols]  # the only extra pivot is b's column
    assert gf2.solve(mat(A), vec(b)) is None
    assert assert_matches_reference(A, b.reshape(-1, 1)) is None


@pytest.mark.parametrize("rows,cols", [(7, 9), (64, 64), (90, 70), (120, 300)])
def test_entries_two_and_three_act_as_zero_and_one(rows, cols):
    rng = np.random.default_rng(rows * cols)
    A = ref_matrix(rows, cols, None, 5)
    B = to_np(gf2.matmul(mat(A), mat(ref_matrix(cols, 2, None, 6))))
    A23 = A + 2 * rng.integers(0, 2, size=A.shape).astype(np.uint8)
    B23 = B + 2 * rng.integers(0, 2, size=B.shape).astype(np.uint8)
    assert set(np.unique(A23)) == {0, 1, 2, 3}
    assert assert_matches_reference(A23, B23) is not None
    assert gf2.solve(mat(A23), mat(B23[:, :1])) == gf2.solve(mat(A), mat(B[:, :1]))


# ------------------------------------------------ reading 0/1 documents


@pytest.mark.parametrize("seed", range(10))
def test_pack01_packs_as_asmat_reads(seed):
    """Rows on both sides of the lookup table's width, and empty rows."""
    rng = np.random.default_rng(900 + seed)
    for rows, cols in [(1, 1), (3, 8), (2, 9), (5, 0), (4, 70), (1, 200)]:
        M = rng.integers(0, 2, size=(rows, cols)).tolist()
        expected = gf2.Mat(tuple(sum(x << c for c, x in enumerate(r)) for r in M), cols)
        assert gf2.pack01(M) == expected == gf2.asmat(M)


@pytest.mark.parametrize("M", [
    [], [[2]], [[True]], [[0] * 9 + [False]], [[0] * 9 + [2]], [[256]], [[-1]],
    [[1.0]], [["1"]], ["01"], [[0], [0, 1]], [[[1]]], [[None]], [(0, 1)], (([0],)),
])
def test_pack01_refuses_anything_but_equal_lists_of_0_and_1(M):
    assert gf2.pack01(M) is None


@pytest.mark.parametrize("M,message", [
    ([[0] * 9, [1] * 8 + [2], [3] * 9], "not a 0/1 entry: 2"),
    ([[0, 1], [1, True]], "not a 0/1 entry: True"),
    ([[0] * 10 + [-1]], "not a 0/1 entry: -1"),
    ([[0, 1], [1]], "expected a matrix: rows of different lengths"),
    ([[0, 1]] * 2, "has shape (2, 2), expected (2, 9)"),
    ([[1] * 9], "has shape (1, 9), expected (2, 9)"),
])
def test_a_chainf2_matrix_is_refused_with_its_first_bad_entry_or_shape(M, message):
    S, T = chain_obj(0, 0, [9]), chain_obj(0, 0, [2])
    with pytest.raises(MalformedError) as e:
        chain_map(S, T, {0: M})
    sep = " " if message.startswith("has shape") else ": "
    assert str(e.value) == "matrix in degree 0" + sep + message
