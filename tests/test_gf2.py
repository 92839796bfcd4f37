import numpy as np
import pytest

from promc import gf2


def M(rows):
    return np.array(rows, dtype=np.uint8)


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
    x = gf2.solve(A, b)
    assert np.array_equal(gf2.matmul(A, x.reshape(-1, 1)).ravel(), b)
    A2 = M([[1, 1], [1, 1]])
    assert gf2.solve(A2, np.array([0, 1], dtype=np.uint8)) is None


def test_solve_underdetermined_is_deterministic():
    A = M([[1, 1, 0]])
    b = np.array([1], dtype=np.uint8)
    x = gf2.solve(A, b)
    # free variables are zeroed: lowest pivot carries the value
    assert list(x) == [1, 0, 0]


def test_null_space():
    A = M([[1, 1, 0], [0, 0, 1]])
    N = gf2.null_space(A)
    assert N.shape == (3, 1)
    assert not gf2.matmul(A, N).any()
    assert gf2.null_space(gf2.eye(3)).shape == (3, 0)


def test_inverse():
    A = M([[1, 1], [0, 1]])
    Ainv = gf2.inverse(A)
    assert gf2.mat_eq(gf2.matmul(A, Ainv), gf2.eye(2))
    assert gf2.inverse(M([[1, 1], [1, 1]])) is None


def test_image_basis():
    A = M([[1, 1, 0], [1, 1, 1]])
    B = gf2.image_basis(A)
    assert B.shape == (2, 2)
    assert gf2.rank(B) == 2


def test_quotient_map():
    U = M([[1], [1], [0]])  # span{(1,1,0)}
    Q, k = gf2.quotient_map(U, 3)
    assert k == 2
    assert not gf2.matmul(Q, U).any()
    assert gf2.rank(Q) == 2
    # kernel of Q is exactly the span
    N = gf2.null_space(Q)
    assert N.shape[1] == 1
    assert gf2.solve(U, N[:, 0]) is not None


@pytest.mark.parametrize("seed", range(8))
def test_quotient_map_random(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    U = rng.integers(0, 2, size=(dim, int(rng.integers(0, 4)))).astype(np.uint8)
    Q, k = gf2.quotient_map(U, dim)
    assert k == dim - gf2.rank(U)
    assert not gf2.matmul(Q, U).any()
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
    return gf2.matmul(L, Rt)


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows,cols,rank", REF_SHAPES)
def test_row_echelon_matches_reference(rows, cols, rank, seed, reduce):
    A = ref_matrix(rows, cols, rank, seed)
    R, piv = gf2.row_echelon(A, reduce=reduce)
    ref, ref_piv = ref_row_echelon(A, reduce)
    assert R.dtype == np.uint8 and R.shape == A.shape
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
    B = gf2.matmul(A, X0)
    X = gf2.solve(A, B)
    assert X is not None and X.shape == (cols, 3)
    assert gf2.mat_eq(gf2.matmul(A, X), B)
    if cols:
        N = gf2.null_space(A)
        assert N.shape == (cols, cols - r)
        assert not gf2.matmul(A, N).any()
        assert gf2.rank(N) == cols - r
