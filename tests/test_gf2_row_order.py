"""Row order sets the cost of a GF(2) elimination, never its result.

``chainf2.chain_map_system`` emits its rows in a fill-reducing order and
``gf2`` eliminates them in the order given.  The reduced row echelon
form is unique, and so are the solution with free unknowns zero and the
null vectors of either pivot rule, so every routine must return the same
bits for any row order: ``row_echelon``, ``null_vectors``, ``solve``,
``solve_high`` and ``null_vectors_high`` exactly, and the reference
``helpers.image_basis`` up to the same permutation of its rows.  Checked
on the lift systems of seeded strict-factorization squares over chain4
and chain5, read in the standard layout (``helpers.standard_system``),
and on random sparse matrices above 64 columns.
"""

import random

import pytest
from helpers import image_basis, standard_system

from promc import chainf2, gf2, strict, suites
from promc.base import CHAIN_F2
from promc.indexing import from_covers


def permute_rows(M, perm):
    return gf2.Mat(tuple(M.rows[i] for i in perm), M.ncols)


def permute_bits(b, perm):
    return sum((b >> i & 1) << k for k, i in enumerate(perm))


def times_vector(A, x):
    """A·x as a vector: bit r is the parity of row r of A against x."""
    return sum(((r & x).bit_count() & 1) << i for i, r in enumerate(A.rows))


def right_hand_sides(rng, A):
    """Vector and ``Mat`` right-hand sides for A: A times a random x or X,
    the same with one bit flipped, and random ones."""
    m, n = A.shape
    b = times_vector(A, rng.getrandbits(n))
    B = gf2.matmul(A, gf2.Mat(tuple(rng.getrandbits(2) for _ in range(n)), 2))
    vecs = [b, rng.getrandbits(m)]
    mats = [B, gf2.Mat(tuple(rng.getrandbits(3) for _ in range(m)), 3)]
    if m:
        row = rng.randrange(m)
        vecs.append(b ^ 1 << row)
        mats.append(gf2.Mat(tuple(r ^ (i == row) for i, r in enumerate(B.rows)), 2))
    return vecs, mats


def augmented(A, b):
    """The rows of A above the right side b, as ``gf2.solve_high`` reads
    them: column c of A at bit c + 1, the right side of row r at bit 0."""
    return gf2.Mat(tuple(r << 1 | (b >> i & 1) for i, r in enumerate(A.rows)), A.ncols + 1)


def results(A, vecs, mats):
    return (gf2.row_echelon(A), gf2.null_vectors(A),
            [gf2.solve(A, b) for b in vecs], [gf2.solve(A, B) for B in mats],
            gf2.null_vectors_high(augmented(A, 0)),
            [gf2.solve_high(augmented(A, b)) for b in vecs])


def assert_order_free(A, vecs, mats, rng):
    """The results for A and every right-hand side are the same with A's
    rows reversed and randomly permuted; returns the solutions."""
    expected = results(A, vecs, mats)
    image = image_basis(A)
    shuffled = list(range(len(A.rows)))
    rng.shuffle(shuffled)
    for perm in (shuffled, range(len(A.rows) - 1, -1, -1)):
        PA = permute_rows(A, perm)
        got = results(PA, [permute_bits(b, perm) for b in vecs],
                      [permute_rows(B, perm) for B in mats])
        assert got == expected
        assert image_basis(PA) == permute_rows(image, perm)
    return expected[2] + expected[3]


def lift_systems(shape, seed, mode):
    """Every system that ``chain_map_system`` builds while lifting the
    square (j, p, j, p) of the strict factorization of a seeded level
    map over *shape*, as (A, b) in the standard layout."""
    P = from_covers(*suites.POSET_SHAPES[shape])
    f = suites.gen_level_map(suites.Rng(seed), P, CHAIN_F2, max_deg=2, max_dim=2)
    fs = strict.factor_strict(f, mode)
    caught = []
    build = chainf2.chain_map_system

    def capture(S, T, blocks=()):
        out = build(S, T, blocks)
        caught.append(standard_system(out[0]))
        return out

    chainf2.chain_map_system = capture
    try:
        strict.lift_strict(fs.left, fs.right, fs.left, fs.right, mode=mode,
                           special=fs.special)
    finally:
        chainf2.chain_map_system = build
    return caught


@pytest.mark.parametrize("mode", [strict.MODE_L1, strict.MODE_L2])
@pytest.mark.parametrize("shape,seed", [("chain4", 0), ("chain4", 3),
                                        ("chain5", 1), ("chain5", 3)])
def test_lift_systems_give_the_same_results_in_any_row_order(shape, seed, mode):
    systems = lift_systems(shape, seed, mode)
    assert max(A.ncols for A, _ in systems) > 64
    rng = random.Random(seed)
    solutions = []
    for A, b in systems:
        vecs, mats = right_hand_sides(rng, A)
        solutions += assert_order_free(A, [b, *vecs], mats, rng)
    assert any(x is None for x in solutions)
    assert any(x is not None for x in solutions)


def sparse(rng, rows, cols, density):
    return gf2.Mat(tuple(sum(1 << c for c in range(cols) if rng.random() < density)
                         for _ in range(rows)), cols)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("rows,cols,density,rank", [
    (300, 200, 0.01, None), (200, 300, 0.02, None), (150, 90, 0.05, None),
    (120, 400, 0.01, None), (300, 200, 0.05, 40), (130, 70, 0.1, 3),
])
def test_sparse_matrices_give_the_same_results_in_any_row_order(rows, cols, density,
                                                                rank, seed):
    rng = random.Random(100 * seed + rows + cols)
    if rank is None:
        A = sparse(rng, rows, cols, density)
    else:
        A = gf2.matmul(sparse(rng, rows, rank, density),
                       sparse(rng, rank, cols, density))
    vecs, mats = right_hand_sides(rng, A)
    solutions = assert_order_free(A, vecs, mats, rng)
    assert solutions[0] is not None  # A times a random x
