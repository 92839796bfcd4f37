"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
quasi-isomorphism is tested through mapping-cone acyclicity on an
assembled cone complex and through induced maps on homology, limits by
raw enumeration, homs by evaluating the limit-of-colimits formula
directly.
"""

import numpy as np

from promc import gf2
from promc.base import chain_map, chain_obj, set_map, set_obj


def to_np(M):
    """A ``gf2.Mat`` as a uint8 numpy array of its shape."""
    return np.array(M.tolist(), dtype=np.uint8).reshape(M.shape)


def mat(A):
    """A 2-D numpy array as a ``gf2.Mat``."""
    return gf2.asmat(A, *A.shape)


def null_space(M):
    """A basis of the right null space of the ``gf2.Mat`` *M*, as columns:
    ``gf2.null_vectors`` side by side."""
    return gf2.transpose(gf2.Mat(tuple(gf2.null_vectors(M)), M.ncols))


def image_basis(M):
    """A basis of the column space of *M*, as columns: its pivot columns."""
    columns = gf2.transpose(M).rows
    pivots = gf2.row_echelon(M)[1]
    return gf2.transpose(gf2.Mat(tuple(columns[c] for c in pivots), len(M.rows)))


def vec(b):
    """A 0/1 vector (a list or numpy array) as a ``gf2`` vector, an int."""
    return sum((int(x) & 1) << i for i, x in enumerate(b))


def unvec(x, n):
    """The ``gf2`` vector *x* of length *n* as a uint8 numpy array."""
    return np.array([x >> i & 1 for i in range(n)], dtype=np.uint8)


# ---------------------------------------------------------------- fixtures

def disk1():
    """One generator in degrees 1 and 0, identity boundary."""
    return chain_obj(0, 1, [1, 1], {0: [[1]]})


def sphere0():
    """One generator in degree 0."""
    return chain_obj(0, 0, [1])


def disk_to_sphere():
    """Identity in degree 0, zero in degree 1."""
    return chain_map(disk1(), sphere0(), {0: [[1]]})


# ----------------------------------------------------------- cone oracle

def cone_of(f):
    """Mapping cone: degree n is X_{n+1} ⊕ Y_n, d(x, y) = (dx, fx + dy)."""
    X, Y = f.source, f.target
    lo = min(X.lo - 1, Y.lo)
    hi = max(X.hi - 1, Y.hi)
    dims = {n: X.dim(n + 1) + Y.dim(n) for n in range(lo, hi + 1)}
    diff = {}
    for n in range(lo, hi):
        a, b = X.dim(n + 1), Y.dim(n)
        ra, rb = X.dim(n + 2), Y.dim(n + 1)
        D = np.zeros((ra + rb, a + b), dtype=np.uint8)
        D[:ra, :a] = to_np(X.d(n + 1))
        D[ra:, :a] = to_np(f.mat(n + 1))
        D[ra:, a:] = to_np(Y.d(n))
        diff[n] = D
    return chain_obj(lo, hi, [dims[n] for n in range(lo, hi + 1)], diff)


def is_acyclic(obj):
    for n in range(obj.lo, obj.hi + 1):
        z = obj.dim(n) - gf2.rank(obj.d(n))
        if z != gf2.rank(obj.d(n - 1)):
            return False
    return True


def we_by_cone(f):
    """Independent quasi-isomorphism oracle."""
    return is_acyclic(cone_of(f))


# ------------------------------------------------------- homology oracle

def homology_quotient(obj, n):
    """(Z, Q) with Z a cycle basis in degree n (columns) and Q the
    projection from cycle coordinates onto H_n coordinates."""
    Z = null_space(obj.d(n))
    B = image_basis(obj.d(n - 1))
    if B.shape[1]:
        C = gf2.solve(Z, B)  # boundaries are cycles, so solvable
        assert C is not None, "boundary not a cycle"
    else:
        C = gf2.zeros(Z.shape[1], 0)
    Q, _ = gf2.quotient_map(C, Z.shape[1])
    return Z, Q


def homology_matrix(f, n):
    """The induced map H_n(source) -> H_n(target), as an explicit matrix
    computed from cycle/boundary bases."""
    Zx, Qx = homology_quotient(f.source, n)
    Zy, Qy = homology_quotient(f.target, n)
    W = gf2.solve(Zy, gf2.matmul(f.mat(n), Zx))  # chain maps carry cycles to cycles
    assert W is not None, "image of a cycle not a cycle"
    if Qx.shape[0] == 0:
        return gf2.zeros(Qy.shape[0], 0)
    # H(f) descends: pick any right inverse of the surjection Qx.
    Rx = gf2.solve(Qx, gf2.eye(Qx.shape[0]))
    return gf2.matmul(gf2.matmul(Qy, W), Rx)


def we_by_homology(f):
    """Quasi-isomorphism oracle: the induced map on homology is an
    isomorphism in every degree of either end."""
    for n in set(f.source.degrees) | set(f.target.degrees):
        H = homology_matrix(f, n)
        if H.shape[0] != H.shape[1] or gf2.rank(H) != H.shape[0]:
            return False
    return True


# ------------------------------------------------------ random generators

def random_complex(rng, max_deg=2, max_dim=3):
    lo = 0
    hi = int(rng.integers(0, max_deg + 1))
    dims = [int(rng.integers(0, max_dim + 1)) for _ in range(hi - lo + 1)]
    diff = {}
    prev = None  # d_{n-1}, to force d_n ∘ d_{n-1} = 0
    for n in range(lo, hi):
        rows, cols = dims[n + 1 - lo], dims[n - lo]
        if prev is None or not any(prev.rows):
            D = mat(rng.integers(0, 2, size=(rows, cols)).astype(np.uint8))
        else:
            Q, k = gf2.quotient_map(image_basis(prev), cols)
            R = mat(rng.integers(0, 2, size=(rows, k)).astype(np.uint8))
            D = gf2.matmul(R, Q)
        diff[n] = D
        prev = D
    return chain_obj(lo, hi, dims, diff)


def shifted(obj, k):
    """The complex *obj* with every degree raised by k."""
    return chain_obj(obj.lo + k, obj.hi + k, [obj.dim(n) for n in obj.degrees],
                     {n + k: obj.d(n) for n in range(obj.lo, obj.hi)})


def random_chain_map(rng, X, Y):
    """Uniform-ish random chain map X -> Y via the naturality null space."""
    degs = sorted(set(X.degrees) | set(Y.degrees))
    offs, total = {}, 0
    for n in degs:
        offs[n] = total
        total += Y.dim(n) * X.dim(n)
    rows = []
    for n in degs:
        # naturality: dY(n) @ f_n + f_{n+1} @ dX(n) = 0
        out_dim = Y.dim(n + 1) * X.dim(n)
        if not out_dim:
            continue
        for r in range(Y.dim(n + 1)):
            for c in range(X.dim(n)):
                row = np.zeros(total, dtype=np.uint8)
                dY, dX = to_np(Y.d(n)), to_np(X.d(n))
                for k in range(Y.dim(n)):
                    if dY[r, k] and X.dim(n):
                        row[offs[n] + k * X.dim(n) + c] ^= 1
                for k in range(X.dim(n + 1)):
                    if dX[k, c] and X.dim(n + 1):
                        row[offs[n + 1] + r * X.dim(n + 1) + k] ^= 1
                rows.append(row)
    A = gf2.asmat(rows, len(rows), total)
    N = null_space(A) if total else gf2.zeros(0, 0)
    coeffs = rng.integers(0, 2, size=N.shape[1]).astype(np.uint8)
    sol = to_np(gf2.matmul(N, mat(coeffs.reshape(-1, 1)))).ravel() if N.shape[1] \
        else np.zeros(total, np.uint8)
    mats = {}
    for n in degs:
        if Y.dim(n) and X.dim(n):
            mats[n] = sol[offs[n]:offs[n] + Y.dim(n) * X.dim(n)].reshape(Y.dim(n), X.dim(n))
    return chain_map(X, Y, mats)


def random_set_obj(rng, max_size=4, min_size=1, prefix="e"):
    k = int(rng.integers(min_size, max_size + 1))
    return set_obj([f"{prefix}{i}" for i in range(k)])


def random_set_map(rng, X, Y):
    return set_map(X, Y, {x: Y.elements[int(rng.integers(0, len(Y.elements)))]
                          for x in X.elements})


def collapse_triple():
    """Worked chain 0<1 collapse: X = ({a,b} -> {x}), Y = ({u} -> {y})."""
    from promc.indexing import chain_poset
    from promc.proobj import level_map, pro_object
    I = chain_poset(2)
    X = pro_object(I, {"1": set_obj(["a", "b"]), "0": set_obj(["x"])},
                   {("1", "0"): set_map(set_obj(["a", "b"]), set_obj(["x"]),
                                        {"a": "x", "b": "x"})})
    Y = pro_object(I, {"1": set_obj(["u"]), "0": set_obj(["y"])},
                   {("1", "0"): set_map(set_obj(["u"]), set_obj(["y"]),
                                        {"u": "y"})})
    f = level_map(X, Y, {
        "1": set_map(X.value("1"), Y.value("1"), {"a": "u", "b": "u"}),
        "0": set_map(X.value("0"), Y.value("0"), {"x": "y"}),
    })
    return X, Y, f
