"""
The two exact model instances and their map-level operations.

SetBij: finite sets; weak equivalences are the bijections; every map is
both a cofibration and a fibration.

ChainF2: bounded chain complexes of finite-dimensional GF(2) vector
spaces; weak equivalences are quasi-isomorphisms, fibrations the
degreewise surjections, cofibrations the degreewise injections (every
degreewise injection has projective cokernel over a field).

Differentials raise degree by one: d_n maps degree n to degree n+1 and
d_{n+1} ∘ d_n = 0.  Degrees run over a finite range [lo, hi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import MalformedError, PreconditionError

SET_BIJ = "set-bij"
CHAIN_F2 = "chain-f2"

COF_ACF = "cof-then-acyclicfib"
ACOF_FIB = "acycliccof-then-fib"


class BaseObject:
    """An object of one of the two instances.

    SetBij payload: a tuple of distinct element names.
    ChainF2 payload: a degree range [lo, hi], a dimension per degree and
    one boundary matrix per degree (d_n maps degree n to degree n+1).
    """

    __slots__ = ("instance", "elements", "lo", "hi", "_dims", "_diff")

    def __init__(self, instance, elements=None, lo=0, hi=0, dims=None, diff=None):
        self.instance = instance
        if instance == SET_BIJ:
            elements = tuple(elements)
            if len(set(elements)) != len(elements):
                raise MalformedError(f"duplicate element names: {elements}")
            self.elements = elements
            self.lo = self.hi = 0
            self._dims = self._diff = None
        elif instance == CHAIN_F2:
            self.elements = None
            if lo > hi:
                raise MalformedError("empty degree range; use a zero complex instead")
            self.lo, self.hi = int(lo), int(hi)
            dims = {n: int(dims[n]) for n in range(lo, hi + 1)}
            if any(d < 0 for d in dims.values()):
                raise MalformedError("negative dimension")
            self._dims = dims
            diff = dict(diff or {})
            self._diff = {}
            for n in range(lo, hi):
                M = gf2.asmat(diff.get(n, []), dims[n + 1], dims[n])
                if M.shape != (dims[n + 1], dims[n]):
                    raise MalformedError(
                        f"boundary out of degree {n} has shape {M.shape}, "
                        f"expected {(dims[n + 1], dims[n])}")
                self._diff[n] = M
            for n in range(lo, hi - 1):
                if gf2.matmul(self._diff[n + 1], self._diff[n]).any():
                    raise MalformedError(f"d∘d nonzero out of degree {n}")
        else:
            raise MalformedError(f"unknown instance {instance!r}")

    def dim(self, n):
        if self.instance == SET_BIJ:
            raise PreconditionError("dim() is a ChainF2 accessor")
        return self._dims.get(n, 0)

    def d(self, n):
        """Boundary matrix degree n -> n+1 (zero outside the stored range)."""
        M = self._diff.get(n)
        if M is None:
            return gf2.zeros(self.dim(n + 1), self.dim(n))
        return M

    @property
    def degrees(self):
        return range(self.lo, self.hi + 1)

    def total_dim(self):
        return sum(self._dims.values())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BaseObject) or self.instance != other.instance:
            return False
        if self.instance == SET_BIJ:
            return self.elements == other.elements
        degs = set(self.degrees) | set(other.degrees)
        return all(self.dim(n) == other.dim(n) for n in degs) and all(
            gf2.mat_eq(self.d(n), other.d(n)) for n in degs)

    def __hash__(self):
        if self.instance == SET_BIJ:
            return hash((SET_BIJ, self.elements))
        return hash((CHAIN_F2, tuple(sorted((n, d) for n, d in self._dims.items() if d))))

    def __repr__(self):
        if self.instance == SET_BIJ:
            return f"SetObj{self.elements}"
        return f"ChainObj[{self.lo},{self.hi}]dims={[self.dim(n) for n in self.degrees]}"


def set_obj(names):
    return BaseObject(SET_BIJ, elements=names)


def chain_obj(lo, hi, dims, diff=None):
    """Build a ChainF2 object; *dims* is a list indexed from lo, *diff* a
    dict source-degree -> matrix (rows = dim one above, cols = dim at degree)."""
    return BaseObject(CHAIN_F2, lo=lo, hi=hi,
                      dims={lo + k: d for k, d in enumerate(dims)}, diff=diff)


def zero_complex():
    return chain_obj(0, 0, [0])


class BaseMap:
    """A morphism in one of the two instances.

    SetBij payload: a total function on element names (dict).
    ChainF2 payload: one matrix per degree, commuting with boundaries.
    """

    __slots__ = ("instance", "source", "target", "mapping", "_mats")

    def __init__(self, source, target, mapping=None, mats=None, check=True):
        if source.instance != target.instance:
            raise MalformedError("source and target from different instances")
        self.instance = source.instance
        self.source = source
        self.target = target
        if self.instance == SET_BIJ:
            self.mapping = dict(mapping)
            self._mats = None
            if check:
                if set(self.mapping) != set(source.elements):
                    raise MalformedError("map not total on its source")
                bad = [v for v in self.mapping.values() if v not in target.elements]
                if bad:
                    raise MalformedError(f"image outside target: {bad}")
        else:
            self.mapping = None
            mats = dict(mats or {})
            self._mats = {}
            degs = set(source.degrees) | set(target.degrees)
            for n in degs:
                M = gf2.asmat(mats.get(n, []), target.dim(n), source.dim(n))
                if M.shape != (target.dim(n), source.dim(n)):
                    raise MalformedError(
                        f"matrix in degree {n} has shape {M.shape}, "
                        f"expected {(target.dim(n), source.dim(n))}")
                if M.any():
                    self._mats[n] = M
            if check:
                for n in degs:
                    lhs = gf2.matmul(target.d(n), self.mat(n))
                    rhs = gf2.matmul(self.mat(n + 1), source.d(n))
                    if not gf2.mat_eq(lhs, rhs):
                        raise MalformedError(f"does not commute with boundaries at degree {n}")

    def mat(self, n):
        M = self._mats.get(n)
        if M is None:
            return gf2.zeros(self.target.dim(n), self.source.dim(n))
        return M

    def __call__(self, x):
        if self.instance != SET_BIJ:
            raise PreconditionError("element application is SetBij-only")
        return self.mapping[x]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BaseMap) or self.instance != other.instance:
            return False
        if self.source != other.source or self.target != other.target:
            return False
        if self.instance == SET_BIJ:
            return self.mapping == other.mapping
        degs = set(self.source.degrees) | set(self.target.degrees)
        return all(gf2.mat_eq(self.mat(n), other.mat(n)) for n in degs)

    def __hash__(self):
        if self.instance == SET_BIJ:
            return hash((SET_BIJ, self.source, self.target,
                         tuple(sorted(self.mapping.items()))))
        return hash((CHAIN_F2, self.source, self.target,
                     tuple(sorted((n, M.tobytes()) for n, M in self._mats.items()))))

    def __repr__(self):
        if self.instance == SET_BIJ:
            return f"SetMap({self.mapping})"
        return f"ChainMap({self.source!r}->{self.target!r})"


def set_map(source, target, mapping):
    return BaseMap(source, target, mapping=mapping)


def chain_map(source, target, mats):
    return BaseMap(source, target, mats=mats)


def identity(obj):
    if obj.instance == SET_BIJ:
        return BaseMap(obj, obj, mapping={x: x for x in obj.elements}, check=False)
    return BaseMap(obj, obj, mats={n: gf2.eye(obj.dim(n)) for n in obj.degrees},
                   check=False)


def compose(g, f):
    """g ∘ f."""
    if f.target != g.source:
        raise PreconditionError("non-composable maps")
    if f.instance == SET_BIJ:
        return BaseMap(f.source, g.target,
                       mapping={x: g.mapping[f.mapping[x]] for x in f.source.elements},
                       check=False)
    degs = set(f.source.degrees) | set(g.target.degrees) | set(f.target.degrees)
    return BaseMap(f.source, g.target,
                   mats={n: gf2.matmul(g.mat(n), f.mat(n)) for n in degs},
                   check=False)


@dataclass(frozen=True)
class MapClasses:
    is_we: bool
    is_cof: bool
    is_fib: bool


def _homology_quotient(obj, n):
    """(Z, Q) with Z a cycle basis in degree n (columns) and Q the
    projection from cycle coordinates onto H_n coordinates."""
    Z = gf2.null_space(obj.d(n))
    B = gf2.image_basis(obj.d(n - 1))
    if B.shape[1]:
        C = gf2.solve(Z, B)  # boundaries are cycles, so solvable
        if C is None:
            raise AssertionError("boundary not a cycle")
    else:
        C = gf2.zeros(Z.shape[1], 0)
    Q, _ = gf2.quotient_map(C, Z.shape[1])
    return Z, Q


def homology_matrix(f, n):
    """The induced map H_n(source) -> H_n(target), as an explicit matrix
    computed from cycle/boundary bases."""
    Zx, Qx = _homology_quotient(f.source, n)
    Zy, Qy = _homology_quotient(f.target, n)
    fZ = gf2.matmul(f.mat(n), Zx)
    W = gf2.solve(Zy, fZ)  # chain maps carry cycles to cycles
    if W is None:
        raise AssertionError("image of a cycle not a cycle")
    # H(f) descends: pick any right inverse of the surjection Qx.
    Rx = gf2.solve(Qx, gf2.eye(Qx.shape[0]))
    if Qx.shape[0] == 0:
        return gf2.zeros(Qy.shape[0], 0)
    return gf2.matmul(gf2.matmul(Qy, W), Rx)


def classify_map(f):
    """Class flags {is_we, is_cof, is_fib} for a base map."""
    if f.instance == SET_BIJ:
        is_bij = (len(set(f.mapping.values())) == len(f.source.elements)
                  and len(f.source.elements) == len(f.target.elements))
        return MapClasses(is_we=is_bij, is_cof=True, is_fib=True)
    degs = sorted(set(f.source.degrees) | set(f.target.degrees))
    is_cof = all(gf2.rank(f.mat(n)) == f.source.dim(n) for n in degs)
    is_fib = all(gf2.rank(f.mat(n)) == f.target.dim(n) for n in degs)
    is_we = True
    for n in degs:
        H = homology_matrix(f, n)
        if H.shape[0] != H.shape[1] or gf2.rank(H) != H.shape[0]:
            is_we = False
            break
    return MapClasses(is_we=is_we, is_cof=is_cof, is_fib=is_fib)


@dataclass(frozen=True)
class FactorizationPair:
    """left (cofibration) then right (fibration); mode declares which of
    the two is acyclic.  right ∘ left equals the factored map."""
    left: BaseMap
    right: BaseMap
    mode: str

    @property
    def middle(self):
        return self.left.target

    def composite(self):
        return compose(self.right, self.left)


def _cylinder_factor(f):
    """Mapping cylinder: middle in degree n is X_n ⊕ X_{n+1} ⊕ Y_n with
    d(x, x', y) = (dx + x', dx', dy + f x'); all signs +1 over GF(2)."""
    X, Y = f.source, f.target
    lo = min(X.lo - 1, Y.lo)
    hi = max(X.hi, Y.hi)
    dims = {n: X.dim(n) + X.dim(n + 1) + Y.dim(n) for n in range(lo, hi + 1)}
    diff = {}
    for n in range(lo, hi):
        a, b, c = X.dim(n), X.dim(n + 1), Y.dim(n)
        ra, rb, rc = X.dim(n + 1), X.dim(n + 2), Y.dim(n + 1)
        D = gf2.zeros(ra + rb + rc, a + b + c)
        D[:ra, :a] = X.d(n)
        D[:ra, a:a + b] = gf2.eye(b)
        D[ra:ra + rb, a:a + b] = X.d(n + 1)
        D[ra + rb:, a:a + b] = f.mat(n + 1)
        D[ra + rb:, a + b:] = Y.d(n)
        diff[n] = D
    mid = BaseObject(CHAIN_F2, lo=lo, hi=hi, dims=dims, diff=diff)
    imats, rmats = {}, {}
    for n in range(lo, hi + 1):
        a, b, c = X.dim(n), X.dim(n + 1), Y.dim(n)
        I = gf2.zeros(a + b + c, X.dim(n))
        I[:a, :] = gf2.eye(a)
        imats[n] = I
        R = gf2.zeros(Y.dim(n), a + b + c)
        R[:, :a] = f.mat(n)
        R[:, a + b:] = gf2.eye(c)
        rmats[n] = R
    return FactorizationPair(left=BaseMap(X, mid, mats=imats),
                             right=BaseMap(mid, Y, mats=rmats),
                             mode=COF_ACF)


def _path_factor(f):
    """Mapping path object: middle in degree n is X_n ⊕ Y_n ⊕ Y_{n-1} with
    d(x, b, c) = (dx, db, fx + b + dc)."""
    X, Y = f.source, f.target
    lo = min(X.lo, Y.lo)
    hi = max(X.hi, Y.hi + 1)
    dims = {n: X.dim(n) + Y.dim(n) + Y.dim(n - 1) for n in range(lo, hi + 1)}
    diff = {}
    for n in range(lo, hi):
        a, b, c = X.dim(n), Y.dim(n), Y.dim(n - 1)
        ra, rb, rc = X.dim(n + 1), Y.dim(n + 1), Y.dim(n)
        D = gf2.zeros(ra + rb + rc, a + b + c)
        D[:ra, :a] = X.d(n)
        D[ra:ra + rb, a:a + b] = Y.d(n)
        D[ra + rb:, :a] = f.mat(n)
        D[ra + rb:, a:a + b] = gf2.eye(b)
        D[ra + rb:, a + b:] = Y.d(n - 1)
        diff[n] = D
    mid = BaseObject(CHAIN_F2, lo=lo, hi=hi, dims=dims, diff=diff)
    imats, pmats = {}, {}
    for n in range(lo, hi + 1):
        a, b, c = X.dim(n), Y.dim(n), Y.dim(n - 1)
        I = gf2.zeros(a + b + c, X.dim(n))
        I[:a, :] = gf2.eye(a)
        I[a:a + b, :] = f.mat(n)
        imats[n] = I
        P = gf2.zeros(Y.dim(n), a + b + c)
        P[:, a:a + b] = gf2.eye(b)
        pmats[n] = P
    return FactorizationPair(left=BaseMap(X, mid, mats=imats),
                             right=BaseMap(mid, Y, mats=pmats),
                             mode=ACOF_FIB)


def factor_map(f, mode):
    """Factor f per *mode*.

    SetBij: cof-then-acyclicfib is (f, id_target); acycliccof-then-fib
    is (id_source, f).  ChainF2: mapping cylinder, resp. mapping path
    object.
    """
    if mode not in (COF_ACF, ACOF_FIB):
        raise PreconditionError(f"unknown factorization mode {mode!r}")
    if f.instance == SET_BIJ:
        if mode == COF_ACF:
            return FactorizationPair(left=f, right=identity(f.target), mode=mode)
        return FactorizationPair(left=identity(f.source), right=f, mode=mode)
    if mode == COF_ACF:
        return _cylinder_factor(f)
    return _path_factor(f)


def _check_square(i, p, top, bottom):
    if not (i.source == top.source and i.target == bottom.source
            and p.source == top.target and p.target == bottom.target):
        raise PreconditionError("square corners do not line up")
    if compose(p, top) != compose(bottom, i):
        raise PreconditionError("square does not commute")


def solve_lift(i, p, top, bottom):
    """Diagonal filler h with h∘i = top and p∘h = bottom, or None.

    Guaranteed to find a lift when (i cofibration, p acyclic fibration)
    or (i acyclic cofibration, p fibration).  SetBij inverts whichever
    of i, p is a bijection.  ChainF2 solves the full GF(2) linear system
    in the entries of h (all degrees at once); pivots are chosen lowest
    index first and free entries are zero, so the lift is deterministic.
    """
    _check_square(i, p, top, bottom)
    if i.instance == SET_BIJ:
        ci, cp = classify_map(i), classify_map(p)
        if cp.is_we:
            pinv = {v: k for k, v in p.mapping.items()}
            return BaseMap(i.target, p.source,
                           mapping={b: pinv[bottom.mapping[b]]
                                    for b in i.target.elements})
        if ci.is_we:
            iinv = {v: k for k, v in i.mapping.items()}
            return BaseMap(i.target, p.source,
                           mapping={b: top.mapping[iinv[b]]
                                    for b in i.target.elements})
        return None
    B, X = i.target, p.source
    blocks = []
    for n in sorted(set(B.degrees) | set(X.degrees)
                    | set(i.source.degrees) | set(p.target.degrees)):
        blocks.append((n, gf2.eye(X.dim(n)), i.mat(n), top.mat(n)))
        blocks.append((n, p.mat(n), gf2.eye(B.dim(n)), bottom.mat(n)))
    A, b, offs = chain_map_system(B, X, blocks)
    sol = gf2.solve(A, b)
    return None if sol is None else map_from_vector(B, X, sol, offs)


def chain_map_system(S, T, blocks=()):
    """The GF(2) linear system A·x = b in the entries x of a chain map
    h: S -> T, as (A, b, offs).

    x holds each h_n (T.dim(n) x S.dim(n)) flattened row-major, degrees
    ascending; h_n starts at offs[n].  The rows say d_T·h_n + h_{n+1}·d_S
    = 0 in every degree, then L·h_n·R = out for each (n, L, R, out) in
    *blocks*, through vec(L·h·R) = (L ⊗ Rᵀ)·vec(h).  Row order does not
    matter to callers: ``gf2.solve`` and ``gf2.null_space`` depend only
    on the row space.
    """
    degs = sorted(set(S.degrees) | set(T.degrees) | {blk[0] for blk in blocks})
    offs, total = {}, 0
    for n in degs:
        offs[n] = total
        total += T.dim(n) * S.dim(n)
    nat = [n for n in degs if T.dim(n + 1) and S.dim(n)]
    height = (sum(T.dim(n + 1) * S.dim(n) for n in nat)
              + sum(out.size for *_, out in blocks))
    A = gf2.zeros(height, total)
    b = np.zeros(height, dtype=np.uint8)

    def put(r, n, L, R):  # rows r.. of L·h_n·R; returns their number
        blk = _kron(L, R.T)
        A[r:r + blk.shape[0], offs[n]:offs[n] + blk.shape[1]] = blk
        return blk.shape[0]

    r = 0
    for n in nat:
        put(r, n, T.d(n), gf2.eye(S.dim(n)))
        r += put(r, n + 1, gf2.eye(T.dim(n + 1)), S.d(n))
    for n, L, R, out in blocks:
        b[r:r + out.size] = out.ravel()
        r += put(r, n, L, R)
    return A, b, offs


def _kron(L, M):
    """L ⊗ M by broadcasting; on the blocks of a few rows that the
    generators and the strict factorizations build, ``np.kron`` costs
    several times more per call."""
    return (L[:, None, :, None] * M[None, :, None, :]).reshape(
        L.shape[0] * M.shape[0], L.shape[1] * M.shape[1])


def map_from_vector(S, T, x, offs, check=True):
    """The chain map S -> T whose entries, laid out as in
    ``chain_map_system``, are the vector *x*."""
    return BaseMap(S, T, mats={n: x[o:o + T.dim(n) * S.dim(n)].reshape(
        T.dim(n), S.dim(n)) for n, o in offs.items()}, check=check)
