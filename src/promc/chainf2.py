"""
ChainF2: bounded chain complexes of finite-dimensional GF(2) vector
spaces; weak equivalences are quasi-isomorphisms, fibrations the
degreewise surjections, cofibrations the degreewise injections (every
degreewise injection has projective cokernel over a field).

Differentials raise degree by one: d_n maps degree n to degree n+1 and
d_{n+1} ∘ d_n = 0.  Degrees run over a finite range [lo, hi].  A map is
one matrix per degree, stored only where it is nonzero.  Every matrix,
boundary or map degree, is a ``gf2.Mat``: an immutable tuple of int
rows (bit c = column c) with its column count, so composing is XORing
rows and comparing or hashing maps compares or hashes tuples; a degree
with no stored matrix reads as the shared zero matrix of its shape.
All linear algebra is exact, through ``gf2``; limits, colimits and
images work degreewise, each reading every coordinate off one canonical
basis (the null basis of ``gf2.null_vectors`` or a reduced row echelon
form), and assemble their block matrices by shifting rows.  Maps are classified from ranks alone: f is a
quasi-isomorphism iff its mapping cone is acyclic.  Chain-map systems
(lifts, hom spaces) are emitted as int rows straight from the Kronecker
structure of L·h·R, so no dense system is built.  Documents carry the
same row-major 0/1 lists.
"""

from __future__ import annotations

import itertools
import json

from . import gf2
from .base import (ACOF_FIB, COF_ACF, BaseMap, BaseObject, FactorizationPair,
                   MapClasses, compose, factor_map, identity)
from .baselim import ColimitCone, Cone, LimitCone
from .errors import MalformedError, PreconditionError

CHAIN_F2 = "chain-f2"

ENUMERATION_CAP = 12  # max GF(2) dimension of a hom space to enumerate
MAX_DIM = 1024  # max dimension of a degree in a document (generated inputs reach 69)
MAX_DEGREE = 64  # max |degree| in a document (generated inputs reach -1 to 7)


class ChainObject(BaseObject):
    """A degree range [lo, hi], a dimension per degree and one boundary
    matrix per degree (d_n maps degree n to degree n+1)."""

    __slots__ = ("lo", "hi", "_dims", "_diff")

    def __init__(self, lo, hi, dims, diff=None):
        """*dims* maps each degree in [lo, hi] to its dimension, *diff*
        a source degree to its boundary matrix."""
        if lo > hi:
            raise MalformedError("empty degree range; use a zero complex instead")
        self.instance = INSTANCE
        self.lo, self.hi = int(lo), int(hi)
        dims = {n: int(dims[n]) for n in range(lo, hi + 1)}
        if any(d < 0 for d in dims.values()):
            raise MalformedError("negative dimension")
        self._dims = dims
        diff = dict(diff or {})
        self._diff = {}
        for n in range(lo, hi):  # an absent boundary is zero
            self._diff[n] = (_read(diff[n], dims[n + 1], dims[n],
                                   f"boundary out of degree {n}") if n in diff
                             else gf2.zeros(dims[n + 1], dims[n]))
        for n in range(lo, hi - 1):
            if any(gf2.matmul(self._diff[n + 1], self._diff[n]).rows):
                raise MalformedError(f"d∘d nonzero out of degree {n}")

    def dim(self, n):
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

    def __repr__(self):
        return f"ChainObj[{self.lo},{self.hi}]dims={[self.dim(n) for n in self.degrees]}"


class ChainMap(BaseMap):
    """One matrix per degree, commuting with the boundaries.

    With check=True every matrix is read into a fresh ``gf2.Mat`` by ``_read``,
    its shape and the commutation are checked: every document input
    takes this path.  With check=False a ``gf2.Mat`` of the expected
    shape is kept as given (values are immutable, so nothing is copied);
    anything else is read as with check=True.
    """

    __slots__ = ("_mats",)

    def __init__(self, source, target, mats=None, check=True):
        if check and not (isinstance(source, ChainObject)
                          and isinstance(target, ChainObject)):
            raise MalformedError("source and target from different instances")
        self.instance = INSTANCE
        self.source = source
        self.target = target
        mats = mats or {}
        self._mats = {}
        if check:  # a document may name degrees outside both ranges: ignored
            degs = set(source.degrees) | set(target.degrees)
            mats = {n: mats[n] for n in degs if n in mats}
        for n, M in mats.items():
            if M is None:
                continue
            rows, cols = target.dim(n), source.dim(n)
            if check or not (isinstance(M, gf2.Mat) and M.ncols == cols
                             and len(M.rows) == rows):
                M = _read(M, rows, cols, f"matrix in degree {n}")
            if any(M.rows):
                self._mats[n] = M
        if check:
            for n in degs:
                lhs = gf2.matmul(target.d(n), self.mat(n))
                rhs = gf2.matmul(self.mat(n + 1), source.d(n))
                if lhs != rhs:
                    raise MalformedError(f"does not commute with boundaries at degree {n}")

    def mat(self, n):
        M = self._mats.get(n)
        if M is None:
            return gf2.zeros(self.target.dim(n), self.source.dim(n))
        return M

    def __repr__(self):
        return f"ChainMap({self.source!r}->{self.target!r})"


def _read(M, rows, cols, what):
    """*M* as a fresh rows x cols ``gf2.Mat``; MalformedError, naming
    *what*, for anything else.  A list (document input) may hold only the
    integers 0 and 1, and is packed by ``gf2.pack01``; other inputs are
    read mod 2; a row that is not a list is refused, never read entry by
    entry, and ``[]`` is only the matrix with no rows."""
    packed = gf2.pack01(M)
    if packed is None and isinstance(M, list):
        bad = [r for r in M if not isinstance(r, list)]
        if bad:
            raise MalformedError(f"{what}: a row is {bad[0]!r}, not a list")
        bad = [x for r in M for x in r if type(x) is not int or x not in (0, 1)]
        if bad:
            raise MalformedError(f"{what}: not a 0/1 entry: {bad[0]!r}")
        if not M and rows:
            raise MalformedError(f"{what} is [], not a {rows}x{cols} matrix")
    try:
        M = packed if packed is not None else gf2.asmat(M, rows, cols)
    except ValueError as e:
        raise MalformedError(f"{what}: {e}") from None
    if M.shape != (rows, cols):
        raise MalformedError(f"{what} has shape {M.shape}, expected {(rows, cols)}")
    return M


def chain_obj(lo, hi, dims, diff=None):
    """Build a ChainF2 object; *dims* is a list indexed from lo, *diff* a
    dict source-degree -> matrix (rows = dim one above, cols = dim at degree)."""
    return ChainObject(lo, hi, {lo + k: d for k, d in enumerate(dims)}, diff)


def chain_map(source, target, mats):
    return ChainMap(source, target, mats)


def zero_complex():
    return chain_obj(0, 0, [0])


def _degrees(*objs):
    return set().union(*(X.degrees for X in objs))


def _cone_acyclic(f):
    """Whether f: X -> Y is a quasi-isomorphism, that is (over a field)
    whether its mapping cone C is acyclic.  C_n = X_{n+1} ⊕ Y_n with
    boundary D_n(x, y) = (dx, fx + dy); C is acyclic iff rank D_n +
    rank D_{n-1} = dim C_n in every degree.  Stops at the first failure."""
    X, Y = f.source, f.target
    prev = 0  # rank D_{n-1}: C is zero below min(lo) - 1
    for n in range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 1):
        a, width = X.dim(n + 1), X.dim(n + 1) + Y.dim(n)
        rows = X.d(n + 1).rows + tuple(
            x | y << a for x, y in zip(f.mat(n + 1).rows, Y.d(n).rows))
        r = gf2.rank(gf2.Mat(rows, width))
        if r + prev != width:
            return False
        prev = r
    return True


class ChainF2:
    """The ChainF2 instance."""

    tag = CHAIN_F2
    map_class = ChainMap
    exhaustive_homs = False  # ``hom`` refuses spaces above ENUMERATION_CAP
    sizes = {"max_deg": 2, "max_dim": 3}
    small_sizes = {"max_deg": 1, "max_dim": 2}

    def obj_eq(self, X, other):
        if not isinstance(other, ChainObject):
            return False
        degs = _degrees(X, other)
        return all(X.dim(n) == other.dim(n) for n in degs) and all(
            X.d(n) == other.d(n) for n in degs)

    def obj_hash(self, X):
        return hash((CHAIN_F2, tuple(sorted((n, d) for n, d in X._dims.items() if d))))

    def map_eq(self, f, other):
        if not isinstance(other, ChainMap):
            return False
        if f.source != other.source or f.target != other.target:
            return False
        # zero degrees are never stored, and equal ends fix the shapes
        return f._mats == other._mats

    def map_hash(self, f):
        return hash((CHAIN_F2, f.source, f.target, tuple(sorted(f._mats.items()))))

    def identity(self, X):
        return ChainMap(X, X, {n: gf2.eye(X.dim(n)) for n in X.degrees}, check=False)

    def compose(self, g, f):
        gm = g._mats  # a degree where either map is zero composes to zero
        return ChainMap(f.source, g.target,
                        {n: gf2.matmul(gm[n], M) for n, M in f._mats.items() if n in gm},
                        check=False)

    def inverse(self, f):
        degs = _degrees(f.source, f.target)
        if any(f.source.dim(n) != f.target.dim(n) for n in degs):
            return None
        mats = {n: gf2.inverse(f.mat(n)) for n in degs}
        if any(M is None for M in mats.values()):
            return None
        return ChainMap(f.target, f.source, mats, check=False)

    def classify(self, f):
        """One rank of f per degree decides both degreewise classes; f is
        a weak equivalence iff its mapping cone is acyclic (``_cone_acyclic``)."""
        X, Y = f.source, f.target
        ranks = [(n, gf2.rank(f.mat(n))) for n in _degrees(X, Y)]
        return MapClasses(is_we=_cone_acyclic(f),
                          is_cof=all(r == X.dim(n) for n, r in ranks),
                          is_fib=all(r == Y.dim(n) for n, r in ranks))

    def factor(self, f, mode):
        """Mapping cylinder (cof-then-acyclicfib), resp. mapping path
        object (acycliccof-then-fib)."""
        return _cylinder_factor(f) if mode == COF_ACF else _path_factor(f)

    def lift(self, i, p, top, bottom):
        """Solves the GF(2) linear system in the entries of the lift (all
        degrees at once); pivots are chosen lowest index first and free
        entries are zero, so the lift is deterministic."""
        B, X = i.target, p.source
        blocks = []
        for n in sorted(_degrees(B, X, i.source, p.target)):
            blocks.append((n, gf2.eye(X.dim(n)), i.mat(n), top.mat(n)))
            blocks.append((n, p.mat(n), gf2.eye(B.dim(n)), bottom.mat(n)))
        A, b, offs = chain_map_system(B, X, blocks)
        sol = gf2.solve(A, b)
        return None if sol is None else map_from_vector(B, X, sol, offs)

    def limit(self, diagram):
        """In each degree the apex is the kernel of the edge equations
        inside the product of the nodes, with the basis of
        ``gf2.null_vectors``: the vector of free column fc is 1 at fc and
        0 at every other free column, and fc is its highest set bit.  So
        the apex coordinates of a vector of the kernel are its entries at
        the free columns, and the differential and every mediating map are
        read off those rows, then checked to lie in the kernel."""
        nodes, degs, span, width = _layout(diagram)
        basis, free = {}, {}
        for n in degs:
            # one row per target coordinate of an edge: f(x_src) + x_tgt = 0
            rows = []
            for src, tgt, f in diagram.edges:
                a, b = span[n][src].start, span[n][tgt].start
                rows += [(r << a) ^ (1 << (b + k)) for k, r in enumerate(f.mat(n).rows)]
            vecs = gf2.null_vectors(gf2.Mat(tuple(rows), width[n]))
            free[n] = [v.bit_length() - 1 for v in vecs]
            basis[n] = gf2.transpose(gf2.Mat(tuple(vecs), width[n]))

        def coordinates(n, M):
            """The X with basis[n]·X = M, or None when a column of M is
            not in the kernel."""
            X = gf2.Mat(tuple(M.rows[fc] for fc in free[n]), M.ncols)
            return X if gf2.matmul(basis[n], X) == M else None

        lo, hi = degs[0], degs[-1]
        diff = {}
        for n in range(lo, hi):
            # its block rows are every leg's boundary commutation: legs skip it
            sol = coordinates(n + 1, gf2.matmul(_block_diff(diagram, nodes, n), basis[n]))
            if sol is None:
                raise AssertionError("product differential does not preserve the limit")
            diff[n] = sol
        apex = ChainObject(lo, hi, {n: basis[n].shape[1] for n in degs}, diff)
        legs = {v: ChainMap(apex, diagram.nodes[v],
                            {n: gf2.Mat(basis[n].rows[span[n][v]], basis[n].ncols)
                             for n in degs}, check=False)
                for v in nodes}

        def factor(cone):
            mats = {}
            for n in degs:
                stacked = gf2.Mat(tuple(r for v in nodes for r in cone.legs[v].mat(n).rows),
                                  cone.apex.dim(n))
                sol = coordinates(n, stacked)
                if sol is None:
                    raise PreconditionError("cone does not factor through the limit")
                mats[n] = sol
            return ChainMap(cone.apex, apex, mats)

        return LimitCone(diagram, apex, legs, factor)

    def colimit(self, diagram):
        """In each degree the apex is the coproduct of the nodes modulo the
        edge relations x_src + f(x_src).  The rows of the quotient map Q
        are the ``gf2.null_vectors`` of the relations: the row of free
        column fc is 1 at fc and 0 at the other free columns, so picking
        the free columns is a section R (Q·R = I).  The differential
        Q·D·R and every mediating map stacked·R do not depend on the
        section, since D maps relations to relations and a cocone kills
        them; a mediating map is checked by m·Q = stacked."""
        nodes, degs, span, width = _layout(diagram)
        quotients, sections = {}, {}
        for n in degs:
            # one row per source coordinate of an edge: x_src + f(x_src)
            rows = []
            for src, tgt, f in diagram.edges:
                a, b = span[n][src].start, span[n][tgt].start
                rows += [(1 << (a + k)) ^ (c << b)
                         for k, c in enumerate(gf2.transpose(f.mat(n)).rows)]
            vecs = gf2.null_vectors(gf2.Mat(tuple(rows), width[n]))
            quotients[n] = gf2.Mat(tuple(vecs), width[n])
            sections[n] = _selection([v.bit_length() - 1 for v in vecs], width[n])
        lo, hi = degs[0], degs[-1]
        diff = {n: gf2.matmul(gf2.matmul(quotients[n + 1],
                                         _block_diff(diagram, nodes, n)),
                              sections[n])
                for n in range(lo, hi)}
        apex = ChainObject(lo, hi, {n: quotients[n].shape[0] for n in degs}, diff)
        legs = {v: ChainMap(diagram.nodes[v], apex,
                            {n: _columns(quotients[n], span[n][v]) for n in degs})
                for v in nodes}

        def factor(cocone):
            mats = {}
            for n in degs:
                stacked = _blocks([cocone.apex.dim(n)],
                                  [diagram.nodes[v].dim(n) for v in nodes],
                                  {(0, k): cocone.legs[v].mat(n) for k, v in enumerate(nodes)})
                m = gf2.matmul(stacked, sections[n])
                if gf2.matmul(m, quotients[n]) != stacked:
                    raise PreconditionError("cocone does not factor through the colimit")
                mats[n] = m
            return ChainMap(apex, cocone.apex, mats)

        return ColimitCone(diagram, apex, legs, factor)

    def hom(self, X, Y):
        """Every chain map X -> Y, when the chain-map space has dimension
        at most ENUMERATION_CAP; refused above that."""
        vecs, offs = hom_space(X, Y)
        k = len(vecs)
        if k > ENUMERATION_CAP:
            raise PreconditionError(
                f"chain hom space has dimension {k} > {ENUMERATION_CAP}; "
                "enumeration refused")
        out = []
        for bits in itertools.product((0, 1), repeat=k):
            vec = 0
            for bit, v in zip(bits, vecs):
                if bit:
                    vec ^= v
            out.append(map_from_vector(X, Y, vec, offs, check=False))
        return out

    def image(self, f):
        """One ``gf2.row_echelon`` of f's matrix M per degree.  Its pivot
        columns, picked by the selection S, are the basis B = M·S of the
        image, and its nonzero rows C are the corestriction: M = B·C.  B
        has independent columns, so the boundary is the one X with
        B_{n+1}·X = d·B_n, which is C_{n+1}·d_src·S_n."""
        sel, core = {}, {}
        for n in _degrees(f.source, f.target):
            R, piv = gf2.row_echelon(f.mat(n))
            sel[n] = _selection(piv, f.source.dim(n))
            core[n] = gf2.Mat(R.rows[:len(piv)], R.ncols)
        degs = sorted(sel)
        lo, hi = degs[0], degs[-1]
        diff = {n: gf2.matmul(gf2.matmul(core[n + 1], f.source.d(n)), sel[n])
                for n in range(lo, hi)}
        img = ChainObject(lo, hi, {n: len(core[n].rows) for n in degs}, diff)
        incl = ChainMap(img, f.target, {n: gf2.matmul(f.mat(n), sel[n]) for n in degs},
                        check=False)
        return img, ChainMap(f.source, img, core, check=False), incl

    def corestrict(self, f, incl):
        mats = {}
        for n in _degrees(f.source, incl.source):
            sol = gf2.solve(incl.mat(n), f.mat(n))
            if sol is None:
                return None
            mats[n] = sol
        return ChainMap(f.source, incl.source, mats, check=False)

    def obj_to_doc(self, X):
        return {"lo": X.lo, "hi": X.hi,
                "dims": [X.dim(n) for n in X.degrees],
                "d": {str(n): X.d(n).tolist()
                      for n in range(X.lo, X.hi) if X.dim(n) and X.dim(n + 1)}}

    def obj_from_doc(self, doc):
        """Every field is checked before anything is allocated."""
        try:
            lo, hi, dims = doc["lo"], doc["hi"], doc["dims"]
            diff = {int(k): v for k, v in doc.get("d", {}).items()}
        except (KeyError, TypeError, AttributeError, ValueError) as e:
            raise MalformedError(f"bad ChainF2 object payload: {e!r}") from None
        for name, v in (("lo", lo), ("hi", hi)):
            if type(v) is not int:  # bools are not ints here
                raise MalformedError(f"ChainF2 object: {name} = {v!r} is not an int")
        if not isinstance(dims, list):
            raise MalformedError(f"ChainF2 object: dims = {dims!r} is not a list")
        if hi != lo + len(dims) - 1:
            raise MalformedError(f"ChainF2 object: hi = {hi} is not lo + len(dims) - 1"
                                 f" = {lo + len(dims) - 1}")
        for name, v in (("lo", lo), ("hi", hi)):
            if not -MAX_DEGREE <= v <= MAX_DEGREE:
                raise MalformedError(f"ChainF2 object: {name} = {v} is outside "
                                     f"[-MAX_DEGREE, MAX_DEGREE = {MAX_DEGREE}]")
        for k, v in enumerate(dims):
            if type(v) is not int or not 0 <= v <= MAX_DIM:
                raise MalformedError(f"ChainF2 object: dims[{k}] = {v!r} is not an int "
                                     f"in [0, MAX_DIM = {MAX_DIM}]")
        return chain_obj(lo, hi, dims, diff)

    def map_to_doc(self, f):
        return {str(n): f.mat(n).tolist()
                for n in _degrees(f.source, f.target)
                if f.source.dim(n) and f.target.dim(n)}

    def map_from_doc(self, doc, source, target):
        return ChainMap(source, target, {int(k): v for k, v in doc.items()})

    def map_set_doc(self, maps):
        # map documents are dicts, so order them by their canonical JSON
        return sorted((self.map_to_doc(m) for m in maps),
                      key=lambda d: json.dumps(d, sort_keys=True))

    def gen_object(self, rng, max_deg=2, max_dim=3, **_):
        return gen_complex(rng, max_deg=max_deg, max_dim=max_dim)

    def gen_map(self, rng, X, Y):
        """A random combination of a basis of the chain maps X -> Y."""
        vecs, offs = hom_space(X, Y)
        return map_from_vector(X, Y, rng.combination(vecs), offs)

    def gen_square(self, rng, v_up, v_dn, tries):
        for _ in range(tries):
            a = self.gen_map(rng, v_up.source, v_dn.source)
            b = _solve_b(rng, v_up, compose(v_dn, a))
            if b is not None:
                return a, b
        # the zero map always admits a matching b
        zero_a = ChainMap(v_up.source, v_dn.source, {}, check=False)
        b = _solve_b(rng, v_up, compose(v_dn, zero_a))
        assert b is not None
        return zero_a, b

    def gen_iso(self, rng, X, prefix):
        Ps = {n: rng.invertible(X.dim(n)) for n in X.degrees}
        diff = {}
        for n in range(X.lo, X.hi):
            inv = gf2.inverse(Ps[n]) if X.dim(n) else gf2.zeros(0, 0)
            diff[n] = gf2.matmul(gf2.matmul(Ps[n + 1], X.d(n)), inv)
        X2 = ChainObject(X.lo, X.hi, {n: X.dim(n) for n in X.degrees}, diff)
        return X2, ChainMap(X, X2, Ps, check=False)

    def gen_we_level_map(self, rng, X, prefix):
        """The projection X ⊕ E -> X with E a levelwise contractible
        pro-object (path objects of a random one)."""
        from .prohom import ProDiagram, pro_colimit_levelwise
        from .proobj import ProObject, level_map
        from .suites import gen_pro_object
        idx = X.index
        V = gen_pro_object(rng, idx, self, max_deg=1, max_dim=2)
        evals = {s: _path_middle(V.value(s)) for s in idx.elements}
        estructs = {(t, s): _path_functor_map(V.struct(t, s)) for s, t in idx.covers()}
        E = ProObject(idx, values=evals, structs=estructs)
        big = pro_colimit_levelwise(ProDiagram(idx, {"x": X, "e": E}, []))
        proj = {}
        for s in idx.elements:
            cocone = Cone(big.level_cones[s].diagram, X.value(s),
                          {"x": identity(X.value(s)),
                           "e": ChainMap(E.value(s), X.value(s), {}, check=False)})
            proj[s] = big.level_cones[s].mediate(cocone)
        return level_map(big.apex, X, proj)


# ------------------------------------------------------- factorizations


def _cylinder_factor(f):
    """Mapping cylinder: middle in degree n is X_n ⊕ X_{n+1} ⊕ Y_n with
    d(x, x', y) = (dx + x', dx', dy + f x'); all signs +1 over GF(2)."""
    X, Y = f.source, f.target
    lo, hi = min(X.lo - 1, Y.lo), max(X.hi, Y.hi)

    def parts(n):
        return X.dim(n), X.dim(n + 1), Y.dim(n)

    mid = ChainObject(lo, hi, {n: sum(parts(n)) for n in range(lo, hi + 1)}, {
        n: _blocks(parts(n + 1), parts(n), {
            (0, 0): X.d(n), (0, 1): gf2.eye(X.dim(n + 1)), (1, 1): X.d(n + 1),
            (2, 1): f.mat(n + 1), (2, 2): Y.d(n)})
        for n in range(lo, hi)})
    degs = range(lo, hi + 1)
    left = {n: _blocks(parts(n), [X.dim(n)], {(0, 0): gf2.eye(X.dim(n))})
            for n in degs}
    right = {n: _blocks([Y.dim(n)], parts(n),
                        {(0, 0): f.mat(n), (0, 2): gf2.eye(Y.dim(n))}) for n in degs}
    return FactorizationPair(left=ChainMap(X, mid, left),
                             right=ChainMap(mid, Y, right), mode=COF_ACF)


def _path_factor(f):
    """Mapping path object: middle in degree n is X_n ⊕ Y_n ⊕ Y_{n-1} with
    d(x, b, c) = (dx, db, fx + b + dc)."""
    X, Y = f.source, f.target
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi + 1)

    def parts(n):
        return X.dim(n), Y.dim(n), Y.dim(n - 1)

    mid = ChainObject(lo, hi, {n: sum(parts(n)) for n in range(lo, hi + 1)}, {
        n: _blocks(parts(n + 1), parts(n), {
            (0, 0): X.d(n), (1, 1): Y.d(n), (2, 0): f.mat(n),
            (2, 1): gf2.eye(Y.dim(n)), (2, 2): Y.d(n - 1)})
        for n in range(lo, hi)})
    degs = range(lo, hi + 1)
    left = {n: _blocks(parts(n), [X.dim(n)],
                       {(0, 0): gf2.eye(X.dim(n)), (1, 0): f.mat(n)}) for n in degs}
    right = {n: _blocks([Y.dim(n)], parts(n), {(0, 1): gf2.eye(Y.dim(n))})
             for n in degs}
    return FactorizationPair(left=ChainMap(X, mid, left),
                             right=ChainMap(mid, Y, right), mode=ACOF_FIB)


def _blocks(rows, cols, parts):
    """The 0/1 matrix with row blocks of sizes *rows* and column blocks
    of sizes *cols*, block (i, j) being parts[i, j] or zero."""
    c = [0, *itertools.accumulate(cols)]
    grid = [[0] * h for h in rows]
    for (i, j), B in parts.items():
        grid[i] = [a | b << c[j] for a, b in zip(grid[i], B.rows)]
    return gf2.Mat(tuple(itertools.chain.from_iterable(grid)), c[-1])


def _selection(cols, n):
    """The n x len(cols) matrix whose column j picks coordinate cols[j]."""
    rows = [0] * n
    for j, c in enumerate(cols):
        rows[c] = 1 << j
    return gf2.Mat(tuple(rows), len(cols))


def _columns(M, span):
    """The columns of *M* in the slice *span*."""
    mask = (1 << (span.stop - span.start)) - 1
    return gf2.Mat(tuple(r >> span.start & mask for r in M.rows), span.stop - span.start)


def _layout(diagram):
    """(nodes, degrees, span, width): the coordinates of the product of
    the node objects, span[n][v] the slice of node v in degree n and
    width[n] the dimension of the product there."""
    nodes = sorted(diagram.nodes)
    degs = sorted({n for v in nodes for n in diagram.nodes[v].degrees})
    span, width = {}, {}
    for n in degs:
        ends = [0, *itertools.accumulate(diagram.nodes[v].dim(n) for v in nodes)]
        span[n] = {v: slice(ends[k], ends[k + 1]) for k, v in enumerate(nodes)}
        width[n] = ends[-1]
    return nodes, degs, span, width


def _block_diff(diagram, nodes, n):
    """The block-diagonal boundary degree n -> n+1 of the product of the
    node objects."""
    objs = [diagram.nodes[v] for v in nodes]
    return _blocks([X.dim(n + 1) for X in objs], [X.dim(n) for X in objs],
                   {(k, k): X.d(n) for k, X in enumerate(objs)})


# ------------------------------------------------- chain-map linear systems


def chain_map_system(S, T, blocks=()):
    """The GF(2) linear system A·x = b in the entries x of a chain map
    h: S -> T, as (A, b, offs): A a ``gf2.Mat``, b and x vectors (ints).

    x holds each h_n (T.dim(n) x S.dim(n)) flattened row-major, degrees
    ascending; h_n starts at offs[n].  The rows say L·h_n·R = out for each
    (n, L, R, out) in *blocks*, in order, through vec(L·h·R) = (L ⊗ Rᵀ)·
    vec(h); then d_T·h_n + h_{n+1}·d_S = 0, from the highest degree down,
    each degree's rows reversed.  A row of L ⊗ Rᵀ is a column of R copied
    to the rows of h_n that a row of L picks; the copies do not overlap,
    so the row is one multiplication of the column by an int.

    ``gf2`` eliminates by inserting the rows in this order, and the order
    sets the fill-in, hence the cost, but not the result: the RREF is
    unique, so ``gf2.solve`` and ``gf2.null_vectors`` return the same
    bits in any order.  Each block row involves one degree of h and makes a
    sparse pivot for the naturality rows, which couple two degrees.  On
    the largest lift system of the ``chainf2-lift`` benchmark workload
    (8176 x 5977) the basis that elimination builds holds 9,794 ones in
    this order and 33,723 with the naturality rows first, degrees
    ascending.
    """
    degs = sorted(_degrees(S, T) | {blk[0] for blk in blocks})
    offs, total = {}, 0
    for n in degs:
        offs[n] = total
        total += T.dim(n) * S.dim(n)

    def kron(n, L, R):
        """The rows of L·h_n·R, in the entries of x: row (p, q) holds, for
        each set bit i of row p of L, column q of R placed at row i of h_n.
        A column has s = S.dim(n) bits and its copies sit s bits apart, so
        they never overlap and the row is q · spread, where spread has one
        bit at o + i·s per set bit i."""
        s, o = S.dim(n), offs[n]
        rcols = gf2.transpose(R).rows
        out = []
        for a in L.rows:
            spread = 0
            while a:
                low = a & -a
                spread |= 1 << (o + (low.bit_length() - 1) * s)
                a ^= low
            out += [q * spread for q in rcols]
        return out

    rows, b = [], 0
    for n, L, R, out in blocks:
        for p, r in enumerate(out.rows):
            b |= r << (len(rows) + p * out.ncols)
        rows += kron(n, L, R)
    for n in reversed(degs):
        if T.dim(n + 1) and S.dim(n):
            nat = [x ^ y for x, y in zip(kron(n, T.d(n), gf2.eye(S.dim(n))),
                                         kron(n + 1, gf2.eye(T.dim(n + 1)), S.d(n)))]
            rows += reversed(nat)
    return gf2.Mat(tuple(rows), total), b, offs


def map_from_vector(S, T, x, offs, check=True):
    """The chain map S -> T whose entries, laid out as in
    ``chain_map_system``, are the bits of the vector *x*."""
    mats = {}
    for n, o in offs.items():
        s = S.dim(n)
        mask, h = (1 << s) - 1, x >> o
        mats[n] = gf2.Mat(tuple(h >> (i * s) & mask for i in range(T.dim(n))), s)
    return ChainMap(S, T, mats, check=check)


def hom_space(X, Y):
    """(vecs, offs): the vectors *vecs* are a basis of Hom(X, Y), laid out
    as in ``chain_map_system``."""
    A, _, offs = chain_map_system(X, Y)
    return gf2.null_vectors(A), offs


# ------------------------------------------------------------ generators


def gen_complex(rng, max_deg=2, max_dim=3):
    hi = rng.randint(0, max_deg)
    dims = [rng.randint(0, max_dim) for _ in range(hi + 1)]
    diff, prev = {}, None
    for n in range(0, hi):
        rows, cols = dims[n + 1], dims[n]
        if prev is None or not any(prev.rows):
            D = rng.mat(rows, cols)
        else:
            Q, k = gf2.quotient_map(prev, cols)
            D = gf2.matmul(rng.mat(rows, k), Q)
        diff[n] = D
        prev = D
    return chain_obj(0, hi, dims, diff)


def _solve_b(rng, v_up, want):
    """Random chain map b with b ∘ v_up = want."""
    U, V = v_up.target, want.target
    blocks = [(n, gf2.eye(V.dim(n)), v_up.mat(n), want.mat(n))
              for n in sorted(_degrees(U, V, v_up.source))]
    A, rhs, offs = chain_map_system(U, V, blocks)
    b_vec = gf2.solve(A, rhs)
    if b_vec is None:
        return None
    b_vec ^= rng.combination(gf2.null_vectors(A))
    return map_from_vector(U, V, b_vec, offs)


def _path_middle(V):
    """The middle of the path factorization of 0 -> V, a contractible
    complex."""
    return factor_map(chain_map(zero_complex(), V, {}), ACOF_FIB).middle


def _path_functor_map(w):
    """The induced map on path middles E(V_t) -> E(V_s) of w: V_t -> V_s."""
    src, tgt = _path_middle(w.source), _path_middle(w.target)
    V, W = w.source, w.target
    mats = {n: _blocks([W.dim(n), W.dim(n - 1)], [V.dim(n), V.dim(n - 1)],
                       {(0, 0): w.mat(n), (1, 1): w.mat(n - 1)})
            for n in _degrees(src, tgt)}
    return ChainMap(src, tgt, mats)


INSTANCE = ChainF2()
