"""
ChainF2: bounded chain complexes of finite-dimensional GF(2) vector
spaces; weak equivalences are quasi-isomorphisms, fibrations the
degreewise surjections, cofibrations the degreewise injections (every
degreewise injection has projective cokernel over a field).

Differentials raise degree by one: d_n maps degree n to degree n+1 and
d_{n+1} ∘ d_n = 0.  Degrees run over a finite range [lo, hi].  Every
value is one block matrix over total spaces, the direct sums of all
degrees, with degree-major coordinates: an object's boundary ``D`` is
N x N with block (n+1, n) the boundary d_n, a map's ``F`` is block
diagonal with block (n, n) its matrix in degree n.  Each is a
``gf2.Mat``: an immutable tuple of int rows (bit c = column c) with its
column count, so composing is one product, and comparing or hashing
maps compares or hashes one tuple; ``d(n)`` and ``mat(n)`` read one
block.  All linear algebra is exact, through ``gf2``, and takes one
product or one elimination per value, not one per degree: a matrix
whose rows each lie in one degree has the rank, the null basis and the
reduced row echelon form of its degrees side by side.  Limits, colimits
and images read every coordinate off one canonical basis (the null
basis of ``gf2.null_vectors`` or a reduced row echelon form).  Maps are
classified from ranks alone: f is a quasi-isomorphism iff its mapping
cone is acyclic.  Chain-map systems (lifts, hom spaces) are emitted as
int rows straight from the Kronecker structure of L·h·R, unknowns in
descending order and the right side at bit 0, so no dense system is
built and the rows are eliminated as written, pivoting on the highest
bit.  Documents carry one row-major 0/1 list per degree.
"""

from __future__ import annotations

import bisect
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
    """A degree range [lo, hi], a dimension per degree and the boundary
    ``D`` over the total space: degree n holds the coordinates from
    ``_start(n)`` on, and block (n+1, n) of D is d_n (degree n to n+1)."""

    __slots__ = ("lo", "hi", "_dims", "_offs", "D")

    def __init__(self, lo, hi, dims, diff=None):
        """*dims* maps each degree in [lo, hi] to its dimension, *diff*
        a source degree to its boundary matrix."""
        if lo > hi:
            raise MalformedError("empty degree range; use a zero complex instead")
        lo, hi = int(lo), int(hi)
        dims = {n: int(dims[n]) for n in range(lo, hi + 1)}
        if any(d < 0 for d in dims.values()):
            raise MalformedError("negative dimension")
        self._layout(lo, hi, dims)
        diff = dict(diff or {})
        rows = [0] * self._offs[hi + 1]
        for n in range(lo, hi):  # an absent boundary is zero
            if n in diff:
                M = _read(diff[n], dims[n + 1], dims[n], f"boundary out of degree {n}")
                _put(rows, M, self._offs[n + 1], self._offs[n])
        self._set_boundary(gf2.Mat(tuple(rows), len(rows)))

    def _layout(self, lo, hi, dims):
        self.instance = INSTANCE
        self.lo, self.hi, self._dims = lo, hi, dims
        self._offs = dict(zip(range(lo, hi + 2),
                              itertools.accumulate(dims.values(), initial=0)))

    def _set_boundary(self, D):
        """Keep *D*, refused if d∘d ≠ 0; only then is each degree tried,
        to name the lowest one where it fails."""
        self.D = D
        if any(gf2.matmul(D, D).rows):
            n = next(n for n in range(self.lo, self.hi - 1)
                     if any(gf2.matmul(self.d(n + 1), self.d(n)).rows))
            raise MalformedError(f"d∘d nonzero out of degree {n}")

    @property
    def N(self):
        """The total dimension."""
        return self.D.ncols

    def _start(self, n):
        """The first coordinate of degree n in the total space."""
        return self._offs[min(max(n, self.lo), self.hi + 1)]

    def dim(self, n):
        return self._dims.get(n, 0)

    def d(self, n):
        """Boundary matrix degree n -> n+1 (zero outside the stored range)."""
        if not self.lo <= n < self.hi:
            return gf2.zeros(self.dim(n + 1), self.dim(n))
        return _block(self.D, self._offs[n + 1], self.dim(n + 1), self._offs[n],
                      self.dim(n))

    @property
    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        return f"ChainObj[{self.lo},{self.hi}]dims={[self.dim(n) for n in self.degrees]}"


def _complex(lo, dims, D):
    """The ChainObject with the dimensions *dims*, a list indexed from
    *lo*, and the boundary *D*, a ``gf2.Mat`` over their total space."""
    X = object.__new__(ChainObject)
    X._layout(lo, lo + len(dims) - 1, dict(zip(itertools.count(lo), dims)))
    X._set_boundary(D)
    return X


class ChainMap(BaseMap):
    """The block diagonal matrix ``F`` from the source's total space to the
    target's, commuting with the boundaries: block (n, n) is the map in
    degree n.

    *mats* maps degrees to matrices.  With check=True every matrix is read
    into a fresh ``gf2.Mat`` by ``_read``, its shape and the commutation
    are checked: every document input takes this path.  With check=False
    a ``gf2.Mat`` of the expected shape is placed as given; anything else
    is read as with check=True.
    """

    __slots__ = ("F",)

    def __init__(self, source, target, mats=None, check=True):
        if check and not (isinstance(source, ChainObject)
                          and isinstance(target, ChainObject)):
            raise MalformedError("source and target from different instances")
        self._set(source, target, _diagonal(source, target, mats or {}, check), check)

    def _set(self, source, target, F, check):
        """Keep *F*; with *check*, refused unless D_T·F = F·D_S, and only
        then is each degree tried, to name the lowest one where it fails."""
        self.instance = INSTANCE
        self.source = source
        self.target = target
        self.F = F
        if check and gf2.matmul(target.D, F) != gf2.matmul(F, source.D):
            n = next(n for n in sorted(_degrees(source, target))
                     if gf2.matmul(target.d(n), self.mat(n))
                     != gf2.matmul(self.mat(n + 1), source.d(n)))
            raise MalformedError(f"does not commute with boundaries at degree {n}")

    def mat(self, n):
        S, T = self.source, self.target
        if not (S.dim(n) and T.dim(n)):
            return gf2.zeros(T.dim(n), S.dim(n))
        return _block(self.F, T._start(n), T.dim(n), S._start(n), S.dim(n))

    @property
    def _mats(self):
        """Degree -> matrix, for the degrees where the map is nonzero."""
        mats = {n: self.mat(n) for n in sorted(_degrees(self.source, self.target))}
        return {n: M for n, M in mats.items() if any(M.rows)}

    def __repr__(self):
        return f"ChainMap({self.source!r}->{self.target!r})"


def _map(source, target, F, check=False):
    """The ChainMap with the block diagonal ``gf2.Mat`` *F*."""
    f = object.__new__(ChainMap)
    f._set(source, target, F, check)
    return f


def _diagonal(source, target, mats, check):
    """The block diagonal F with block (n, n) the matrix mats[n], read
    as ``ChainMap`` describes; with *check*, a degree outside both ranges
    is ignored (a document may name one)."""
    if check:
        degs = set(source.degrees) | set(target.degrees)
        mats = {n: mats[n] for n in degs if n in mats}
    rows = [0] * target.N
    for n, M in mats.items():
        if M is None:
            continue
        r, c = target.dim(n), source.dim(n)
        if check or not (isinstance(M, gf2.Mat) and M.ncols == c and len(M.rows) == r):
            M = _read(M, r, c, f"matrix in degree {n}")
        if r and c:
            _put(rows, M, target._start(n), source._start(n))
    return gf2.Mat(tuple(rows), source.N)


def _block(M, r0, rows, c0, cols):
    """The *rows* x *cols* block of *M* whose top left corner is (r0, c0);
    every row there has its bits inside the block's columns."""
    return gf2.Mat(tuple(r >> c0 for r in M.rows[r0:r0 + rows]), cols)


def _put(rows, M, r0, c0):
    """XOR the ``gf2.Mat`` *M* into the int rows *rows* as the block
    whose top left corner is (r0, c0)."""
    for k, r in enumerate(M.rows):
        rows[r0 + k] ^= r << c0


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


class ChainF2:
    """The ChainF2 instance."""

    tag = CHAIN_F2
    map_class = ChainMap
    exhaustive_homs = False  # ``hom`` refuses spaces above ENUMERATION_CAP
    sizes = {"max_deg": 2, "max_dim": 3}
    small_sizes = {"max_deg": 1, "max_dim": 2}

    def obj_eq(self, X, other):
        # equal nonzero dimensions place every degree alike
        return (isinstance(other, ChainObject) and X.D == other.D
                and _nonzero_dims(X) == _nonzero_dims(other))

    def obj_hash(self, X):
        return hash((CHAIN_F2, _nonzero_dims(X)))

    def map_eq(self, f, other):
        if not isinstance(other, ChainMap):
            return False
        # equal ends fix the shapes
        return f.F.rows == other.F.rows and f.source == other.source \
            and f.target == other.target

    def map_hash(self, f):
        return hash((CHAIN_F2, f.source, f.target, f.F.rows))

    def identity(self, X):
        return _map(X, X, gf2.eye(X.N))

    def compose(self, g, f):
        return _map(f.source, g.target, gf2.matmul(g.F, f.F))

    def inverse(self, f):
        """F is block diagonal, so it is invertible iff every block is
        (a block that is not square makes it singular)."""
        F = f.F
        inv = gf2.inverse(F) if len(F.rows) == F.ncols else None
        return None if inv is None else _map(f.target, f.source, inv)

    def classify(self, f):
        """F is block diagonal, so its rank is the sum of the degrees'
        ranks: f is a degreewise injection iff it is N_X, a degreewise
        surjection iff it is N_Y.  f is a weak equivalence iff its mapping
        cone is acyclic.  Over the total spaces the cone's boundary is
        C = [[D_X, 0], [F, D_Y]] on X ⊕ Y, and C∘C = 0, so the cone is
        acyclic iff the image of C is its kernel: 2·rank C = N_X + N_Y."""
        X, Y = f.source, f.target
        r = gf2.rank(f.F)
        cone = gf2.Mat(X.D.rows + tuple(x | y << X.N for x, y in zip(f.F.rows, Y.D.rows)),
                       X.N + Y.N)
        return MapClasses(is_we=2 * gf2.rank(cone) == X.N + Y.N,
                          is_cof=r == X.N, is_fib=r == Y.N)

    def factor(self, f, mode):
        """Mapping cylinder (cof-then-acyclicfib), resp. mapping path
        object (acycliccof-then-fib)."""
        return _cylinder_factor(f) if mode == COF_ACF else _path_factor(f)

    def lift(self, i, p, top, bottom):
        """Solves the GF(2) linear system in the entries of the lift (all
        degrees at once) with ``gf2.solve_high``; pivots are chosen lowest
        unknown first and free entries are zero, so the lift is
        deterministic."""
        B, X = i.target, p.source
        blocks = []
        for n in sorted(_degrees(B, X, i.source, p.target)):
            blocks.append((n, gf2.eye(X.dim(n)), i.mat(n), top.mat(n)))
            blocks.append((n, p.mat(n), gf2.eye(B.dim(n)), bottom.mat(n)))
        M, offs = chain_map_system(B, X, blocks)
        sol = gf2.solve_high(M)
        return None if sol is None else map_from_vector(B, X, sol, offs)

    def limit(self, diagram):
        """The apex is the kernel of the edge equations inside the product
        of the nodes.  Every row of the relation matrix lies in one degree
        of the product, so one ``gf2.null_vectors`` call gives each
        degree's basis, in degree order.  The vector of free column fc is
        1 at fc and 0 at every other free column, and fc is its highest
        set bit, so the apex coordinates of a vector of the kernel are its
        entries at the free columns: the differential and every mediating
        map are read off those rows, then checked to lie in the kernel."""
        nodes, lo, starts, place, D = _product(diagram)
        rows = []
        for src, tgt, f in diagram.edges:  # f(x_src) + x_tgt = 0, per target coordinate
            rows += [_moved(r, place[src]) ^ (1 << p) for p, r in zip(place[tgt], f.F.rows)]
        vecs = gf2.null_vectors(gf2.Mat(tuple(rows), D.ncols))
        free = [v.bit_length() - 1 for v in vecs]
        basis = gf2.transpose(gf2.Mat(tuple(vecs), D.ncols))

        def coordinates(M):
            """The X with basis·X = M, or None when a column of M is not
            in the kernel."""
            X = gf2.Mat(tuple(M.rows[fc] for fc in free), M.ncols)
            return X if gf2.matmul(basis, X) == M else None

        # its rows are every leg's boundary commutation: legs skip it
        diff = coordinates(gf2.matmul(D, basis))
        if diff is None:
            raise AssertionError("product differential does not preserve the limit")
        apex = _complex(lo, _counts(starts, free), diff)
        legs = {v: _map(apex, diagram.nodes[v],
                        gf2.Mat(tuple(basis.rows[p] for p in place[v]), len(free)))
                for v in nodes}

        def factor(cone):
            stacked = [0] * D.ncols
            for v in nodes:
                for p, r in zip(place[v], cone.legs[v].F.rows):
                    stacked[p] = r
            sol = coordinates(gf2.Mat(tuple(stacked), cone.apex.N))
            if sol is None:
                raise PreconditionError("cone does not factor through the limit")
            return _map(cone.apex, apex, sol, check=True)

        return LimitCone(diagram, apex, legs, factor)

    def colimit(self, diagram):
        """The apex is the coproduct of the nodes modulo the edge relations
        x_src + f(x_src); each lies in one degree, so one
        ``gf2.null_vectors`` call gives the rows of the quotient map Q, in
        degree order: the row of free column fc is 1 at fc and 0 at the
        other free columns, so picking the free columns is a section R
        (Q·R = I).  The differential Q·D·R and every mediating map
        stacked·R do not depend on the section, since D maps relations to
        relations and a cocone kills them; a mediating map is checked by
        m·Q = stacked."""
        nodes, lo, starts, place, D = _product(diagram)
        rows = []
        for src, tgt, f in diagram.edges:  # x_src + f(x_src), per source coordinate
            rows += [(1 << p) ^ _moved(c, place[tgt])
                     for p, c in zip(place[src], gf2.transpose(f.F).rows)]
        vecs = gf2.null_vectors(gf2.Mat(tuple(rows), D.ncols))
        free = [v.bit_length() - 1 for v in vecs]
        quotient = gf2.Mat(tuple(vecs), D.ncols)
        section = _selection(free, D.ncols)
        apex = _complex(lo, _counts(starts, free),
                        gf2.matmul(gf2.matmul(quotient, D), section))
        columns = gf2.transpose(quotient).rows
        legs = {v: _map(diagram.nodes[v], apex,
                        gf2.transpose(gf2.Mat(tuple(columns[p] for p in place[v]),
                                              len(free))), check=True)
                for v in nodes}

        def factor(cocone):
            stacked = [0] * cocone.apex.N
            for v in nodes:
                for a, r in enumerate(cocone.legs[v].F.rows):
                    stacked[a] ^= _moved(r, place[v])
            stacked = gf2.Mat(tuple(stacked), D.ncols)
            m = gf2.matmul(stacked, section)
            if gf2.matmul(m, quotient) != stacked:
                raise PreconditionError("cocone does not factor through the colimit")
            return _map(apex, cocone.apex, m, check=True)

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
        """One ``gf2.row_echelon`` of F, whose rows each lie in one degree,
        so its pivots are each degree's, in degree order.  The pivot
        columns, picked by the selection S, are the basis B = F·S of the
        image, and the nonzero rows C are the corestriction: F = B·C.  B
        has independent columns, so the boundary is the one X with
        B·X = D_T·B, which is C·D_S·S."""
        S = f.source
        R, piv = gf2.row_echelon(f.F)
        sel = _selection(piv, S.N)
        core = gf2.Mat(R.rows[:len(piv)], S.N)
        lo, hi = min(S.lo, f.target.lo), max(S.hi, f.target.hi)
        starts = [S._start(n) for n in range(lo, hi + 2)]
        img = _complex(lo, _counts(starts, piv),
                       gf2.matmul(gf2.matmul(core, S.D), sel))
        return img, _map(S, img, core), _map(img, f.target, gf2.matmul(f.F, sel))

    def corestrict(self, f, incl):
        """One ``gf2.solve``: the rows of both sides each lie in one
        degree, so the solution is each degree's, and block diagonal."""
        sol = gf2.solve(incl.F, f.F)
        return None if sol is None else _map(f.source, incl.source, sol)

    def obj_to_doc(self, X):
        """Each boundary d_n is read off its rows of ``D``, unpacked from
        the first column of degree n."""
        rows, offs, dims = X.D.rows, X._offs, X._dims
        return {"lo": X.lo, "hi": X.hi,
                "dims": list(dims.values()),
                "d": {str(n): gf2.unpack(rows[offs[n + 1]:offs[n + 2]], dims[n], offs[n])
                      for n in range(X.lo, X.hi) if dims[n] and dims[n + 1]}}

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
        """Each f_n is read off the rows of degree n of ``F``, unpacked
        from the source's first column of degree n."""
        S, T, rows = f.source, f.target, f.F.rows
        out = {}
        for n in _degrees(S, T):
            s, t = S.dim(n), T.dim(n)
            if s and t:
                a = T._start(n)
                out[str(n)] = gf2.unpack(rows[a:a + t], s, S._start(n))
        return out

    def map_from_doc(self, doc, source, target):
        mats = {}
        for k, v in doc.items():
            try:
                mats[int(k)] = v
            except ValueError:
                raise MalformedError(f"ChainF2 map: key {k!r} is not a degree") from None
        return ChainMap(source, target, mats)

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
        """X2 with boundary P·D·P⁻¹, for P a random invertible matrix per
        degree, and P: X -> X2."""
        P = _diagonal(X, X, {n: rng.invertible(X.dim(n)) for n in X.degrees}, False)
        X2 = _complex(X.lo, [X.dim(n) for n in X.degrees],
                      gf2.matmul(gf2.matmul(P, X.D), gf2.inverse(P)))
        return X2, _map(X, X2, P)

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


def _nonzero_dims(X):
    return tuple((n, d) for n, d in X._dims.items() if d)


# ------------------------------------------------------- factorizations


def _middle(lo, parts):
    """(at, dims) for a complex whose degree lo + k is the direct sum of
    summands of the sizes parts[k]: at(n) lists where each summand of
    degree n starts in the total space, dims the degree dimensions."""
    dims = [sum(p) for p in parts]
    starts = itertools.accumulate(dims, initial=0)
    firsts = [list(itertools.accumulate(p[:-1], initial=s)) for s, p in zip(starts, parts)]
    return (lambda n: firsts[n - lo]), dims


def _cylinder_factor(f):
    """Mapping cylinder: middle in degree n is X_n ⊕ X_{n+1} ⊕ Y_n with
    d(x, x', y) = (dx + x', dx', dy + f x'); all signs +1 over GF(2)."""
    X, Y = f.source, f.target
    lo, hi = min(X.lo - 1, Y.lo), max(X.hi, Y.hi)
    at, dims = _middle(lo, [(X.dim(n), X.dim(n + 1), Y.dim(n))
                            for n in range(lo, hi + 1)])
    D, left, right = [0] * sum(dims), [0] * sum(dims), [0] * Y.N
    for n in range(lo, hi + 1):
        x, x1, y = at(n)
        _put(left, gf2.eye(X.dim(n)), x, X._start(n))
        _put(right, f.mat(n), Y._start(n), x)
        _put(right, gf2.eye(Y.dim(n)), Y._start(n), y)
        if n < hi:  # the boundary into degree n + 1
            u, u1, v = at(n + 1)
            _put(D, X.d(n), u, x)
            _put(D, gf2.eye(X.dim(n + 1)), u, x1)
            _put(D, X.d(n + 1), u1, x1)
            _put(D, f.mat(n + 1), v, x1)
            _put(D, Y.d(n), v, y)
    mid = _complex(lo, dims, gf2.Mat(tuple(D), len(D)))
    return FactorizationPair(left=_map(X, mid, gf2.Mat(tuple(left), X.N), check=True),
                             right=_map(mid, Y, gf2.Mat(tuple(right), mid.N), check=True),
                             mode=COF_ACF)


def _path_factor(f):
    """Mapping path object: middle in degree n is X_n ⊕ Y_n ⊕ Y_{n-1} with
    d(x, b, c) = (dx, db, fx + b + dc)."""
    X, Y = f.source, f.target
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi + 1)
    at, dims = _middle(lo, [(X.dim(n), Y.dim(n), Y.dim(n - 1))
                            for n in range(lo, hi + 1)])
    D, left, right = [0] * sum(dims), [0] * sum(dims), [0] * Y.N
    for n in range(lo, hi + 1):
        x, b, c = at(n)
        _put(left, gf2.eye(X.dim(n)), x, X._start(n))
        _put(left, f.mat(n), b, X._start(n))
        _put(right, gf2.eye(Y.dim(n)), Y._start(n), b)
        if n < hi:  # the boundary into degree n + 1
            u, v, w = at(n + 1)
            _put(D, X.d(n), u, x)
            _put(D, Y.d(n), v, b)
            _put(D, f.mat(n), w, x)
            _put(D, gf2.eye(Y.dim(n)), w, b)
            _put(D, Y.d(n - 1), w, c)
    mid = _complex(lo, dims, gf2.Mat(tuple(D), len(D)))
    return FactorizationPair(left=_map(X, mid, gf2.Mat(tuple(left), X.N), check=True),
                             right=_map(mid, Y, gf2.Mat(tuple(right), mid.N), check=True),
                             mode=ACOF_FIB)


def _selection(cols, n):
    """The n x len(cols) matrix whose column j picks coordinate cols[j]."""
    rows = [0] * n
    for j, c in enumerate(cols):
        rows[c] = 1 << j
    return gf2.Mat(tuple(rows), len(cols))


def _counts(starts, cols):
    """How many of the sorted coordinates *cols* lie in each degree, the
    degree k running from starts[k] to starts[k + 1]."""
    cuts = [bisect.bisect_left(cols, s) for s in starts]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _moved(r, place):
    """The int row *r*, whose bits lie in one degree of a complex, with
    bit j moved to place[j]: one shift, since *place* keeps the order
    and the gaps inside a degree."""
    if not r:
        return 0
    j = (r & -r).bit_length() - 1
    return r << (place[j] - j)


def _product(diagram):
    """(nodes, lo, starts, place, D) of the product of the node objects:
    its coordinates are degree-major and node by node within a degree,
    degree lo + k starting at starts[k] (the total dimension last);
    place[v][i] is the coordinate of node v's coordinate i, and D is the
    product's boundary."""
    nodes = sorted(diagram.nodes)
    objs = [diagram.nodes[v] for v in nodes]
    lo, hi = min(X.lo for X in objs), max(X.hi for X in objs)
    place, starts, w = {v: [] for v in nodes}, [], 0
    for n in range(lo, hi + 1):
        starts.append(w)
        for v, X in zip(nodes, objs):
            place[v] += range(w, w + X.dim(n))
            w += X.dim(n)
    starts.append(w)
    D = [0] * w
    for v, X in zip(nodes, objs):
        for p, r in zip(place[v], X.D.rows):
            D[p] = _moved(r, place[v])
    return nodes, lo, starts, place, gf2.Mat(tuple(D), w)


# ------------------------------------------------- chain-map linear systems


# max entries of h in one chain-map system, refused before any row is
# built; the largest the test and benchmark suites build is 12,411.  The
# refusal is a MalformedError, like MAX_DIM's: a PreconditionError inside
# a lift reads as "no lift at this level" (strict._base_lift).
MAX_UNKNOWNS = 1 << 15


def chain_map_system(S, T, blocks=()):
    """The GF(2) linear system in the entries of a chain map h: S -> T,
    as (M, offs): M a ``gf2.Mat`` of total + 1 columns whose rows go
    straight to ``gf2.solve_high`` and ``gf2.null_vectors_high``.

    The unknowns are each h_n (T.dim(n) x S.dim(n)) flattened row-major,
    degrees ascending; h_n starts at unknown offs[n].  A row holds unknown
    c at bit total - c and its right-hand side at bit 0, so its highest
    bit is its lowest unknown: this is the mirror image of the standard
    layout (unknown c at bit c, right side apart), and pivoting on the
    highest bit here is pivoting on the lowest unknown there, with the
    same pivots, row operations, solution and null vectors.  The rows say
    L·h_n·R = out for each (n, L, R, out) in *blocks*, in order, through
    vec(L·h·R) = (L ⊗ Rᵀ)·vec(h); then d_T·h_n + h_{n+1}·d_S = 0, from the
    highest degree down, each degree's rows reversed.  A row of L ⊗ Rᵀ is
    a column of R, bits reversed, copied to the rows of h_n that a row of
    L picks; the copies do not overlap, so the row is one multiplication
    of the column by an int.

    ``gf2`` eliminates the rows in this order, and the order sets the
    fill-in, hence the cost, but not the result.  Each block row involves
    one degree of h and makes a sparse pivot for the naturality rows,
    which couple two degrees.  On the largest lift system of the
    ``chainf2-lift`` benchmark workload (8176 rows, 5977 unknowns) the
    basis that elimination builds holds 9,725 ones in its unknowns in
    this order and 33,695 with the naturality rows first, degrees
    ascending.  A system of more than MAX_UNKNOWNS unknowns is refused
    before any row is built.
    """
    degs = sorted(_degrees(S, T) | {blk[0] for blk in blocks})
    offs, total = {}, 0
    for n in degs:
        offs[n] = total
        total += T.dim(n) * S.dim(n)
    if total > MAX_UNKNOWNS:
        raise MalformedError(f"chain-map system: unknowns = {total} exceeds "
                             f"MAX_UNKNOWNS = {MAX_UNKNOWNS}; refused")

    def kron(n, L, R):
        """The rows of L·h_n·R, right sides zero: row (p, q) holds, for
        each set bit i of row p of L, column q of R placed at row i of
        h_n.  Entry (i, j) of h_n is at bit top - i·s + (s - 1 - j), with
        s = S.dim(n), so a column reversed (bit s - 1 - j = entry j) has
        its copies s bits apart, never overlapping: the row is q · spread,
        where spread has one bit at top - i·s per set bit i."""
        s = S.dim(n)
        top = total - offs[n] - s + 1
        rcols = gf2.transpose(gf2.Mat(R.rows[::-1], R.ncols)).rows
        out = []
        for a in L.rows:
            spread = 0
            while a:
                low = a & -a
                spread |= 1 << (top - (low.bit_length() - 1) * s)
                a ^= low
            out += [q * spread for q in rcols]
        return out

    rows = []
    for n, L, R, out in blocks:
        first = len(rows)
        rows += kron(n, L, R)
        # entry (p, q) of out is the right side of row first + p·ncols + q
        for p, r in enumerate(out.rows):
            while r:
                low = r & -r
                rows[first + p * out.ncols + low.bit_length() - 1] |= 1
                r ^= low
    for n in reversed(degs):
        if T.dim(n + 1) and S.dim(n):
            nat = [x ^ y for x, y in zip(kron(n, T.d(n), gf2.eye(S.dim(n))),
                                         kron(n + 1, gf2.eye(T.dim(n + 1)), S.d(n)))]
            rows += reversed(nat)
    return gf2.Mat(tuple(rows), total + 1), offs


def map_from_vector(S, T, x, offs, check=True):
    """The chain map S -> T whose entries, laid out as in
    ``chain_map_system`` (unknown c at bit total - c), are the bits of the
    vector *x*; x is reversed once, unknown c to bit c, and then read
    row by row."""
    total = sum(S.dim(n) * T.dim(n) for n in offs)
    x = int(format(x, f"0{total + 1}b")[::-1], 2)
    rows = [0] * T.N
    for n, o in offs.items():
        s, t = S.dim(n), T.dim(n)
        if s and t:
            mask, h, a, b = (1 << s) - 1, x >> o, T._start(n), S._start(n)
            rows[a:a + t] = [(h >> (i * s) & mask) << b for i in range(t)]
    return _map(S, T, gf2.Mat(tuple(rows), S.N), check)


def hom_space(X, Y):
    """(vecs, offs): the vectors *vecs* are a basis of Hom(X, Y), laid out
    as in ``chain_map_system``, in ascending order of their free unknown."""
    M, offs = chain_map_system(X, Y)
    return gf2.null_vectors_high(M), offs


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
    M, offs = chain_map_system(U, V, blocks)
    b_vec = gf2.solve_high(M)
    if b_vec is None:
        return None
    b_vec ^= rng.combination(gf2.null_vectors_high(M))
    return map_from_vector(U, V, b_vec, offs)


def _path_middle(V):
    """The middle of the path factorization of 0 -> V, a contractible
    complex: V_n ⊕ V_{n-1} in degree n."""
    return factor_map(chain_map(zero_complex(), V, {}), ACOF_FIB).middle


def _path_functor_map(w):
    """The induced map on path middles E(V_t) -> E(V_s) of w: V_t -> V_s,
    w on both summands."""
    src, tgt = _path_middle(w.source), _path_middle(w.target)
    V, W = w.source, w.target
    rows = [0] * tgt.N
    for n in _degrees(src, tgt):
        a, b = tgt._start(n), src._start(n)
        _put(rows, w.mat(n), a, b)
        _put(rows, w.mat(n - 1), a + W.dim(n), b + V.dim(n))
    return _map(src, tgt, gf2.Mat(tuple(rows), src.N), check=True)


INSTANCE = ChainF2()
