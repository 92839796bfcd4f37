"""Correctness checks made apart from the program.

Every check here reads the program's outputs (matrices, pro-object data,
counts) and re-derives the claimed property with its own GF(2)
arithmetic: a matrix is a list of Python ints, one bit mask per row, and
nothing in this module calls ``promc.gf2``.  Each check returns ``None``
when the output is right and a one-line reason when it is wrong.
"""

from __future__ import annotations


# ------------------------------------------------------------ GF(2) on ints


def rows_of(M):
    """A 0/1 matrix (anything with ``.tolist()``) as a list of row masks;
    bit ``c`` of ``rows[r]`` is entry ``(r, c)``."""
    out = []
    for r in M.tolist():
        v = 0
        for c, x in enumerate(r):
            if x & 1:
                v |= 1 << c
        out.append(v)
    return out


def rank(rows):
    """GF(2) rank of a list of row masks."""
    pivots = {}  # leading bit -> reduced row
    for v in rows:
        while v:
            top = v.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
    return len(pivots)


def matmul(A, B):
    """Row masks of A·B, with A given as row masks over the rows of B."""
    out = []
    for a in A:
        acc, k = 0, 0
        while a:
            if a & 1:
                acc ^= B[k]
            a >>= 1
            k += 1
        out.append(acc)
    return out


def zero(nrows):
    return [0] * nrows


# ------------------------------------------------------- chain complexes


class Complex:
    """A bounded GF(2) chain complex read from a ChainF2 object:
    ``dims[n]`` and ``d[n]`` (row masks of the boundary degree n -> n+1)."""

    def __init__(self, obj):
        self.lo, self.hi = obj.lo, obj.hi
        self.dims = {n: obj.dim(n) for n in range(obj.lo, obj.hi + 1)}
        self.d = {n: rows_of(obj.d(n)) for n in range(obj.lo, obj.hi)}

    def dim(self, n):
        return self.dims.get(n, 0)

    def bd(self, n):
        return self.d.get(n, zero(self.dim(n + 1)))


def map_rows(m, n):
    """Row masks of a ChainF2 base map's matrix in degree n."""
    return rows_of(m.mat(n))


def _degrees(*cxs):
    lo = min(c.lo for c in cxs)
    hi = max(c.hi for c in cxs)
    return range(lo - 1, hi + 2)


def chain_map_error(m, X=None, Y=None):
    """Whether ``d_Y ∘ m_n = m_{n+1} ∘ d_X`` in every degree."""
    X = X or Complex(m.source)
    Y = Y or Complex(m.target)
    for n in _degrees(X, Y):
        lhs = matmul(Y.bd(n), map_rows(m, n))
        rhs = matmul(map_rows(m, n + 1), X.bd(n))
        if lhs != rhs:
            return f"not a chain map in degree {n}"
    return None


def compose_rows(g, f, n):
    """Row masks of (g ∘ f)_n for ChainF2 base maps."""
    return matmul(map_rows(g, n), map_rows(f, n))


def cone_acyclic(m, X=None, Y=None):
    """Whether the mapping cone of a ChainF2 base map is acyclic, i.e.
    whether the map is a quasi-isomorphism.  Cone degree n is
    X_{n+1} ⊕ Y_n with d(x, y) = (d x, m x + d y)."""
    X = X or Complex(m.source)
    Y = Y or Complex(m.target)
    degs = list(_degrees(X, Y))

    def cdim(n):
        return X.dim(n + 1) + Y.dim(n)

    def cbd(n):
        # rows: X_{n+2} then Y_{n+1}; columns: X_{n+1} (low bits) then Y_n
        a = X.dim(n + 1)
        out = [r for r in X.bd(n + 1)]
        mx = map_rows(m, n + 1)
        dy = Y.bd(n)
        for r in range(Y.dim(n + 1)):
            out.append(mx[r] | (dy[r] << a))
        return out

    ranks = {n: rank(cbd(n)) for n in degs}
    for n in degs:
        cycles = cdim(n) - ranks[n]
        boundaries = ranks.get(n - 1, 0)
        if cycles != boundaries:
            return False
    return True


# ------------------------------------------------------------ workloads


def check_factorization(fs, f, mode):
    """chainf2-factor: at every level, right ∘ left = f, both factors are
    chain maps, left is injective and right surjective in every degree,
    right is a quasi-isomorphism in L1 and left is one in L2."""
    for s in f.source.index.elements:
        fs_ = f.level_component(s)
        l, r = fs.left.level_component(s), fs.right.level_component(s)
        X, Z, Y = Complex(l.source), Complex(l.target), Complex(r.target)
        for n in _degrees(X, Z, Y):
            if compose_rows(r, l, n) != map_rows(fs_, n):
                return f"level {s}: right∘left differs from f in degree {n}"
        for m, A, B, name in ((l, X, Z, "left"), (r, Z, Y, "right")):
            err = chain_map_error(m, A, B)
            if err:
                return f"level {s}: {name} {err}"
        for n in _degrees(X, Z, Y):
            if rank(map_rows(l, n)) != X.dim(n):
                return f"level {s}: left not injective in degree {n}"
            if rank(map_rows(r, n)) != Y.dim(n):
                return f"level {s}: right not surjective in degree {n}"
        if mode == "L1" and not cone_acyclic(r, Z, Y):
            return f"level {s}: right is not a quasi-isomorphism (L1)"
        if mode == "L2" and not cone_acyclic(l, X, Z):
            return f"level {s}: left is not a quasi-isomorphism (L2)"
    return None


def check_lift(square, res):
    """chainf2-lift: both triangles commute on the nose at each
    refinement index a(s), and every component is a chain map.

    The components are h_s: B_{a(s)} -> X_s; the triangles are
    h_s ∘ i_{a(s)} = top_s ∘ A(a(s) -> s) and
    p_s ∘ h_s = bottom_s ∘ B(a(s) -> s)."""
    i, p, top, bottom = square
    A, B = i.source, i.target
    for s in i.source.index.elements:
        u = res.level_index[s]
        h = res.components[s]
        err = chain_map_error(h)
        if err:
            return f"level {s}: lift component {err}"
        a_us = A.struct(u, s) if u != s else None
        b_us = B.struct(u, s) if u != s else None
        iu = i.level_component(u)
        X, Bc = Complex(h.target), Complex(h.source)
        for n in _degrees(X, Bc, Complex(iu.source), Complex(p.target.value(s))):
            lhs = compose_rows(h, iu, n)
            rhs = map_rows(top.level_component(s), n)
            if a_us is not None:
                rhs = matmul(rhs, map_rows(a_us, n))
            if lhs != rhs:
                return f"level {s}: top triangle fails at a(s)={u}, degree {n}"
            lhs = compose_rows(p.level_component(s), h, n)
            rhs = map_rows(bottom.level_component(s), n)
            if b_us is not None:
                rhs = matmul(rhs, map_rows(b_us, n))
            if lhs != rhs:
                return (f"level {s}: bottom triangle fails at a(s)={u}, "
                        f"degree {n}")
    return None


def expected_hom_count(x_top_size, y_top_size):
    """Every shape in the hom-oracle family has a greatest element N, so
    the pro-hom set is Hom(X_N, Y_N): |Y_N| ** |X_N| classes."""
    return y_top_size ** x_top_size


def check_hom_count(count, x_top_size, y_top_size, who):
    want = expected_hom_count(x_top_size, y_top_size)
    if count != want:
        return f"{who}: {count} classes, expected {want}"
    return None
