"""
Randomized generators, independent oracles, and the axiom property
suites.

Generators build functors along a linear extension (values and maps are
chained through consecutive levels), so functoriality holds by
construction; level maps are generated in the arrow category the same
way, with rejection sampling for the commuting-square solves.  The
brute-force hom oracle evaluates the limit-of-colimits formula directly
and is independent of the maxima-collapse code path it cross-checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .base import (ACOF_FIB, CHAIN_F2, SET_BIJ, BaseMap, BaseObject,
                   chain_map, chain_map_system, chain_obj, compose, factor_map,
                   identity, map_from_vector, set_map, set_obj, zero_complex)
from .baselim import Cone
from .indexing import chain_poset, from_covers, linear_extension
from .prohom import HFamily, _chain_hom_space, enumerate_base_maps, hom_pro
from .proobj import ProObject, compose_pro, level_map


class Rng:
    """One seeded source for both discrete choices and GF(2) matrices."""

    def __init__(self, seed):
        self.rnd = random.Random(seed)
        self.np = np.random.default_rng(seed)

    def randint(self, a, b):
        return self.rnd.randint(a, b)

    def choice(self, xs):
        return self.rnd.choice(list(xs))

    def mat(self, rows, cols):
        return self.np.integers(0, 2, size=(rows, cols)).astype(np.uint8)

    def invertible(self, n):
        while True:
            M = self.mat(n, n)
            if gf2.rank(M) == n or n == 0:
                return M


# ------------------------------------------------------------ base objects


def gen_set_obj(rng, max_size=4, prefix="e"):
    k = rng.randint(1, max_size)
    return set_obj([f"{prefix}{i}" for i in range(k)])


def gen_complex(rng, max_deg=2, max_dim=3):
    hi = rng.randint(0, max_deg)
    dims = [rng.randint(0, max_dim) for _ in range(hi + 1)]
    diff, prev = {}, None
    for n in range(0, hi):
        rows, cols = dims[n + 1], dims[n]
        if prev is None or not prev.any():
            D = rng.mat(rows, cols)
        else:
            Q, k = gf2.quotient_map(gf2.image_basis(prev), cols)
            D = gf2.matmul(rng.mat(rows, k), Q)
        diff[n] = D
        prev = D
    return chain_obj(0, hi, dims, diff)


def gen_base_obj(rng, instance, **kw):
    if instance == SET_BIJ:
        return gen_set_obj(rng, max_size=kw.get("max_size", 4),
                           prefix=kw.get("prefix", "e"))
    return gen_complex(rng, max_deg=kw.get("max_deg", 2),
                       max_dim=kw.get("max_dim", 3))


def gen_chain_map(rng, X, Y):
    """A random chain map X -> Y (a random combination of the basis of
    the chain-map space)."""
    N, offs = _chain_hom_space(X, Y)
    vec = np.zeros(N.shape[0], dtype=np.uint8)
    if N.shape[1]:
        coeff = rng.np.integers(0, 2, size=(N.shape[1], 1)).astype(np.uint8)
        vec = gf2.matmul(N, coeff).ravel()
    return map_from_vector(X, Y, vec, offs)


def gen_base_map(rng, X, Y):
    if X.instance == SET_BIJ:
        return set_map(X, Y, {x: rng.choice(Y.elements) for x in X.elements})
    m = gen_chain_map(rng, X, Y)
    assert m is not None  # naturality alone is always solvable
    return m


# --------------------------------------------------------------- posets


POSET_SHAPES = {
    "point": (["m"], []),
    "chain2": (["0", "1"], [("0", "1")]),
    "chain3": (["0", "1", "2"], [("0", "1"), ("1", "2")]),
    "vee3": (["a", "b", "m"], [("a", "m"), ("b", "m")]),
    "diamond": (["0", "a", "b", "m"],
                [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m")]),
    "chain4": (["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "3")]),
    "wide5": (["0", "a", "b", "c", "m"],
              [("0", "a"), ("0", "b"), ("0", "c"),
               ("a", "m"), ("b", "m"), ("c", "m")]),
    "chain5": (["0", "1", "2", "3", "4"],
               [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4")]),
}


def gen_poset(rng, max_elems=5):
    names = [k for k, (els, _) in POSET_SHAPES.items() if len(els) <= max_elems]
    els, covers = POSET_SHAPES[rng.choice(sorted(names))]
    return from_covers(els, covers)


# ------------------------------------------------------------ pro-objects


def gen_pro_object(rng, poset, instance, **kw):
    """A random functor: values assigned along the linear extension, each
    structure map routed through every intermediate chain level."""
    order = list(linear_extension(poset))
    vals = {}
    for k, s in enumerate(order):
        vals[s] = gen_base_obj(rng, instance, prefix=f"l{k}_", **kw)
    chain_maps = {}
    for k in range(len(order) - 1):
        chain_maps[k] = gen_base_map(rng, vals[order[k + 1]], vals[order[k]])
    pos = {s: k for k, s in enumerate(order)}
    structs = {}
    for t in poset.elements:
        for s in poset.elements:
            if poset.lt(s, t):
                m = identity(vals[order[pos[s]]])
                for k in range(pos[s], pos[t]):
                    step = chain_maps[k]
                    m = compose(m, step) if k > pos[s] else step
                structs[(t, s)] = m
    return ProObject(poset, values=vals, structs=structs)


def gen_level_map(rng, poset, instance, tries=64, **kw):
    """A random LEVEL map over *poset*, built in the arrow category along
    the linear extension with rejection sampling for each square."""
    order = list(linear_extension(poset))
    n = len(order)
    A = [gen_base_obj(rng, instance, prefix=f"a{k}_", **kw) for k in range(n)]
    B = [gen_base_obj(rng, instance, prefix=f"b{k}_", **kw) for k in range(n)]
    v = [gen_base_map(rng, A[k], B[k]) for k in range(n)]
    asteps, bsteps = {}, {}
    for k in range(n - 1):
        a, b = _commuting_square(rng, v[k + 1], v[k], tries)
        asteps[k], bsteps[k] = a, b
    pos = {s: k for k, s in enumerate(order)}

    def chained(steps, vals, t, s):
        m = identity(vals[pos[s]])
        for k in range(pos[s], pos[t]):
            m = compose(m, steps[k]) if k > pos[s] else steps[k]
        return m

    xstructs, ystructs = {}, {}
    for t in poset.elements:
        for s in poset.elements:
            if poset.lt(s, t):
                xstructs[(t, s)] = chained(asteps, A, t, s)
                ystructs[(t, s)] = chained(bsteps, B, t, s)
    X = ProObject(poset, values={s: A[pos[s]] for s in poset.elements},
                  structs=xstructs)
    Y = ProObject(poset, values={s: B[pos[s]] for s in poset.elements},
                  structs=ystructs)
    f = level_map(X, Y, {s: v[pos[s]] for s in poset.elements})
    return f


def _commuting_square(rng, v_up, v_dn, tries):
    """(a, b) with v_dn ∘ a = b ∘ v_up, a: src(v_up) -> src(v_dn)."""
    for _ in range(tries):
        a = gen_base_map(rng, v_up.source, v_dn.source)
        want = compose(v_dn, a)
        if v_up.instance == SET_BIJ:
            fibers_ok = all(
                want.mapping[x1] == want.mapping[x2]
                for x1 in v_up.source.elements for x2 in v_up.source.elements
                if v_up.mapping[x1] == v_up.mapping[x2])
            if not fibers_ok:
                continue
            cands = [b for b in enumerate_base_maps(v_up.target, v_dn.target)
                     if compose(b, v_up) == want]
            if cands:
                return a, rng.choice(cands)
        else:
            b = _solve_b(rng, v_up, want)
            if b is not None:
                return a, b
    # a constant (or zero) always admits a matching b
    if v_up.instance == SET_BIJ:
        c = v_dn.source.elements[0]
        a = set_map(v_up.source, v_dn.source,
                    {x: c for x in v_up.source.elements})
        cc = v_dn.mapping[c]
        b = set_map(v_up.target, v_dn.target,
                    {y: cc for y in v_up.target.elements})
        return a, b
    zero_a = BaseMap(v_up.source, v_dn.source, mats={}, check=False)
    b = _solve_b(rng, v_up, compose(v_dn, zero_a))
    assert b is not None
    return zero_a, b


def _solve_b(rng, v_up, want):
    """Random chain map b with b ∘ v_up = want."""
    U, V = v_up.target, want.target
    blocks = [(n, gf2.eye(V.dim(n)), v_up.mat(n), want.mat(n))
              for n in sorted(set(U.degrees) | set(V.degrees)
                              | set(v_up.source.degrees))]
    A, rhs, offs = chain_map_system(U, V, blocks)
    b_vec = gf2.solve(A, rhs)
    if b_vec is None:
        return None
    N = gf2.null_space(A)
    if N.shape[1]:
        coeff = rng.np.integers(0, 2, size=(N.shape[1], 1)).astype(np.uint8)
        b_vec = (b_vec + gf2.matmul(N, coeff).ravel()) % 2
    return map_from_vector(U, V, b_vec, offs)


# ------------------------------------------------- isomorphism-style data


def random_iso(rng, X, prefix):
    """(X', alpha) with alpha: X -> X' an invertible base map."""
    if X.instance == SET_BIJ:
        names = [f"{prefix}{i}" for i in range(len(X.elements))]
        perm = list(names)
        rng.rnd.shuffle(perm)
        X2 = set_obj(perm)
        alpha = BaseMap(X, X2, mapping=dict(zip(X.elements, perm)), check=False)
        return X2, alpha
    Ps = {n: rng.invertible(X.dim(n)) for n in X.degrees}
    diff = {}
    for n in range(X.lo, X.hi):
        inv = gf2.inverse(Ps[n]) if X.dim(n) else gf2.zeros(0, 0)
        diff[n] = gf2.matmul(gf2.matmul(Ps[n + 1], X.d(n)), inv)
    X2 = BaseObject(CHAIN_F2, lo=X.lo, hi=X.hi,
                    dims={n: X.dim(n) for n in X.degrees}, diff=diff)
    alpha = BaseMap(X, X2, mats=Ps, check=False)
    return X2, alpha


def conjugate_pro(rng, X, prefix="c"):
    """(X', alpha: X -> X' a levelwise iso LEVEL map)."""
    vals, alphas = {}, {}
    for k, s in enumerate(X.index.elements):
        vals[s], alphas[s] = random_iso(rng, X.value(s), f"{prefix}{k}_")
    structs = {}
    for t in X.index.elements:
        for s in X.index.elements:
            if X.index.lt(s, t):
                from .prohom import _invert_base
                structs[(t, s)] = compose(
                    alphas[s], compose(X.struct(t, s), _invert_base(alphas[t])))
    X2 = ProObject(X.index, values=vals, structs=structs)
    return X2, level_map(X, X2, alphas)


def gen_shift_iso(rng, instance, length=2, conjugate=True, **kw):
    """The tower-shift pro-isomorphism with its witness family.

    A tower over the (length+1)-chain shifted against itself: X_s is the
    tower one level up, f the connecting maps, h_ts the tower structure
    maps; optionally conjugated by random level isos on both sides.
    """
    tower = gen_pro_object(rng, chain_poset(length + 1), instance, **kw)
    I = chain_poset(length)
    up = {s: str(int(s) + 1) for s in I.elements}
    X = ProObject(I, values={s: tower.value(up[s]) for s in I.elements},
                  structs={(t, s): tower.struct(up[t], up[s])
                           for t in I.elements for s in I.elements
                           if I.lt(s, t)})
    Y = ProObject(I, values={s: tower.value(s) for s in I.elements},
                  structs={(t, s): tower.struct(t, s)
                           for t in I.elements for s in I.elements
                           if I.lt(s, t)})
    f = level_map(X, Y, {s: tower.struct(up[s], s) for s in I.elements})
    fam = {(t, s): tower.struct(t, up[s])
           for t in I.elements for s in I.elements if I.lt(s, t)}
    if not conjugate:
        return f, HFamily(fam)
    from .prohom import _invert_base
    X2, alpha = conjugate_pro(rng, X, prefix="x")
    Y2, beta = conjugate_pro(rng, Y, prefix="y")
    f2 = level_map(X2, Y2, {
        s: compose(beta.level_component(s),
                   compose(f.level_component(s),
                           _invert_base(alpha.level_component(s))))
        for s in I.elements})
    fam2 = {(t, s): compose(alpha.level_component(s),
                            compose(fam[(t, s)],
                                    _invert_base(beta.level_component(t))))
            for (t, s) in fam}
    return f2, HFamily(fam2)


def gen_we_level_map(rng, X, prefix="w"):
    """A natural levelwise weak equivalence out of a fattened copy of X.

    SetBij: a levelwise renaming (every SetBij we is a bijection).
    ChainF2: the projection X ⊕ E -> X with E a levelwise contractible
    pro-object, conjugated for variety.
    """
    idx = X.index
    if X.instance == SET_BIJ:
        X2, alpha = conjugate_pro(rng, X, prefix=prefix)
        return level_map(X2, X, {
            s: _inv(alpha.level_component(s)) for s in idx.elements})
    V = gen_pro_object(rng, idx, CHAIN_F2, max_deg=1, max_dim=2)
    evals, elegs = {}, {}
    for s in idx.elements:
        fp = factor_map(chain_map(zero_complex(), V.value(s), {}), ACOF_FIB)
        evals[s] = fp.middle
    estructs = {}
    for t in idx.elements:
        for s in idx.elements:
            if idx.lt(s, t):
                estructs[(t, s)] = _path_functor_map(V.struct(t, s))
    E = ProObject(idx, values=evals, structs=estructs)
    big = pro_colimit_of_pair(X, E)
    proj = {}
    for s in idx.elements:
        cocone = Cone(big.level_cones[s].diagram, X.value(s),
                      {"x": identity(X.value(s)),
                       "e": BaseMap(E.value(s), X.value(s), mats={}, check=False)})
        proj[s] = big.level_cones[s].mediate(cocone)
    return level_map(big.apex, X, proj)


def _inv(m):
    from .prohom import _invert_base
    out = _invert_base(m)
    assert out is not None
    return out


def _path_functor_map(w):
    """The induced map on path middles E(V_t) -> E(V_s) of w: V_t -> V_s."""
    src = factor_map(chain_map(zero_complex(), w.source, {}), ACOF_FIB).middle
    tgt = factor_map(chain_map(zero_complex(), w.target, {}), ACOF_FIB).middle
    mats = {}
    for n in set(src.degrees) | set(tgt.degrees):
        a, b = w.source.dim(n), w.source.dim(n - 1)
        M = gf2.zeros(tgt.dim(n), src.dim(n))
        M[:w.target.dim(n), :a] = w.mat(n)
        M[w.target.dim(n):, a:] = w.mat(n - 1)
        mats[n] = M
    return BaseMap(src, tgt, mats=mats)


def pro_colimit_of_pair(X, E):
    from .prohom import ProDiagram, pro_colimit_levelwise
    pd = ProDiagram(X.index, {"x": X, "e": E}, [])
    return pro_colimit_levelwise(pd)


# ------------------------------------------------------- brute-force hom


def _colim_classes(X, Y, s):
    """Germ pairs (t, g: X_t -> Y_s), their union-find roots (the
    smallest index of each class) and the index of each pair."""
    J = X.index
    items = []
    for t in J.elements:
        for g in enumerate_base_maps(X.value(t), Y.value(s)):
            items.append((t, g))
    index = {item: a for a, item in enumerate(items)}
    parent = list(range(len(items)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, (t, g) in enumerate(items):
        for u in J.elements:
            if J.lt(t, u):
                ra, rb = find(a), find(index[(u, compose(g, X.struct(u, t)))])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    roots = [find(a) for a in range(len(items))]
    return items, roots, index


def brute_force_hom(X, Y):
    """Direct evaluation of lim_s colim_t Hom(X_t, Y_s) for finite SetBij
    pro-objects: colimit classes by union-find over germ pairs, then
    threads checked against every transition."""
    I = Y.index
    classes = {s: _colim_classes(X, Y, s) for s in I.elements}

    def root(s, t, g):  # the class of the germ (t, g: X_t -> Y_s)
        _, roots, index = classes[s]
        return roots[index[(t, g)]]

    N = I.max_element()
    items_N, roots_N, _ = classes[N]
    reps = sorted(set(roots_N))
    threads = []
    for r in reps:
        t, g = items_N[r]
        thread = {s: root(s, t, compose(Y.struct(N, s), g)) for s in I.elements}
        ok = True
        for s2 in I.elements:
            for s1 in I.elements:
                if I.lt(s1, s2):
                    t2, g2 = classes[s2][0][thread[s2]]
                    if root(s1, t2, compose(Y.struct(s2, s1), g2)) != thread[s1]:
                        ok = False
        if ok:
            threads.append(thread)
    return threads


# ------------------------------------------------------------ axiom suites


@dataclass
class SuiteReport:
    name: str
    trials: int
    failures: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures


def _gen_instances(seed, trials, instance):
    for k in range(trials):
        yield k, Rng(seed * 1_000_003 + k)


def _sizes(instance):
    if instance == SET_BIJ:
        return {"max_size": 4}
    return {"max_deg": 2, "max_dim": 3}


def suite_factorization(instance, trials, seed, max_elems=5):
    """Strict factorization postconditions on random level maps."""
    from .strict import MODE_L1, MODE_L2, factor_strict
    rep = SuiteReport(name=f"factorization[{instance}]", trials=trials)
    for k, rng in _gen_instances(seed, trials, instance):
        poset = gen_poset(rng, max_elems=max_elems)
        f = gen_level_map(rng, poset, instance, **_sizes(instance))
        for mode in (MODE_L1, MODE_L2):
            try:
                fs = factor_strict(f, mode)
                fs.replay_composite()
            except Exception as e:  # noqa: BLE001 - recorded as a failure
                rep.failures.append((k, mode, repr(e)))
    return rep


def suite_lifting(instance, trials, seed, max_elems=4):
    """Squares assembled from factorization outputs; both pairings."""
    from .proobj import identity_pro
    from .strict import MODE_L1, MODE_L2, factor_strict, lift_strict
    rep = SuiteReport(name=f"lifting[{instance}]", trials=trials)
    for k, rng in _gen_instances(seed, trials, instance):
        poset = gen_poset(rng, max_elems=max_elems)
        q = gen_level_map(rng, poset, instance, **_sizes(instance))
        mode = (MODE_L1, MODE_L2)[k % 2]
        try:
            fs = factor_strict(q, mode)
            j, p = fs.left, fs.right
            if k % 3 == 2:
                # nested square: refactor the cofibration side again
                fs2 = factor_strict(j, mode)
                i2 = fs2.left
                bottom = compose_pro(p, fs2.right)
                res = lift_strict(i2, p, j, bottom, mode=mode,
                                  special=fs.special)
                if not compose_pro(res.lift, i2).equals(j):
                    rep.failures.append((k, mode, "nested top triangle"))
                if not compose_pro(p, res.lift).equals(bottom):
                    rep.failures.append((k, mode, "nested bottom triangle"))
            else:
                res = lift_strict(j, p, j, p, mode=mode, special=fs.special)
                if not compose_pro(res.lift, j).equals(j):
                    rep.failures.append((k, mode, "top triangle"))
                if not compose_pro(p, res.lift).equals(p):
                    rep.failures.append((k, mode, "bottom triangle"))
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, mode, repr(e)))
    return rep


def suite_pro_factor_iso(instance, trials, seed, length=2):
    """Shift-pattern pro-isos with witnesses through pro_factor_iso."""
    from .proiso import pro_factor_iso
    rep = SuiteReport(name=f"pro-factor-iso[{instance}]", trials=trials)
    small = ({"max_size": 3} if instance == SET_BIJ
             else {"max_deg": 1, "max_dim": 2})
    for k, rng in _gen_instances(seed, trials, instance):
        try:
            f, wit = gen_shift_iso(rng, instance, length=length, **small)
            out = pro_factor_iso(f, wit)
            out.left_cert.replay()
            out.right_cert.replay()
            for s in f.source.index.elements:
                if not out.left_classes[s].is_cof or not out.right_classes[s].is_fib:
                    rep.failures.append((k, s, "classes"))
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, repr(e)))
    return rep


def suite_two_of_three(instance, trials, seed):
    """compose_zigzag_we and both two_of_three sides on generated data."""
    from .proiso import compose_zigzag_we, two_of_three
    from .proobj import identity_pro
    rep = SuiteReport(name=f"two-of-three[{instance}]", trials=trials)
    small = ({"max_size": 3} if instance == SET_BIJ
             else {"max_deg": 1, "max_dim": 2})
    for k, rng in _gen_instances(seed, trials, instance):
        try:
            h, wit = gen_shift_iso(rng, instance, length=2, **small)
            Z, Y = h.source, h.target
            f = gen_we_level_map(rng, Y)
            g = conjugate_pro(rng, Z, prefix="g")[1]
            out = compose_zigzag_we(f, h, g, wit)
            for s, cls in out.level_classes.items():
                if not cls.is_we:
                    rep.failures.append((k, "zigzag", s))
            out.source_cert.replay()
            out.target_cert.replay()
            out.replay_composite_identity(f, wit, g)
            u = gen_we_level_map(rng, Z)
            top = compose_pro(h, u)
            o2 = two_of_three("left-cancel", top, u, identity_pro(Y), h, wit)
            for s, cls in o2.level_classes.items():
                if not cls.is_we:
                    rep.failures.append((k, "left-cancel", s))
            o2.cancel_cert.replay()
            o3 = two_of_three("right-cancel", h, identity_pro(Z),
                              identity_pro(Y), h, wit)
            for s, cls in o3.level_classes.items():
                if not cls.is_we:
                    rep.failures.append((k, "right-cancel", s))
            o3.cancel_cert.replay()
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, repr(e)))
    return rep


def gen_fib_onto(rng, Y, prefix="r"):
    """A levelwise fibration onto Y: the projection from the levelwise
    product with a random pro-object over the same index."""
    from .prohom import ProDiagram, pro_limit_levelwise
    small = ({"max_size": 3} if Y.instance == SET_BIJ
             else {"max_deg": 1, "max_dim": 2})
    R = gen_pro_object(rng, Y.index, Y.instance, **small)
    lim = pro_limit_levelwise(ProDiagram(Y.index, {"y": Y, "r": R}, []))
    return lim.legs["y"]


def suite_properness(instance, trials, seed):
    """proper_pullback outputs are levelwise weak equivalences."""
    from .proiso import proper_pullback
    from .proobj import identity_pro
    rep = SuiteReport(name=f"properness[{instance}]", trials=trials)
    small = ({"max_size": 3} if instance == SET_BIJ
             else {"max_deg": 1, "max_dim": 2})
    for k, rng in _gen_instances(seed, trials, instance):
        try:
            g, wit = gen_shift_iso(rng, instance, length=2, **small)
            W, Y = g.source, g.target
            fwe = gen_we_level_map(rng, W)
            p = gen_fib_onto(rng, Y)
            out = proper_pullback(p, fwe, g, wit)
            for s, cls in out.level_classes.items():
                if not cls.is_we:
                    rep.failures.append((k, s))
            out.glue_cert.replay()
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, repr(e)))
    return rep


def suite_cocell(instance, trials, seed, max_elems=4):
    """Cocell round trip on special (acyclic) fibrations from factor_strict."""
    from .strict import MODE_L1, MODE_L2, factor_strict
    from .towers import build_cocell_tower, tower_limit
    rep = SuiteReport(name=f"cocell[{instance}]", trials=trials)
    for k, rng in _gen_instances(seed, trials, instance):
        poset = gen_poset(rng, max_elems=max_elems)
        f = gen_level_map(rng, poset, instance, **_sizes(instance))
        mode = (MODE_L1, MODE_L2)[k % 2]
        try:
            fs = factor_strict(f, mode)
            t = build_cocell_tower(fs.right, special=fs.special)
            t.replay_base_changes()
            tl = tower_limit(t)
            tl.iso_cert.replay()
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, mode, repr(e)))
    return rep


def hom_oracle_family(max3_sizes=(1, 2)):
    """The exhaustive SetBij family: every pro-object over each directed
    poset shape with <= 3 elements; all sizes <= 3 with all structure maps
    on <= 2-element posets, sizes from *max3_sizes* on 3-element shapes."""
    shapes = {
        "point": (["m"], []),
        "chain2": (["0", "1"], [("0", "1")]),
        "chain3": (["0", "1", "2"], [("0", "1"), ("1", "2")]),
        "vee3": (["a", "b", "m"], [("a", "m"), ("b", "m")]),
    }
    out = []
    for name, (els, covers) in shapes.items():
        poset = from_covers(els, covers)
        sizes = (1, 2, 3) if len(els) <= 2 else tuple(max3_sizes)
        out.extend(_all_pro_objects(poset, sizes))
    return out


def _all_pro_objects(poset, sizes):
    order = list(linear_extension(poset))
    out = []
    for dims in itertools.product(sizes, repeat=len(order)):
        vals = {s: set_obj([f"{s}e{i}" for i in range(dims[k])])
                for k, s in enumerate(order)}
        pairs = [(t, s) for t in poset.elements for s in poset.elements
                 if poset.lt(s, t)]
        cover_pairs = [(t, s) for (s, t) in poset.covers()]
        choices = [enumerate_base_maps(vals[t], vals[s]) for t, s in cover_pairs]
        for combo in itertools.product(*choices):
            structs = {pair: m for pair, m in zip(cover_pairs, combo)}
            try:
                out.append(ProObject(poset, values=vals, structs=structs))
            except Exception:  # non-functorial diamond choices
                continue
    return out


def suite_hom_oracle(family=None):
    """Maxima-collapse hom against the brute-force formula, exhaustively."""
    from .prohom import hom_pro
    family = hom_oracle_family() if family is None else family
    rep = SuiteReport(name="hom-oracle[set-bij]", trials=0)
    count = 0
    for X in family:
        for Y in family:
            count += 1
            fast = hom_pro(X, Y)
            slow = brute_force_hom(X, Y)
            if len(fast.maps) != len(slow):
                rep.failures.append((repr(X), repr(Y), len(fast.maps), len(slow)))
    rep.trials = count
    rep.detail["objects"] = len(family)
    return rep


def suite_adjunction(depth=16, family=None):
    """Adjunction bijections over the hom-oracle family and ω-towers."""
    from .base import set_obj as _so
    from .proobj import omega_pro_object
    from .towers import adjunction_check
    family = hom_oracle_family() if family is None else family
    rep = SuiteReport(name="adjunction[set-bij]", trials=0)
    count = 0
    for base_size in (1, 2, 3):
        X = _so([f"p{i}" for i in range(base_size)])
        for Y in family:
            count += 1
            try:
                w = adjunction_check(X, Y)
                if not w.verified():
                    rep.failures.append((base_size, repr(Y)))
            except Exception as e:  # noqa: BLE001
                rep.failures.append((base_size, repr(Y), repr(e)))
    two = _so(["0", "1"])
    for vals, steps in _omega_tower_samples(two):
        count += 1
        Y = omega_pro_object(vals, steps, depth=depth)
        try:
            w = adjunction_check(_so(["*"]), Y, depth=depth)
            if not w.verified():
                rep.failures.append(("omega", w.left_size, w.right_size))
        except Exception as e:  # noqa: BLE001
            rep.failures.append(("omega", repr(e)))
    rep.trials = count
    return rep


def _omega_tower_samples(two):
    # towers whose image systems become isomorphisms (the exact regime of
    # the stable-image semantics): identities, all-collapse, and swaps
    from .base import identity as _id
    collapse = set_map(two, two, {"0": "0", "1": "0"})
    swap = set_map(two, two, {"0": "1", "1": "0"})
    yield (lambda n: two), (lambda n: _id(two))
    yield (lambda n: two), (lambda n: collapse)
    yield (lambda n: two), (lambda n: swap)


def run_all_suites(trials, seed, depth=16):
    """Everything check-axioms runs; returns the list of reports."""
    reports = []
    for instance in (SET_BIJ, CHAIN_F2):
        reports.append(suite_factorization(instance, trials, seed))
        reports.append(suite_lifting(instance, trials, seed + 1))
        reports.append(suite_pro_factor_iso(instance, max(1, trials // 2), seed + 2))
        reports.append(suite_two_of_three(instance, max(1, trials // 2), seed + 3))
        reports.append(suite_properness(instance, max(1, trials // 2), seed + 4))
        reports.append(suite_cocell(instance, max(1, trials // 2), seed + 5))
    small = hom_oracle_family(max3_sizes=(1, 2))
    reports.append(suite_hom_oracle(small[:40]))
    reports.append(suite_adjunction(depth=depth, family=small[:25]))
    return reports
