"""
SetBij: finite sets, with the bijections as weak equivalences; every map
is both a cofibration and a fibration.

Objects are tuples of distinct element names and maps dicts on them.
A limit is the set of compatible tuples: one element per node, chosen
freely at the key nodes (the in-degree-zero nodes, or every node when
the diagram has a cycle), forced by the in-edges at every other node,
and kept when every edge commutes.  An element is named by its key
coordinates, e.g. "(x,u)" for a pullback.  Colimits are quotients of
disjoint unions, their elements named by their classes, e.g. "[a.x|b.y]".

``brute_force_hom`` evaluates Hom(X, Y) = lim_s colim_t Hom(X_t, Y_s)
of finite SetBij pro-objects by enumeration, on germs written as tuples
of images; it checks ``hom_pro`` in the tests and replays SetBij ``hom``
and ``adjunction`` certificates in ``verify``.
"""

from __future__ import annotations

import functools
import itertools

from .base import (COF_ACF, BaseMap, BaseObject, FactorizationPair,
                   MapClasses, classify_map, compose)
from .baselim import ColimitCone, LimitCone
from .errors import MalformedError, PreconditionError

SET_BIJ = "set-bij"

# max maps in one hom set to enumerate: the 2**12 that ChainF2's cap
# admits, 16 times the largest hom the acceptance and bench suites build
# (4**4); no exponent past 64 changes the comparison with it
ENUMERATION_CAP = 1 << 12


class SetObject(BaseObject):
    """A finite set: a tuple of distinct element names."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise MalformedError(f"duplicate element names: {elements}")
        self.instance = INSTANCE
        self.elements = elements

    def __repr__(self):
        return f"SetObj{self.elements}"


class SetMap(BaseMap):
    """A total function on element names (a dict), checked on
    construction; ``_set_map`` builds one unchecked."""

    __slots__ = ("mapping",)

    def __init__(self, source, target, mapping):
        if not (isinstance(source, SetObject) and isinstance(target, SetObject)):
            raise MalformedError("source and target from different instances")
        mapping = dict(mapping)
        if set(mapping) != set(source.elements):
            raise MalformedError("map not total on its source")
        bad = [v for v in mapping.values() if v not in target.elements]
        if bad:
            raise MalformedError(f"image outside target: {bad}")
        self.instance = INSTANCE
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, x):
        return self.mapping[x]

    def __repr__(self):
        return f"SetMap({self.mapping})"


def _set_map(source, target, mapping):
    """An unchecked SetMap that takes over *mapping*, so the caller must
    not change it afterwards.  Composition and hom enumeration build
    most maps, so this skips ``BaseMap.__new__`` and ``__init__``."""
    m = object.__new__(SetMap)
    m.instance, m.source, m.target, m.mapping = INSTANCE, source, target, mapping
    return m


def set_obj(names):
    return SetObject(names)


def set_map(source, target, mapping):
    return SetMap(source, target, mapping)


def gen_set_obj(rng, max_size=4, prefix="e"):
    k = rng.randint(1, max_size)
    return set_obj([f"{prefix}{i}" for i in range(k)])


class SetBij:
    """The SetBij instance."""

    tag = SET_BIJ
    map_class = SetMap
    exhaustive_homs = True
    sizes = {"max_size": 4}
    small_sizes = {"max_size": 3}

    def obj_eq(self, X, other):
        return isinstance(other, SetObject) and X.elements == other.elements

    def obj_hash(self, X):
        return hash((SET_BIJ, X.elements))

    def map_eq(self, f, other):
        return (isinstance(other, SetMap) and f.source == other.source
                and f.target == other.target and f.mapping == other.mapping)

    def map_hash(self, f):
        return hash((SET_BIJ, f.source, f.target, tuple(sorted(f.mapping.items()))))

    def identity(self, X):
        return _set_map(X, X, {x: x for x in X.elements})

    def compose(self, g, f):
        gm, fm = g.mapping, f.mapping
        return _set_map(f.source, g.target,
                        {x: gm[fm[x]] for x in f.source.elements})

    def inverse(self, f):
        if not self.classify(f).is_we:
            return None
        return _set_map(f.target, f.source, {v: k for k, v in f.mapping.items()})

    def classify(self, f):
        is_bij = (len(set(f.mapping.values())) == len(f.source.elements)
                  and len(f.source.elements) == len(f.target.elements))
        return MapClasses(is_we=is_bij, is_cof=True, is_fib=True)

    def factor(self, f, mode):
        """cof-then-acyclicfib is (f, id_target); acycliccof-then-fib is
        (id_source, f)."""
        if mode == COF_ACF:
            return FactorizationPair(left=f, right=self.identity(f.target), mode=mode)
        return FactorizationPair(left=self.identity(f.source), right=f, mode=mode)

    def lift(self, i, p, top, bottom):
        """Inverts whichever of i, p is a bijection."""
        ci, cp = classify_map(i), classify_map(p)
        if cp.is_we:
            pinv = {v: k for k, v in p.mapping.items()}
            return SetMap(i.target, p.source,
                          {b: pinv[bottom.mapping[b]] for b in i.target.elements})
        if ci.is_we:
            iinv = {v: k for k, v in i.mapping.items()}
            return SetMap(i.target, p.source,
                          {b: top.mapping[iinv[b]] for b in i.target.elements})
        return None

    def limit(self, diagram):
        """The empty diagram gives the singleton {"*"}."""
        if diagram.nodes:
            apex, legs, key_nodes, name_index = _set_limit(diagram)
        else:
            apex, legs, key_nodes, name_index = set_obj(["*"]), {}, [], {(): "*"}

        def factor(cone):
            mapping = {}
            for w in cone.apex.elements:
                key = tuple(cone.legs[v].mapping[w] for v in key_nodes)
                if key not in name_index:
                    raise PreconditionError("cone does not factor through the limit")
                mapping[w] = name_index[key]
            return SetMap(cone.apex, apex, mapping)

        return LimitCone(diagram, apex, legs, factor)

    def colimit(self, diagram):
        nodes = sorted(diagram.nodes)
        items = [(v, x) for v in nodes for x in diagram.nodes[v].elements]
        parent = {it: it for it in items}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for src, tgt, f in diagram.edges:
            for x in diagram.nodes[src].elements:
                union((src, x), (tgt, f.mapping[x]))
        classes = {}
        for it in items:
            classes.setdefault(find(it), []).append(it)
        named = {}
        for members in classes.values():
            name = "[" + "|".join(f"{v}.{x}" for v, x in sorted(members)) + "]"
            named[name] = members
        apex = set_obj(sorted(named))
        member_class = {it: name for name, ms in named.items() for it in ms}
        legs = {v: SetMap(diagram.nodes[v], apex,
                          {x: member_class[(v, x)] for x in diagram.nodes[v].elements})
                for v in nodes}

        def factor(cocone):
            mapping = {}
            for cls, members in named.items():
                vals = {cocone.legs[v].mapping[x] for v, x in members}
                if len(vals) != 1:
                    raise PreconditionError("cocone not constant on a class")
                mapping[cls] = vals.pop()
            return SetMap(apex, cocone.apex, mapping)

        return ColimitCone(diagram, apex, legs, factor)

    def hom(self, X, Y):
        """Every map X -> Y, when there are at most ENUMERATION_CAP of
        them; refused above that, before any map is built."""
        nx, ny = len(X.elements), len(Y.elements)
        if ny ** min(nx, 64) > ENUMERATION_CAP:
            raise PreconditionError(f"set hom has |Y|^|X| = {ny}^{nx} maps > "
                                    f"{ENUMERATION_CAP}; enumeration refused")
        return [_set_map(X, Y, dict(zip(X.elements, images)))
                for images in itertools.product(Y.elements, repeat=len(X.elements))]

    def image(self, f):
        names = tuple(sorted(set(f.mapping.values())))
        img = set_obj(names)
        incl = _set_map(img, f.target, {x: x for x in names})
        core = _set_map(f.source, img, dict(f.mapping))
        return img, core, incl

    def corestrict(self, f, incl):
        back = {v: k for k, v in incl.mapping.items()}
        if any(y not in back for y in f.mapping.values()):
            return None
        return _set_map(f.source, incl.source,
                        {x: back[y] for x, y in f.mapping.items()})

    def obj_to_doc(self, X):
        return list(X.elements)

    def obj_from_doc(self, doc):
        if not isinstance(doc, list):
            raise MalformedError("SetBij object payload must be a list")
        bad = [e for e in doc if not isinstance(e, str)]
        if bad:
            raise MalformedError(f"SetBij object: element {bad[0]!r} is not a string")
        return set_obj(doc)

    def map_to_doc(self, f):
        return dict(f.mapping)

    def map_from_doc(self, doc, source, target):
        return set_map(source, target, doc)

    def map_set_doc(self, maps):
        return [list(map(list, r)) for r in sorted(sorted(m.mapping.items())
                                                   for m in maps)]

    def gen_object(self, rng, max_size=4, prefix="e", **_):
        return gen_set_obj(rng, max_size=max_size, prefix=prefix)

    def gen_map(self, rng, X, Y):
        return set_map(X, Y, {x: rng.choice(Y.elements) for x in X.elements})

    def gen_square(self, rng, v_up, v_dn, tries):
        for _ in range(tries):
            a = self.gen_map(rng, v_up.source, v_dn.source)
            want = compose(v_dn, a)
            fibers_ok = all(
                want.mapping[x1] == want.mapping[x2]
                for x1 in v_up.source.elements for x2 in v_up.source.elements
                if v_up.mapping[x1] == v_up.mapping[x2])
            if not fibers_ok:
                continue
            cands = [b for b in self.hom(v_up.target, v_dn.target)
                     if compose(b, v_up) == want]
            if cands:
                return a, rng.choice(cands)
        # a constant always admits a matching b
        c = v_dn.source.elements[0]
        a = set_map(v_up.source, v_dn.source, {x: c for x in v_up.source.elements})
        cc = v_dn.mapping[c]
        b = set_map(v_up.target, v_dn.target, {y: cc for y in v_up.target.elements})
        return a, b

    def gen_iso(self, rng, X, prefix):
        names = [f"{prefix}{i}" for i in range(len(X.elements))]
        perm = list(names)
        rng.rnd.shuffle(perm)
        X2 = set_obj(perm)
        return X2, _set_map(X, X2, dict(zip(X.elements, perm)))

    def gen_we_level_map(self, rng, X, prefix):
        """A levelwise renaming: every SetBij weak equivalence is a
        bijection."""
        from .proobj import level_map
        from .suites import conjugate_pro
        X2, alpha = conjugate_pro(rng, X, prefix=prefix)
        return level_map(X2, X, {s: self.inverse(alpha.level_component(s))
                                 for s in X.index.elements})


def _set_limit(diagram):
    """(apex, legs, key nodes, name index) of a non-empty diagram: the
    tuples that take any elements at the key nodes (the in-degree-zero
    nodes, or every node when the diagram has a cycle), are forced at
    every other node by its in-edges, in topological order, and commute
    on every edge."""
    order = diagram.toposort()
    key_nodes = sorted(diagram.nodes) if order is None else diagram.free_nodes()
    forced = [v for v in order or () if diagram.in_edges(v)]
    rows = {}
    for key in itertools.product(*(diagram.nodes[v].elements for v in key_nodes)):
        row = dict(zip(key_nodes, key))
        for v in forced:
            images = {f.mapping[row[src]] for src, _, f in diagram.in_edges(v)}
            if len(images) > 1:
                break
            row[v] = images.pop()
        else:
            if all(f.mapping[row[src]] == row[tgt] for src, tgt, f in diagram.edges):
                name = "(" + ",".join(key) + ")"
                if name in rows:
                    raise AssertionError("limit key projection not injective")
                rows[name] = row
    names = sorted(rows)
    apex = set_obj(names)
    legs = {v: SetMap(apex, diagram.nodes[v], {n: rows[n][v] for n in names})
            for v in sorted(diagram.nodes)}
    name_index = {tuple(rows[n][v] for v in key_nodes): n for n in names}
    return apex, legs, key_nodes, name_index


def _positions(f):
    """The SetMap *f* as a tuple: the position in f.target of the image
    of each element of f.source."""
    where = {y: k for k, y in enumerate(f.target.elements)}
    return tuple(where[f.mapping[x]] for x in f.source.elements)


def brute_force_hom(X, Y):
    """Direct evaluation of lim_s colim_t Hom(X_t, Y_s) for finite SetBij
    pro-objects, the oracle for ``hom_pro`` and hom replay.

    A germ (t, g: X_t -> Y_s) is the tuple of g's images of X_t's
    elements, as positions in Y_s; a level's germs are numbered t-major,
    each t's in ``SetBij.hom`` order.  Colimit classes come from a
    union-find along the covers of X's index (functoriality makes that
    join every related pair), each rooted at its smallest number.  A
    thread, one root per level of Y, starts from each class at Y's
    maximum and is kept when it agrees along every related pair of Y."""
    J, I = X.index, Y.index
    sizes = {t: len(X.value(t).elements) for t in J.elements}
    covers = [(t, u, _positions(X.struct(u, t))) for t, u in J.covers()]

    @functools.cache
    def classes(n):
        """(germs, roots, number of each germ) at a level of n elements;
        levels of one size share them."""
        ys = range(n)
        germs = [(t, g) for t in J.elements
                 for g in itertools.product(ys, repeat=sizes[t])]
        number = {germ: a for a, germ in enumerate(germs)}
        parent = list(range(len(germs)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for t, u, p in covers:
            for g in itertools.product(ys, repeat=sizes[t]):
                ra = find(number[(t, g)])
                rb = find(number[(u, tuple([g[i] for i in p]))])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        return germs, [find(a) for a in range(len(germs))], number

    at = {s: classes(len(Y.value(s).elements)) for s in I.elements}
    down = {pair: _positions(Y.struct(*pair)) for pair in I.pairs}

    def root(s2, s1, t, g):  # the class of Y(s2 -> s1) . g at s1
        _, roots, number = at[s1]
        if s2 != s1:
            q = down[(s2, s1)]
            g = tuple([q[y] for y in g])
        return roots[number[(t, g)]]

    N = I.max_element()
    germs_N, roots_N, _ = at[N]
    threads = []
    for r in sorted(set(roots_N)):
        t, g = germs_N[r]
        thread = {s: root(N, s, t, g) for s in I.elements}
        if all(root(s2, s1, *at[s2][0][thread[s2]]) == thread[s1]
               for s2, s1 in I.pairs):
            threads.append(thread)
    return threads


INSTANCE = SetBij()
