"""
Pro-objects and pro-maps over cofinite directed index posets.

A pro-object is a functor from an index poset to a base instance with
structure maps running from larger to smaller indices.  Both regimes
store it alike: a value per element of the index (for ω, the levels
below its depth) and the structure maps on its covers, from which the
others follow.  Pro-maps come in two presentations: LEVEL (a natural
transformation over a shared index) and GENERAL (one component pair
(source index, base map) per target index, compatible up to
refinement).  Pro-hom equality is decided by realizing components at
the last level of the source index: the maximum of a finite index,
which is initial in the index category, and the deepest level of an ω
one.
"""

from __future__ import annotations

from .base import BaseMap, compose, identity
from .errors import MalformedError, PreconditionError
from .indexing import DEFAULT_DEPTH, OMEGA, linear_extension, omega

LEVEL = "level"
GENERAL = "general"


class ProObject:
    """Values and composable structure maps over an index poset.

    A finite index keeps every structure map, composed and checked once
    when the object is built.  On the ω chain the cover maps determine
    the rest: ``struct`` composes a missing one when it is asked for and
    keeps it."""

    __slots__ = ("index", "_values", "_structs")

    def __init__(self, index, values, structs=None):
        self.index = index
        self._values = dict(values)
        if set(self._values) != set(index.elements):
            raise MalformedError("values must cover the index carrier")
        self._structs = self._closure(structs or {})

    def _closure(self, given):
        """Every structure map of a finite index, from the maps *given*
        on related pairs (every cover at least), as one dict keyed (t, s).

        One pass over the strict triples t > u > s, t along the linear
        extension and s from the top down, checks each given map, composes
        each missing pair once and compares every other composite once.
        An ω index keeps its covers, and each other given map must be the
        composite of the covers below it."""
        idx, values = self.index, self._values
        structs = {(s, s): identity(values[s]) for s in idx.elements}
        for (t, s), m in given.items():
            if t not in values or s not in values:
                raise MalformedError(f"structure map {t}->{s} names an unknown element")
            if not idx.leq(s, t):
                raise MalformedError(f"structure map {t}->{s} is not on a related pair")
            if not isinstance(m, BaseMap) or m.source != values[t] \
                    or m.target != values[s]:
                raise MalformedError(f"structure map {t}->{s} has wrong endpoints")
            if t == s and m != structs[(s, s)]:
                raise MalformedError(
                    f"functoriality fails: structure map {s}->{s} is not the identity")
            structs.setdefault((t, s), m)
        if idx.regime == OMEGA:
            return _chain_closure(idx, structs)
        order = linear_extension(idx).order
        rank = {s: k for k, s in enumerate(order)}
        for t in order:
            below = sorted(idx.predecessors(t), key=rank.get, reverse=True)
            for k, s in enumerate(below):
                for u in below[:k]:
                    if idx.lt(s, u):
                        m = compose(structs[(u, s)], structs[(t, u)])
                        if structs.setdefault((t, s), m) != m:
                            raise MalformedError(
                                f"functoriality fails on {t} >= {u} >= {s}")
                if (t, s) not in structs:
                    raise MalformedError(f"missing structure map for cover {t}->{s}")
        return structs

    def validate(self):
        """Functoriality: the closure pass again over the stored maps."""
        self._closure(self._structs)

    @property
    def instance(self):
        return next(iter(self._values.values())).instance

    def value(self, s):
        return self._values[s]

    def struct(self, t, s):
        """The structure map X_t -> X_s for t >= s."""
        m = self._structs.get((t, s))
        if m is None:
            if t not in self._values or s not in self._values \
                    or not self.index.leq(s, t):
                raise PreconditionError(f"no structure map {t}->{s}")
            m = _compose_down(self._structs, t, s)
        return m

    def max_value(self):
        return self.value(self.index.max_element())

    def __eq__(self, other):
        if not isinstance(other, ProObject) or self.index != other.index:
            return False
        return self._values == other._values and all(
            self._structs[(t, s)] == other._structs[(t, s)]
            for s, t in self.index.covers())

    def __hash__(self):
        return hash((self.index, tuple(self._values[s] for s in self.index.elements)))

    def __repr__(self):
        return f"ProObject({ {s: self._values[s] for s in self.index.elements} })"


def _chain_closure(idx, structs):
    """The identities and covers among the ω maps *structs*; each other
    pair is checked against the composite of the covers, t upwards."""
    for s, t in idx.covers():
        if (t, s) not in structs:
            raise MalformedError(f"missing structure map for cover {t}->{s}")
    kept = {(t, s): m for (t, s), m in structs.items() if t - s <= 1}
    for t, s in sorted(structs.keys() - kept.keys()):
        if _compose_down(kept, t, s) != structs[(t, s)]:
            raise MalformedError(f"functoriality fails on {t} >= {t - 1} >= {s}")
    return kept


def _compose_down(structs, t, s):
    """The ω structure map X_t -> X_s from the nearest map kept in its row,
    struct(t, u) with u > s, or its column, struct(u, s) with u < t, and
    the covers in between; each composite on the way is kept.  A row walk
    takes struct(t, v) = struct(v + 1, v) ∘ struct(t, v + 1), a column walk
    struct(v, s) = struct(v - 1, s) ∘ struct(v, v - 1).  Either keeps one
    map per step, so asking for every X_t -> X_s with t, or s, fixed keeps
    one line of maps, not a triangle."""
    u, v = s, t
    while (t, u) not in structs and (v, s) not in structs:
        u, v = u + 1, v - 1
    if (t, u) in structs:
        m = structs[(t, u)]
        for w in range(u - 1, s - 1, -1):
            m = structs[(t, w)] = compose(structs[(w + 1, w)], m)
    else:
        m = structs[(v, s)]
        for w in range(v + 1, t + 1):
            m = structs[(w, s)] = compose(m, structs[(w, w - 1)])
    return m


def pro_object(index, values, structs):
    """Constructor; *structs* maps (t, s) pairs (at least every covering
    pair) to base maps, closed under composition here."""
    return ProObject(index, values=values, structs=structs)


def omega_pro_object(value_fn, step_fn, depth=DEFAULT_DEPTH):
    """The ω pro-object with values value_fn(n) and structure maps
    step_fn(n): X_{n+1} -> X_n, each evaluated once for the levels below
    *depth*."""
    index = omega(depth)
    return ProObject(index, values={n: value_fn(n) for n in index.elements},
                     structs={(t, s): step_fn(s) for s, t in index.covers()})


class ProMap:
    """A morphism of pro-objects in LEVEL or GENERAL presentation.

    *comps* is a dict keyed by target index, or a function of the target
    index; either way each component is computed once and kept."""

    __slots__ = ("source", "target", "kind", "_comps", "_fn")

    def __init__(self, source, target, kind, comps, check=True):
        if source.instance != target.instance:
            raise MalformedError("pro-map mixes instances")
        self.source = source
        self.target = target
        self.kind = kind
        if callable(comps):
            self._comps, self._fn = {}, comps
        else:
            self._comps, self._fn = dict(comps), None
        if kind == LEVEL and source.index != target.index:
            raise MalformedError("LEVEL presentation needs a shared index")
        if check:
            self.validate()

    # -- component access ------------------------------------------------

    def _component(self, s):
        if s not in self._comps:
            if self._fn is None:
                raise PreconditionError(f"no component at {s}")
            self._comps[s] = self._fn(s)
        return self._comps[s]

    def level_component(self, s):
        if self.kind != LEVEL:
            raise PreconditionError("not a LEVEL presentation")
        return self._component(s)

    def component(self, s):
        """GENERAL view: (source index t, base map X_t -> Y_s)."""
        if self.kind == LEVEL:
            return (s, self._component(s))
        return self._component(s)

    # -- validation -------------------------------------------------------

    def validate(self):
        """Endpoints at every level of the target index, then naturality
        (LEVEL) or compatibility of the realized components (GENERAL) on
        its covers; functorial structure maps give every other pair."""
        idx = self.target.index
        if self.kind == LEVEL:
            for s in idx.elements:
                f = self.level_component(s)
                if f.source != self.source.value(s) or f.target != self.target.value(s):
                    raise MalformedError(f"component at {s} has wrong endpoints")
            for s, t in idx.covers():
                lhs = compose(self.target.struct(t, s), self.level_component(t))
                rhs = compose(self.level_component(s), self.source.struct(t, s))
                if lhs != rhs:
                    raise MalformedError(f"naturality fails on {t} >= {s}")
            return
        for s in idx.elements:
            t, g = self.component(s)
            if t not in self.source._values:
                raise MalformedError(f"component at {s} uses unknown index {t}")
            if g.source != self.source.value(t) or g.target != self.target.value(s):
                raise MalformedError(f"component at {s} has wrong endpoints")
        at = self._refinement_index()
        for s1, s2 in idx.covers():
            lhs = compose(self.target.struct(s2, s1), self.realize(s2, at=at))
            if lhs != self.realize(s1, at=at):
                raise MalformedError(f"compatibility fails from {s2} down to {s1}")

    # -- realization and equality ------------------------------------------

    def _refinement_index(self):
        """The last level of the source index: its maximum when finite,
        its deepest level when ω; every component's source is below it."""
        return linear_extension(self.source.index).order[-1]

    def realize(self, s, at=None):
        """The component at target index s precomposed up to the last
        level of the source index."""
        t, g = self.component(s)
        M = at if at is not None else self._refinement_index()
        return g if t == M else compose(g, self.source.struct(M, t))

    def equals(self, other):
        """Pro-hom equality of presentations with the same endpoints."""
        if self.source is not other.source and self.source != other.source:
            raise PreconditionError("comparing maps with different sources")
        if self.target is not other.target and self.target != other.target:
            raise PreconditionError("comparing maps with different targets")
        at = self._refinement_index()
        for s in self.target.index.elements:
            if self.realize(s, at=at) != other.realize(s, at=at):
                return False
        return True

    def __repr__(self):
        return f"ProMap({self.kind})"


def level_map(source, target, comps, check=True):
    return ProMap(source, target, LEVEL, comps, check=check)


def general_map(source, target, comps, check=True):
    return ProMap(source, target, GENERAL, comps, check=check)


def identity_pro(X):
    return level_map(X, X, lambda s: identity(X.value(s)), check=False)


def compose_pro(g, f):
    """g ∘ f by refinement chasing; LEVEL survives a shared index."""
    if f.target is not g.source and f.target != g.source:
        raise PreconditionError("non-composable pro-maps")
    if f.kind == LEVEL and g.kind == LEVEL and f.source.index == g.target.index:
        return level_map(f.source, g.target,
                         lambda s: compose(g.level_component(s), f.level_component(s)),
                         check=False)

    def comp(s):
        t, gamma = g.component(s)
        u, phi = f.component(t)
        return (u, compose(gamma, phi))

    return general_map(f.source, g.target, comp, check=False)


def to_general(f):
    if f.kind == GENERAL:
        return f
    return general_map(f.source, f.target, f.component, check=False)


def constant_over(index, obj):
    """The constant functor on *index* with value *obj*."""
    return ProObject(index, values={s: obj for s in index.elements},
                     structs={(t, s): identity(obj) for s, t in index.covers()})
