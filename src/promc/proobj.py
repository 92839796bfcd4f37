"""
Pro-objects and pro-maps over cofinite directed index posets.

A pro-object is a functor from an index poset to a base instance with
structure maps running from larger to smaller indices.  Pro-maps come in
two presentations: LEVEL (a natural transformation over a shared index)
and GENERAL (one component pair (source index, base map) per target
index, compatible up to refinement).  In the finite regime the maximum
index is initial in the index category, so pro-hom equality is decided
by realizing components at the maxima; the ω regime checks everything up
to the truncation depth of its index.
"""

from __future__ import annotations

from .base import BaseMap, compose, identity
from .errors import MalformedError, PreconditionError
from .indexing import DEFAULT_DEPTH, FINITE, OMEGA, linear_extension

LEVEL = "level"
GENERAL = "general"


class ProObject:
    """Values and composable structure maps over an index poset.

    Finite regime: explicit dictionaries.  ω regime: generator callables
    value_fn(n) and step_fn(n): X_{n+1} -> X_n, deterministic in n,
    evaluated lazily and cached.
    """

    __slots__ = ("index", "_values", "_structs", "_value_fn", "_step_fn")

    def __init__(self, index, values=None, structs=None,
                 value_fn=None, step_fn=None):
        self.index = index
        if index.regime == FINITE:
            self._values = dict(values)
            if set(self._values) != set(index.elements):
                raise MalformedError("values must cover the index carrier")
            self._value_fn = self._step_fn = None
            self._structs = self._closure(structs or {})
        else:
            self._values = {}
            self._structs = {}
            self._value_fn = value_fn
            self._step_fn = step_fn

    def _closure(self, given):
        """Every structure map, from the maps *given* on related pairs
        (every cover at least), as one dict keyed (t, s).

        One pass over the strict triples t > u > s, t along the linear
        extension and s from the top down, checks each given map, composes
        each missing pair once and compares every other composite once."""
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
        if self.index.regime == FINITE:
            self._closure(self._structs)

    @property
    def instance(self):
        if self.index.regime == FINITE:
            return next(iter(self._values.values())).instance
        return self.value(0).instance

    def value(self, s):
        if self.index.regime == FINITE:
            return self._values[s]
        s = int(s)
        if s not in self._values:
            self._values[s] = self._value_fn(s)
        return self._values[s]

    def step(self, n):
        """ω regime: the structure map X_{n+1} -> X_n."""
        n = int(n)
        if (n + 1, n) not in self._structs:
            m = self._step_fn(n)
            if m.source != self.value(n + 1) or m.target != self.value(n):
                raise MalformedError(f"step {n + 1}->{n} has wrong endpoints")
            self._structs[(n + 1, n)] = m
        return self._structs[(n + 1, n)]

    def struct(self, t, s):
        """The structure map X_t -> X_s for t >= s."""
        if not self.index.leq(s, t):
            raise PreconditionError(f"no structure map {t}->{s}")
        if self.index.regime == FINITE:
            return self._structs[(t, s)]
        t, s = int(t), int(s)
        if (t, s) not in self._structs:
            if t == s:
                m = identity(self.value(s))
            else:
                m = self.step(s)
                for k in range(s + 1, t):
                    m = compose(m, self.step(k))
            self._structs[(t, s)] = m
        return self._structs[(t, s)]

    def max_value(self):
        return self.value(self.index.max_element())

    def __eq__(self, other):
        if not isinstance(other, ProObject) or self.index != other.index:
            return False
        if self.index.regime != FINITE:
            return self is other
        return self._values == other._values and self._structs == other._structs

    def __hash__(self):
        return id(self) if self.index.regime == OMEGA else hash(
            (self.index, tuple(sorted(self._values.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if self.index.regime == FINITE:
            return f"ProObject({ {s: self._values[s] for s in self.index.elements} })"
        return "ProObject(omega)"


def pro_object(index, values, structs):
    """Finite-regime constructor; *structs* maps (t, s) pairs (at least
    every covering pair) to base maps, closed under composition here."""
    return ProObject(index, values=values, structs=structs)


def omega_pro_object(value_fn, step_fn, depth=DEFAULT_DEPTH):
    from .indexing import omega
    return ProObject(omega(depth), value_fn=value_fn, step_fn=step_fn)


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
            for s in idx.carrier():
                f = self.level_component(s)
                if f.source != self.source.value(s) or f.target != self.target.value(s):
                    raise MalformedError(f"component at {s} has wrong endpoints")
            for s, t in idx.covers():
                lhs = compose(self.target.struct(t, s), self.level_component(t))
                rhs = compose(self.level_component(s), self.source.struct(t, s))
                if lhs != rhs:
                    raise MalformedError(f"naturality fails on {t} >= {s}")
            return
        src_idx = self.source.index
        for s in idx.carrier():
            t, g = self.component(s)
            if not src_idx.leq(t, t):  # reflexivity: t is an element
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
        src_idx = self.source.index
        if src_idx.regime == FINITE:
            return src_idx.max_element()
        M = src_idx.depth - 1
        for s in self.target.index.carrier():
            M = max(M, int(self.component(s)[0]))
        return M

    def realize(self, s, at=None):
        """The component at target index s precomposed up to the source
        maximum (finite) or a common ω refinement level."""
        t, g = self.component(s)
        M = at if at is not None else self._refinement_index()
        return compose(g, self.source.struct(M, t))

    def equals(self, other):
        """Pro-hom equality of presentations with the same endpoints."""
        if self.source is not other.source and self.source != other.source:
            raise PreconditionError("comparing maps with different sources")
        if self.target is not other.target and self.target != other.target:
            raise PreconditionError("comparing maps with different targets")
        at = self._refinement_index()
        if self.source.index.regime == OMEGA:
            at = max(at, other._refinement_index())
        for s in self.target.index.carrier():
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


def compose_pro(g, f, check=False):
    """g ∘ f by refinement chasing; LEVEL survives a shared index."""
    if f.target is not g.source and f.target != g.source:
        raise PreconditionError("non-composable pro-maps")
    if f.kind == LEVEL and g.kind == LEVEL and f.source.index == g.target.index:
        return level_map(f.source, g.target,
                         lambda s: compose(g.level_component(s), f.level_component(s)),
                         check=check)

    def comp(s):
        t, gamma = g.component(s)
        u, phi = f.component(t)
        return (u, compose(gamma, phi))

    return general_map(f.source, g.target, comp, check=check)


def to_general(f):
    if f.kind == GENERAL:
        return f
    return general_map(f.source, f.target, f.component, check=False)


def constant_over(index, obj):
    """The constant functor on *index* with value *obj*."""
    if index.regime == FINITE:
        return ProObject(index, values={s: obj for s in index.elements},
                         structs={(t, s): identity(obj) for s, t in index.covers()})
    return ProObject(index, value_fn=lambda n: obj,
                     step_fn=lambda n: identity(obj))
