"""
Relative matching maps, special (acyclic) fibration detection, the two
inductive strict factorizations, and the inductive lift builder.

Everything processes index levels in the deterministic linear-extension
order (ω levels in numeric order), so certificates are reproducible.
The matching object at level t is the limit of the diagram holding all
X_s, Y_s for s < t together with Y_t; at a minimal t it degenerates to
Y_t and the matching map is the component itself.

The mode table ``MODES`` and the class table ``CLASSES`` are the only
place that reads a mode or class tag.  Each certified claim has one
predicate that returns its first failure as (where, why), or None:
``class_failure``, ``composite_failure``, ``StrictFactorization.failure``,
``square_failure`` and ``triangle_failure``.  The constructions raise on
them, and ``verify`` replays certificates through the same ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import (ACOF_FIB, COF_ACF, BaseMap, classify_map, compose,
                   factor_map, solve_lift)
from .baselim import Cone, Diagram, finite_limit
from .errors import (MalformedError, PreconditionError, UnsupportedRegimeError,
                     VerificationFailure, fail_on)
from .indexing import FINITE, linear_extension
from .proobj import (LEVEL, ProMap, ProObject, compose_pro, general_map,
                     level_map)

MODE_L1 = "L1"  # strict cofibration then special acyclic fibration
MODE_L2 = "L2"  # levelwise acyclic cofibration then special fibration

FIB = "fib"
ACYCLIC_FIB = "acyclic-fib"
COF = "cof"
ACYCLIC_COF = "acyclic-cof"
WE = "we"

# Each class a construction certifies, as a test of a map's class flags.
CLASSES = {
    COF: lambda c: c.is_cof,
    ACYCLIC_COF: lambda c: c.is_cof and c.is_we,
    FIB: lambda c: c.is_fib,
    ACYCLIC_FIB: lambda c: c.is_fib and c.is_we,
    WE: lambda c: c.is_we,
}

# mode -> (base factorization mode, class of the left factor, class of
# the relative matching maps of the right factor)
MODES = {MODE_L1: (COF_ACF, COF, ACYCLIC_FIB),
         MODE_L2: (ACOF_FIB, ACYCLIC_COF, FIB)}


def _lookup(table, key, what):
    row = table.get(key) if isinstance(key, str) else None
    if row is None:
        raise MalformedError(f"unknown {what} {key!r}")
    return row


def mode_classes(mode):
    """(base factorization mode, left class, special class) of mode L1 or
    L2; MalformedError for any other mode."""
    return _lookup(MODES, mode, "mode")


def class_test(tag):
    """The test of class flags for the class named *tag*; MalformedError
    for an unknown tag."""
    return _lookup(CLASSES, tag, "class")


def class_failure(what, component, tag, levels, classes=None):
    """The first of *levels* at which the base map component(level) is
    not in class *tag*, as (level, why), naming the map *what*; None when
    every one is.  Each level's class flags go into the dict *classes*
    when one is given."""
    test = class_test(tag)
    for s in levels:
        cls = classify_map(component(s))
        if classes is not None:
            classes[s] = cls
        if not test(cls):
            return s, f"{what} not in class {tag} at level {s}"
    return None


def composite_failure(f, left, right, levels):
    """The first of *levels* at which right ∘ left differs from f, as
    (level, why); None when the composite is f at every level."""
    for s in levels:
        if compose(right.level_component(s), left.level_component(s)) != \
                f.level_component(s):
            return s, f"composite differs at level {s}"
    return None


@dataclass
class MatchingData:
    level: object
    map: BaseMap          # M_t f
    cone: object = None   # LimitCone; None when t is minimal

    def mediate(self, apex, top, legs, f):
        """The map from *apex* into the matching object of the LEVEL map f
        at this level t, for the cone with legs top: apex -> Y_t and
        legs[s]: apex -> X_s over the predecessors s (the leg to Y_s is
        f_s ∘ legs[s]).  At a minimal t the matching object is Y_t and
        the map is *top*.  PreconditionError when the legs are no cone."""
        if self.cone is None:
            return top
        cone_legs = {f"Y.top:{self.level}": top}
        for s, a in legs.items():
            cone_legs[f"X:{s}"] = a
            cone_legs[f"Y:{s}"] = compose(f.level_component(s), a)
        return self.cone.mediate(Cone(self.cone.diagram, apex, cone_legs))


def _matching_limit(label, Y, t, apex, top, side, struct):
    """The limit of W_s -> Y_s <- Y_t over the strict predecessors s of t,
    with the structure maps W_s -> W_u and Y_s -> Y_u for each u that s
    covers, and the mediating map into it from the cone with legs top:
    apex -> Y_t and a_s: apex -> W_s.  Returns (limit cone, mediating
    map).  W and Y are functors on the predecessors, a down-set whose
    covers are the index's own, so the cover edges cut out the same limit
    as every edge u < s would, in O(t) edges at ω level t.

    *side* maps each predecessor s to (W_s, p_s: W_s -> Y_s, a_s);
    struct(s, u) is W_s -> W_u.  W_s is the node "{label}:{s}", beside
    "Y:{s}" and "Y.top:{t}".  The limit orders its coordinates by node
    name, so the label fixes the apex basis and the certificate bytes.
    """
    idx = Y.index
    nodes, edges = {f"Y.top:{t}": Y.value(t)}, []
    legs = {f"Y.top:{t}": top}
    for s, (W, p, a) in side.items():
        w = f"{label}:{s}"
        nodes[w] = W
        nodes[f"Y:{s}"] = Y.value(s)
        edges.append((w, f"Y:{s}", p))
        edges.append((f"Y.top:{t}", f"Y:{s}", Y.struct(t, s)))
        for u in idx.lower_covers(s):
            edges.append((w, f"{label}:{u}", struct(s, u)))
            edges.append((f"Y:{s}", f"Y:{u}", Y.struct(s, u)))
        legs[w] = a
        legs[f"Y:{s}"] = compose(p, a)
    dia = Diagram(nodes, edges)
    lim = finite_limit(dia)
    return lim, lim.mediate(Cone(dia, apex, legs))


def matching_map(f, t):
    """The relative matching map of a LEVEL presentation at level t."""
    if f.kind != LEVEL:
        raise PreconditionError("matching maps need a LEVEL presentation")
    X = f.source
    preds = X.index.predecessors(t)
    if not preds:
        return MatchingData(level=t, map=f.level_component(t))
    side = {s: (X.value(s), f.level_component(s), X.struct(t, s)) for s in preds}
    lim, med = _matching_limit("X", f.target, t, X.value(t),
                               f.level_component(t), side, X.struct)
    return MatchingData(level=t, map=med, cone=lim)


@dataclass
class SpecialResult:
    """Per-level classification of the matching maps of a presentation.
    *matching* holds the MatchingData of every level classified, so a
    certificate that is ok holds every level's: the cocell tower and the
    lifts against the same map attach these and compute none.  The ω
    depth is that of the presentation's index."""
    mode: str
    ok: bool
    verdicts: dict
    matching: dict
    failing: object = None

    def require(self):
        if not self.ok:
            raise PreconditionError(
                f"not a special {self.mode}: fails at level {self.failing}")
        return self


def detect_special(f, mode):
    """Certificate that every relative matching map is a fibration
    (mode "fib") or acyclic fibration (mode "acyclic-fib"), or the first
    failing level."""
    if mode not in (FIB, ACYCLIC_FIB):
        raise MalformedError(f"unknown special mode {mode!r}")
    verdicts, matching = {}, {}

    def component(t):
        matching[t] = matching_map(f, t)
        return matching[t].map

    bad = class_failure("matching map", component, mode,
                        linear_extension(f.source.index), verdicts)
    return SpecialResult(mode=mode, ok=bad is None, verdicts=verdicts,
                         matching=matching, failing=None if bad is None else bad[0])


# ------------------------------------------------------------ factor_strict


@dataclass
class StrictFactorization:
    """f = right ∘ left with left a levelwise (acyclic) cofibration and
    right special (acyclic); carries per-level certificates.  *depth* is
    the input's ω depth (None in the finite regime)."""
    input: ProMap
    mode: str
    middle: ProObject
    left: ProMap
    right: ProMap
    left_classes: dict = None
    special: SpecialResult = None

    @property
    def depth(self):
        return self.input.source.index.depth

    def replay_composite(self):
        fail_on(composite_failure(self.input, self.left, self.right,
                                  self.input.target.index.elements))

    def failure(self):
        """The first failed postcondition as (level, why), None when all
        hold: right ∘ left is the input, left is in the mode's class at
        every level and right is special.  Records the fresh verdicts in
        left_classes and special."""
        _, left_class, special_class = mode_classes(self.mode)
        levels = self.input.target.index.elements
        self.left_classes = {}
        bad = (composite_failure(self.input, self.left, self.right, levels)
               or class_failure("left factor", self.left.level_component,
                                left_class, levels, self.left_classes))
        if bad is not None:
            return bad
        self.special = detect_special(self.right, special_class)
        t = self.special.failing
        if not self.special.ok:
            return t, f"right factor not a special {special_class} at level {t}"
        return None


def factor_strict(f, mode):
    """Inductive strict factorization of a LEVEL presentation, over every
    level of its index (up to the depth in the ω regime).

    Mode L1 gives a levelwise cofibration followed by a special acyclic
    fibration; L2 a levelwise acyclic cofibration followed by a special
    fibration.  Level s factors the relative map from X_s into the limit
    of the Z_t -> Y_t <- Y_s built so far.  Postconditions are re-checked:
    the left classes via classify_map and the right side via
    detect_special.
    """
    if f.kind != LEVEL:
        raise PreconditionError("factor_strict needs a LEVEL presentation; "
                                "levelize first")
    base_mode = mode_classes(mode)[0]
    X, Y = f.source, f.target
    idx = X.index
    zvals, zstructs, ivals, pvals = {}, {}, {}, {}
    for s in linear_extension(idx):
        preds = [t for t in zvals if idx.lt(t, s)]
        lim, cmp_map = None, f.level_component(s)
        if preds:
            side = {t: (zvals[t], pvals[t], compose(ivals[t], X.struct(s, t)))
                    for t in preds}
            lim, cmp_map = _matching_limit("Z", Y, s, X.value(s), cmp_map, side,
                                           lambda t, u: zstructs[(t, u)])
        fp = factor_map(cmp_map, base_mode)
        zvals[s], ivals[s] = fp.middle, fp.left
        pvals[s] = fp.right if lim is None else compose(lim.legs[f"Y.top:{s}"],
                                                        fp.right)
        for t in preds:
            zstructs[(s, t)] = compose(lim.legs[f"Z:{t}"], fp.right)
    Z = ProObject(idx, values=zvals, structs=zstructs)
    out = StrictFactorization(input=f, mode=mode, middle=Z,
                              left=level_map(X, Z, ivals),
                              right=level_map(Z, Y, pvals))
    fail_on(out.failure())
    return out


# -------------------------------------------------------------- lift_strict


@dataclass
class LiftResult:
    lift: ProMap
    level_index: dict   # s -> a(s)
    components: dict    # s -> base map B_{a(s)} -> X_s


def square_failure(i, p, top, bottom, mode, special=None):
    """Why (i, p, top, bottom) is not a square that lift_strict solves in
    *mode*, as (where, why): its corners do not line up, it does not
    commute in pro-hom, i is not in the mode's left class at some level,
    or p is not special.  None when it is one.  *special* is p's
    detect_special result, computed here when None."""
    for corner, a, b in (("top/left", top.source, i.source),
                         ("bottom/left", bottom.source, i.target),
                         ("top/right", top.target, p.source),
                         ("bottom/right", bottom.target, p.target)):
        if a is not b and a != b:
            return corner, f"{corner} corner mismatch"
    if not compose_pro(p, top).equals(compose_pro(bottom, i)):
        return None, "square does not commute in pro-hom"
    _, left_class, special_class = mode_classes(mode)
    bad = class_failure("left map", i.level_component, left_class,
                        i.source.index.elements)
    if bad is not None:
        return bad
    if special is None:
        special = detect_special(p, special_class)
    if special.mode != special_class:
        return None, "special certificate has the wrong mode"
    if not special.ok:
        return special.failing, \
            f"right map not special at level {special.failing}"
    return None


def triangle_failure(i, p, top, bottom, lift):
    """The triangle of a lift that fails, as (where, why); None when
    lift ∘ i = top and p ∘ lift = bottom in pro-hom."""
    if not compose_pro(lift, i).equals(top):
        return "top", "lift fails the top triangle"
    if not compose_pro(p, lift).equals(bottom):
        return "bottom", "lift fails the bottom triangle"
    return None


def lift_strict(i, p, top, bottom, mode=MODE_L1, special=None):
    """Inductive lift for a commuting square of LEVEL presentations over a
    shared finite index.

    Mode L1 pairs a levelwise cofibration i against a special acyclic
    fibration p; mode L2 a levelwise acyclic cofibration against a
    special fibration.  The lift is GENERAL with components
    B_{a(s)} -> X_s, where a(s) is the smallest well-order index
    dominating s and all previous a(t) at which the inputs commute on
    the nose.

    Level s lifts against p's relative matching map at s, the one that
    *special*, p's detect_special certificate, holds.  A supplied
    certificate must be one of p; without one, detect_special runs once
    here, for the square check and the matching maps alike.
    The triangles are re-checked on the finished lift.
    """
    for m, name in ((i, "i"), (p, "p"), (top, "top"), (bottom, "bottom")):
        if m.kind != LEVEL:
            raise PreconditionError(f"{name} must be LEVEL; levelize first")
    idx = i.source.index
    if idx.regime != FINITE:
        raise UnsupportedRegimeError("lift_strict runs in the finite regime")
    if p.source.index != idx:
        raise PreconditionError("square must share one index; levelize first")
    if special is None:
        special = detect_special(p, mode_classes(mode)[2])
    fail_on(square_failure(i, p, top, bottom, mode, special), PreconditionError)

    A, B = i.source, i.target
    X = p.source
    well = linear_extension(idx)
    order = list(well)
    pos = {s: k for k, s in enumerate(order)}
    a_of, comps = {}, {}

    for s in order:
        m = special.matching[s]
        floor = pos[s]
        for t in a_of:
            if idx.lt(t, s):
                floor = max(floor, pos[a_of[t]])
        # a(s): smallest well-order index dominating s and all a(t), t < s,
        # at which every needed equality holds on the nose
        chosen = None
        for u in order[floor:]:
            if not idx.leq(s, u):
                continue
            if any(idx.lt(t, s) and not idx.leq(a_of[t], u) for t in a_of):
                continue
            alpha = compose(top.level_component(s), A.struct(u, s))
            try:
                beta = m.mediate(B.value(u),
                                 compose(bottom.level_component(s), B.struct(u, s)),
                                 {t: compose(comps[t], B.struct(u, a_of[t]))
                                  for t in idx.predecessors(s)}, p)
            except PreconditionError:
                continue
            h = _base_lift(i.level_component(u), m.map, alpha, beta)
            if h is None:
                continue
            a_of[s] = u
            comps[s] = h
            chosen = u
            break
        if chosen is None:
            raise VerificationFailure(
                f"no refinement level admits a lift at {s}", witness=s)

    lift = general_map(B, X, {s: (a_of[s], comps[s]) for s in idx.elements})
    fail_on(triangle_failure(i, p, top, bottom, lift))
    return LiftResult(lift=lift, level_index=a_of, components=comps)


def _base_lift(i_c, m_map, alpha, beta):
    try:
        return solve_lift(i_c, m_map, alpha, beta)
    except PreconditionError:
        return None
