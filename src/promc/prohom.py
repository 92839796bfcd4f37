"""
Pro-hom sets, levelization, pro-isomorphism certificates, levelwise
limits, and the constant/limit adjoint pair.

Finite-regime hom sets collapse to base homs at the maxima (the maximum
is initial in the index category); the ω regime evaluates the inverse
system of hom sets to the depth the two indexes share and reports
stabilization.

Iso certificates carry either an honest inverse pro-map (composites
checked against the identity in pro-hom) or an index-raising witness
family {h_ts : Y_t -> X_s, t > s} whose two triangle identities are the
pro-hom composite-equals-identity checks at refinement index t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import BaseObject, compose, identity, inverse
from .baselim import Cone, Diagram, finite_colimit, finite_limit
from .errors import (DepthExhaustedError, MalformedError, PreconditionError,
                     UnsupportedRegimeError, VerificationFailure, fail_on)
from .indexing import FINITE, IndexPoset, chain_poset, point_poset
from .proobj import (LEVEL, ProMap, ProObject, compose_pro, constant_over,
                     general_map, identity_pro, level_map, omega_pro_object)


def enumerate_base_maps(X, Y):
    """All base maps X -> Y.  An instance may refuse a hom set too large
    to list (ChainF2 does above its ``ENUMERATION_CAP``)."""
    return X.instance.hom(X, Y)


def spread_from_max(X, Y, phi):
    """The GENERAL pro-map X -> Y whose realization at the maxima is phi."""
    M = X.index.max_element()
    N = Y.index.max_element()
    if phi.source != X.value(M) or phi.target != Y.value(N):
        raise PreconditionError("spread needs a map between the top values")
    comps = {s: (M, compose(Y.struct(N, s), phi)) for s in Y.index.elements}
    return general_map(X, Y, comps, check=False)


@dataclass
class HomSet:
    """Representatives of pro-hom classes, one GENERAL map per class."""
    maps: list
    stabilized_at: int | None = None  # ω regime; the depth is the index's

    def __len__(self):
        return len(self.maps)


def hom_pro(X, Y):
    """The pro-hom set.  Finite regime: exact, via collapse at the maxima.
    ω regime: evaluation to the depth of both indexes, with a
    stabilization marker."""
    if X.instance != Y.instance:
        raise MalformedError("hom between different instances")
    if _shared_regime(X, Y, "hom") == FINITE:
        reps = [spread_from_max(X, Y, phi)
                for phi in enumerate_base_maps(X.max_value(), Y.max_value())]
        return HomSet(maps=reps)
    return _omega_hom(X, Y)


def _shared_regime(X, Y, what):
    """The regime of X and Y; UnsupportedRegimeError when their regimes or
    ω depths differ."""
    if X.index.regime != Y.index.regime:
        raise UnsupportedRegimeError(f"mixed finite/ω {what}; reindex first")
    if X.index.depth != Y.index.depth:
        raise UnsupportedRegimeError(
            f"{what} between ω depths {X.index.depth} and {Y.index.depth}; "
            "reindex first")
    return X.index.regime


def _omega_hom(X, Y):
    """Depth-d evaluation of the hom inverse system, with a conservative
    Mittag-Leffler stabilization marker.

    Truncated germ classes at target s are maps X_{d-1} -> Y_s; the
    system is declared stable when their postcomposition images were
    already stable one tower step earlier, the maps induced between the
    stable images are bijections, and the X side can no longer identify
    germs (precomposition with the top step is injective); d is the
    depth of X's index."""
    d = X.index.depth
    top = d - 1
    germs_top = enumerate_base_maps(X.value(top), Y.value(top))
    stable = {s: list(dict.fromkeys(compose(Y.struct(top, s), g)
                                    for g in germs_top))
              for s in range(d)}
    pinned = d - 2  # coordinates below this are settled by two tower steps
    stabilized = d >= 3
    if stabilized:
        for s in range(pinned):
            prev = {compose(Y.struct(d - 2, s), g)
                    for g in enumerate_base_maps(X.value(top), Y.value(d - 2))}
            if prev != set(stable[s]):
                stabilized = False
                break
    if stabilized:
        for s in range(pinned - 1):
            down = [compose(Y.struct(s + 1, s), g) for g in stable[s + 1]]
            if len(set(down)) != len(stable[s + 1]) or \
                    len(stable[s + 1]) != len(stable[s]):
                stabilized = False
                break
    if stabilized:
        for s in range(pinned):
            seen = set()
            for phi in enumerate_base_maps(X.value(d - 2), Y.value(s)):
                pre = compose(phi, X.struct(top, d - 2))
                if pre in seen:
                    stabilized = False
                    break
                seen.add(pre)
            if not stabilized:
                break
    if not stabilized:
        reps = []
        for g in germs_top:
            comps = {n: (top, compose(Y.struct(top, n), g)) for n in range(d)}
            reps.append(general_map(X, Y, comps, check=False))
        return HomSet(maps=reps, stabilized_at=None)
    # threads through the stable system, one per stable germ at level 0
    reps = []
    for psi0 in stable[0]:
        thread = {0: psi0}
        for s in range(1, d):
            lifts = [g for g in stable[s]
                     if compose(Y.struct(s, 0), g) == psi0]
            thread[s] = lifts[0]  # unique below the pinned range
        comps = {n: (top, thread[n]) for n in range(d)}
        reps.append(general_map(X, Y, comps, check=False))
    stab_at = pinned
    for k in range(1, pinned + 1):
        if all({compose(Y.struct(k, s), g)
                for g in enumerate_base_maps(X.value(top), Y.value(k))}
               == set(stable[s]) for s in range(min(k, pinned))):
            stab_at = k
            break
    return HomSet(maps=reps, stabilized_at=stab_at)


# ------------------------------------------------------------------ iso


@dataclass
class HFamily:
    """Index-raising inverse witnesses h_ts: Y_t -> X_s for t > s."""
    pairs: dict

    def get(self, t, s):
        return self.pairs.get((t, s))


def hfamily_failure(f, fam):
    """The first pair t > s, in index order, at which the h-family *fam*
    for the LEVEL map f: X -> Y fails, as (t, s, what): *what* is
    "missing" (no h_ts), "left" (h_ts ∘ f_t ≠ X(t, s)) or "right"
    (f_s ∘ h_ts ≠ Y(t, s)).  None when every triangle commutes."""
    for t, s in f.source.index.pairs:
        h = fam.get(t, s)
        what = "missing" if h is None else _triangle_failure(f, t, s, h)
        if what is not None:
            return t, s, what
    return None


def _triangle_failure(f, t, s, h):
    if compose(h, f.level_component(t)) != f.source.struct(t, s):
        return "left"
    if compose(f.level_component(s), h) != f.target.struct(t, s):
        return "right"
    return None


@dataclass
class IsoCertificate:
    """Machine-checkable pro-isomorphism witness for *forward*.

    Exactly one of *backward* (honest inverse pro-map) or *hfamily*
    (index-raising triangles) is usually present; replay verifies by
    composition and structure-map precomposition only.
    """
    forward: ProMap
    backward: ProMap | None = None
    hfamily: HFamily | None = None

    def failure(self):
        """The first failed check as (where, why); None when the witnesses
        prove *forward* a pro-isomorphism."""
        f, g = self.forward, self.backward
        X, Y = f.source, f.target
        if g is None and self.hfamily is None:
            return None, "certificate has no witness data"
        if g is not None:
            if g.source is not Y and g.source != Y:
                return "backward", "backward source mismatch"
            if g.target is not X and g.target != X:
                return "backward", "backward target mismatch"
            if not compose_pro(g, f).equals(identity_pro(X)):
                return "backward∘forward", "backward ∘ forward is not the identity"
            if not compose_pro(f, g).equals(identity_pro(Y)):
                return "forward∘backward", "forward ∘ backward is not the identity"
        if self.hfamily is not None:
            if f.kind != LEVEL:
                return None, "h-family witnesses need a LEVEL map"
            if f.source.index.regime != FINITE:
                return None, "h-family replay is finite-regime only"
            bad = hfamily_failure(f, self.hfamily)
            if bad is not None:
                t, s, what = bad
                side = {"left": "struct", "right": "target"}.get(what)
                return (t, s), (f"missing witness for {t}>{s}" if side is None
                                else f"{what} triangle ({side}) fails at {t}>{s}")
        return None

    def replay(self):
        fail_on(self.failure())


def is_pro_iso(f, candidate_inverse=None):
    """An IsoCertificate for f, or None when no witness was found.

    Order of attack: verify a supplied candidate (pro-map or HFamily);
    otherwise try the honest realized-at-maxima inverse; otherwise, for
    LEVEL maps of an instance whose hom sets are enumerated in full
    (SetBij), search h-families pair by pair (exhaustive).  None is "no
    certificate", not a proof of non-isomorphism, except that those
    searches are exhaustive over their regimes.
    """
    X, Y = f.source, f.target
    if candidate_inverse is not None:
        if isinstance(candidate_inverse, HFamily):
            cert = IsoCertificate(forward=f, hfamily=candidate_inverse)
        else:
            cert = IsoCertificate(forward=f, backward=candidate_inverse)
        cert.replay()
        return cert
    if X.index.regime == FINITE and Y.index.regime == FINITE:
        N = Y.index.max_element()
        phi = f.realize(N)
        psi = inverse(phi)
        if psi is not None:
            backward = spread_from_max(Y, X, psi)
            cert = IsoCertificate(forward=f, backward=backward)
            cert.replay()
            return cert
        if f.kind == LEVEL and f.source.instance.exhaustive_homs:
            fam = _search_hfamily(f)
            if fam is not None:
                cert = IsoCertificate(forward=f, hfamily=fam)
                cert.replay()
                return cert
        return None
    # ω regime: honest check to depth against a realized inverse germ
    if f.kind == LEVEL:
        d = X.index.depth
        psi = inverse(f.level_component(d - 1))
        if psi is not None:
            backward = general_map(Y, X, lambda n, _d=d - 1:
                                   (_d, compose(X.struct(_d, n), psi)),
                                   check=False)
            cert = IsoCertificate(forward=f, backward=backward)
            try:
                cert.replay()
                return cert
            except VerificationFailure:
                return None
    return None


def _search_hfamily(f):
    X, Y = f.source, f.target
    pairs = {}
    for t, s in X.index.pairs:
        found = next((h for h in enumerate_base_maps(Y.value(t), X.value(s))
                      if _triangle_failure(f, t, s, h) is None), None)
        if found is None:
            return None
        pairs[(t, s)] = found
    return HFamily(pairs)


# ------------------------------------------------------------- levelize


@dataclass
class Levelization:
    map: ProMap
    source_cert: IsoCertificate
    target_cert: IsoCertificate
    original: ProMap = None


def levelize(f):
    """Re-present a pro-map as a LEVEL map.

    Finite regime: over the two-element chain via the values at the
    maxima, with iso certificates for the replaced endpoints.  ω regime:
    diagonal reindexing along a monotone level function, refined until
    the components commute on the nose (depth-exhausted error if that
    never happens within the target's depth).
    """
    if f.kind == LEVEL:
        return Levelization(map=f, source_cert=_identity_cert(f.source),
                            target_cert=_identity_cert(f.target), original=f)
    if _shared_regime(f.source, f.target, "levelization") == FINITE:
        return _levelize_finite(f)
    return _levelize_omega(f)


def _identity_cert(X):
    return IsoCertificate(forward=identity_pro(X), backward=identity_pro(X))


def _levelize_finite(f):
    X, Y = f.source, f.target
    Xt, cert_src = _collapse(X)
    Yt, cert_tgt = _collapse(Y)
    phi = f.realize(Y.index.max_element())
    lev = level_map(Xt, Yt, {"0": phi, "1": phi}, check=False)
    return Levelization(map=lev, source_cert=cert_src,
                        target_cert=cert_tgt, original=f)


def _collapse(X):
    """The constant pro-object on the two-element chain at the top value
    of X, and the replayed certificate of the iso X -> it."""
    M = X.index.max_element()
    Xt = constant_over(chain_poset(2), X.value(M))
    fwd = general_map(X, Xt, {i: (M, identity(X.value(M)))
                              for i in Xt.index.elements}, check=False)
    back = general_map(Xt, X, {s: ("1", X.struct(M, s))
                               for s in X.index.elements}, check=False)
    cert = IsoCertificate(forward=fwd, backward=back)
    cert.replay()
    return Xt, cert


def _levelize_omega(f):
    X, Y = f.source, f.target
    d = Y.index.depth
    T = {}
    prev = -1
    for n in range(d):
        t_n, g_n = f.component(n)
        lo = max(prev, int(t_n), n)
        chosen = None
        for u in range(lo, d):
            cand = compose(g_n, X.struct(u, t_n))
            if n == 0:
                chosen = u
                break
            # need naturality on the nose against level n-1
            lhs = compose(Y.struct(n, n - 1), cand)
            t_p, g_p = f.component(n - 1)
            rhs = compose(compose(g_p, X.struct(T[n - 1], t_p)),
                          X.struct(u, T[n - 1]))
            if lhs == rhs:
                chosen = u
                break
        if chosen is None:
            raise DepthExhaustedError(
                f"no commuting refinement for level {n} within depth {d}")
        T[n] = chosen
        prev = chosen

    # T[n] >= n is the refinement level of n
    Xt = omega_pro_object(lambda n: X.value(T[n]),
                          lambda n: X.struct(T[n + 1], T[n]), depth=d)

    def comp(n):
        t_n, g_n = f.component(n)
        return compose(g_n, X.struct(T[n], t_n))

    lev = level_map(Xt, Y, comp, check=False)
    fwd = general_map(X, Xt, lambda n: (T[n], identity(X.value(T[n]))),
                      check=False)
    back = general_map(Xt, X, lambda s: (s, X.struct(T[s], s)), check=False)
    cert_src = IsoCertificate(forward=fwd, backward=back)
    ident = identity_pro(Y)
    cert_tgt = IsoCertificate(forward=ident, backward=ident)
    return Levelization(map=lev, source_cert=cert_src,
                        target_cert=cert_tgt, original=f)


# --------------------------------------------- levelwise limits/colimits


@dataclass
class ProDiagram:
    """A finite loop-free diagram of pro-objects with LEVEL maps over one
    shared index."""
    index: IndexPoset
    nodes: dict
    edges: list

    def __post_init__(self):
        for v, obj in self.nodes.items():
            if obj.index != self.index:
                raise PreconditionError(
                    f"node {v} not over the shared index; levelize first")
        for src, tgt, m in self.edges:
            if m.kind != LEVEL or m.source.index != self.index:
                raise PreconditionError(
                    f"edge {src}->{tgt} is not LEVEL over the shared index; "
                    "levelize first")
            if m.source is not self.nodes[src] and m.source != self.nodes[src]:
                raise MalformedError(f"edge {src}->{tgt} source mismatch")
            if m.target is not self.nodes[tgt] and m.target != self.nodes[tgt]:
                raise MalformedError(f"edge {src}->{tgt} target mismatch")

    def level_diagram(self, s):
        return Diagram({v: obj.value(s) for v, obj in self.nodes.items()},
                       [(a, b, m.level_component(s)) for a, b, m in self.edges])


@dataclass
class LevelwiseCone:
    apex: ProObject
    legs: dict
    level_cones: dict
    colimit: bool = False


def _induced_structs(pd, cones, colimit=False):
    """The apex structure maps on the covers of the index, each mediated
    from the level (co)cones; the apex closes the rest."""
    structs = {}
    for s, t in pd.index.covers():
        if colimit:
            legs = {v: compose(cones[s].legs[v], pd.nodes[v].struct(t, s))
                    for v in pd.nodes}
            structs[(t, s)] = cones[t].mediate(
                Cone(cones[t].diagram, cones[s].apex, legs))
        else:
            legs = {v: compose(pd.nodes[v].struct(t, s), cones[t].legs[v])
                    for v in pd.nodes}
            structs[(t, s)] = cones[s].mediate(
                Cone(cones[s].diagram, cones[t].apex, legs))
    return structs


def _levelwise(pd, colimit=False):
    """The levelwise (co)limit cone of a shared-index LEVEL diagram, with
    its legs as LEVEL maps."""
    idx = pd.index
    build = finite_colimit if colimit else finite_limit
    cones = {s: build(pd.level_diagram(s)) for s in idx.elements}
    apex = ProObject(idx, values={s: cones[s].apex for s in idx.elements},
                     structs=_induced_structs(pd, cones, colimit))
    legs = {}
    for v, node in pd.nodes.items():
        comps = {s: cones[s].legs[v] for s in idx.elements}
        legs[v] = (level_map(node, apex, comps) if colimit
                   else level_map(apex, node, comps))
    return LevelwiseCone(apex=apex, legs=legs, level_cones=cones, colimit=colimit)


def pro_limit_levelwise(pd):
    """Levelwise limit of a shared-index LEVEL diagram, with projections."""
    return _levelwise(pd)


def pro_colimit_levelwise(pd):
    """Levelwise colimit; injections as LEVEL maps."""
    return _levelwise(pd, colimit=True)


# ------------------------------------------------- constants and limits


def constant_embed(obj):
    """The one-point-index pro-object on a base object."""
    return constant_over(point_poset(), obj)


@dataclass
class LimResult:
    value: BaseObject
    stabilized_at: int | None = None
    inclusion: object = None  # ω regime: the stable image into level 0


def lim_functor(Y):
    """The limit of a pro-object as a base object.

    Finite regime: the value at the maximum.  ω regime: the stable image
    in level 0 (exact once the image tower stabilizes and its induced
    maps are isomorphisms; otherwise the result is depth-qualified)."""
    if Y.index.regime == FINITE:
        return LimResult(value=Y.max_value())
    d = Y.index.depth
    stable = _stable_images(Y, d)
    stab_at = _image_stabilization(Y, d, stable)
    return LimResult(value=stable[0][0], stabilized_at=stab_at,
                     inclusion=stable[0][2])


def _image_of(m):
    """(image object, corestriction, inclusion) of a base map."""
    return m.instance.image(m)


def _stable_images(Y, d):
    out = {}
    for n in range(d - 1):
        out[n] = _image_of(Y.struct(d - 1, n))
    out[d - 1] = (Y.value(d - 1), identity(Y.value(d - 1)),
                  identity(Y.value(d - 1)))
    return out


def _image_stabilization(Y, d, stable):
    # one fewer tower step must give the same images, and the induced
    # maps between stable images must be isomorphisms
    for n in range(d - 2):
        if _image_of(Y.struct(d - 2, n))[0] != stable[n][0]:
            return None
    for n in range(d - 2):
        if inverse(_restrict(Y, n, stable)) is None:
            return None
    # earliest depth whose images already equal the stable ones
    for k in range(1, d):
        if all(_image_of(Y.struct(k, n))[0] == stable[n][0] for n in range(k)):
            return k
    return d - 1


def _restrict(Y, n, stable):
    """The structure map Y_{n+1} -> Y_n between the stable images."""
    incl_up = stable[n + 1][2]
    medium = compose(Y.struct(n + 1, n), incl_up)
    out = medium.instance.corestrict(medium, stable[n][2])
    if out is None:
        raise AssertionError("structure map leaves the stable image")
    return out
