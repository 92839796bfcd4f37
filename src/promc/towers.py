"""
Cocell towers: presenting a special (acyclic) fibration as an iterated
base change of constant class maps, the tower limit with its certificate
back to the source, and the constant/limit adjunction check.

In the finite regime every stage is a constant pro-object (the seed is
the limit of the target, i.e. its value at the maximum), each successor
stage is the pullback of the previous one along the constant image of a
relative matching map, and the iterated pullback recovers the limit of
the source on the nose.  ω-towers are supported for constant stages
given directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import BaseMap, BaseObject, classify_map, compose, identity, inverse
from .baselim import Cone, pullback
from .errors import (DepthExhaustedError, PreconditionError,
                     UnsupportedRegimeError, VerificationFailure, fail_on)
from .indexing import DEFAULT_DEPTH, FINITE, OMEGA, linear_extension
from .prohom import (IsoCertificate, constant_embed, enumerate_base_maps,
                     hom_pro, lim_functor, spread_from_max)
from .proobj import (LEVEL, ProObject, compose_pro, constant_over, general_map,
                     identity_pro, level_map, omega_pro_object)
from .strict import FIB, class_test


@dataclass
class TowerStage:
    """One successor step: the pullback of the previous stage along the
    constant image of a relative matching map."""
    level: object
    attach: BaseMap        # the base class map (a relative matching map)
    attach_class: object
    cone_map: BaseMap      # previous stage -> target of attach
    bonding: BaseMap       # new stage -> previous stage
    new_leg: BaseMap       # new stage -> source of attach
    square: object         # the pullback cone, for replay
    new_stage_value: BaseObject = None


@dataclass
class Tower:
    """A λ-tower (λ ≤ ω) whose successor maps are base changes of
    constant class maps."""
    class_tag: str
    base_value: BaseObject          # stage 0 value (the limit of the target)
    stages: list = field(default_factory=list)
    length: object = 0              # int or "omega"
    source_map: object = None       # the presented map, when built from one
    final_legs: dict = None         # top stage -> X_s, set by the builder
    final_mu: BaseMap = None        # top stage -> stage 0
    omega_stages: ProObject = None  # ω towers: stage n's value and bondings

    def replay_base_changes(self):
        """Re-check every bonding square: it commutes, the stage embeds in
        the honest pullback, and the attach map has its declared class."""
        fail_on(tower_failure(self.class_tag, self.stages))


def tower_failure(class_tag, stages, classes=None):
    """The first stage that is not a base change of a map of class
    *class_tag*, as (level, why): its attach map is not in the class, or
    the stage is not the pullback along it.  None when every stage is.
    Each attach map's class flags are appended to the list *classes* when
    one is given."""
    test = class_test(class_tag)
    for k, st in enumerate(stages):
        cls = classify_map(st.attach)
        if classes is not None:
            classes.append(cls)
        if not test(cls):
            return st.level, f"attach map at stage {k} is not in class {class_tag}"
        bad = stage_failure(st.attach, st.cone_map, st.bonding, st.new_leg)
        if bad is not None:
            return st.level, f"stage {k}: {bad}"
    return None


def stage_failure(attach, cone_map, bonding, new_leg):
    """Why a stage (bonding: S -> P, new_leg: S -> source of attach) is
    not the pullback of P along attach, through cone_map: P -> target of
    attach; None when it is."""
    lhs = compose(cone_map, bonding)
    if lhs != compose(attach, new_leg):
        return "the bonding square does not commute"
    lim = pullback(cone_map, attach)
    med = lim.mediate(
        Cone(lim.diagram, bonding.source, {"a": bonding, "b": new_leg, "c": lhs}))
    # the mediating map commutes with the recorded projections by
    # construction, so the stage is the pullback iff it is an iso
    if inverse(med) is None:
        return "not the pullback along the attach map"
    return None


def build_cocell_tower(f, special):
    """Present a special (acyclic) fibration as a cocell tower.

    *special* is f's detect_special certificate: each stage attaches the
    matching map it holds for its level, with its verdict, so the tower
    computes and classifies none.  Stages follow the linear extension;
    stage 0 is the value of the target at the maximum."""
    if f.kind != LEVEL:
        raise PreconditionError("build_cocell_tower needs a LEVEL presentation")
    idx = f.source.index
    if idx.regime != FINITE:
        raise UnsupportedRegimeError(
            "ω cocell towers are only stored with constant stages given "
            "directly; build from finite presentations")
    special.require()
    X, Y = f.source, f.target
    M = idx.max_element()
    tower = Tower(class_tag=special.mode, base_value=Y.value(M),
                  source_map=f)
    cur = Y.value(M)
    mu = identity(cur)
    lam = {}
    for s in linear_extension(idx):
        m = special.matching[s]
        psi = m.mediate(cur, compose(Y.struct(M, s), mu),
                        {t: lam[t] for t in idx.predecessors(s)}, f)
        lim = pullback(psi, m.map)
        stage = TowerStage(level=s, attach=m.map,
                           attach_class=special.verdicts[s],
                           cone_map=psi, bonding=lim.legs["a"],
                           new_leg=lim.legs["b"], square=lim,
                           new_stage_value=lim.apex)
        tower.stages.append(stage)
        for t in list(lam):
            lam[t] = compose(lam[t], lim.legs["a"])
        lam[s] = lim.legs["b"]
        mu = compose(mu, lim.legs["a"])
        cur = lim.apex
    tower.length = len(tower.stages)
    tower.final_legs = lam
    tower.final_mu = mu
    return tower


def omega_constant_tower(value_fn, bonding_fn, depth=None):
    """An ω-tower of constant stages given directly, as a tower of
    fibrations: stage n is value_fn(n), bonding_fn(n) maps stage n + 1 to
    stage n, both evaluated below *depth* (``DEFAULT_DEPTH`` if None)."""
    stages = omega_pro_object(value_fn, bonding_fn, depth=depth or DEFAULT_DEPTH)
    return Tower(class_tag=FIB, base_value=stages.value(0), length=OMEGA,
                 omega_stages=stages)


@dataclass
class TowerLimit:
    apex: ProObject
    projection: object          # pro-map apex -> the tower's base
    iso_cert: IsoCertificate | None


def tower_limit(tower):
    """The limit of a tower with its certificates.

    Finite: the iterated pullback apex as a constant pro-object, the
    projection to stage 0, and (for towers built from a presentation)
    an IsoCertificate to the source plus the pro-hom equality of the
    projection with the presented map.  ω over constants: the pro-object
    n ↦ stage value n with the bondings."""
    if tower.length == OMEGA:
        return TowerLimit(apex=tower.omega_stages, projection=None, iso_cert=None)
    if tower.length == 0:
        apex = constant_embed(tower.base_value)
        return TowerLimit(apex=apex, projection=identity_pro(apex),
                          iso_cert=None)
    top = tower.stages[-1].new_stage_value
    apex = constant_embed(top)
    proj_val = tower.final_mu
    base = constant_embed(tower.base_value)
    projection = level_map(apex, base, {"pt": proj_val}, check=False)
    iso_cert = None
    if tower.source_map is not None:
        f = tower.source_map
        X, Y = f.source, f.target
        idx = X.index
        M = idx.max_element()
        nu = f.realize(M)
        for st in tower.stages:
            legs = {"a": nu, "b": X.struct(M, st.level),
                    "c": compose(st.cone_map, nu)}
            nu = st.square.mediate(Cone(st.square.diagram, X.value(M), legs))
        forward = general_map(X, apex, {"pt": (M, nu)}, check=False)
        backward = general_map(apex, X,
                               {s: ("pt", tower.final_legs[s])
                                for s in idx.elements}, check=False)
        iso_cert = IsoCertificate(forward=forward, backward=backward)
        iso_cert.replay()
        # the projection equals f in pro-hom, through the certificates
        lhs = compose_pro(projection, forward)
        rhs = _map_into_constant_target(f)
        if not lhs.equals(rhs):
            raise VerificationFailure(
                "tower projection differs from the presented map in pro-hom")
    return TowerLimit(apex=apex, projection=projection, iso_cert=iso_cert)


def _map_into_constant_target(f):
    """f composed with the collapse Y ≅ c(Y_M), as a GENERAL pro-map."""
    X, Y = f.source, f.target
    M = Y.index.max_element()
    return general_map(X, constant_embed(Y.value(M)),
                       {"pt": (X.index.max_element(), f.realize(M))},
                       check=False)


# ------------------------------------------------------------- adjunction


@dataclass
class AdjunctionWitness:
    left_size: int
    right_size: int
    pairs: list                # (pro-map rep, base map) mutually inverse
    stabilized_at: int | None = None

    def verified(self):
        return self.left_size == self.right_size == len(self.pairs)


def adjunction_check(X, Y, naturality_probes=()):
    """Explicit mutually inverse assignments between hom_pro(cX, Y) and
    Hom(X, lim Y), with optional naturality spot-checks along base maps
    into X."""
    if Y.index.regime == FINITE:
        cX = constant_embed(X)
        hs = hom_pro(cX, Y)
        N = Y.index.max_element()
        limv = lim_functor(Y).value
        rights = enumerate_base_maps(X, limv)
        pairs = []
        for rep in hs.maps:
            phi = rep.realize(N)
            if not any(phi == r for r in rights):
                raise VerificationFailure("hom class realizes outside Hom(X, lim Y)")
            back = spread_from_max(cX, Y, phi)
            if not back.equals(rep):
                raise VerificationFailure("round trip lost a hom class")
            pairs.append((rep, phi))
        if len({phi for _, phi in pairs}) != len(pairs):
            raise VerificationFailure("realization not injective")
        if len(pairs) != len(rights):
            raise VerificationFailure("realization not surjective")
        for a in naturality_probes:
            # a: X' -> X; the two routes Hom(X, lim Y) -> Hom(X', lim Y) agree
            for rep, phi in pairs:
                via_base = compose(phi, a)
                via_pro = compose_pro(rep, level_map(
                    constant_embed(a.source), cX, {"pt": a}, check=False))
                if via_pro.realize(N) != via_base:
                    raise VerificationFailure("naturality square fails")
        return AdjunctionWitness(left_size=len(hs.maps), right_size=len(rights),
                                 pairs=pairs)
    # ω regime: towers of constants to the truncation depth of Y
    d = Y.index.depth
    cX = constant_over(Y.index, X)
    hs = hom_pro(cX, Y)
    lim = lim_functor(Y)
    if hs.stabilized_at is None or lim.stabilized_at is None:
        raise DepthExhaustedError(
            f"tower did not stabilize within depth {d}; "
            "the adjunction comparison is inconclusive")
    rights = enumerate_base_maps(X, lim.value)
    if len(hs.maps) != len(rights):
        raise VerificationFailure(
            f"hom classes ({len(hs.maps)}) do not match Hom(X, lim) "
            f"({len(rights)}) at depth {d}")
    pairs = []
    for rep in hs.maps:
        _, g0 = rep.component(0)
        # corestrict the 0-germ into the stable image
        phi = g0.instance.corestrict(g0, lim.inclusion)
        if phi is None or not any(phi == r for r in rights):
            raise VerificationFailure("ω hom class leaves the stable image")
        pairs.append((rep, phi))
    if len({phi for _, phi in pairs}) != len(pairs):
        raise VerificationFailure("ω realization not injective")
    return AdjunctionWitness(left_size=len(hs.maps), right_size=len(rights),
                             pairs=pairs, stabilized_at=hs.stabilized_at)
