"""
Constructions around pro-isomorphisms with witness families: the
chain-category factorization into a levelwise cofibration and a
levelwise fibration (both pro-isos), zigzag composition and
two-out-of-three for levelwise weak equivalences, retract exhibitions,
and the properness witness.

Every operation takes LEVEL presentations over one shared finite index
and a witness family {h_ts: Y_t -> X_s, t > s} for each pro-iso input;
outputs carry per-level class certificates plus replayable iso
certificates built from the diagonal composites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import ACOF_FIB, COF_ACF, compose, factor_map
from .baselim import Cone
from .errors import PreconditionError, VerificationFailure, fail_on
from .indexing import FINITE
from .prohom import (HFamily, IsoCertificate, ProDiagram, pro_colimit_levelwise,
                     pro_limit_levelwise)
from .proobj import LEVEL, ProObject, compose_pro, identity_pro, level_map
from .strict import (ACYCLIC_COF, ACYCLIC_FIB, COF, FIB, MODE_L1, MODE_L2, WE,
                     class_failure, composite_failure, detect_special,
                     factor_strict, lift_strict)


def _require_level_shared(maps):
    idx = None
    for name, m in maps:
        if m.kind != LEVEL:
            raise PreconditionError(f"{name} must be LEVEL; levelize first")
        if m.source.index.regime != FINITE:
            raise PreconditionError(f"{name} must be over a finite index")
        if idx is None:
            idx = m.source.index
        elif m.source.index != idx:
            raise PreconditionError("presentations must share one index")
    return idx


def verify_witnesses(f, fam):
    """Both triangle identities for a complete family over f's index."""
    fail_on(IsoCertificate(forward=f, hfamily=fam).failure(), PreconditionError)


@dataclass
class ProIsoFactorization:
    """f = right ∘ left with left a levelwise cofibration, right a
    levelwise fibration, and both certified pro-isos via diagonals."""
    input: object = None
    middle: ProObject = None
    left: object = None
    right: object = None
    left_cert: IsoCertificate = None
    right_cert: IsoCertificate = None
    left_classes: dict = field(default_factory=dict)
    right_classes: dict = field(default_factory=dict)

    def failure(self):
        """The first failed claim as (where, why), None when all hold: the
        composite is the input, left is a levelwise cofibration and right a
        levelwise fibration, and both certificates replay.  Records the
        fresh class verdicts in left_classes and right_classes."""
        levels = self.input.source.index.elements
        return (class_failure("left factor", self.left.level_component, COF,
                              levels, self.left_classes)
                or class_failure("right factor", self.right.level_component,
                                 FIB, levels, self.right_classes)
                or self.left_cert.failure() or self.right_cert.failure()
                or composite_failure(self.input, self.left, self.right, levels))


def pro_factor_iso(f, witnesses, base_mode=COF_ACF):
    """Factor a level presentation of a pro-iso through per-level base
    factorizations, with structure maps routed through the witnesses.

    The chain category's quotient must be thin: all realized composites
    between two fixed levels must coincide (coherent witness families
    guarantee this); otherwise a precondition error is raised.
    """
    idx = _require_level_shared([("f", f)])
    verify_witnesses(f, witnesses)
    X, Y = f.source, f.target
    factors = {s: factor_map(f.level_component(s), base_mode)
               for s in idx.elements}
    c = {s: factors[s].left for s in idx.elements}
    q = {s: factors[s].right for s in idx.elements}
    structs = {}
    for t, s in idx.pairs:
        realized = []
        for u in idx.predecessors(t):
            if idx.leq(s, u):
                m = compose(c[s], compose(X.struct(u, s),
                                          compose(witnesses.get(t, u), q[t])))
                if not any(m == r for r in realized):
                    realized.append(m)
        if len(realized) != 1:
            raise PreconditionError(
                f"witnesses do not induce a thin chain quotient at {t}>{s}: "
                f"{len(realized)} distinct realized composites")
        structs[(t, s)] = realized[0]
    Z = ProObject(idx, values={s: factors[s].middle for s in idx.elements},
                  structs=structs)
    left = level_map(X, Z, c)
    right = level_map(Z, Y, q)
    left_fam = HFamily({(t, s): compose(witnesses.get(t, s), q[t])
                        for t, s in idx.pairs})
    right_fam = HFamily({(t, s): compose(c[s], witnesses.get(t, s))
                         for t, s in idx.pairs})
    out = ProIsoFactorization(
        input=f, middle=Z, left=left, right=right,
        left_cert=IsoCertificate(forward=left, hfamily=left_fam),
        right_cert=IsoCertificate(forward=right, hfamily=right_fam))
    fail_on(out.failure())
    return out


def _mediate(cone, other, legs):
    """The LEVEL map between *other* and the apex of the levelwise (co)limit
    *cone* that mediates the per-node LEVEL maps *legs*: into the apex for
    a limit, out of it for a colimit."""
    comps = {}
    for s in other.index.elements:
        lc = cone.level_cones[s]
        comps[s] = lc.mediate(Cone(lc.diagram, other.value(s),
                                   {v: m.level_component(s)
                                    for v, m in legs.items()}))
    if cone.colimit:
        return level_map(cone.apex, other, comps)
    return level_map(other, cone.apex, comps)


def _mediated_family(cone, other, legs):
    """The h-family {h_ts, t > s} between *other* and the apex of the
    levelwise (co)limit *cone*, each h_ts mediating the cone legs(t, s):
    from other_t into the limit at s, or out of the colimit at t into
    other_s."""
    pairs = {}
    for t, s in other.index.pairs:
        lc = cone.level_cones[t if cone.colimit else s]
        pairs[(t, s)] = lc.mediate(Cone(
            lc.diagram, other.value(s if cone.colimit else t), legs(t, s)))
    return HFamily(pairs)


def _level_classes_we(m):
    out = {}
    fail_on(class_failure("map", m.level_component, WE,
                          m.source.index.elements, out))
    return out


@dataclass
class ZigzagWeResult:
    """B -> C, levelwise we, replacing g ∘ h⁻¹ ∘ f up to the certified
    pro-isos B ≅ X and W ≅ C."""
    map: object
    level_classes: dict
    source_cert: IsoCertificate   # B ≅ X
    target_cert: IsoCertificate   # W ≅ C

    def replay_composite_identity(self, f, h_witnesses, g):
        """κ_ts ∘ composite_t = g_s ∘ h_ts ∘ f_t ∘ π_t exactly, t > s."""
        pix = self.source_cert.forward
        kap = self.target_cert.hfamily
        for t, s in self.map.source.index.pairs:
            lhs = compose(kap.get(t, s), self.map.level_component(t))
            rhs = compose(g.level_component(s),
                          compose(h_witnesses.get(t, s),
                                  compose(f.level_component(t),
                                          pix.level_component(t))))
            if lhs != rhs:
                raise VerificationFailure(
                    f"zigzag composite identity fails at {t}>{s}", witness=(t, s))


def compose_zigzag_we(f, h, g, witnesses):
    """Given X -f-> Y <-h- Z -g-> W with f, g levelwise weak equivalences
    and h a pro-iso with witnesses, produce a single levelwise weak
    equivalence B -> C with B ≅ X and W ≅ C."""
    idx = _require_level_shared([("f", f), ("h", h), ("g", g)])
    if h.target is not f.target and h.target != f.target:
        raise PreconditionError("h must land in f's target")
    if g.source is not h.source and g.source != h.source:
        raise PreconditionError("g must leave h's source")
    _level_classes_we(f)
    _level_classes_we(g)
    pf = pro_factor_iso(h, witnesses, base_mode=COF_ACF)
    X, Y, Z, W, A = f.source, f.target, h.source, g.target, pf.middle
    pull = pro_limit_levelwise(ProDiagram(idx, {"x": X, "a": A, "y": Y},
                                          [("x", "y", f), ("a", "y", pf.right)]))
    push = pro_colimit_levelwise(ProDiagram(idx, {"a": A, "w": W, "z": Z},
                                            [("z", "a", pf.left), ("z", "w", g)]))
    B, C = pull.apex, push.apex
    # properness gives the two halves; check each level honestly
    _level_classes_we(pull.legs["a"])
    _level_classes_we(push.legs["a"])
    composite = compose_pro(push.legs["a"], pull.legs["a"])
    classes = _level_classes_we(composite)
    eta = _mediated_family(pull, X, lambda t, s: {
        "x": X.struct(t, s),
        "a": compose(pf.right_cert.hfamily.get(t, s), f.level_component(t)),
        "y": compose(f.level_component(s), X.struct(t, s))})
    cert_src = IsoCertificate(forward=pull.legs["x"], hfamily=eta)
    cert_src.replay()
    kappa = _mediated_family(push, W, lambda t, s: {
        "a": compose(g.level_component(s), pf.left_cert.hfamily.get(t, s)),
        "w": W.struct(t, s),
        "z": compose(g.level_component(s), Z.struct(t, s))})
    cert_tgt = IsoCertificate(forward=push.legs["w"], hfamily=kappa)
    cert_tgt.replay()
    out = ZigzagWeResult(map=composite, level_classes=classes,
                         source_cert=cert_src, target_cert=cert_tgt)
    out.replay_composite_identity(f, witnesses, g)
    return out


@dataclass
class TwoOfThreeResult:
    map: object
    level_classes: dict
    cancel_cert: IsoCertificate   # output's far end ≅ the cancelled side


def two_of_three(side, top, left, right, bottom, witnesses):
    """The two cancellation constructions.

    side "left-cancel": top f: X->Y is the subject; left u: X->W and
    right v: Y->Z are levelwise weak equivalences; bottom w: W->Z is a
    pro-iso with witnesses; the square commutes levelwise.  Returns
    X -> B levelwise we with B ≅ Y.

    side "right-cancel": top m: X->W pro-iso with witnesses; left
    u: X->Y, right v: W->Z levelwise we; bottom g: Y->Z the subject.
    Returns B -> Z levelwise we with B ≅ Y.
    """
    if side not in ("left-cancel", "right-cancel"):
        raise PreconditionError(f"unknown side {side!r}")
    idx = _require_level_shared([("top", top), ("left", left),
                                 ("right", right), ("bottom", bottom)])
    _level_classes_we(left)
    _level_classes_we(right)
    for s in idx.elements:
        if compose(bottom.level_component(s), left.level_component(s)) != \
                compose(right.level_component(s), top.level_component(s)):
            raise PreconditionError(f"square does not commute at level {s}")
    if side == "left-cancel":
        pf = pro_factor_iso(bottom, witnesses, base_mode=ACOF_FIB)
        fail_on(class_failure("refined left factor", pf.left.level_component,
                              ACYCLIC_COF, idx.elements))
        X, Y, Z, A = top.source, top.target, bottom.target, pf.middle
        pull = pro_limit_levelwise(ProDiagram(
            idx, {"a": A, "y": Y, "z": Z},
            [("a", "z", pf.right), ("y", "z", right)]))
        out = _mediate(pull, X, {"a": compose_pro(pf.left, left), "y": top,
                                 "z": compose_pro(right, top)})
        classes = _level_classes_we(out)
        fam = _mediated_family(pull, Y, lambda t, s: {
            "y": Y.struct(t, s),
            "a": compose(pf.right_cert.hfamily.get(t, s),
                         right.level_component(t)),
            "z": compose(right.level_component(s), Y.struct(t, s))})
        cert = IsoCertificate(forward=pull.legs["y"], hfamily=fam)
    else:
        pf = pro_factor_iso(top, witnesses, base_mode=COF_ACF)
        fail_on(class_failure("refined right factor", pf.right.level_component,
                              ACYCLIC_FIB, idx.elements))
        X, Y, Z, A = top.source, bottom.source, bottom.target, pf.middle
        push = pro_colimit_levelwise(ProDiagram(
            idx, {"a": A, "y": Y, "x": X},
            [("x", "a", pf.left), ("x", "y", left)]))
        out = _mediate(push, Z, {"a": compose_pro(right, pf.right),
                                 "y": bottom, "x": compose_pro(bottom, left)})
        classes = _level_classes_we(out)
        fam = _mediated_family(push, Y, lambda t, s: {
            "a": compose(left.level_component(s),
                         pf.left_cert.hfamily.get(t, s)),
            "y": Y.struct(t, s),
            "x": compose(left.level_component(s), X.struct(t, s))})
        cert = IsoCertificate(forward=push.legs["y"], hfamily=fam)
    cert.replay()
    return TwoOfThreeResult(map=out, level_classes=classes, cancel_cert=cert)


# --------------------------------------------------------------- retracts


@dataclass
class RetractDiagram:
    """A 3x2 grid exhibiting f as a retract of g:

        A --sec_top--> M --ret_top--> A
        f|             g|             f|
        B --sec_bot--> N --ret_bot--> B

    with both horizontal composites equal to identities."""
    f: object
    g: object
    sec_top: object
    ret_top: object
    sec_bot: object
    ret_bot: object

    def replay(self):
        idA = identity_pro(self.f.source)
        idB = identity_pro(self.f.target)
        if not compose_pro(self.ret_top, self.sec_top).equals(idA):
            raise VerificationFailure("top horizontal composite not identity")
        if not compose_pro(self.ret_bot, self.sec_bot).equals(idB):
            raise VerificationFailure("bottom horizontal composite not identity")
        if not compose_pro(self.g, self.sec_top).equals(
                compose_pro(self.sec_bot, self.f)):
            raise VerificationFailure("left square does not commute")
        if not compose_pro(self.f, self.ret_top).equals(
                compose_pro(self.ret_bot, self.g)):
            raise VerificationFailure("right square does not commute")


def retract_exhibit(f, kind, special=None):
    """Exhibit f as a retract of the good factor of its strict
    factorization.

    kind "acyclic-cof": f levelwise we and levelwise cof; the L1
    factorization gives i' (acyclic cofibration by two-out-of-three per
    level) and the lift against its special acyclic fibration produces
    the retract grid.  kind "acyclic-fib": dual; f must carry a
    special-fibration certificate (supplied or detected)."""
    idx = _require_level_shared([("f", f)])
    if kind == "acyclic-cof":
        fail_on(class_failure("f", f.level_component, ACYCLIC_COF,
                              idx.elements), PreconditionError)
        fs = factor_strict(f, MODE_L1)
        fail_on(class_failure("factor left side", fs.left.level_component, WE,
                              idx.elements))
        lift = lift_strict(f, fs.right, fs.left, identity_pro(f.target),
                           mode=MODE_L1, special=fs.special)
        grid = RetractDiagram(f=f, g=fs.left,
                              sec_top=identity_pro(f.source),
                              ret_top=identity_pro(f.source),
                              sec_bot=lift.lift, ret_bot=fs.right)
        grid.replay()
        return grid
    if kind == "acyclic-fib":
        fail_on(class_failure("f", f.level_component, WE, idx.elements),
                PreconditionError)
        special = (special or detect_special(f, FIB)).require()
        fs = factor_strict(f, MODE_L1)
        fail_on(class_failure("factor left side", fs.left.level_component, WE,
                              idx.elements))
        lift = lift_strict(fs.left, f, identity_pro(f.source), fs.right,
                           mode=MODE_L2, special=special)
        grid = RetractDiagram(f=f, g=fs.right,
                              sec_top=fs.left, ret_top=lift.lift,
                              sec_bot=identity_pro(f.target),
                              ret_bot=identity_pro(f.target))
        grid.replay()
        return grid
    raise PreconditionError(f"unknown retract kind {kind!r}")


# -------------------------------------------------------------- properness


@dataclass
class ProperPullbackResult:
    map: object                  # f' on the pullbacks, levelwise we
    level_classes: dict
    glue_cert: IsoCertificate    # the pulled-back pro-iso


def proper_pullback(p, f, g, witnesses):
    """Pullback of a levelwise weak equivalence along a levelwise
    fibration, glued through a pro-iso.

    Inputs form  Z -f-> W -g-> Y <-p- X  with f levelwise we, p levelwise
    fib, g a pro-iso with witnesses; returns f': Z×_Y X -> W×_Y X with a
    levelwise-we certificate and the pro-iso W×_Y X ≅ X."""
    idx = _require_level_shared([("p", p), ("f", f), ("g", g)])
    _level_classes_we(f)
    fail_on(class_failure("p", p.level_component, FIB, idx.elements),
            PreconditionError)
    verify_witnesses(g, witnesses)
    Z, W, Y, X = f.source, f.target, p.target, p.source
    gf = compose_pro(g, f)
    wx = pro_limit_levelwise(ProDiagram(idx, {"w": W, "x": X, "y": Y},
                                        [("w", "y", g), ("x", "y", p)]))
    zx = pro_limit_levelwise(ProDiagram(idx, {"z": Z, "x": X, "y": Y},
                                        [("z", "y", gf), ("x", "y", p)]))
    fprime = _mediate(wx, zx.apex, {
        "w": compose_pro(f, zx.legs["z"]),
        "x": zx.legs["x"],
        "y": compose_pro(gf, zx.legs["z"])})
    classes = _level_classes_we(fprime)
    fail_on(class_failure("pulled-back fibration", wx.legs["w"].level_component,
                          FIB, idx.elements))
    fam = _mediated_family(wx, X, lambda t, s: {
        "w": compose(witnesses.get(t, s), p.level_component(t)),
        "x": X.struct(t, s),
        "y": compose(p.level_component(s), X.struct(t, s))})
    cert = IsoCertificate(forward=wx.legs["x"], hfamily=fam)
    cert.replay()
    return ProperPullbackResult(map=fprime, level_classes=classes,
                                glue_cert=cert)
