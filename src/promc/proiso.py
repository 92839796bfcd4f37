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

from .base import ACOF_FIB, COF_ACF, classify_map, compose
from .baselim import Cone
from .errors import PreconditionError, VerificationFailure
from .indexing import FINITE
from .prohom import (HFamily, IsoCertificate, ProDiagram, hfamily_failure,
                     pro_colimit_levelwise, pro_limit_levelwise)
from .proobj import (LEVEL, ProObject, compose_pro, identity_pro, level_map)
from .strict import MODE_L1, MODE_L2, detect_special, factor_strict, lift_strict
from .base import factor_map


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
    bad = hfamily_failure(f, fam)
    if bad is not None:
        t, s, what = bad
        if what == "missing":
            raise PreconditionError(f"missing witness for {t}>{s}")
        side = "struct" if what == "left" else "target"
        raise PreconditionError(f"witness triangle ({side}) fails at {t}>{s}")


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
    for t in idx.elements:
        for s in idx.elements:
            if not idx.lt(s, t):
                continue
            realized = []
            for u in idx.elements:
                if idx.leq(s, u) and idx.lt(u, t):
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
    left_classes = {s: classify_map(c[s]) for s in idx.elements}
    right_classes = {s: classify_map(q[s]) for s in idx.elements}
    for s in idx.elements:
        if not left_classes[s].is_cof:
            raise VerificationFailure(f"left factor not a cofibration at {s}")
        if not right_classes[s].is_fib:
            raise VerificationFailure(f"right factor not a fibration at {s}")
    left_fam = HFamily({(t, s): compose(witnesses.get(t, s), q[t])
                        for t in idx.elements for s in idx.elements
                        if idx.lt(s, t)})
    right_fam = HFamily({(t, s): compose(c[s], witnesses.get(t, s))
                         for t in idx.elements for s in idx.elements
                         if idx.lt(s, t)})
    left_cert = IsoCertificate(forward=left, hfamily=left_fam)
    left_cert.replay()
    right_cert = IsoCertificate(forward=right, hfamily=right_fam)
    right_cert.replay()
    out = ProIsoFactorization(middle=Z, left=left, right=right,
                              left_cert=left_cert, right_cert=right_cert,
                              left_classes=left_classes,
                              right_classes=right_classes)
    out.input = f
    for s in idx.elements:
        if compose(q[s], c[s]) != f.level_component(s):
            raise VerificationFailure(f"composite differs at level {s}")
    return out


def _mediate_level_map(cone_result, source_pro, legs):
    """LEVEL map into a levelwise-limit apex from per-node LEVEL maps."""
    idx = source_pro.index
    comps = {}
    for s in idx.elements:
        lc = cone_result.level_cones[s]
        comps[s] = lc.mediate(Cone(lc.diagram, source_pro.value(s),
                                   {v: m.level_component(s)
                                    for v, m in legs.items()}))
    return level_map(source_pro, cone_result.apex, comps)


def _mediate_level_comap(cone_result, target_pro, legs):
    """LEVEL map out of a levelwise-colimit apex from per-node LEVEL maps."""
    idx = target_pro.index
    comps = {}
    for s in idx.elements:
        lc = cone_result.level_cones[s]
        comps[s] = lc.mediate(Cone(lc.diagram, target_pro.value(s),
                                   {v: m.level_component(s)
                                    for v, m in legs.items()}))
    return level_map(cone_result.apex, target_pro, comps)


def _level_classes_we(m):
    out = {}
    for s in m.source.index.elements:
        cls = classify_map(m.level_component(s))
        out[s] = cls
        if not cls.is_we:
            raise VerificationFailure(
                f"expected a levelwise weak equivalence; fails at {s}",
                witness=s)
    return out


@dataclass
class ZigzagWeResult:
    """B -> C, levelwise we, replacing g ∘ h⁻¹ ∘ f up to the certified
    pro-isos B ≅ X and W ≅ C."""
    map: object
    level_classes: dict
    source_cert: IsoCertificate   # B ≅ X
    target_cert: IsoCertificate   # W ≅ C
    factorization: ProIsoFactorization

    def replay_composite_identity(self, f, h_witnesses, g):
        """κ_ts ∘ composite_t = g_s ∘ h_ts ∘ f_t ∘ π_t exactly, t > s."""
        idx = self.map.source.index
        pix = self.source_cert.forward
        kap = self.target_cert.hfamily
        for t in idx.elements:
            for s in idx.elements:
                if not idx.lt(s, t):
                    continue
                lhs = compose(kap.get(t, s), self.map.level_component(t))
                rhs = compose(g.level_component(s),
                              compose(h_witnesses.get(t, s),
                                      compose(f.level_component(t),
                                              pix.level_component(t))))
                if lhs != rhs:
                    raise VerificationFailure(
                        f"zigzag composite identity fails at {t}>{s}",
                        witness=(t, s))


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
    eta = HFamily({(t, s): pull.level_cones[s].mediate(Cone(
        pull.level_cones[s].diagram, X.value(t),
        {"x": X.struct(t, s),
         "a": compose(pf.right_cert.hfamily.get(t, s), f.level_component(t)),
         "y": compose(f.level_component(s), X.struct(t, s))}))
        for t in idx.elements for s in idx.elements if idx.lt(s, t)})
    cert_src = IsoCertificate(forward=pull.legs["x"], hfamily=eta)
    cert_src.replay()
    kappa = HFamily({(t, s): push.level_cones[t].mediate(Cone(
        push.level_cones[t].diagram, W.value(s),
        {"a": compose(g.level_component(s), pf.left_cert.hfamily.get(t, s)),
         "w": W.struct(t, s),
         "z": compose(g.level_component(s), Z.struct(t, s))}))
        for t in idx.elements for s in idx.elements if idx.lt(s, t)})
    cert_tgt = IsoCertificate(forward=push.legs["w"], hfamily=kappa)
    cert_tgt.replay()
    out = ZigzagWeResult(map=composite, level_classes=classes,
                         source_cert=cert_src, target_cert=cert_tgt,
                         factorization=pf)
    out.replay_composite_identity(f, witnesses, g)
    return out


@dataclass
class TwoOfThreeResult:
    map: object
    level_classes: dict
    cancel_cert: IsoCertificate   # output's far end ≅ the cancelled side
    factorization: ProIsoFactorization


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
    idx = _require_level_shared([("top", top), ("left", left),
                                 ("right", right), ("bottom", bottom)])
    if side == "left-cancel":
        _level_classes_we(left)
        _level_classes_we(right)
        for s in idx.elements:
            if compose(bottom.level_component(s), left.level_component(s)) != \
                    compose(right.level_component(s), top.level_component(s)):
                raise PreconditionError(f"square does not commute at level {s}")
        pf = pro_factor_iso(bottom, witnesses, base_mode=ACOF_FIB)
        for s in idx.elements:
            if not (pf.left_classes[s].is_cof and
                    classify_map(pf.left.level_component(s)).is_we):
                raise VerificationFailure(
                    f"refined left factor not an acyclic cofibration at {s}")
        X, Y, Z, W, A = (top.source, top.target, bottom.target,
                         bottom.source, pf.middle)
        pull = pro_limit_levelwise(ProDiagram(
            idx, {"a": A, "y": Y, "z": Z},
            [("a", "z", pf.right), ("y", "z", right)]))
        B = pull.apex
        fprime = _mediate_level_map(pull, X, {
            "a": compose_pro(pf.left, left),
            "y": top,
            "z": compose_pro(right, top)})
        classes = _level_classes_we(fprime)
        fam = HFamily({(t, s): pull.level_cones[s].mediate(Cone(
            pull.level_cones[s].diagram, Y.value(t),
            {"y": Y.struct(t, s),
             "a": compose(pf.right_cert.hfamily.get(t, s),
                          right.level_component(t)),
             "z": compose(right.level_component(s), Y.struct(t, s))}))
            for t in idx.elements for s in idx.elements if idx.lt(s, t)})
        cert = IsoCertificate(forward=pull.legs["y"], hfamily=fam)
        cert.replay()
        return TwoOfThreeResult(map=fprime, level_classes=classes,
                                cancel_cert=cert, factorization=pf)
    if side == "right-cancel":
        _level_classes_we(left)
        _level_classes_we(right)
        for s in idx.elements:
            if compose(right.level_component(s), top.level_component(s)) != \
                    compose(bottom.level_component(s), left.level_component(s)):
                raise PreconditionError(f"square does not commute at level {s}")
        pf = pro_factor_iso(top, witnesses, base_mode=COF_ACF)
        for s in idx.elements:
            if not (pf.right_classes[s].is_fib and
                    classify_map(pf.right.level_component(s)).is_we):
                raise VerificationFailure(
                    f"refined right factor not an acyclic fibration at {s}")
        X, W, Y, Z, A = (top.source, top.target, bottom.source,
                         bottom.target, pf.middle)
        push = pro_colimit_levelwise(ProDiagram(
            idx, {"a": A, "y": Y, "x": X},
            [("x", "a", pf.left), ("x", "y", left)]))
        B = push.apex
        gprime = _mediate_level_comap(push, Z, {
            "a": compose_pro(right, pf.right),
            "y": bottom,
            "x": compose_pro(bottom, left)})
        classes = _level_classes_we(gprime)
        fam = HFamily({(t, s): push.level_cones[t].mediate(Cone(
            push.level_cones[t].diagram, Y.value(s),
            {"a": compose(left.level_component(s),
                          pf.left_cert.hfamily.get(t, s)),
             "y": Y.struct(t, s),
             "x": compose(left.level_component(s), X.struct(t, s))}))
            for t in idx.elements for s in idx.elements if idx.lt(s, t)})
        cert = IsoCertificate(forward=push.legs["y"], hfamily=fam)
        cert.replay()
        return TwoOfThreeResult(map=gprime, level_classes=classes,
                                cancel_cert=cert, factorization=pf)
    raise PreconditionError(f"unknown side {side!r}")


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
    classes = {s: classify_map(f.level_component(s)) for s in idx.elements}
    if kind == "acyclic-cof":
        for s in idx.elements:
            if not (classes[s].is_we and classes[s].is_cof):
                raise PreconditionError(
                    f"need levelwise we + cof presentations; fails at {s}")
        fs = factor_strict(f, MODE_L1)
        for s in idx.elements:
            if not classify_map(fs.left.level_component(s)).is_we:
                raise VerificationFailure(
                    f"factor left side not acyclic at {s}")
        lift = lift_strict(f, fs.right, fs.left, identity_pro(f.target),
                           mode=MODE_L1, special=fs.special)
        grid = RetractDiagram(f=f, g=fs.left,
                              sec_top=identity_pro(f.source),
                              ret_top=identity_pro(f.source),
                              sec_bot=lift.lift, ret_bot=fs.right)
        grid.replay()
        return grid
    if kind == "acyclic-fib":
        for s in idx.elements:
            if not classes[s].is_we:
                raise PreconditionError(
                    f"need a levelwise we presentation; fails at {s}")
        from .strict import FIB
        if special is None:
            special = detect_special(f, FIB)
        if special.mode != FIB:
            raise PreconditionError("certificate must be for special fibrations")
        special.require()
        fs = factor_strict(f, MODE_L1)
        for s in idx.elements:
            if not classify_map(fs.left.level_component(s)).is_we:
                raise VerificationFailure(
                    f"factor left side not acyclic at {s}")
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
    pullback_zw: object
    pullback_wx: object


def proper_pullback(p, f, g, witnesses):
    """Pullback of a levelwise weak equivalence along a levelwise
    fibration, glued through a pro-iso.

    Inputs form  Z -f-> W -g-> Y <-p- X  with f levelwise we, p levelwise
    fib, g a pro-iso with witnesses; returns f': Z×_Y X -> W×_Y X with a
    levelwise-we certificate and the pro-iso W×_Y X ≅ X."""
    idx = _require_level_shared([("p", p), ("f", f), ("g", g)])
    _level_classes_we(f)
    for s in idx.elements:
        if not classify_map(p.level_component(s)).is_fib:
            raise PreconditionError(f"p not a levelwise fibration at {s}")
    verify_witnesses(g, witnesses)
    Z, W, Y, X = f.source, f.target, p.target, p.source
    gf = compose_pro(g, f)
    wx = pro_limit_levelwise(ProDiagram(idx, {"w": W, "x": X, "y": Y},
                                        [("w", "y", g), ("x", "y", p)]))
    zx = pro_limit_levelwise(ProDiagram(idx, {"z": Z, "x": X, "y": Y},
                                        [("z", "y", gf), ("x", "y", p)]))
    fprime = _mediate_level_map(wx, zx.apex, {
        "w": compose_pro(f, zx.legs["z"]),
        "x": zx.legs["x"],
        "y": compose_pro(gf, zx.legs["z"])})
    classes = _level_classes_we(fprime)
    for s in idx.elements:
        if not classify_map(wx.legs["w"].level_component(s)).is_fib:
            raise VerificationFailure(f"pulled-back fibration fails at {s}")
    fam = HFamily({(t, s): wx.level_cones[s].mediate(Cone(
        wx.level_cones[s].diagram, X.value(t),
        {"w": compose(witnesses.get(t, s), p.level_component(t)),
         "x": X.struct(t, s),
         "y": compose(p.level_component(s), X.struct(t, s))}))
        for t in idx.elements for s in idx.elements if idx.lt(s, t)})
    cert = IsoCertificate(forward=wx.legs["x"], hfamily=fam)
    cert.replay()
    return ProperPullbackResult(map=fprime, level_classes=classes,
                                glue_cert=cert, pullback_zw=zx, pullback_wx=wx)
