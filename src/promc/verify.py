"""
Independent certificate replay.

Rebuilds every object and map from the certificate document and
re-derives every claim.  Replay shares with the construction side only
operations whose results the construction cannot choose: base
classification, composition, finite limits, the relative matching limit
(``strict.matching_map``), the h-family triangle check
(``prohom.hfamily_failure``) and the cocell pullback check
(``towers.stage_failure``).

It never takes what the construction chose from the certificate
unchecked: the lift components, with the refinement levels a(s) they
carry, are accepted only through the two lift triangles, and the
separate ``level_index`` record must name the same a(s) at every level;
middle objects only through the composite, the class verdicts of the
factors and the matching maps recomputed over them; and every recorded
verdict is compared with a fresh classification.
"""

from __future__ import annotations

from .base import classify_map, compose, instance_of
from .docio import (CERT_SCHEMA, hfamily_from_doc, map_from_doc, obj_from_doc,
                    poset_from_doc, promap_from_doc, proobj_from_doc)
from .errors import MalformedError, VerificationFailure
from .indexing import DEFAULT_DEPTH, FINITE, linear_extension
from .prohom import hfamily_failure
from .proobj import LEVEL, compose_pro, identity_pro
from .strict import matching_map
from .towers import stage_failure


def _load_promap(instance, payload, depth=DEFAULT_DEPTH):
    sposet = poset_from_doc(payload["poset"], depth)
    tposet = poset_from_doc(payload.get("target_poset", payload["poset"]), depth)
    src = proobj_from_doc(instance, payload["source_object"], sposet)
    tgt = proobj_from_doc(instance, payload["target_object"], tposet)
    return promap_from_doc(instance, payload, src, tgt)


def _check_classes(cls, doc, where):
    if (cls.is_we, cls.is_cof, cls.is_fib) != (doc["we"], doc["cof"], doc["fib"]):
        raise VerificationFailure(f"recorded classes differ at {where}",
                                  witness=where)


def _special_levels(f, mode, verdicts, ok, failing, depth):
    idx = f.source.index
    levels = (list(linear_extension(idx)) if idx.regime == FINITE
              else list(range(depth if depth else DEFAULT_DEPTH)))
    for t in levels:
        key = str(t)
        cls = classify_map(matching_map(f, t).map)
        if key in verdicts:
            _check_classes(cls, verdicts[key], f"matching level {t}")
        good = cls.is_fib if mode == "fib" else (cls.is_fib and cls.is_we)
        if not good:
            if ok:
                raise VerificationFailure(
                    f"certified special {mode} fails at level {t}", witness=t)
            if failing is not None and str(failing) == key:
                return  # the recorded failure reproduces
            raise VerificationFailure(
                f"failure at unexpected level {t}", witness=t)
    if not ok:
        raise VerificationFailure("recorded failure did not reproduce",
                                  witness=failing)


def _iso_replay(instance, payload, depth=DEFAULT_DEPTH):
    fwd = _load_promap(instance, payload["forward"], depth)
    X, Y = fwd.source, fwd.target
    d = payload.get("depth")
    checked = False
    if payload.get("backward") is not None:
        back = promap_from_doc(instance, payload["backward"], Y, X)
        if not compose_pro(back, fwd).equals(identity_pro(X), depth=d):
            raise VerificationFailure("backward ∘ forward is not the identity")
        if not compose_pro(fwd, back).equals(identity_pro(Y), depth=d):
            raise VerificationFailure("forward ∘ backward is not the identity")
        checked = True
    if payload.get("hfamily") is not None:
        if fwd.kind != LEVEL:
            raise VerificationFailure("h-family on a non-LEVEL forward map")
        fam = hfamily_from_doc(instance, payload["hfamily"], fwd)
        bad = hfamily_failure(fwd, fam)
        if bad is not None:
            t, s, what = bad
            raise VerificationFailure(
                f"missing witness {t}>{s}" if what == "missing"
                else f"{what} triangle fails {t}>{s}", witness=(t, s))
        checked = True
    if not checked:
        raise VerificationFailure("iso payload carries no witness")
    return fwd


def verify_certificate(doc, depth=DEFAULT_DEPTH):
    """Replay one certificate document; raises VerificationFailure (bad
    claim) or MalformedError (bad data); returns a report dict."""
    if not isinstance(doc, dict) or doc.get("schema") != CERT_SCHEMA:
        raise MalformedError("not a certificate document")
    kind = doc.get("kind")
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise MalformedError(f"unknown certificate kind {kind!r}")
    return handler(instance_of(doc.get("instance")), doc, depth)


def _verify_detect_special(instance, doc, depth):
    f = _load_promap(instance, doc["map"], depth)
    if f.kind != LEVEL:
        raise MalformedError("detect-special needs a LEVEL map")
    _special_levels(f, doc["mode"], doc.get("verdicts", {}), doc["ok"],
                    doc.get("failing"), doc.get("depth"))
    return {"kind": "detect-special", "levels": len(doc.get("verdicts", {})),
            "ok": doc["ok"]}


def _verify_factorization(instance, doc, depth):
    f = _load_promap(instance, doc["input"], depth)
    idx = f.source.index
    Z = proobj_from_doc(instance, doc["middle"], idx)
    left = promap_from_doc(instance, doc["left"], f.source, Z)
    right = promap_from_doc(instance, doc["right"], Z, f.target)
    mode = doc["mode"]
    carrier = idx.carrier(doc.get("depth"))
    for s in carrier:
        if compose(right.level_component(s), left.level_component(s)) != \
                f.level_component(s):
            raise VerificationFailure(f"composite differs at level {s}",
                                      witness=s)
        cls = classify_map(left.level_component(s))
        _check_classes(cls, doc["left_verdicts"][str(s)], f"left level {s}")
        need = cls.is_cof if mode == "L1" else (cls.is_cof and cls.is_we)
        if not need:
            raise VerificationFailure(f"left factor class fails at {s}",
                                      witness=s)
    _special_levels(right, "acyclic-fib" if mode == "L1" else "fib",
                    doc["matching_verdicts"], True, None, doc.get("depth"))
    return {"kind": "factorization", "mode": mode, "levels": len(list(carrier))}


def _verify_lift(instance, doc, depth):
    i = _load_promap(instance, doc["i"], depth)
    p = _load_promap(instance, doc["p"], depth)
    top = promap_from_doc(instance, doc["top"], i.source, p.source)
    bottom = promap_from_doc(instance, doc["bottom"], i.target, p.target)
    lift = promap_from_doc(instance, doc["lift"], i.target, p.source)
    mode = doc["mode"]
    if not compose_pro(p, top).equals(compose_pro(bottom, i)):
        raise VerificationFailure("square does not commute")
    idx = i.source.index
    for s in idx.elements:
        cls = classify_map(i.level_component(s))
        need = cls.is_cof if mode == "L1" else (cls.is_cof and cls.is_we)
        if not need:
            raise VerificationFailure(f"left map class fails at {s}", witness=s)
        mcls = classify_map(matching_map(p, s).map)
        good = (mcls.is_fib and mcls.is_we) if mode == "L1" else mcls.is_fib
        if not good:
            raise VerificationFailure(f"right map not special at {s}", witness=s)
    if not compose_pro(lift, i).equals(top):
        raise VerificationFailure("lift fails the top triangle")
    if not compose_pro(p, lift).equals(bottom):
        raise VerificationFailure("lift fails the bottom triangle")
    recorded = doc.get("level_index")
    if not isinstance(recorded, dict):
        raise MalformedError("level_index is missing or not an object")
    for s in idx.elements:
        if recorded.get(str(s)) != str(lift.component(s)[0]):
            raise VerificationFailure(
                f"level_index differs from the lift's a(s) at {s}", witness=s)
    return {"kind": "lift", "mode": mode, "levels": len(idx.elements)}


def _verify_pro_factor_iso(instance, doc, depth):
    f = _load_promap(instance, doc["input"], depth)
    idx = f.source.index
    X, Y = f.source, f.target
    Z = proobj_from_doc(instance, doc["middle"], idx)
    left = promap_from_doc(instance, doc["left"], X, Z)
    right = promap_from_doc(instance, doc["right"], Z, Y)
    bad = hfamily_failure(f, hfamily_from_doc(instance, doc["witnesses"], f))
    if bad is not None:
        t, s, _ = bad
        raise VerificationFailure(f"input witness fails at {t}>{s}",
                                  witness=(t, s))
    for s in idx.elements:
        if compose(right.level_component(s), left.level_component(s)) != \
                f.level_component(s):
            raise VerificationFailure(f"composite differs at {s}", witness=s)
        lcls = classify_map(left.level_component(s))
        rcls = classify_map(right.level_component(s))
        _check_classes(lcls, doc["left_verdicts"][str(s)], f"left {s}")
        _check_classes(rcls, doc["right_verdicts"][str(s)], f"right {s}")
        if not lcls.is_cof or not rcls.is_fib:
            raise VerificationFailure(f"factor classes fail at {s}", witness=s)
    for fam_doc, fwd in ((doc["left_family"], left), (doc["right_family"], right)):
        bad = hfamily_failure(fwd, hfamily_from_doc(instance, fam_doc, fwd))
        if bad is not None:
            t, s, _ = bad
            raise VerificationFailure(f"factor iso witness fails at {t}>{s}",
                                      witness=(t, s))
    return {"kind": "pro-factor-iso", "levels": len(idx.elements)}


def _verify_levelwise_we(instance, doc, depth):
    m = _load_promap(instance, doc["map"], depth)
    idx = m.source.index
    for s in idx.elements:
        cls = classify_map(m.level_component(s))
        _check_classes(cls, doc["verdicts"][str(s)], f"level {s}")
        if not cls.is_we:
            raise VerificationFailure(f"not a weak equivalence at {s}",
                                      witness=s)
    for iso in doc.get("isos", []):
        _iso_replay(instance, iso, depth)
    return {"kind": "levelwise-we", "construction": doc.get("construction"),
            "levels": len(idx.elements), "isos": len(doc.get("isos", []))}


def _verify_iso(instance, doc, depth):
    _iso_replay(instance, doc, depth)
    return {"kind": "iso"}


def _verify_levelize(instance, doc, depth):
    m = _load_promap(instance, doc["map"], depth)
    src_fwd = _iso_replay(instance, doc["source_cert"], depth)
    tgt_fwd = _iso_replay(instance, doc["target_cert"], depth)
    if "original" in doc:
        orig = _load_promap(instance, doc["original"], depth)
        lhs = compose_pro(m, src_fwd)
        rhs = compose_pro(tgt_fwd, orig)
        if not lhs.equals(rhs):
            raise VerificationFailure(
                "levelized map does not represent the original")
    return {"kind": "levelize"}


def _verify_matching(instance, doc, depth):
    f = _load_promap(instance, doc["map"], depth)
    rebuilt = matching_map(f, doc["level"]).map
    src = obj_from_doc(instance, doc["matching_source"])
    tgt = obj_from_doc(instance, doc["matching_target"])
    recorded = map_from_doc(instance, doc["matching_map"], src, tgt)
    if rebuilt.source != recorded.source or rebuilt != recorded:
        raise VerificationFailure("matching map does not reproduce")
    _check_classes(classify_map(rebuilt), doc["classes"], "matching map")
    return {"kind": "matching", "level": doc["level"]}


def _verify_cocell(instance, doc, depth):
    base = obj_from_doc(instance, doc["base_value"])
    tag = doc["class_tag"]
    prev = base
    for k, st in enumerate(doc["stages"]):
        a_src = obj_from_doc(instance, st["attach"]["source"])
        a_tgt = obj_from_doc(instance, st["attach"]["target"])
        attach = map_from_doc(instance, st["attach"]["payload"], a_src, a_tgt)
        cls = classify_map(attach)
        _check_classes(cls, st["attach_classes"], f"stage {k} attach")
        ok = cls.is_fib if tag == "fib" else (cls.is_fib and cls.is_we)
        if not ok:
            raise VerificationFailure(
                f"attach map not in class {tag} at stage {k}", witness=k)
        stage_val = obj_from_doc(instance, st["stage_value"])
        cone_map = map_from_doc(instance, st["cone_map"], prev, a_tgt)
        bonding = map_from_doc(instance, st["bonding"], stage_val, prev)
        new_leg = map_from_doc(instance, st["new_leg"], stage_val, a_src)
        bad = stage_failure(attach, cone_map, bonding, new_leg)
        if bad is not None:
            raise VerificationFailure(f"stage {k}: {bad}", witness=k)
        prev = stage_val
    report = {"kind": doc["kind"], "stages": len(doc["stages"])}
    if doc.get("iso") is not None:
        _iso_replay(instance, doc["iso"], depth)
        report["iso"] = True
    return report


def _verify_adjunction(instance, doc, depth):
    from .prohom import enumerate_base_maps
    X = obj_from_doc(instance, doc["base_object"])
    poset = poset_from_doc(doc["Y_poset"], depth)
    Y = proobj_from_doc(instance, doc["Y"], poset)
    if poset.regime == FINITE:
        limv = Y.value(poset.max_element())
        rights = enumerate_base_maps(X, limv)
        if doc["right_size"] != len(rights):
            raise VerificationFailure("recorded Hom(X, lim Y) size is wrong")
        if doc["left_size"] != doc["right_size"]:
            raise VerificationFailure("adjunction sizes disagree")
        assigns = [map_from_doc(instance, a, X, limv)
                   for a in doc["assignments"]]
        seen = []
        for a in assigns:
            if any(a == s for s in seen):
                raise VerificationFailure("assignments not injective")
            seen.append(a)
        if len(assigns) != len(rights):
            raise VerificationFailure("assignments not surjective")
        if instance.exhaustive_homs:
            from .suites import brute_force_hom
            from .prohom import constant_embed
            threads = brute_force_hom(constant_embed(X), Y)
            if len(threads) != doc["left_size"]:
                raise VerificationFailure(
                    "brute-force hom count disagrees with the certificate")
        return {"kind": "adjunction", "size": doc["left_size"]}
    if doc["left_size"] != doc["right_size"]:
        raise VerificationFailure("adjunction sizes disagree")
    return {"kind": "adjunction", "size": doc["left_size"],
            "depth": doc.get("depth")}


def _verify_hom(instance, doc, depth):
    Xp = poset_from_doc(doc["X_poset"], depth)
    Yp = poset_from_doc(doc["Y_poset"], depth)
    X = proobj_from_doc(instance, doc["X"], Xp)
    Y = proobj_from_doc(instance, doc["Y"], Yp)
    if instance.exhaustive_homs and Xp.regime == FINITE and Yp.regime == FINITE:
        from .suites import brute_force_hom
        threads = brute_force_hom(X, Y)
        if len(threads) != doc["count"]:
            raise VerificationFailure(
                f"brute-force count {len(threads)} != recorded {doc['count']}")
    return {"kind": "hom", "count": doc["count"]}


_HANDLERS = {
    "detect-special": _verify_detect_special,
    "factorization": _verify_factorization,
    "lift": _verify_lift,
    "pro-factor-iso": _verify_pro_factor_iso,
    "levelwise-we": _verify_levelwise_we,
    "iso": _verify_iso,
    "levelize": _verify_levelize,
    "matching": _verify_matching,
    "cocell": _verify_cocell,
    "tower-limit": _verify_cocell,
    "adjunction": _verify_adjunction,
    "hom": _verify_hom,
}
