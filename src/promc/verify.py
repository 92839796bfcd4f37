"""
Certificate replay.

Rebuilds every object and map from the certificate document and checks
each claim with the predicate its construction checks itself with: the
strict-factorization postconditions (``StrictFactorization.failure``),
the lift's square and triangles (``strict.square_failure``,
``strict.triangle_failure``), special detection (``detect_special``),
pro-isomorphisms (``IsoCertificate.failure``), the pro-iso
factorization (``ProIsoFactorization.failure``), levelwise classes
(``strict.class_failure``), the relative matching map
(``strict.matching_map``) and cocell towers (``towers.tower_failure``).
Replay keeps no check of its own for any of these claims.

It takes nothing recorded unchecked: every claim is re-derived from the
rebuilt maps, every recorded class verdict must equal the fresh one, the
separate ``level_index`` record of a lift must name the refinement level
a(s) its components carry, and a mode, class tag or ``ok`` flag that
names nothing known is refused as malformed.

A certificate's ω posets are rebuilt at the depth it records (each iso
payload at its own recorded depth), else at the depth replay is given.
"""

from __future__ import annotations

from .base import classify_map, instance_of
from .certs import classes_doc
from .docio import (CERT_SCHEMA, hfamily_from_doc, map_from_doc, obj_from_doc,
                    poset_from_doc, promap_from_doc, proobj_from_doc)
from .errors import MalformedError, VerificationFailure, fail_on
from .indexing import DEFAULT_DEPTH, FINITE
from .prohom import IsoCertificate
from .proiso import ProIsoFactorization
from .proobj import LEVEL, compose_pro
from .strict import (WE, StrictFactorization, class_failure, detect_special,
                     matching_map, square_failure, triangle_failure)
from .towers import TowerStage, tower_failure


def _load_promap(instance, payload, depth=DEFAULT_DEPTH):
    sposet = poset_from_doc(payload["poset"], depth)
    tposet = poset_from_doc(payload.get("target_poset", payload["poset"]), depth)
    src = proobj_from_doc(instance, payload["source_object"], sposet)
    tgt = proobj_from_doc(instance, payload["target_object"], tposet)
    return promap_from_doc(instance, payload, src, tgt)


def _verdict(cls, recorded, where):
    if recorded != classes_doc(cls):
        raise VerificationFailure(f"recorded classes differ at {where}",
                                  witness=where)


def _verdicts(fresh, recorded, what):
    """Every recorded verdict of the table *recorded* against the fresh
    class flags of the same level."""
    if not isinstance(recorded, dict):
        raise MalformedError(f"{what} verdicts are not an object")
    if set(recorded) != {str(s) for s in fresh}:
        raise VerificationFailure(f"recorded {what} verdicts name other levels")
    for s, cls in fresh.items():
        _verdict(cls, recorded[str(s)], f"{what} level {s}")


def _iso_replay(instance, payload, depth=DEFAULT_DEPTH):
    """Replay an iso payload as an IsoCertificate; returns its forward map."""
    fwd = _load_promap(instance, payload["forward"], payload.get("depth", depth))
    back, fam = payload.get("backward"), payload.get("hfamily")
    IsoCertificate(
        forward=fwd,
        backward=(None if back is None
                  else promap_from_doc(instance, back, fwd.target, fwd.source)),
        hfamily=None if fam is None else hfamily_from_doc(instance, fam, fwd),
        depth=payload.get("depth")).replay()
    return fwd


def verify_certificate(doc, depth=DEFAULT_DEPTH):
    """Replay one certificate document, its ω posets at the depth it
    records, else at *depth*; raises VerificationFailure (bad claim) or
    MalformedError (bad data); returns a report dict."""
    if not isinstance(doc, dict) or doc.get("schema") != CERT_SCHEMA:
        raise MalformedError("not a certificate document")
    kind = doc.get("kind")
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise MalformedError(f"unknown certificate kind {kind!r}")
    return handler(instance_of(doc.get("instance")), doc, doc.get("depth", depth))


def _verify_detect_special(instance, doc, depth):
    f = _load_promap(instance, doc["map"], depth)
    if f.kind != LEVEL:
        raise MalformedError("detect-special needs a LEVEL map")
    ok = doc.get("ok")
    if not isinstance(ok, bool):
        raise MalformedError(f"ok must be true or false, not {ok!r}")
    res = detect_special(f, doc.get("mode"))
    _verdicts(res.verdicts, doc.get("verdicts", {}), "matching")
    if res.ok and not ok:
        raise VerificationFailure("recorded failure did not reproduce",
                                  witness=doc.get("failing"))
    if not res.ok and (ok or str(res.failing) != str(doc.get("failing"))):
        raise VerificationFailure(
            f"special {res.mode} fails at level {res.failing}",
            witness=res.failing)
    return {"kind": "detect-special", "levels": len(res.verdicts), "ok": ok}


def _verify_factorization(instance, doc, depth):
    f = _load_promap(instance, doc["input"], depth)
    Z = proobj_from_doc(instance, doc["middle"], f.source.index)
    fs = StrictFactorization(
        input=f, mode=doc.get("mode"), middle=Z,
        left=promap_from_doc(instance, doc["left"], f.source, Z),
        right=promap_from_doc(instance, doc["right"], Z, f.target))
    fail_on(fs.failure())
    _verdicts(fs.left_classes, doc["left_verdicts"], "left")
    _verdicts(fs.special.verdicts, doc["matching_verdicts"], "matching")
    return {"kind": "factorization", "mode": fs.mode,
            "levels": len(fs.left_classes)}


def _verify_lift(instance, doc, depth):
    i = _load_promap(instance, doc["i"], depth)
    p = _load_promap(instance, doc["p"], depth)
    top = promap_from_doc(instance, doc["top"], i.source, p.source)
    bottom = promap_from_doc(instance, doc["bottom"], i.target, p.target)
    lift = promap_from_doc(instance, doc["lift"], i.target, p.source)
    fail_on(square_failure(i, p, top, bottom, doc.get("mode"))
            or triangle_failure(i, p, top, bottom, lift))
    recorded = doc.get("level_index")
    if not isinstance(recorded, dict):
        raise MalformedError("level_index is missing or not an object")
    idx = i.source.index
    for s in idx.elements:
        if recorded.get(str(s)) != str(lift.component(s)[0]):
            raise VerificationFailure(
                f"level_index differs from the lift's a(s) at {s}", witness=s)
    return {"kind": "lift", "mode": doc["mode"], "levels": len(idx.elements)}


def _verify_pro_factor_iso(instance, doc, depth):
    f = _load_promap(instance, doc["input"], depth)
    X, Y = f.source, f.target
    Z = proobj_from_doc(instance, doc["middle"], X.index)
    left = promap_from_doc(instance, doc["left"], X, Z)
    right = promap_from_doc(instance, doc["right"], Z, Y)
    witnessed = IsoCertificate(
        forward=f, hfamily=hfamily_from_doc(instance, doc["witnesses"], f))
    out = ProIsoFactorization(
        input=f, middle=Z, left=left, right=right,
        left_cert=IsoCertificate(forward=left, hfamily=hfamily_from_doc(
            instance, doc["left_family"], left)),
        right_cert=IsoCertificate(forward=right, hfamily=hfamily_from_doc(
            instance, doc["right_family"], right)))
    fail_on(witnessed.failure() or out.failure())
    _verdicts(out.left_classes, doc["left_verdicts"], "left")
    _verdicts(out.right_classes, doc["right_verdicts"], "right")
    return {"kind": "pro-factor-iso", "levels": len(X.index.elements)}


def _verify_levelwise_we(instance, doc, depth):
    m = _load_promap(instance, doc["map"], depth)
    fresh = {}
    fail_on(class_failure("map", m.level_component, WE,
                          m.source.index.elements, fresh))
    _verdicts(fresh, doc["verdicts"], "level")
    isos = doc.get("isos", [])
    for iso in isos:
        _iso_replay(instance, iso, depth)
    return {"kind": "levelwise-we", "construction": doc.get("construction"),
            "levels": len(fresh), "isos": len(isos)}


def _verify_iso(instance, doc, depth):
    _iso_replay(instance, doc, depth)
    return {"kind": "iso"}


def _verify_levelize(instance, doc, depth):
    m = _load_promap(instance, doc["map"], depth)
    src_fwd = _iso_replay(instance, doc["source_cert"], depth)
    tgt_fwd = _iso_replay(instance, doc["target_cert"], depth)
    if "original" not in doc:
        raise MalformedError("levelize certificate records no original map")
    orig = _load_promap(instance, doc["original"], depth)
    if not compose_pro(m, src_fwd).equals(compose_pro(tgt_fwd, orig)):
        raise VerificationFailure("levelized map does not represent the original")
    return {"kind": "levelize"}


def _verify_matching(instance, doc, depth):
    f = _load_promap(instance, doc["map"], depth)
    rebuilt = matching_map(f, f.source.index.read_level(doc.get("level"))).map
    src = obj_from_doc(instance, doc["matching_source"])
    tgt = obj_from_doc(instance, doc["matching_target"])
    recorded = map_from_doc(instance, doc["matching_map"], src, tgt)
    if rebuilt.source != recorded.source or rebuilt != recorded:
        raise VerificationFailure("matching map does not reproduce")
    _verdict(classify_map(rebuilt), doc["classes"], "matching map")
    return {"kind": "matching", "level": doc["level"]}


def _verify_cocell(instance, doc, depth):
    prev = obj_from_doc(instance, doc["base_value"])
    stages = []
    for k, st in enumerate(doc["stages"]):
        a_src = obj_from_doc(instance, st["attach"]["source"])
        a_tgt = obj_from_doc(instance, st["attach"]["target"])
        value = obj_from_doc(instance, st["stage_value"])
        stages.append(TowerStage(
            level=k, attach_class=None, square=None, new_stage_value=value,
            attach=map_from_doc(instance, st["attach"]["payload"], a_src, a_tgt),
            cone_map=map_from_doc(instance, st["cone_map"], prev, a_tgt),
            bonding=map_from_doc(instance, st["bonding"], value, prev),
            new_leg=map_from_doc(instance, st["new_leg"], value, a_src)))
        prev = value
    fresh = []
    fail_on(tower_failure(doc.get("class_tag"), stages, fresh))
    for k, cls in enumerate(fresh):
        _verdict(cls, doc["stages"][k]["attach_classes"], f"stage {k} attach")
    report = {"kind": doc["kind"], "stages": len(stages)}
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
