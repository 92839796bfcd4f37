"""
Certificate replay, in one of two ways by kind.

Answer kinds (``hom``, ``adjunction``, ``detect-special``, ``matching``)
record the unique output of a deterministic construction on inputs the
certificate embeds.  Replay rebuilds the inputs, reruns the construction
(``hom_pro``, ``adjunction_check``, ``detect_special``, ``matching_map``)
and compares the certificate key by key with what ``certs`` emits for
that result: the first differing key is the witness of a failed claim,
and a recorded field of another JSON type than the emitted one is
malformed.  The brute-force oracle recounts the hom sets of exhaustive
finite instances on top.

Witness kinds record one of many valid answers, and any valid one must
be accepted, so replay checks each claim with the predicate its
construction checks itself with: the strict-factorization
postconditions (``StrictFactorization.failure``), the lift's square and
triangles (``strict.square_failure``, ``strict.triangle_failure``),
pro-isomorphisms (``IsoCertificate.failure``), the pro-iso factorization
(``ProIsoFactorization.failure``), levelwise classes
(``strict.class_failure``) and cocell towers (``towers.tower_failure``),
whose stages must also attach the relative matching maps
(``strict.matching_map``) of the map they present.  Every recorded class
verdict must equal the fresh one, the separate ``level_index`` record of
a lift must name the refinement level a(s) its components carry, and a
mode, class tag, construction or ``ok`` flag that names nothing known is
refused as malformed.

A certificate's ω posets are rebuilt at the depth it records (each iso
payload at its own recorded depth), else at the depth replay is given.
"""

from __future__ import annotations

from . import certs
from .base import instance_of
from .docio import (CERT_SCHEMA, hfamily_from_doc, map_from_doc, obj_from_doc,
                    obj_to_doc, poset_from_doc, promap_from_doc, proobj_from_doc)
from .errors import MalformedError, VerificationFailure, fail_on
from .indexing import DEFAULT_DEPTH, FINITE, linear_extension
from .prohom import IsoCertificate, constant_embed, hom_pro
from .proiso import ProIsoFactorization
from .proobj import compose_pro
from .strict import (WE, StrictFactorization, class_failure, detect_special,
                     matching_map, square_failure, triangle_failure)
from .towers import TowerStage, adjunction_check, tower_failure


def _load_proobj(instance, doc, poset_doc, depth):
    return proobj_from_doc(instance, doc, poset_from_doc(poset_doc, depth))


def _load_promap(instance, payload, depth=DEFAULT_DEPTH):
    """The pro-map of a payload with its endpoints embedded; a poset or
    an end that the payload records twice is read once."""
    poset = payload["poset"]
    src = _load_proobj(instance, payload["source_object"], poset, depth)
    if payload.get("target_poset", poset) != poset:
        tgt = _load_proobj(instance, payload["target_object"],
                           payload["target_poset"], depth)
    elif payload["target_object"] != payload["source_object"]:
        tgt = proobj_from_doc(instance, payload["target_object"], src.index)
    else:
        tgt = src
    return promap_from_doc(instance, payload, src, tgt)


def _agrees(recorded, emitted, where=""):
    """Nothing when the certificate part *recorded* has the keys and
    values of the document *emitted* for the rerun construction; else
    VerificationFailure naming the first differing key (in sorted order,
    after the path *where*), or MalformedError for a recorded value of
    another JSON type.  Below the keys values compare as Python values."""
    if not isinstance(recorded, dict):
        raise MalformedError(f"certificate field {where[:-1]} is not an object")
    for key in sorted(recorded.keys() | emitted.keys()):
        if key in recorded and key in emitted and \
                _json_type(recorded[key]) != _json_type(emitted[key]):
            raise MalformedError(f"certificate field {where}{key} is "
                                 f"{_json_type(recorded[key])}, "
                                 f"not {_json_type(emitted[key])}")
        if key not in recorded or key not in emitted or recorded[key] != emitted[key]:
            raise VerificationFailure(
                f"recorded {where}{key} differs from the rerun", witness=where + key)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", int: "an integer", float: "a number",
               type(None): "null"}


def _json_type(value):
    return _JSON_TYPES[dict if isinstance(value, dict) else type(value)]


def _oracle(X, Y, count):
    """The brute-force recount of a finite hom set of an instance whose
    hom sets are enumerated exhaustively."""
    if X.instance.exhaustive_homs and X.index.regime == Y.index.regime == FINITE:
        from .suites import brute_force_hom
        threads = brute_force_hom(X, Y)
        if len(threads) != count:
            raise VerificationFailure(
                f"brute-force count {len(threads)} != rerun count {count}")


def _verdicts(doc, key, fresh):
    """The recorded class verdicts doc[key] against the fresh class flags
    *fresh*, both by level."""
    _agrees(doc[key], {str(s): certs.classes_doc(c) for s, c in fresh.items()},
            key + ".")


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
    res = detect_special(f, doc.get("mode"))
    _agrees(doc, certs.detect_special_cert(f, res))
    return {"kind": "detect-special", "levels": len(res.verdicts), "ok": res.ok}


def _verify_factorization(instance, doc, depth):
    f = _load_promap(instance, doc["input"], depth)
    Z = proobj_from_doc(instance, doc["middle"], f.source.index)
    fs = StrictFactorization(
        input=f, mode=doc.get("mode"), middle=Z,
        left=promap_from_doc(instance, doc["left"], f.source, Z),
        right=promap_from_doc(instance, doc["right"], Z, f.target))
    fail_on(fs.failure())
    _verdicts(doc, "left_verdicts", fs.left_classes)
    _verdicts(doc, "matching_verdicts", fs.special.verdicts)
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
    _verdicts(doc, "left_verdicts", out.left_classes)
    _verdicts(doc, "right_verdicts", out.right_classes)
    return {"kind": "pro-factor-iso", "levels": len(X.index.elements)}


# the pro-isos each levelwise-we construction certifies
_ISOS = {"zigzag-we": 2, "two-of-three/left-cancel": 1,
         "two-of-three/right-cancel": 1, "proper-pullback": 1}


def _verify_levelwise_we(instance, doc, depth):
    construction = doc.get("construction")
    if construction not in _ISOS:
        raise MalformedError(f"unknown levelwise-we construction {construction!r}")
    m = _load_promap(instance, doc["map"], depth)
    fresh = {}
    fail_on(class_failure("map", m.level_component, WE,
                          m.source.index.elements, fresh))
    _verdicts(doc, "verdicts", fresh)
    isos = doc["isos"]
    if len(isos) != _ISOS[construction]:
        raise VerificationFailure(f"{construction} certifies "
                                  f"{_ISOS[construction]} pro-isos, not {len(isos)}")
    for k, iso in enumerate(isos):
        fwd = _iso_replay(instance, iso, depth)
        if not {fwd.source, fwd.target} & {m.source, m.target}:
            raise VerificationFailure("the pro-iso shares no end with the map",
                                      witness=f"isos.{k}")
    return {"kind": "levelwise-we", "construction": construction,
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
    t = f.source.index.read_level(doc.get("level"))
    _agrees(doc, certs.matching_cert(f, t, matching_map(f, t)))
    return {"kind": "matching", "level": doc["level"]}


def _verify_cocell(instance, doc, depth):
    """The stages must be base changes of the class named (``tower_failure``)
    along the relative matching maps of the presented map f, at its
    levels in linear-extension order, from the value of f's target at
    the maximum; a tower-limit's limit is the last stage's value, and its
    pro-iso runs from f's source to that limit."""
    f = _load_promap(instance, doc["source_presentation"], depth)
    levels = linear_extension(f.source.index).order
    prev = f.target.max_value()
    if doc["base_value"] != obj_to_doc(prev) or len(doc["stages"]) != len(levels):
        raise VerificationFailure("the tower is not one stage per level of the "
                                  "presented map from its target's top value")
    stages = []
    for s, st in zip(levels, doc["stages"]):
        attach = matching_map(f, s).map
        if st["level"] != str(s) or st["attach"] != certs.base_map_doc(attach):
            raise VerificationFailure(
                f"the stage at level {s} does not attach its matching map", witness=s)
        value = obj_from_doc(instance, st["stage_value"])
        stages.append(TowerStage(
            level=s, attach=attach, attach_class=None, square=None,
            new_stage_value=value,
            cone_map=map_from_doc(instance, st["cone_map"], prev, attach.target),
            bonding=map_from_doc(instance, st["bonding"], value, prev),
            new_leg=map_from_doc(instance, st["new_leg"], value, attach.source)))
        prev = value
    fresh = []
    fail_on(tower_failure(doc.get("class_tag"), stages, fresh))
    for k, (st, cls) in enumerate(zip(doc["stages"], fresh)):
        _agrees(st["attach_classes"], certs.classes_doc(cls),
                f"stages.{k}.attach_classes.")
    if doc["kind"] == "cocell":
        return {"kind": "cocell", "stages": len(stages)}
    fwd = _iso_replay(instance, doc["iso"], depth)
    if doc["limit_value"] != obj_to_doc(prev) or \
            fwd.source != f.source or fwd.target.max_value() != prev:
        raise VerificationFailure("the limit is not the last stage, or its "
                                  "pro-iso does not start at the presented source")
    return {"kind": "tower-limit", "stages": len(stages), "iso": True}


def _verify_adjunction(instance, doc, depth):
    X = obj_from_doc(instance, doc["base_object"])
    Y = _load_proobj(instance, doc["Y"], doc["Y_poset"], depth)
    w = adjunction_check(X, Y)
    _oracle(constant_embed(X), Y, w.left_size)
    _agrees(doc, certs.adjunction_cert(X, Y, w))
    return {"kind": "adjunction", "size": w.left_size, "depth": w.depth}


def _verify_hom(instance, doc, depth):
    X = _load_proobj(instance, doc["X"], doc["X_poset"], depth)
    Y = _load_proobj(instance, doc["Y"], doc["Y_poset"], depth)
    hs = hom_pro(X, Y)
    _oracle(X, Y, len(hs.maps))
    _agrees(doc, certs.hom_cert(X, Y, hs))
    return {"kind": "hom", "count": len(hs.maps)}


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
