"""
Certificate replay, in one of two ways by kind.

Answer kinds (``hom``, ``adjunction``, ``detect-special``, ``matching``)
record the unique output of a deterministic construction on inputs the
certificate embeds.  Replay rebuilds the inputs, reruns the construction
(``hom_pro``, ``adjunction_check``, ``detect_special``, ``matching_map``)
and compares the certificate with what ``certs`` emits for that result.
The brute-force oracle recounts the hom sets of exhaustive finite
instances on top.

Witness kinds record one of many valid answers, and any valid one must
be accepted, so replay checks each claim with the predicate its
construction checks itself with: the strict-factorization
postconditions (``StrictFactorization.failure``), the lift's square and
triangles (``strict.square_failure``, ``strict.triangle_failure``),
pro-isomorphisms (``IsoCertificate.failure``), the pro-iso factorization
(``ProIsoFactorization.failure``), levelwise classes
(``strict.class_failure``) and cocell towers (``towers.tower_failure``),
whose stages must also attach the relative matching maps
(``strict.matching_map``) of the map they present.  A mode, class tag,
construction or ``ok`` flag that names nothing known is refused as
malformed.

One ``Loader`` per certificate reads every payload: it alone calls the
``docio`` readers and knows how a pro-map payload embeds its posets and
ends.  It parses each distinct poset and pro-object once and hands out the
same ``ProObject`` for every copy; two copies are one only if their JSON
texts agree, so values and JSON types match at every depth and no
malformed copy is skipped.  A certificate's ω posets are rebuilt at the
depth it records, else at the depth replay is given; an iso payload
repeats the certificate's depth, and one that records another is
refused as malformed.

One comparison, ``_agrees``, checks every recorded JSON value against
what ``certs`` writes for the fresh one: whole answer certificates,
class verdicts, a lift's ``level_index`` record, and a cocell tower's
base value, stage levels, attached maps and limit.  The values must
agree in value and JSON type at every depth (``false`` is not ``0``).
The first differing key path, in sorted key order, is the witness of a
failed claim (exit 1); a recorded value of another JSON type than the
emitted one is malformed (exit 2).
"""

from __future__ import annotations

import functools
import json

from . import certs
from .base import instance_of
from .docio import (CERT_SCHEMA, _as_object, hfamily_from_doc, map_from_doc,
                    obj_from_doc, obj_to_doc, poset_from_doc, promap_from_doc,
                    proobj_from_doc)
from .errors import MalformedError, VerificationFailure, fail_on
from .indexing import DEFAULT_DEPTH, FINITE, linear_extension
from .prohom import IsoCertificate, constant_embed, hom_pro
from .proiso import ProIsoFactorization
from .proobj import compose_pro
from .strict import (WE, StrictFactorization, class_failure, detect_special,
                     matching_map, square_failure, triangle_failure)
from .towers import TowerStage, adjunction_check, tower_failure


# The canonical JSON text of a value: equal texts mean equal values of
# equal JSON types at every depth.
_text = json.JSONEncoder(sort_keys=True, check_circular=False).encode


class Loader:
    """The payload reader of one certificate of *instance*, its ω posets
    at *depth*."""

    def __init__(self, instance, depth):
        self.instance, self.depth = instance, depth
        self._parsed = {}
        # readers of a payload whose ends are read already
        self.between = functools.partial(promap_from_doc, instance)
        self.hfamily = functools.partial(hfamily_from_doc, instance)
        self.obj = functools.partial(obj_from_doc, instance)
        self.map = functools.partial(map_from_doc, instance)

    def _once(self, key, doc, read):
        """read(doc), once for all copies of *doc* read in the context
        *key*: a copy is one read before if it is equal to it (a cheap
        test) and has the same JSON text."""
        copies = self._parsed.setdefault(key, [])
        for copy in copies:
            if copy[0] == doc:
                copy[2] = copy[2] or _text(copy[0])
                if copy[2] == _text(doc):
                    return copy[1]
        out = read(doc)
        copies.append([doc, out, None])
        return out

    def poset(self, doc):
        return self._once("poset", doc, lambda d: poset_from_doc(d, self.depth))

    def proobj(self, doc, index):
        """The pro-object *doc* over the IndexPoset *index*."""
        return self._once(index, doc,
                          lambda d: proobj_from_doc(self.instance, d, index))

    def promap(self, payload):
        """The pro-map of a payload that embeds its ends and their posets."""
        _as_object(payload, "pro-map payload")
        return self.between(
            payload,
            self.proobj(payload["source_object"], self.poset(payload["poset"])),
            self.proobj(payload["target_object"], self.poset(payload["target_poset"])))

    def factors(self, doc):
        """The input f, middle Z and factors f.source -> Z -> f.target of a
        factorization certificate."""
        f = self.promap(doc["input"])
        Z = self.proobj(doc["middle"], f.source.index)
        return (f, Z, self.between(doc["left"], f.source, Z),
                self.between(doc["right"], Z, f.target))

    def iso(self, payload):
        """Replay an iso payload as an IsoCertificate; returns its forward
        map.  A depth it records must be the certificate's."""
        _as_object(payload, "iso payload")
        if "depth" in payload and _text(payload["depth"]) != _text(self.depth):
            raise MalformedError(f"iso payload depth {_text(payload['depth'])} "
                                 f"differs from the certificate's {self.depth}")
        fwd = self.promap(payload["forward"])
        back, fam = payload.get("backward"), payload.get("hfamily")
        IsoCertificate(
            forward=fwd,
            backward=None if back is None else self.between(back, fwd.target, fwd.source),
            hfamily=None if fam is None else self.hfamily(fam, fwd)).replay()
        return fwd


def _agrees(recorded, emitted, path=""):
    """Nothing when the recorded JSON *recorded* equals *emitted*, what
    ``certs`` writes for the fresh value, in value and JSON type at every
    depth.  Else, at the first key path below *path* (in sorted key
    order, list positions in order) where they part: MalformedError for
    a recorded value of another JSON type, VerificationFailure naming
    the path for any other difference."""
    if _text(recorded) == _text(emitted):
        return
    kind, other = (_JSON_TYPES.get(type(v), "an object") for v in (recorded, emitted))
    if kind != other:
        raise MalformedError(f"certificate field {path} is {kind}, not {other}")
    rec, emi = (dict(enumerate(v)) if isinstance(v, list)  # entries by key
                else v if isinstance(v, dict) else {} for v in (recorded, emitted))
    for key in sorted(rec.keys() | emi.keys()):
        where = f"{path}.{key}" if path else str(key)
        if key not in rec or key not in emi:
            path = where
            break
        _agrees(rec[key], emi[key], where)
    raise VerificationFailure(f"recorded {path} differs from the rerun", witness=path)


# JSON type names by Python type; a JSON object may be a dict subclass
_JSON_TYPES = {list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


def _oracle(X, Y, count):
    """The brute-force recount of a finite hom set of an instance whose
    hom sets are enumerated exhaustively."""
    if X.instance.exhaustive_homs and X.index.regime == Y.index.regime == FINITE:
        from .suites import brute_force_hom
        threads = brute_force_hom(X, Y)
        if len(threads) != count:
            raise VerificationFailure(
                f"brute-force count {len(threads)} != rerun count {count}")


def verify_certificate(doc, depth=DEFAULT_DEPTH):
    """Replay one certificate document, its ω posets at the depth it
    records, else at *depth*; raises VerificationFailure (bad claim) or
    MalformedError (bad data); returns a report dict."""
    if not isinstance(doc, dict) or doc.get("schema") != CERT_SCHEMA:
        raise MalformedError("not a certificate document")
    kind = doc.get("kind")
    handler = _HANDLERS.get(kind) if isinstance(kind, str) else None
    if handler is None:
        raise MalformedError(f"unknown certificate kind {kind!r}")
    return handler(Loader(instance_of(doc.get("instance")), doc.get("depth", depth)),
                   doc)


def _verify_detect_special(load, doc):
    f = load.promap(doc["map"])
    res = detect_special(f, doc.get("mode"))
    _agrees(doc, certs.detect_special_cert(f, res))
    return {"kind": "detect-special", "levels": len(res.verdicts), "ok": res.ok}


def _verify_factorization(load, doc):
    f, Z, left, right = load.factors(doc)
    fs = StrictFactorization(input=f, mode=doc.get("mode"), middle=Z,
                             left=left, right=right)
    fail_on(fs.failure())
    _agrees(doc["left_verdicts"], certs.verdicts_doc(fs.left_classes), "left_verdicts")
    _agrees(doc["matching_verdicts"], certs.verdicts_doc(fs.special.verdicts),
            "matching_verdicts")
    return {"kind": "factorization", "mode": fs.mode,
            "levels": len(fs.left_classes)}


def _verify_lift(load, doc):
    i, p = load.promap(doc["i"]), load.promap(doc["p"])
    top = load.between(doc["top"], i.source, p.source)
    bottom = load.between(doc["bottom"], i.target, p.target)
    lift = load.between(doc["lift"], i.target, p.source)
    fail_on(square_failure(i, p, top, bottom, doc.get("mode"))
            or triangle_failure(i, p, top, bottom, lift))
    idx = i.source.index
    _agrees(doc["level_index"],
            {str(s): str(lift.component(s)[0]) for s in idx.elements}, "level_index")
    return {"kind": "lift", "mode": doc["mode"], "levels": len(idx.elements)}


def _verify_pro_factor_iso(load, doc):
    f, Z, left, right = load.factors(doc)
    witnessed = IsoCertificate(forward=f, hfamily=load.hfamily(doc["witnesses"], f))
    out = ProIsoFactorization(
        input=f, middle=Z, left=left, right=right,
        left_cert=IsoCertificate(forward=left,
                                 hfamily=load.hfamily(doc["left_family"], left)),
        right_cert=IsoCertificate(forward=right,
                                  hfamily=load.hfamily(doc["right_family"], right)))
    fail_on(witnessed.failure() or out.failure())
    _agrees(doc["left_verdicts"], certs.verdicts_doc(out.left_classes), "left_verdicts")
    _agrees(doc["right_verdicts"], certs.verdicts_doc(out.right_classes),
            "right_verdicts")
    return {"kind": "pro-factor-iso", "levels": len(f.source.index.elements)}


# the pro-isos each levelwise-we construction certifies
_ISOS = {"zigzag-we": 2, "two-of-three/left-cancel": 1,
         "two-of-three/right-cancel": 1, "proper-pullback": 1}


def _verify_levelwise_we(load, doc):
    construction = doc.get("construction")
    if not (isinstance(construction, str) and construction in _ISOS):
        raise MalformedError(f"unknown levelwise-we construction {construction!r}")
    m = load.promap(doc["map"])
    fresh = {}
    fail_on(class_failure("map", m.level_component, WE,
                          m.source.index.elements, fresh))
    _agrees(doc["verdicts"], certs.verdicts_doc(fresh), "verdicts")
    isos = doc["isos"]
    if not isinstance(isos, list):
        raise MalformedError("levelwise-we isos must be a list")
    if len(isos) != _ISOS[construction]:
        raise VerificationFailure(f"{construction} certifies "
                                  f"{_ISOS[construction]} pro-isos, not {len(isos)}")
    for k, iso in enumerate(isos):
        fwd = load.iso(iso)
        if not {fwd.source, fwd.target} & {m.source, m.target}:
            raise VerificationFailure("the pro-iso shares no end with the map",
                                      witness=f"isos.{k}")
    return {"kind": "levelwise-we", "construction": construction,
            "levels": len(fresh), "isos": len(isos)}


def _verify_iso(load, doc):
    load.iso(doc)
    return {"kind": "iso"}


def _verify_levelize(load, doc):
    m = load.promap(doc["map"])
    src_fwd = load.iso(doc["source_cert"])
    tgt_fwd = load.iso(doc["target_cert"])
    if "original" not in doc:
        raise MalformedError("levelize certificate records no original map")
    orig = load.promap(doc["original"])
    if not compose_pro(m, src_fwd).equals(compose_pro(tgt_fwd, orig)):
        raise VerificationFailure("levelized map does not represent the original")
    return {"kind": "levelize"}


def _verify_matching(load, doc):
    f = load.promap(doc["map"])
    t = f.source.index.read_level(doc.get("level"))
    _agrees(doc, certs.matching_cert(f, t, matching_map(f, t)))
    return {"kind": "matching", "level": doc["level"]}


def _verify_cocell(load, doc):
    """The stages must be base changes of the class named (``tower_failure``)
    along the relative matching maps of the presented map f, at its
    levels in linear-extension order, from the value of f's target at
    the maximum; a tower-limit's limit is the last stage's value, and its
    pro-iso runs from f's source to that limit."""
    f = load.promap(doc["source_presentation"])
    levels = linear_extension(f.source.index).order
    prev = f.target.max_value()
    _agrees(doc["base_value"], obj_to_doc(prev), "base_value")
    if not (isinstance(doc["stages"], list)
            and all(isinstance(st, dict) for st in doc["stages"])):
        raise MalformedError("tower stages must be a list of objects")
    if len(doc["stages"]) != len(levels):
        raise VerificationFailure("the tower is not one stage per level of the "
                                  "presented map")
    stages = []
    for k, (s, st) in enumerate(zip(levels, doc["stages"])):
        attach = matching_map(f, s).map
        _agrees(st["level"], str(s), f"stages.{k}.level")
        _agrees(st["attach"], certs.base_map_doc(attach), f"stages.{k}.attach")
        value = load.obj(st["stage_value"])
        stages.append(TowerStage(
            level=s, attach=attach, attach_class=None, square=None,
            new_stage_value=value,
            cone_map=load.map(st["cone_map"], prev, attach.target),
            bonding=load.map(st["bonding"], value, prev),
            new_leg=load.map(st["new_leg"], value, attach.source)))
        prev = value
    fresh = []
    fail_on(tower_failure(doc.get("class_tag"), stages, fresh))
    for k, (st, cls) in enumerate(zip(doc["stages"], fresh)):
        _agrees(st["attach_classes"], certs.classes_doc(cls),
                f"stages.{k}.attach_classes")
    if doc["kind"] == "cocell":
        return {"kind": "cocell", "stages": len(stages)}
    fwd = load.iso(doc["iso"])
    _agrees(doc["limit_value"], obj_to_doc(prev), "limit_value")
    if fwd.source != f.source or fwd.target.max_value() != prev:
        raise VerificationFailure("the limit's pro-iso does not run from the "
                                  "presented source to the last stage")
    return {"kind": "tower-limit", "stages": len(stages), "iso": True}


def _verify_adjunction(load, doc):
    X = load.obj(doc["base_object"])
    Y = load.proobj(doc["Y"], load.poset(doc["Y_poset"]))
    w = adjunction_check(X, Y)
    _oracle(constant_embed(X), Y, w.left_size)
    _agrees(doc, certs.adjunction_cert(X, Y, w))
    return {"kind": "adjunction", "size": w.left_size, "depth": Y.index.depth}


def _verify_hom(load, doc):
    X = load.proobj(doc["X"], load.poset(doc["X_poset"]))
    Y = load.proobj(doc["Y"], load.poset(doc["Y_poset"]))
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
