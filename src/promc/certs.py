"""
Certificate documents: self-contained, machine-checkable serializations
of every construction's output, suitable for replay by the independent
checker in verify.py.

Every certificate embeds the data needed to replay it from scratch
(posets, pro-objects, map components, witness pairs, per-level class
verdicts), so a certificate file stands alone.
"""

from __future__ import annotations

from .docio import (CERT_SCHEMA, hfamily_to_doc, map_to_doc, obj_to_doc,
                    poset_to_doc, promap_to_doc, proobj_to_doc)


def classes_doc(cls):
    return {"we": cls.is_we, "cof": cls.is_cof, "fib": cls.is_fib}


def verdicts_doc(classes):
    """Class verdicts by level."""
    return {str(s): classes_doc(c) for s, c in classes.items()}


def _promap_payload(f):
    """A pro-map with its endpoints embedded."""
    doc = promap_to_doc(f, "src", "tgt")
    doc["source_object"] = proobj_to_doc(f.source)
    doc["target_object"] = proobj_to_doc(f.target)
    doc["poset"] = poset_to_doc(f.source.index)
    doc["target_poset"] = poset_to_doc(f.target.index)
    return doc


def _iso_payload(cert):
    out = {"forward": _promap_payload(cert.forward)}
    out["backward"] = (promap_to_doc(cert.backward, "tgt", "src")
                       if cert.backward is not None else None)
    out["hfamily"] = (hfamily_to_doc(cert.hfamily)
                      if cert.hfamily is not None else None)
    depth = cert.forward.source.index.depth
    if depth is not None:
        out["depth"] = depth
    return out


def _base(instance, kind, depth=None):
    """The keys every certificate has, and the ω depth it was built at
    when it was built at one."""
    doc = {"schema": CERT_SCHEMA, "kind": kind, "instance": instance.tag}
    if depth is not None:
        doc["depth"] = depth
    return doc


def detect_special_cert(f, result):
    doc = _base(f.source.instance, "detect-special", f.source.index.depth)
    doc["mode"] = result.mode
    doc["ok"] = result.ok
    doc["map"] = _promap_payload(f)
    doc["verdicts"] = verdicts_doc(result.verdicts)
    if result.failing is not None:
        doc["failing"] = str(result.failing)
    return doc


def factorization_cert(fs):
    doc = _base(fs.input.source.instance, "factorization", fs.depth)
    doc["mode"] = fs.mode
    doc["input"] = _promap_payload(fs.input)
    doc["middle"] = proobj_to_doc(fs.middle)
    doc["left"] = promap_to_doc(fs.left, "src", "mid")
    doc["right"] = promap_to_doc(fs.right, "mid", "tgt")
    doc["left_verdicts"] = verdicts_doc(fs.left_classes)
    doc["matching_verdicts"] = verdicts_doc(fs.special.verdicts)
    return doc


def lift_cert(i, p, top, bottom, mode, result):
    doc = _base(i.source.instance, "lift")
    doc["mode"] = mode
    doc["i"] = _promap_payload(i)
    doc["p"] = _promap_payload(p)
    doc["top"] = promap_to_doc(top, "A", "X")
    doc["bottom"] = promap_to_doc(bottom, "B", "Y")
    doc["lift"] = promap_to_doc(result.lift, "B", "X")
    doc["level_index"] = {str(s): str(a) for s, a in result.level_index.items()}
    return doc


def pro_factor_iso_cert(out, witnesses):
    doc = _base(out.input.source.instance, "pro-factor-iso")
    doc["input"] = _promap_payload(out.input)
    doc["middle"] = proobj_to_doc(out.middle)
    doc["left"] = promap_to_doc(out.left, "src", "mid")
    doc["right"] = promap_to_doc(out.right, "mid", "tgt")
    doc["witnesses"] = hfamily_to_doc(witnesses)
    doc["left_family"] = hfamily_to_doc(out.left_cert.hfamily)
    doc["right_family"] = hfamily_to_doc(out.right_cert.hfamily)
    doc["left_verdicts"] = verdicts_doc(out.left_classes)
    doc["right_verdicts"] = verdicts_doc(out.right_classes)
    return doc


def levelwise_we_cert(construction, m, classes, iso_certs):
    doc = _base(m.source.instance, "levelwise-we")
    doc["construction"] = construction
    doc["map"] = _promap_payload(m)
    doc["verdicts"] = verdicts_doc(classes)
    doc["isos"] = [_iso_payload(c) for c in iso_certs]
    return doc


def iso_cert_doc(cert):
    doc = _base(cert.forward.source.instance, "iso")
    doc.update(_iso_payload(cert))
    return doc


def levelize_cert(lv):
    doc = _base(lv.map.source.instance, "levelize", lv.original.source.index.depth)
    doc["map"] = _promap_payload(lv.map)
    doc["original"] = _promap_payload(lv.original)
    doc["source_cert"] = _iso_payload(lv.source_cert)
    doc["target_cert"] = _iso_payload(lv.target_cert)
    return doc


def hom_cert(X, Y, hs):
    doc = _base(X.instance, "hom", X.index.depth)
    doc["count"] = len(hs.maps)
    doc["X"] = proobj_to_doc(X)
    doc["Y"] = proobj_to_doc(Y)
    doc["X_poset"] = poset_to_doc(X.index)
    doc["Y_poset"] = poset_to_doc(Y.index)
    if X.index.depth is None:
        top = Y.index.max_element()
        doc["realized"] = X.instance.map_set_doc(
            [rep.realize(top) for rep in hs.maps])
    else:
        doc["stabilized_at"] = hs.stabilized_at
    return doc


def matching_cert(f, t, data):
    from .base import classify_map
    doc = _base(f.source.instance, "matching", f.source.index.depth)
    doc["level"] = str(t)
    doc["map"] = _promap_payload(f)
    doc["matching_map"] = map_to_doc(data.map)
    doc["matching_source"] = obj_to_doc(data.map.source)
    doc["matching_target"] = obj_to_doc(data.map.target)
    doc["classes"] = classes_doc(classify_map(data.map))
    return doc


def base_map_doc(m):
    """A base map with its endpoints embedded."""
    return {"source": obj_to_doc(m.source), "target": obj_to_doc(m.target),
            "payload": map_to_doc(m)}


def cocell_cert(tower):
    doc = _base(tower.base_value.instance, "cocell")
    doc["class_tag"] = tower.class_tag
    doc["base_value"] = obj_to_doc(tower.base_value)
    stages = []
    for st in tower.stages:
        stages.append({
            "level": str(st.level),
            "attach": base_map_doc(st.attach),
            "attach_classes": classes_doc(st.attach_class),
            "cone_map": map_to_doc(st.cone_map),
            "bonding": map_to_doc(st.bonding),
            "new_leg": map_to_doc(st.new_leg),
            "stage_value": obj_to_doc(st.new_stage_value),
        })
    doc["stages"] = stages
    if tower.source_map is not None:
        doc["source_presentation"] = _promap_payload(tower.source_map)
    return doc


def tower_limit_cert(tower, tl):
    doc = cocell_cert(tower)
    doc["kind"] = "tower-limit"
    doc["limit_value"] = obj_to_doc(tl.apex.value(tl.apex.index.elements[0]))
    if tl.iso_cert is not None:
        doc["iso"] = _iso_payload(tl.iso_cert)
    return doc


def adjunction_cert(X, Y, witness):
    doc = _base(X.instance, "adjunction", Y.index.depth)
    doc["base_object"] = obj_to_doc(X)
    doc["Y"] = proobj_to_doc(Y)
    doc["Y_poset"] = poset_to_doc(Y.index)
    doc["left_size"] = witness.left_size
    doc["right_size"] = witness.right_size
    doc["assignments"] = [map_to_doc(phi) for _, phi in witness.pairs]
    if Y.index.depth is not None:
        doc["stabilized_at"] = witness.stabilized_at
    return doc
