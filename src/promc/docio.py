"""
The self-describing JSON document format.

A document names one instance by its tag and any number of index
posets, base objects, pro-objects, pro-maps (level or general) and
witness bundles.  Base values serialize as their instance
writes them (SetBij sets as arrays of strings, ChainF2 matrices
row-major as 0/1 arrays), posets as cover-pair lists (or the literal
"omega"); ω-regime values, steps and LEVEL components are given as
lists whose last entry repeats up to the depth.

A document has one ω depth, a positive integer: the one the reader is
given (``promc --depth``), else the document's own ``"depth"``, else
``DEFAULT_DEPTH``.  Every ω poset of the document takes it, so a LEVEL
map's two ends share one index; any other depth value is refused.  Each
ω list is read only up to the depth.  An ω GENERAL map lists one
component per level below the depth, each from a source level below
the depth.  Witness keys are ``"t>s"`` with s < t in the source index.
"""

from __future__ import annotations

import json

from .base import identity, instance_of
from .errors import MalformedError
from .indexing import DEFAULT_DEPTH, OMEGA, from_covers, omega
from .prohom import HFamily
from .proobj import ProObject, general_map, level_map

DOC_SCHEMA = "promc.doc/1"
CERT_SCHEMA = "promc.cert/1"


# ------------------------------------------------------------- payloads


def obj_to_doc(obj):
    return obj.instance.obj_to_doc(obj)


def obj_from_doc(instance, doc):
    return instance_of(instance).obj_from_doc(doc)


def map_to_doc(m):
    return m.instance.map_to_doc(m)


def map_from_doc(instance, doc, source, target):
    """The base map *doc* between *source* and *target*: a JSON object in
    both instances; MalformedError for anything else."""
    return instance_of(instance).map_from_doc(_as_object(doc, "base map payload"),
                                              source, target)


def poset_to_doc(p):
    if p.regime == OMEGA:
        return "omega"
    return {"elements": list(p.elements), "covers": [list(c) for c in p.covers()]}


def poset_from_doc(doc, depth=DEFAULT_DEPTH):
    if doc == "omega":
        return omega(depth)
    try:
        covers = doc["covers"]
        if not all(isinstance(c, list) and len(c) == 2 for c in covers):
            raise MalformedError("poset covers must be [lower, upper] pairs")
        return from_covers(doc["elements"], [tuple(c) for c in covers],
                           depth=depth)
    except (KeyError, TypeError) as e:
        raise MalformedError(f"bad poset payload: {e}")


def proobj_to_doc(X):
    if X.index.regime == OMEGA:
        return {"index": "omega",
                "values": [obj_to_doc(X.value(n)) for n in X.index.elements],
                "steps": [map_to_doc(X.struct(t, s)) for s, t in X.index.covers()]}
    return {"values": {s: obj_to_doc(X.value(s)) for s in X.index.elements},
            "structure": {f"{t}>{s}": map_to_doc(X.struct(t, s))
                          for (s, t) in X.index.covers()}}


def proobj_from_doc(instance, doc, index):
    _as_object(doc, "pro-object payload")
    if index.regime == OMEGA:
        d = index.depth
        vals = [obj_from_doc(instance, v) for v in _head(doc, "values", d)]
        if not vals:
            raise MalformedError("ω object needs at least one value")
        values = {n: vals[min(n, len(vals) - 1)] for n in index.elements}
        steps = _head(doc, "steps", d - 1, [])
        structs = {}
        for s, t in index.covers():
            if s < len(steps):
                structs[(t, s)] = map_from_doc(instance, steps[s], values[t], values[s])
            elif values[t] != values[s]:
                raise MalformedError("ω tail is not constant; give more steps")
            else:
                structs[(t, s)] = identity(values[s])
        return ProObject(index, values=values, structs=structs)
    values = {s: obj_from_doc(instance, v)
              for s, v in _object(doc, "values", "object").items()}
    if set(values) != set(index.elements):
        raise MalformedError("object values do not match the poset carrier")
    structs = {}
    for key, payload in _object(doc, "structure", "object").items():
        t, _, s = key.partition(">")
        if t not in values or s not in values:
            raise MalformedError(f"structure key {key} names an unknown element")
        structs[(t, s)] = map_from_doc(instance, payload, values[t], values[s])
    return ProObject(index, values=values, structs=structs)


def _head(doc, key, n, default=None):
    """The first n entries of the ω list doc[key]; the entries from the
    depth on are never read."""
    items = doc.get(key, default)
    if not isinstance(items, list):
        raise MalformedError(f"ω {key} must be a list, not {type(items).__name__}")
    return items[:n]


def promap_to_doc(f, source_name, target_name):
    out = {"source": source_name, "target": target_name}
    if f.source.index.regime == OMEGA:
        levels = f.target.index.elements
        if f.kind == "level":
            out["level"] = [map_to_doc(f.level_component(n)) for n in levels]
        else:
            out["general"] = [[int(f.component(n)[0]),
                               map_to_doc(f.component(n)[1])] for n in levels]
        return out
    if f.kind == "level":
        out["level"] = {s: map_to_doc(f.level_component(s))
                        for s in f.source.index.elements}
    else:
        out["general"] = {s: [f.component(s)[0], map_to_doc(f.component(s)[1])]
                          for s in f.target.index.elements}
    return out


def _in_index(s, obj, what, end):
    """Refuse the key *s* of *what* unless it is an element of the index
    of *obj*, the map's *end*."""
    if s not in obj.index.elements:
        raise MalformedError(f"{what}: level {s!r} is not an element of the {end} index")


def promap_from_doc(instance, doc, source, target, name="pro-map"):
    """The pro-map of *doc* between *source* and *target*; *name* names
    it in the refusal of a GENERAL map entry that is not a [level, map]
    pair, and of an ω GENERAL map that lists too few components or one
    from a source level not below the depth."""
    _as_object(doc, "pro-map payload")
    if source.index.regime == OMEGA:
        d = target.index.depth
        if "level" in doc:
            comps = {n: map_from_doc(instance, c, source.value(n), target.value(n))
                     for n, c in enumerate(_head(doc, "level", d))}
            if not comps:
                raise MalformedError(f"ω level map {name} lists no components")
            for n in target.index.elements[len(comps):]:
                if source.value(n) != comps[n - 1].source:
                    raise MalformedError("ω level tail is not constant")
                comps[n] = comps[n - 1]
            return level_map(source, target, comps)
        pairs = _head(doc, "general", d)
        if len(pairs) < d:
            raise MalformedError(f"ω general map {name} lists {len(pairs)} "
                                 f"components, fewer than the depth {d}")
        comps = {}
        for n, entry in enumerate(pairs):
            t, p = _general_entry(entry, f"ω general map {name}: component {n}")
            if type(t) is not int or not 0 <= t < source.index.depth:
                raise MalformedError(
                    f"ω general map {name}: component {n} has source level {t!r}, "
                    f"not a level below the depth {source.index.depth}")
            comps[n] = (t, map_from_doc(instance, p, source.value(t), target.value(n)))
        return general_map(source, target, comps)
    if "level" in doc:
        comps = {}
        for s, c in _object(doc, "level", f"pro-map {name}").items():
            _in_index(s, source, f"level map {name}", "source")
            comps[s] = map_from_doc(instance, c, source.value(s), target.value(s))
        return level_map(source, target, comps)
    if "general" in doc:
        comps = {}
        for s, entry in _object(doc, "general", f"pro-map {name}").items():
            _in_index(s, target, f"general map {name}", "target")
            t, payload = _general_entry(entry, f"general map {name}: component at {s}")
            if t not in source.index.elements:
                raise MalformedError(f"general map {name}: component at {s} has source "
                                     f"level {t!r}, not an element of the source index")
            comps[s] = (t, map_from_doc(instance, payload,
                                        source.value(t), target.value(s)))
        return general_map(source, target, comps)
    raise MalformedError("pro-map payload needs 'level' or 'general'")


def _as_object(value, what):
    """*value*, a JSON object; MalformedError "<what> must be an object"
    for anything else."""
    if not isinstance(value, dict):
        raise MalformedError(f"{what} must be an object, not {type(value).__name__}")
    return value


def _object(doc, key, what):
    """doc[key], a JSON object, or {} when *doc* lacks *key*;
    MalformedError, naming *what*, for anything else."""
    return _as_object(doc.get(key, {}), f"{what}: {key}")


def _entries(raw, section):
    """(name, entry) of the document section raw[section], each entry a
    JSON object."""
    entries = _object(raw, section, "document")
    return [(name, _object(entries, name, section)) for name in entries]


def _general_entry(entry, where):
    """The (source level, map payload) of one GENERAL map entry; *where*
    names the entry in the refusal of anything else."""
    if not (isinstance(entry, list) and len(entry) == 2):
        raise MalformedError(f"{where} is {json.dumps(entry)}, not a [level, map] pair")
    return entry


def hfamily_to_doc(fam):
    return {f"{t}>{s}": map_to_doc(m) for (t, s), m in sorted(fam.pairs.items())}


def hfamily_from_doc(instance, doc, f):
    """Witness pairs for the pro-map f (maps Y_t -> X_s), one per key
    "t>s" with s < t in the source index."""
    _as_object(doc, "witness pairs")
    X, Y = f.source, f.target
    levels = {str(s): s for s in X.index.elements}
    pairs = {}
    for key, payload in doc.items():
        t, _, s = key.partition(">")
        if not (t in levels and s in levels and X.index.lt(levels[s], levels[t])):
            raise MalformedError(f"witness key {key} is not a pair t>s with "
                                 "s < t in the source index")
        t, s = levels[t], levels[s]
        pairs[(t, s)] = map_from_doc(instance, payload, Y.value(t), X.value(s))
    return HFamily(pairs)


# ------------------------------------------------------------- documents


class Document:
    """A parsed document: named posets, base objects, pro-objects,
    pro-maps and witness bundles, all validated on load."""

    def __init__(self, raw, depth=None):
        if not isinstance(raw, dict):
            raise MalformedError("document must be a JSON object")
        if raw.get("schema") != DOC_SCHEMA:
            raise MalformedError(f"unknown document schema {raw.get('schema')!r}")
        self.instance = instance_of(raw.get("instance"))
        self.depth = raw.get("depth", DEFAULT_DEPTH) if depth is None else depth
        self.posets = {name: poset_from_doc(doc, depth=self.depth)
                       for name, doc in _object(raw, "posets", "document").items()}
        self.base_objects = {
            name: obj_from_doc(self.instance, doc)
            for name, doc in _object(raw, "base_objects", "document").items()}
        self.objects = {
            name: proobj_from_doc(self.instance, doc, _named(
                self.posets, doc.get("index"), f"object {name} references unknown poset"))
            for name, doc in _entries(raw, "objects")}
        self.maps = {
            name: promap_from_doc(self.instance, doc, *(
                _named(self.objects, doc.get(end), f"map {name} references unknown object")
                for end in ("source", "target")), name=name)
            for name, doc in _entries(raw, "maps")}
        self.witnesses = {
            name: hfamily_from_doc(
                self.instance, _object(doc, "pairs", f"witness bundle {name}"),
                _named(self.maps, doc.get("map"),
                       f"witness bundle {name} references unknown map"))
            for name, doc in _entries(raw, "witnesses")}

    def base_object_named(self, name):
        return _named(self.base_objects, name, "no base object named")

    def map_named(self, name):
        return _named(self.maps, name, "document has no map named")

    def object_named(self, name):
        return _named(self.objects, name, "document has no object named")

    def witnesses_named(self, name):
        return _named(self.witnesses, name, "no witness bundle named")


def _named(table, name, what):
    """table[name]; MalformedError "<what> <name>" when *name* names no
    entry of *table*."""
    if not isinstance(name, str) or name not in table:
        raise MalformedError(f"{what} {name!r}")
    return table[name]


def load_document(path, depth=None):
    """The document at *path*; *depth*, when given, overrides its own."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise MalformedError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise MalformedError(f"{path} is not valid JSON: {e}")
    return Document(raw, depth=depth)


class Record(dict):
    """A JSON object read from a file: reading a key it lacks is
    malformed input, not a KeyError."""

    def __missing__(self, key):
        raise MalformedError(f"a JSON object lacks the key {key!r}")


def dump_json(doc, path=None):
    """*doc* as ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``
    writes it, byte for byte; written to *path* when given."""
    text = _encode(doc, "\n") + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ``json.dumps`` with an indent runs the pure-Python encoder, one generator
# step per token; this writer makes one string per container with
# ``str.join`` and the C string escaper that encoder uses (ensure_ascii).
_escape = json.encoder.encode_basestring_ascii


def _encode(o, newline):
    """*o* as JSON, each nested line starting with *newline* (a newline
    and the indent of *o*'s own line) plus two spaces."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, o))
        if kinds == {int}:  # a matrix row
            items = map(int.__repr__, o)
        elif kinds == {str}:  # a set's elements
            items = map(_escape, o)
        else:
            items = [_encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        items = [_escape(_key(k)) + ": " + _encode(v, inner)
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return json.dumps(o)  # a float, or the encoder's TypeError


def _key(k):
    """A dict key as the string ``json.dumps`` writes for it."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")
