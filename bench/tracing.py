"""Spans and counters around calls into promc, installed from outside.

The program is not changed.  ``install`` wraps chosen public functions
and rebinds each wrapper in every loaded ``promc`` module that holds the
original under any name: ``from .base import compose`` copies the name
into ``strict``, ``verify``, ``proiso`` and others, so wrapping
``promc.base.compose`` alone would miss those callers.  Module-internal
calls (``gf2.solve`` calling ``row_echelon``) go through the module's
globals and are caught the same way.  ``BaseMap.__eq__`` is counted at
the class.

Spans stay in memory, each with the index of its parent span, and are
written out at the end; self time and per-group inclusive time are
computed from them afterwards.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, span label); every label is one layer boundary.
SPANS = [
    ("promc.gf2", "solve", "gf2.solve"),
    ("promc.base", "classify_map", "base.classify_map"),
    ("promc.base", "factor_map", "base.factor_map"),
    ("promc.base", "solve_lift", "base.solve_lift"),
    ("promc.baselim", "finite_limit", "baselim.finite_limit"),
    ("promc.strict", "matching_map", "strict.matching_map"),
    ("promc.strict", "detect_special", "strict.detect_special"),
    ("promc.strict", "factor_strict", "strict.factor_strict"),
    ("promc.strict", "lift_strict", "strict.lift_strict"),
    ("promc.prohom", "hom_pro", "prohom.hom_pro"),
    ("promc.suites", "brute_force_hom", "suites.brute_force_hom"),
    ("promc.verify", "verify_certificate", "verify.verify_certificate"),
    ("promc.cli", "run_command", "cli.run_command"),
]

# Functions reported together: every certificate writer in certs, and
# the to/from halves of docio.  A group's inclusive time counts only its
# outermost spans, since the writers call one another.
GROUPS = {
    "certs.emit": ("promc.certs", [
        "detect_special_cert", "factorization_cert", "lift_cert",
        "pro_factor_iso_cert", "levelwise_we_cert", "iso_cert_doc",
        "levelize_cert", "hom_cert", "matching_cert", "cocell_cert",
        "tower_limit_cert", "adjunction_cert"]),
    "docio.to_doc": ("promc.docio", [
        "obj_to_doc", "map_to_doc", "poset_to_doc", "proobj_to_doc",
        "promap_to_doc", "hfamily_to_doc"]),
    "docio.from_doc": ("promc.docio", [
        "obj_from_doc", "map_from_doc", "poset_from_doc", "proobj_from_doc",
        "promap_from_doc", "hfamily_from_doc"]),
}

# Calls counted without a span: they are too frequent to time one by one.
COUNTERS = [
    ("promc.base", "compose", "base.compose"),
]

# Row-echelon calls are split by matrix shape: both sides at most 16,
# both at most 64, or larger.
SHAPE_BUCKETS = ((16, "le16"), (64, "le64"))


def _bucket(rows, cols):
    for limit, name in SHAPE_BUCKETS:
        if rows <= limit and cols <= limit:
            return name
    return "gt64"


class Tracer:
    """In-memory spans (label id, parent index, start ns, end ns) and
    plain counters."""

    def __init__(self):
        self.labels = []
        self._ids = {}
        self.group_of = {}
        self.spans = []
        self._stack = []
        self.counts = {}
        self._undo = []

    def label_id(self, label, group=None):
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.group_of[nid] = group or label
        return nid

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, fn, nid):
        """A span around every call; *nid* is a label id, or a function of
        the call's arguments that returns one."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        label_of = nid if callable(nid) else (lambda *args, **kw: nid)

        def traced(*args, **kw):
            span_nid = label_of(*args, **kw)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                spans[idx] = (span_nid, parent, t0, clock())
                stack.pop()

        return traced

    def _row_echelon_label(self):
        """Label ids of row_echelon by matrix shape; also counts cells."""
        ids = {name: self.label_id(f"gf2.row_echelon.{name}", "gf2.row_echelon")
               for name in ("le16", "le64", "gt64")}

        def label_of(M, *args, **kw):
            rows, cols = M.shape
            self.bump("gf2.row_echelon.cells", rows * cols)
            return ids[_bucket(rows, cols)]

        return label_of

    def _enumerate_wrapper(self, fn):
        inner = self._span_wrapper(fn, self.label_id("prohom.enumerate_base_maps"))

        def traced(*args, **kw):
            out = inner(*args, **kw)
            self.bump("prohom.enumerate_base_maps.maps", len(out))
            return out

        return traced

    def _counter_wrapper(self, fn, key):
        counts = self.counts
        counts.setdefault(key, 0)

        def counted(*args, **kw):
            counts[key] += 1
            return fn(*args, **kw)

        return counted

    # ------------------------------------------------------------ install

    def _rebind(self, orig, wrapper):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "promc" or name.startswith("promc.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self):
        """Wrap every traced function; import all of promc first so that
        every module that copies a name is rebound."""
        import promc.cli  # noqa: F401  (loads certs and docio)
        import promc.suites  # noqa: F401
        import promc.verify  # noqa: F401
        from promc.base import BaseMap

        mods = sys.modules
        for key in ("gf2.row_echelon.cells", "prohom.enumerate_base_maps.maps"):
            self.counts.setdefault(key, 0)
        for modname, attr, label in SPANS:
            orig = getattr(mods[modname], attr)
            self._rebind(orig, self._span_wrapper(orig, self.label_id(label)))
        for group, (modname, attrs) in GROUPS.items():
            for attr in attrs:
                orig = getattr(mods[modname], attr)
                nid = self.label_id(f"{group}.{attr}", group)
                self._rebind(orig, self._span_wrapper(orig, nid))
        gf2 = mods["promc.gf2"]
        self._rebind(gf2.row_echelon,
                     self._span_wrapper(gf2.row_echelon, self._row_echelon_label()))
        prohom = mods["promc.prohom"]
        self._rebind(prohom.enumerate_base_maps,
                     self._enumerate_wrapper(prohom.enumerate_base_maps))
        for modname, attr, label in COUNTERS:
            orig = getattr(mods[modname], attr)
            self._rebind(orig, self._counter_wrapper(orig, f"{label}.calls"))
        eq = BaseMap.__eq__
        BaseMap.__eq__ = self._counter_wrapper(eq, "base.map_eq.calls")
        self._undo.append((BaseMap, "__eq__", eq))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ------------------------------------------------------------ summary

    def summary(self):
        """Per label: calls, inclusive ms and self ms; per group:
        inclusive ms over outermost spans; plus the plain counters."""
        spans = self.spans
        n = len(spans)
        child_ns = [0] * n
        for nid, parent, t0, t1 in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {}

        def add(key, val):
            out[key] = out.get(key, 0) + val

        group_of = self.group_of
        for idx, (nid, parent, t0, t1) in enumerate(spans):
            label = self.labels[nid]
            dur = t1 - t0
            add(f"{label}.calls", 1)
            add(f"{label}.ms", dur / 1e6)
            add(f"{label}.self_ms", (dur - child_ns[idx]) / 1e6)
            group = group_of[nid]
            if group != label:
                p = parent
                while p >= 0 and group_of[spans[p][0]] != group:
                    p = spans[p][1]
                if p < 0:
                    add(f"{group}.ms", dur / 1e6)
                    add(f"{group}.calls", 1)
        for label in self.labels:
            for stat in ("calls", "ms", "self_ms"):
                out.setdefault(f"{label}.{stat}", 0)
        for group in set(group_of.values()):
            out.setdefault(f"{group}.ms", 0)
            out.setdefault(f"{group}.calls", 0)
        out.update(self.counts)
        return out

    def write(self, path, meta):
        """All spans as JSON: labels, then [label id, parent, start, end]
        with times in ns from the first span."""
        base = self.spans[0][2] if self.spans else 0
        doc = dict(meta)
        doc["labels"] = self.labels
        doc["spans"] = [[nid, parent, t0 - base, t1 - base]
                        for nid, parent, t0, t1 in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
