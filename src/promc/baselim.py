"""
Finite diagrams in a base instance and their limits and colimits.

Each instance builds its own (co)limit cones (``Instance.limit`` and
``Instance.colimit``); a cone comes with its mediating-map constructor,
so the universal property can be checked on demand.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .base import BaseObject, compose
from .errors import MalformedError, PreconditionError


class Diagram:
    """A finite diagram: named nodes and a list of edges (src, tgt, map).

    Parallel edges, loops, cycles and empty diagrams are allowed, and
    every limit commutes on every edge; when the edges close a cycle,
    SetBij names apex elements by their full tuples.  Each
    node's in- and out-edges are listed once, in edge order, when the
    diagram is built.
    """

    def __init__(self, nodes, edges=()):
        self.nodes = dict(nodes)
        self.edges = [tuple(e) for e in edges]
        insts = {obj.instance for obj in self.nodes.values()}
        if len(insts) > 1:
            raise MalformedError("diagram mixes instances")
        self.instance = insts.pop() if insts else None
        self._ins = {v: [] for v in self.nodes}
        self._outs = {v: [] for v in self.nodes}
        for e in self.edges:
            src, tgt, f = e
            if src not in self.nodes or tgt not in self.nodes:
                raise MalformedError(f"edge {src}->{tgt} references unknown node")
            if f.source != self.nodes[src] or f.target != self.nodes[tgt]:
                raise MalformedError(f"edge {src}->{tgt} map endpoints disagree")
            self._ins[tgt].append(e)
            self._outs[src].append(e)

    def in_edges(self, v):
        return self._ins[v]

    def toposort(self):
        """Node order with edge sources before targets, the least ready
        node first, or None if cyclic."""
        order = []
        indeg = {v: len(es) for v, es in self._ins.items()}
        ready = [v for v in self.nodes if indeg[v] == 0]
        heapq.heapify(ready)
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for _, w, _ in self._outs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        return order if len(order) == len(self.nodes) else None

    def free_nodes(self):
        return sorted(v for v, es in self._ins.items() if not es)


@dataclass
class Cone:
    """Apex with one leg per diagram node (legs point at the nodes for
    limits, out of them for colimits)."""
    diagram: Diagram
    apex: BaseObject
    legs: dict

    def check_limit_cone(self):
        for src, tgt, f in self.diagram.edges:
            if compose(f, self.legs[src]) != self.legs[tgt]:
                return (src, tgt)
        return None

    def check_colimit_cocone(self):
        for src, tgt, f in self.diagram.edges:
            if compose(self.legs[tgt], f) != self.legs[src]:
                return (src, tgt)
        return None


@dataclass
class LimitCone(Cone):
    """A limit cone; *factor* builds the mediating map out of a cone over
    the same diagram once ``mediate`` has checked it."""
    factor: object = field(default=None, repr=False)

    def mediate(self, cone):
        """The unique map cone.apex -> self.apex commuting with all legs."""
        bad = cone.check_limit_cone()
        if bad is not None:
            raise PreconditionError(f"not a cone: edge {bad} fails")
        return self.factor(cone)


@dataclass
class ColimitCone(Cone):
    """A colimit cocone; *factor* builds the mediating map into a cocone
    over the same diagram once ``mediate`` has checked it."""
    factor: object = field(default=None, repr=False)

    def mediate(self, cocone):
        """The unique map self.apex -> cocone.apex commuting with all legs."""
        bad = cocone.check_colimit_cocone()
        if bad is not None:
            raise PreconditionError(f"not a cocone: edge {bad} fails")
        return self.factor(cocone)


def finite_limit(diagram):
    """Limit cone of a finite diagram.  The empty diagram names no
    instance; it gives the SetBij terminal object, a singleton."""
    if not diagram.nodes:
        from .setbij import INSTANCE
        return INSTANCE.limit(diagram)
    return diagram.instance.limit(diagram)


def finite_colimit(diagram):
    """Colimit cocone; the empty diagram gives the SetBij initial object,
    the empty set."""
    if not diagram.nodes:
        from .setbij import INSTANCE
        return INSTANCE.colimit(diagram)
    return diagram.instance.colimit(diagram)


def pullback(f, g):
    """Limit of the cospan  src(f) -f-> tgt <-g- src(g); legs "a" and "b"."""
    if f.target != g.target:
        raise PreconditionError("pullback needs a common target")
    dia = Diagram({"a": f.source, "b": g.source, "c": f.target},
                  [("a", "c", f), ("b", "c", g)])
    return finite_limit(dia)


def pushout(f, g):
    """Colimit of the span  tgt(f) <-f- src -g-> tgt(g); legs "a" and "b"."""
    if f.source != g.source:
        raise PreconditionError("pushout needs a common source")
    dia = Diagram({"a": f.target, "b": g.target, "c": f.source},
                  [("c", "a", f), ("c", "b", g)])
    return finite_colimit(dia)
