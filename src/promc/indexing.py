"""
Index categories: finite cofinite directed posets and the ω-tower.

Finite posets are validated against the axioms (reflexive, antisymmetric,
transitive, directed, non-empty); the ω-tower is truncated at a depth,
and its elements are the levels below it.  The depth belongs to the ω
index: every ω computation reads it from there, and ω indexes of
different depths are different indexes.  Every finite directed poset has
a maximum element, which later constructions use as the initial object
of the index category.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedError, UnsupportedRegimeError

FINITE = "finite"
OMEGA = "omega"

DEFAULT_DEPTH = 16
MAX_DEPTH = 4096  # an ω index stores every level; ω `hom` at 4096 takes 0.7 s


class IndexViolation(MalformedError):
    """A raw relation failed one of the poset axioms."""

    def __init__(self, axiom, witness):
        super().__init__(f"{axiom} violated, witness {witness}")
        self.axiom = axiom
        self.witness = witness


class IndexPoset:
    """A cofinite directed poset, finite or the ω-tower.

    Finite regime stores element names and the full ≤ relation; the ω
    regime is the natural numbers with the usual order, truncated at a
    depth, a positive int: its elements are the levels 0, ..., depth - 1.
    The order facts (related pairs, covers, maximum and linear extension)
    are derived on first use and kept, since the value is immutable.
    """

    def __init__(self, regime, elements=(), leq=(), depth=DEFAULT_DEPTH):
        self.regime = regime
        if regime == OMEGA:
            if type(depth) is not int or depth < 1:
                raise MalformedError(
                    f"ω depth must be a positive integer, not {depth!r}")
            if depth > MAX_DEPTH:
                raise MalformedError(f"ω depth {depth} is above MAX_DEPTH = {MAX_DEPTH}")
            self.elements = tuple(range(depth))
            self._leq = frozenset()
            self.depth = depth
        elif regime == FINITE:
            self.elements = tuple(sorted(elements))
            self._leq = frozenset(leq)
            self.depth = None
        else:
            raise MalformedError(f"unknown regime {regime!r}")

    def leq(self, s, t):
        if self.regime == OMEGA:
            return int(s) <= int(t)
        return (s, t) in self._leq

    def lt(self, s, t):
        return s != t and self.leq(s, t)

    def read_level(self, text):
        """The element named by the level text *text* (from a command
        line or a certificate): in the ω regime a decimal numeral below
        the depth, read as an int; in the finite regime an element."""
        if self.regime == OMEGA:
            if isinstance(text, str) and text.isascii() and text.isdigit() \
                    and int(text) < self.depth:
                return int(text)
        elif isinstance(text, str) and text in self.elements:
            return text
        raise MalformedError(f"level {text!r} is not an element of {self!r}")

    @cached_property
    def _below(self):
        """Each element's strictly smaller elements, in element order."""
        return {t: tuple(s for s in self.elements if self.lt(s, t))
                for t in self.elements}

    @cached_property
    def pairs(self):
        """Related pairs (t, s) with s < t, t-major in element order."""
        if self.regime == OMEGA:
            raise UnsupportedRegimeError("related pairs of ω are not stored")
        return tuple((t, s) for t in self.elements for s in self._below[t])

    def predecessors(self, t):
        """Strictly smaller elements, sorted."""
        if self.regime == OMEGA:
            return tuple(range(int(t)))
        return self._below.get(t, ())

    def max_element(self):
        """The maximum; exists in every finite directed poset."""
        if self.regime == OMEGA:
            raise UnsupportedRegimeError("the ω-tower has no maximum")
        return self._max

    @cached_property
    def _max(self):
        for m in self.elements:
            if len(self._below[m]) == len(self.elements) - 1:
                return m
        raise AssertionError("validated directed finite poset lost its maximum")

    def covers(self):
        """Covering pairs (s, t) with s < t and nothing in between; in the
        ω regime the pairs (n, n + 1) below the depth."""
        return self._covers

    def lower_covers(self, t):
        """The elements that t covers, in element order."""
        if self.regime == OMEGA:
            return (t - 1,) if t > 0 else ()
        return tuple(s for s, u in self._covers if u == t)

    @cached_property
    def _covers(self):
        if self.regime == OMEGA:
            return tuple((n, n + 1) for n in range(self.depth - 1))
        below = self._below
        return tuple((s, t) for s in self.elements for t in self.elements
                     if s in below[t] and not any(s in below[u] for u in below[t]))

    @cached_property
    def _well_ordering(self):
        if self.regime == OMEGA:
            return WellOrdering(self, self.elements)
        remaining = set(self.elements)
        order = []
        while remaining:
            ready = [s for s in remaining
                     if not any(t in remaining for t in self._below[s])]
            if not ready:
                raise AssertionError("cycle in a validated poset")
            order.append(min(ready))
            remaining.remove(order[-1])
        return WellOrdering(self, tuple(order))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, IndexPoset):
            return False
        if self.regime != other.regime:
            return False
        return (self.depth == other.depth and self.elements == other.elements
                and self._leq == other._leq)

    def __hash__(self):
        return hash((self.regime, self.depth, self.elements, self._leq))

    def __repr__(self):
        if self.regime == OMEGA:
            return f"IndexPoset(omega, depth={self.depth})"
        return f"IndexPoset({list(self.elements)})"


def omega(depth=DEFAULT_DEPTH):
    return IndexPoset(OMEGA, depth=depth)


def index_violation(elements, leq):
    """First violated axiom with a witness, or None if valid."""
    elements = list(elements)
    leq = set(leq)
    if not elements:
        return ("non-empty", None)
    for x in elements:
        if (x, x) not in leq:
            return ("reflexive", x)
    for (s, t) in leq:
        if s not in elements or t not in elements:
            return ("carrier", (s, t))
    for (s, t) in leq:
        if s != t and (t, s) in leq:
            return ("antisymmetric", (s, t))
    for (s, t) in leq:
        for (t2, u) in leq:
            if t2 == t and (s, u) not in leq:
                return ("transitive", (s, t, u))
    for s in elements:
        for t in elements:
            if not any((s, u) in leq and (t, u) in leq for u in elements):
                return ("directed", (s, t))
    return None


def validate_index(elements, leq=None):
    """Validate a raw relation (or the literal "omega") into an IndexPoset.

    Raises IndexViolation carrying the first failed axiom and a witness.
    """
    if elements == OMEGA:
        return omega()
    bad = index_violation(elements, leq)
    if bad is not None:
        raise IndexViolation(*bad)
    return IndexPoset(FINITE, elements, leq)


def from_covers(elements, covers, depth=DEFAULT_DEPTH):
    """Build a poset from covering pairs (s, t) meaning s < t, closing
    reflexively and transitively, then validating."""
    if elements == OMEGA:
        return omega(depth)
    elements = list(elements)
    leq = {(x, x) for x in elements}
    leq |= {(s, t) for s, t in covers}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return validate_index(elements, leq)


def chain_poset(n):
    """The chain "0" < "1" < ... < "n-1"."""
    names = [str(i) for i in range(n)]
    leq = {(names[i], names[j]) for i in range(n) for j in range(i, n)}
    return IndexPoset(FINITE, names, leq)


def point_poset(name="pt"):
    return IndexPoset(FINITE, [name], {(name, name)})


@dataclass(frozen=True)
class WellOrdering:
    """An order-respecting bijection onto 0..n-1 (a linear extension)."""
    poset: IndexPoset
    order: tuple

    def position(self, s):
        return self.order.index(s)

    def __iter__(self):
        return iter(self.order)


def linear_extension(poset):
    """Deterministic linear extension: minimal elements first, ties broken
    by lexicographic element identifier; the levels in order for ω."""
    return poset._well_ordering
