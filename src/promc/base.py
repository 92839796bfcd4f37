"""
The instance protocol: what promc needs of a model category C.

Every construction on pro-C uses only C's composition, map classes,
factorizations and lifts, finite limits and colimits, and hom sets.
``Instance`` names these operations.  Every value carries its
implementation as ``.instance``, so the modules above this one dispatch
through the value they hold and never test which instance it is.

Two instances ship, each in one module: ``promc.setbij`` and
``promc.chainf2``.  Documents name them by the tags ``"set-bij"`` and
``"chain-f2"``, which ``instance_of`` resolves.  A further instance is
an object with the members of ``Instance`` and value classes derived
from ``BaseObject`` and ``BaseMap``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Protocol

from .errors import MalformedError, PreconditionError

COF_ACF = "cof-then-acyclicfib"
ACOF_FIB = "acycliccof-then-fib"


class BaseObject:
    """An object of ``.instance``; a subclass holds the payload."""

    __slots__ = ("instance",)

    def __eq__(self, other):
        return self is other or self.instance.obj_eq(self, other)

    def __hash__(self):
        return self.instance.obj_hash(self)


class BaseMap:
    """A map ``source -> target`` of ``.instance``; a subclass holds the
    payload.  ``BaseMap(source, target, ...)`` builds one of the source
    instance's ``map_class``."""

    __slots__ = ("instance", "source", "target")

    def __new__(cls, source, *args, **kw):
        if cls is BaseMap:
            cls = source.instance.map_class
        return object.__new__(cls)

    def __eq__(self, other):
        return self is other or self.instance.map_eq(self, other)

    def __hash__(self):
        return self.instance.map_hash(self)


@dataclass(frozen=True)
class MapClasses:
    is_we: bool
    is_cof: bool
    is_fib: bool


@dataclass(frozen=True)
class FactorizationPair:
    """left (cofibration) then right (fibration); mode declares which of
    the two is acyclic.  right ∘ left equals the factored map."""
    left: BaseMap
    right: BaseMap
    mode: str

    @property
    def middle(self):
        return self.left.target

    def composite(self):
        return compose(self.right, self.left)


class Instance(Protocol):
    """A proper model category with the finite structure promc uses.

    Members are looked up on the class, so attributes are class
    attributes or properties.  Maps handed to an operation come from
    the instance and compose where they must.
    """

    tag: str  # the external name in documents and certificates
    map_class: type  # what ``BaseMap(source, target, ...)`` builds
    exhaustive_homs: bool  # ``hom`` lists any set under a count cap; replay may enumerate
    sizes: dict  # generator sizes of the axiom suites
    small_sizes: dict  # smaller ones, where a suite builds towers
    # values
    def obj_eq(self, X, other) -> bool: ...
    def obj_hash(self, X) -> int: ...
    def map_eq(self, f, other) -> bool: ...
    def map_hash(self, f) -> int: ...
    # the category and its model structure
    def identity(self, X): ...
    def compose(self, g, f): ...  # g ∘ f; f.target == g.source holds
    def inverse(self, f): ...  # the inverse of an isomorphism, else None
    def classify(self, f) -> MapClasses: ...
    def factor(self, f, mode) -> FactorizationPair: ...  # mode is valid
    def lift(self, i, p, top, bottom): ...  # a commuting square; or None
    # finite limits and colimits, as cones from ``promc.baselim``
    def limit(self, diagram): ...
    def colimit(self, diagram): ...
    # hom sets and images
    def hom(self, X, Y) -> list: ...  # every map X -> Y
    def image(self, f) -> tuple: ...  # (image, corestriction, inclusion)
    def corestrict(self, f, incl): ...  # u with incl ∘ u == f, or None
    # documents: JSON-ready payloads
    def obj_to_doc(self, X): ...
    def obj_from_doc(self, doc): ...
    def map_to_doc(self, f): ...
    def map_from_doc(self, doc, source, target): ...
    def map_set_doc(self, maps): ...  # a set of maps, in a canonical order
    # seeded generators (``rng`` is a ``promc.suites.Rng``)
    def gen_object(self, rng, **sizes): ...
    def gen_map(self, rng, X, Y): ...
    def gen_square(self, rng, v_up, v_dn, tries): ...  # v_dn∘a == b∘v_up
    def gen_iso(self, rng, X, prefix): ...  # (X', alpha: X -> X' an iso)
    def gen_we_level_map(self, rng, X, prefix): ...  # a levelwise we onto X


def identity(obj):
    return obj.instance.identity(obj)


def compose(g, f):
    """g ∘ f."""
    if f.target != g.source:
        raise PreconditionError("non-composable maps")
    return f.instance.compose(g, f)


def inverse(f):
    """The inverse of f, or None when f is not an isomorphism."""
    return f.instance.inverse(f)


def classify_map(f):
    """Class flags {is_we, is_cof, is_fib} for a base map."""
    return f.instance.classify(f)


def factor_map(f, mode):
    """Factor f per *mode*: cofibration then acyclic fibration
    (``COF_ACF``) or acyclic cofibration then fibration (``ACOF_FIB``)."""
    if mode not in (COF_ACF, ACOF_FIB):
        raise PreconditionError(f"unknown factorization mode {mode!r}")
    return f.instance.factor(f, mode)


def _check_square(i, p, top, bottom):
    if not (i.source == top.source and i.target == bottom.source
            and p.source == top.target and p.target == bottom.target):
        raise PreconditionError("square corners do not line up")
    if compose(p, top) != compose(bottom, i):
        raise PreconditionError("square does not commute")


def solve_lift(i, p, top, bottom):
    """Diagonal filler h with h∘i = top and p∘h = bottom, or None.

    Guaranteed to find a lift when (i cofibration, p acyclic fibration)
    or (i acyclic cofibration, p fibration); deterministic.
    """
    _check_square(i, p, top, bottom)
    return i.instance.lift(i, p, top, bottom)


def instance_of(x):
    """The Instance named by the tag *x*.  An Instance passes through
    unchanged; anything else raises MalformedError."""
    if isinstance(x, str):
        for inst in SHIPPED:
            if x == inst.tag:
                return inst
    elif _implements(type(x)):
        return x
    raise MalformedError(f"unknown instance {x!r}")


@functools.cache
def _implements(cls):
    return all(hasattr(cls, name) for name in _MEMBERS)


_MEMBERS = tuple(sorted(set(Instance.__annotations__)
                        | {n for n in vars(Instance) if not n.startswith("_")}))


# The shipped instances import this module, so they come last; their
# tags and constructors are re-exported here.
from .chainf2 import (CHAIN_F2, chain_map, chain_obj,  # noqa: E402
                      zero_complex)
from .chainf2 import INSTANCE as _CHAINF2  # noqa: E402
from .setbij import SET_BIJ, set_map, set_obj  # noqa: E402
from .setbij import INSTANCE as _SETBIJ  # noqa: E402

SHIPPED = (_SETBIJ, _CHAINF2)  # in the order the axiom suites run them
