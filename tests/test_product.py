"""A third instance, built here from the instance protocol and public
names only: the product A × B of two instances, with componentwise
values and classes.  A product of proper model categories is a proper
model category with componentwise weak equivalences, cofibrations and
fibrations (Hovey, *Model Categories*, 1999, §1.1), so the strict model
structure on its pro-category passes the same axiom suites.
"""

import json

import pytest

from promc.base import (CHAIN_F2, SET_BIJ, BaseMap, BaseObject,
                        FactorizationPair, MapClasses, classify_map, compose,
                        factor_map, identity, instance_of, inverse, solve_lift)
from promc.baselim import (ColimitCone, Cone, Diagram, LimitCone,
                           finite_colimit, finite_limit)
from promc.suites import Rng, suite_factorization, suite_lifting


class ProdObj(BaseObject):
    __slots__ = ("a", "b")

    def __init__(self, instance, a, b):
        self.instance, self.a, self.b = instance, a, b

    def __repr__(self):
        return f"({self.a!r}, {self.b!r})"


class ProdMap(BaseMap):
    __slots__ = ("a", "b")

    def __init__(self, source, target, a, b):
        self.instance = source.instance
        self.source, self.target, self.a, self.b = source, target, a, b

    def __repr__(self):
        return f"({self.a!r}, {self.b!r})"


class Product:
    """The instance A × B."""

    map_class = ProdMap

    def __init__(self, A, B):
        self.A, self.B = A, B

    def _pair(self, a, b):
        """The product of two component maps; None if either is None."""
        if a is None or b is None:
            return None
        return ProdMap(ProdObj(self, a.source, b.source),
                       ProdObj(self, a.target, b.target), a, b)

    @property
    def tag(self):
        return f"{self.A.tag}*{self.B.tag}"

    @property
    def exhaustive_homs(self):
        return self.A.exhaustive_homs and self.B.exhaustive_homs

    @property
    def sizes(self):
        return {**self.A.sizes, **self.B.sizes}

    @property
    def small_sizes(self):
        return {**self.A.small_sizes, **self.B.small_sizes}

    # ------------------------------------------------------------ values

    def obj_eq(self, X, other):
        return isinstance(other, ProdObj) and (X.a, X.b) == (other.a, other.b)

    def obj_hash(self, X):
        return hash((X.a, X.b))

    def map_eq(self, f, other):
        return isinstance(other, ProdMap) and (f.a, f.b) == (other.a, other.b)

    def map_hash(self, f):
        return hash((f.a, f.b))

    # --------------------------------- category and model structure

    def identity(self, X):
        return ProdMap(X, X, identity(X.a), identity(X.b))

    def compose(self, g, f):
        return ProdMap(f.source, g.target, compose(g.a, f.a), compose(g.b, f.b))

    def inverse(self, f):
        return self._pair(inverse(f.a), inverse(f.b))

    def classify(self, f):
        ca, cb = classify_map(f.a), classify_map(f.b)
        return MapClasses(is_we=ca.is_we and cb.is_we,
                          is_cof=ca.is_cof and cb.is_cof,
                          is_fib=ca.is_fib and cb.is_fib)

    def factor(self, f, mode):
        fa, fb = factor_map(f.a, mode), factor_map(f.b, mode)
        return FactorizationPair(left=self._pair(fa.left, fb.left),
                                 right=self._pair(fa.right, fb.right), mode=mode)

    def lift(self, i, p, top, bottom):
        return self._pair(solve_lift(i.a, p.a, top.a, bottom.a),
                          solve_lift(i.b, p.b, top.b, bottom.b))

    # ------------------------------------------------------------ limits

    def _cone(self, kind, diagram, build):
        """A (co)limit cone from the (co)limit cones of the two component
        diagrams."""
        parts = [Diagram({v: getattr(X, c) for v, X in diagram.nodes.items()},
                         [(s, t, getattr(f, c)) for s, t, f in diagram.edges])
                 for c in "ab"]
        cones = [build(d) for d in parts]
        apex = ProdObj(self, cones[0].apex, cones[1].apex)
        legs = {v: self._pair(cones[0].legs[v], cones[1].legs[v])
                for v in diagram.nodes}

        def factor(cone):
            return self._pair(*[
                c.mediate(Cone(d, getattr(cone.apex, x),
                               {v: getattr(m, x) for v, m in cone.legs.items()}))
                for c, d, x in zip(cones, parts, "ab")])

        return kind(diagram, apex, legs, factor)

    def limit(self, diagram):
        return self._cone(LimitCone, diagram, finite_limit)

    def colimit(self, diagram):
        return self._cone(ColimitCone, diagram, finite_colimit)

    # ---------------------------------------------------- homs and images

    def hom(self, X, Y):
        return [self._pair(fa, fb) for fa in self.A.hom(X.a, Y.a)
                for fb in self.B.hom(X.b, Y.b)]

    def image(self, f):
        (ia, ca, na), (ib, cb, nb) = self.A.image(f.a), self.B.image(f.b)
        return ProdObj(self, ia, ib), self._pair(ca, cb), self._pair(na, nb)

    def corestrict(self, f, incl):
        return self._pair(self.A.corestrict(f.a, incl.a),
                          self.B.corestrict(f.b, incl.b))

    # --------------------------------------------------------- documents

    def obj_to_doc(self, X):
        return [self.A.obj_to_doc(X.a), self.B.obj_to_doc(X.b)]

    def obj_from_doc(self, doc):
        return ProdObj(self, self.A.obj_from_doc(doc[0]),
                       self.B.obj_from_doc(doc[1]))

    def map_to_doc(self, f):
        return [self.A.map_to_doc(f.a), self.B.map_to_doc(f.b)]

    def map_from_doc(self, doc, source, target):
        return ProdMap(source, target,
                       self.A.map_from_doc(doc[0], source.a, target.a),
                       self.B.map_from_doc(doc[1], source.b, target.b))

    def map_set_doc(self, maps):
        return sorted((self.map_to_doc(m) for m in maps),
                      key=lambda d: json.dumps(d, sort_keys=True))

    # -------------------------------------------------------- generators

    def gen_object(self, rng, **sizes):
        return ProdObj(self, self.A.gen_object(rng, **sizes),
                       self.B.gen_object(rng, **sizes))

    def gen_map(self, rng, X, Y):
        return ProdMap(X, Y, self.A.gen_map(rng, X.a, Y.a),
                       self.B.gen_map(rng, X.b, Y.b))

    def gen_square(self, rng, v_up, v_dn, tries):
        (aa, ba) = self.A.gen_square(rng, v_up.a, v_dn.a, tries)
        (ab, bb) = self.B.gen_square(rng, v_up.b, v_dn.b, tries)
        return self._pair(aa, ab), self._pair(ba, bb)

    def gen_iso(self, rng, X, prefix):
        (Xa, ia), (Xb, ib) = (self.A.gen_iso(rng, X.a, prefix),
                              self.B.gen_iso(rng, X.b, prefix))
        return ProdObj(self, Xa, Xb), self._pair(ia, ib)

    def gen_we_level_map(self, rng, X, prefix):
        raise NotImplementedError("the suites run here never ask for one")


@pytest.fixture(scope="module")
def product():
    return Product(instance_of(SET_BIJ), instance_of(CHAIN_F2))


def test_product_passes_through_instance_of(product):
    assert instance_of(product) is product


def test_product_factorization_suite(product):
    rep = suite_factorization(product, trials=3, seed=0)
    assert rep.name == "factorization[set-bij*chain-f2]"
    assert rep.ok, rep.failures


def test_product_lifting_suite(product):
    rep = suite_lifting(product, trials=3, seed=1)
    assert rep.ok, rep.failures


def test_product_documents_round_trip(product):
    rng = Rng(5)
    X = product.gen_object(rng, **product.sizes)
    Y = product.gen_object(rng, **product.sizes)
    f = product.gen_map(rng, X, Y)
    X2, Y2 = (product.obj_from_doc(json.loads(json.dumps(product.obj_to_doc(Z))))
              for Z in (X, Y))
    assert X2 == X and Y2 == Y
    assert product.map_from_doc(json.loads(json.dumps(product.map_to_doc(f))),
                                X2, Y2) == f
    assert compose(identity(Y), f) == f
