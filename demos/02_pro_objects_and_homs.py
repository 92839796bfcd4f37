#!/usr/bin/env python3
"""Pro-objects, the hom formula, levelization, and pro-isomorphisms.

The running example is the levelwise collapse over the chain 0 < 1:
X = ({a,b} -> {x}) mapping onto Y = ({u} -> {y}).  It is not a levelwise
isomorphism, but it carries an index-raising witness family, which is
what its isomorphism certificate records.
"""

from promc import (chain_poset, constant_embed, hom_pro, identity,
                   is_pro_iso, level_map, levelize, lim_functor,
                   omega_pro_object, pro_object, set_map, set_obj, to_general)

I = chain_poset(2)
X = pro_object(I, {"1": set_obj(["a", "b"]), "0": set_obj(["x"])},
               {("1", "0"): set_map(set_obj(["a", "b"]), set_obj(["x"]),
                                    {"a": "x", "b": "x"})})
Y = pro_object(I, {"1": set_obj(["u"]), "0": set_obj(["y"])},
               {("1", "0"): set_map(set_obj(["u"]), set_obj(["y"]),
                                    {"u": "y"})})
f = level_map(X, Y, {"1": set_map(X.value("1"), Y.value("1"),
                                  {"a": "u", "b": "u"}),
                     "0": set_map(X.value("0"), Y.value("0"), {"x": "y"})})

# hom sets collapse at the maxima in the finite regime
P = constant_embed(set_obj(["*"]))
print("hom(c*, Y) classes:", len(hom_pro(P, Y)))
print("hom(c*, X) classes:", len(hom_pro(P, X)))

# levelization of a GENERAL presentation goes through the maxima
lv = levelize(to_general(f))
print("levelized over:", list(lv.map.source.index.elements))
lv.source_cert.replay()

# the collapse is a pro-iso: the witness family u |-> x makes both
# triangle identities (= pro-hom composite-vs-identity checks) commute
cert = is_pro_iso(f)
print("collapse is a pro-iso:", cert is not None)
print("witness h_{1>0}:", cert.hfamily.get("1", "0").mapping)
cert.replay()

# limits: value at the maximum, or the stable image of an ω-tower
print("lim X =", lim_functor(X).value.elements)
two = set_obj(["0", "1"])
T = omega_pro_object(lambda n: two, lambda n: identity(two))
res = lim_functor(T)
print("lim of the identity 2-tower:", res.value.elements,
      "stabilized at depth", res.stabilized_at)

hs = hom_pro(omega_pro_object(lambda n: set_obj(["*"]),
                              lambda n: identity(set_obj(["*"]))), T)
print("hom(c*, 2-tower):", len(hs), "classes, stabilized at",
      hs.stabilized_at)
