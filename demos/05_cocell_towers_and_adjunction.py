#!/usr/bin/env python3
"""Cocell towers: a special acyclic fibration as an iterated base change
of constant class maps, the round trip back through the tower limit, and
the constant/limit adjunction."""

from promc import (ACYCLIC_FIB, adjunction_check, build_cocell_tower,
                   chain_poset, detect_special, identity, level_map,
                   omega_constant_tower, omega_pro_object, pro_object,
                   set_map, set_obj, tower_limit)

I = chain_poset(2)
X = pro_object(I, {"1": set_obj(["a", "b"]), "0": set_obj(["x"])},
               {("1", "0"): set_map(set_obj(["a", "b"]), set_obj(["x"]),
                                    {"a": "x", "b": "x"})})
Y = pro_object(I, {"1": set_obj(["u", "v"]), "0": set_obj(["y"])},
               {("1", "0"): set_map(set_obj(["u", "v"]), set_obj(["y"]),
                                    {"u": "y", "v": "y"})})
p = level_map(X, Y, {"1": set_map(X.value("1"), Y.value("1"),
                                  {"a": "u", "b": "v"}),
                     "0": set_map(X.value("0"), Y.value("0"), {"x": "y"})})

sp = detect_special(p, ACYCLIC_FIB)
tower = build_cocell_tower(p, special=sp)
print("stages:", tower.length)
for k, st in enumerate(tower.stages):
    print(f"  stage {k}: attach at level {st.level} =",
          st.attach.mapping, "->", st.attach_class)
tower.replay_base_changes()

tl = tower_limit(tower)
print("tower limit:", tl.apex.value("pt").elements)
tl.iso_cert.replay()
print("limit certified isomorphic to the source; projection equals p")

# an ω-tower of constants, stored directly
two = set_obj(["0", "1"])
wt = omega_constant_tower(lambda n: two, lambda n: identity(two), depth=8)
print("ω tower limit at level 5:", tower_limit(wt).apex.value(5).elements)

# the adjunction c ⊣ lim, finite and ω
w = adjunction_check(set_obj(["*"]), X)
print("hom(c*, X) <-> Hom(*, lim X):", w.left_size, "=", w.right_size)
T = omega_pro_object(lambda n: two, lambda n: identity(two))
w2 = adjunction_check(set_obj(["*"]), T)
print("ω: both sides", w2.left_size, "- stabilized at", w2.stabilized_at)
