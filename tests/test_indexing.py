import itertools

import pytest

from promc.errors import MalformedError, UnsupportedRegimeError
from promc.indexing import (MAX_DEPTH, IndexViolation, chain_poset, from_covers,
                            index_violation, linear_extension, omega,
                            point_poset, validate_index)


def closure(elements, pairs):
    leq = {(x, x) for x in elements} | set(pairs)
    done = False
    while not done:
        done = True
        for (a, b), (c, d) in itertools.product(list(leq), repeat=2):
            if b == c and (a, d) not in leq:
                leq.add((a, d))
                done = False
    return leq


def test_no_upper_bound_violation():
    els = ["a", "b"]
    with pytest.raises(IndexViolation) as e:
        validate_index(els, {("a", "a"), ("b", "b")})
    assert e.value.axiom == "directed"
    assert set(e.value.witness) == {"a", "b"}


def test_chain_valid():
    p = validate_index(["0", "1", "2"], closure("012", [("0", "1"), ("1", "2")]))
    assert p.max_element() == "2"
    assert p.predecessors("2") == ("0", "1")


def test_v_poset_directedness_violation():
    els = ["a", "b", "c"]
    with pytest.raises(IndexViolation) as e:
        validate_index(els, closure(els, [("c", "a"), ("c", "b")]))
    assert e.value.axiom == "directed"
    assert set(e.value.witness) == {"a", "b"}


def test_empty_carrier():
    assert index_violation([], set()) == ("non-empty", None)


def test_brute_force_axiom_agreement():
    # every relation on <= 3 points: validate_index accepts exactly the
    # reflexive antisymmetric transitive directed ones
    els = ["a", "b", "c"]
    pairs = [(x, y) for x in els for y in els]
    for bits in range(2 ** len(pairs)):
        rel = {p for i, p in enumerate(pairs) if bits >> i & 1}
        naive_ok = (
            all((x, x) in rel for x in els)
            and not any((x, y) in rel and (y, x) in rel and x != y
                        for x in els for y in els)
            and all((x, z) in rel
                    for x in els for y in els for z in els
                    if (x, y) in rel and (y, z) in rel)
            and all(any((x, u) in rel and (y, u) in rel for u in els)
                    for x in els for y in els))
        assert (index_violation(els, rel) is None) == naive_ok, rel


def test_linear_extension_chain():
    p = chain_poset(2)
    w = linear_extension(p)
    assert w.order == ("0", "1")


def test_linear_extension_diamond_tiebreak():
    p = from_covers(["0", "a", "b", "2"],
                    [("0", "a"), ("0", "b"), ("a", "2"), ("b", "2")])
    w = linear_extension(p)
    assert w.order == ("0", "a", "b", "2")


def test_linear_extension_single():
    assert linear_extension(point_poset()).order == ("pt",)


def test_linear_extension_respects_order_all_small_posets():
    import random
    rnd = random.Random(0)
    for _ in range(50):
        n = rnd.randint(1, 5)
        els = [f"e{i}" for i in range(n)]
        covers = [(els[i], els[j]) for i in range(n) for j in range(i + 1, n)
                  if rnd.random() < 0.4]
        covers += [(els[i], els[-1]) for i in range(n - 1)]  # force a top
        p = from_covers(els, covers)
        w = linear_extension(p)
        for s in p.elements:
            for t in p.elements:
                if p.leq(t, s):
                    assert w.position(s) >= w.position(t)


def test_max_element_brute_force():
    p = from_covers(["x", "y", "top"], [("x", "top"), ("y", "top")])
    assert p.max_element() == "top"
    brute = [m for m in p.elements if all(p.leq(s, m) for s in p.elements)]
    assert brute == ["top"]


def test_omega_regime():
    w = omega()
    assert w.leq(3, 7)
    assert w.predecessors(3) == (0, 1, 2)
    with pytest.raises(UnsupportedRegimeError):
        w.max_element()
    assert w.elements == tuple(range(16))
    assert linear_extension(w).order == w.elements


@pytest.mark.parametrize("depth", [0, -1, True, 2.5, "5", None])
def test_omega_depth_is_a_positive_int(depth):
    with pytest.raises(MalformedError, match="positive integer"):
        omega(depth)


def test_omega_depth_is_at_most_max_depth():
    assert omega(MAX_DEPTH).elements[-1] == MAX_DEPTH - 1
    with pytest.raises(MalformedError, match="MAX_DEPTH"):
        omega(MAX_DEPTH + 1)


def test_omega_depth_owned_by_the_index():
    assert omega(8) == omega(8) and hash(omega(8)) == hash(omega(8))
    assert omega(8) != omega(9)
    assert omega(4).elements == (0, 1, 2, 3)
    assert omega(4).covers() == ((0, 1), (1, 2), (2, 3))
    assert omega(1).covers() == ()
