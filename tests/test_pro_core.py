import hashlib
import itertools
import json
import random

import pytest

from promc.base import compose, identity, set_map, set_obj
from promc.errors import (DepthExhaustedError, MalformedError, PreconditionError,
                          UnsupportedRegimeError)
from promc.indexing import chain_poset, from_covers, omega, point_poset
from promc.prohom import (HFamily, IsoCertificate, Levelization, ProDiagram,
                          constant_embed, enumerate_base_maps, hom_pro,
                          is_pro_iso, levelize, lim_functor,
                          pro_colimit_levelwise, pro_limit_levelwise,
                          spread_from_max)
from promc.proobj import (GENERAL, LEVEL, compose_pro, constant_over,
                          general_map, identity_pro, level_map,
                          omega_pro_object, pro_object, to_general)
from promc.suites import (POSET_SHAPES, Rng, brute_force_hom, gen_level_map,
                          gen_pro_object, hom_oracle_family)


# --------------------------------------------------------------- fixtures

def collapse_pair():
    """The worked chain 0<1 example: X = ({a,b} -> {x}), Y = ({u} -> {y}),
    f the levelwise collapse."""
    I = chain_poset(2)
    X = pro_object(I, {"1": set_obj(["a", "b"]), "0": set_obj(["x"])},
                   {("1", "0"): set_map(set_obj(["a", "b"]), set_obj(["x"]),
                                        {"a": "x", "b": "x"})})
    Y = pro_object(I, {"1": set_obj(["u"]), "0": set_obj(["y"])},
                   {("1", "0"): set_map(set_obj(["u"]), set_obj(["y"]),
                                        {"u": "y"})})
    f = level_map(X, Y, {
        "1": set_map(X.value("1"), Y.value("1"), {"a": "u", "b": "u"}),
        "0": set_map(X.value("0"), Y.value("0"), {"x": "y"}),
    })
    return X, Y, f


def two_tower(depth=16):
    """ω-tower of {0,1} with identity structure maps."""
    two = set_obj(["0", "1"])
    return omega_pro_object(lambda n: two, lambda n: identity(two), depth=depth)


# ------------------------------------------------------------ pro-objects

def test_functoriality_enforced():
    I = from_covers(["0", "a", "b", "2"],
                    [("0", "a"), ("0", "b"), ("a", "2"), ("b", "2")])
    V = {s: set_obj(["p", "q"]) for s in I.elements}
    swap = set_map(V["2"], V["a"], {"p": "q", "q": "p"})
    ident = lambda s, t: set_map(V[s], V[t], {"p": "p", "q": "q"})
    with pytest.raises(MalformedError):
        pro_object(I, V, {("2", "a"): swap, ("2", "b"): ident("2", "b"),
                          ("a", "0"): ident("a", "0"), ("b", "0"): ident("b", "0"),
                          ("2", "0"): ident("2", "0")})


def test_missing_cover_rejected():
    I = chain_poset(2)
    V = {"0": set_obj(["x"]), "1": set_obj(["y"])}
    with pytest.raises(MalformedError):
        pro_object(I, V, {})


@pytest.mark.parametrize("key", [("0", "1"), ("1", "z"), ("1", "1")],
                         ids=["unrelated", "unknown", "reflexive-swap"])
def test_structure_maps_off_the_order_rejected(key):
    I = chain_poset(2)
    V = {"0": set_obj(["p", "q"]), "1": set_obj(["p", "q"])}
    swap = set_map(V["1"], V["0"], {"p": "q", "q": "p"})
    with pytest.raises(MalformedError, match="identity" if key[0] == key[1] else key[1]):
        pro_object(I, V, {("1", "0"): swap, key: swap})


@pytest.mark.parametrize("shape", sorted(POSET_SHAPES))
@pytest.mark.parametrize("given", ["covers", "pairs"])
def test_closure_composes_once_per_strict_triple(monkeypatch, shape, given):
    from promc import proobj
    I = from_covers(*POSET_SHAPES[shape])
    X = gen_pro_object(Rng(3), I, "set-bij", max_size=2)
    keys = I.pairs if given == "pairs" else [(t, s) for s, t in I.covers()]
    structs = {key: X.struct(*key) for key in keys}
    calls = []
    monkeypatch.setattr(proobj, "compose", lambda g, f: calls.append(1) or compose(g, f))
    Y = pro_object(I, {s: X.value(s) for s in I.elements}, structs)
    Y.validate()
    triples = sum(1 for t, u in I.pairs for s in I.predecessors(u))
    assert len(calls) == 2 * triples
    assert Y == X


@pytest.mark.parametrize("shape", [*sorted(POSET_SHAPES), "omega"])
def test_level_validate_composes_twice_per_cover(monkeypatch, shape):
    from promc import proobj
    if shape == "omega":
        f = identity_pro(two_tower(depth=6))
    else:
        f = gen_level_map(Rng(5), from_covers(*POSET_SHAPES[shape]), "set-bij",
                          max_size=2)
    calls = []
    monkeypatch.setattr(proobj, "compose", lambda g, f: calls.append(1) or compose(g, f))
    f.validate()
    assert len(calls) == 2 * len(f.source.index.covers())


def test_level_map_needs_one_depth():
    with pytest.raises(MalformedError, match="shared index"):
        level_map(two_tower(depth=6), two_tower(depth=8), lambda n: identity(
            set_obj(["0", "1"])))


def test_level_naturality_enforced():
    I = chain_poset(2)
    two_top, two_bot = set_obj(["a", "b"]), set_obj(["x", "y"])
    Xp = pro_object(I, {"1": two_top, "0": two_bot},
                    {("1", "0"): set_map(two_top, two_bot, {"a": "x", "b": "y"})})
    with pytest.raises(MalformedError):
        level_map(Xp, Xp, {
            "1": set_map(two_top, two_top, {"a": "b", "b": "a"}),
            "0": set_map(two_bot, two_bot, {"x": "x", "y": "y"}),
        })


def test_general_compatibility_enforced():
    X, Y, _ = collapse_pair()
    # component at 0 disagrees with the restriction of the component at 1
    bad = {"1": ("1", set_map(X.value("1"), Y.value("1"), {"a": "u", "b": "u"})),
           "0": ("0", set_map(X.value("0"), Y.value("0"), {"x": "y"}))}
    general_map(X, Y, bad)  # this one is fine
    Z = pro_object(chain_poset(2),
                   {"1": set_obj(["p", "q"]), "0": set_obj(["r", "s"])},
                   {("1", "0"): set_map(set_obj(["p", "q"]), set_obj(["r", "s"]),
                                        {"p": "r", "q": "s"})})
    bad2 = {"1": ("1", set_map(X.value("1"), Z.value("1"), {"a": "p", "b": "p"})),
            "0": ("1", set_map(X.value("1"), Z.value("0"), {"a": "s", "b": "s"}))}
    with pytest.raises(MalformedError):
        general_map(X, Z, bad2)


def test_omega_struct_composition():
    Y = two_tower()
    assert Y.struct(5, 2) == identity(set_obj(["0", "1"]))


def test_omega_struct_equals_the_composite_of_its_steps():
    three = set_obj(["a", "b", "c"])
    steps = [set_map(three, three, dict(zip("abc", img)))
             for img in ("bca", "aab", "cab", "bac", "abc")]
    Y = omega_pro_object(lambda n: three, lambda n: steps[n % 5], depth=12)
    pairs = [(t, s) for t in range(12) for s in range(t + 1)]
    random.Random(0).shuffle(pairs)
    for t, s in pairs:
        m = identity(three)
        for n in range(s, t):
            m = compose(m, steps[n % 5])
        assert Y.struct(t, s) == m


def test_omega_structure_maps_are_checked_against_the_covers():
    two = set_obj(["0", "1"])
    swap = set_map(two, two, {"0": "1", "1": "0"})
    values = {n: two for n in range(4)}
    covers = {(n + 1, n): swap for n in range(3)}
    Y = pro_object(omega(4), values, {**covers, (3, 1): identity(two)})
    assert Y.struct(3, 0) == swap
    with pytest.raises(MalformedError, match="functoriality fails on 3 >= 2 >= 0"):
        pro_object(omega(4), values, {**covers, (3, 0): identity(two)})
    del covers[(2, 1)]
    with pytest.raises(MalformedError, match="missing structure map for cover 2->1"):
        pro_object(omega(4), values, covers)


def test_omega_struct_keeps_a_line_of_maps_per_row_or_column(monkeypatch):
    """Every map into level 0 and every map out of the top level, the two
    sweeps of the ω hom and limit, compose once per level."""
    from promc import proobj
    d = 64
    Y = two_tower(depth=d)
    calls = []
    monkeypatch.setattr(proobj, "compose", lambda g, f: calls.append(1) or compose(g, f))
    for s in range(d):
        Y.struct(d - 1, s)
    for t in range(d):
        Y.struct(t, 0)
    assert len(calls) <= 2 * d


# ---------------------------------------------------------------- hom_pro

def test_hom_constant_singletons():
    P = constant_embed(set_obj(["*"]))
    hs = hom_pro(P, P)
    assert len(hs) == 1


def test_hom_collapse_worked_example():
    P = constant_embed(set_obj(["*"]))
    I = chain_poset(2)
    Y = pro_object(I, {"1": set_obj(["a", "b"]), "0": set_obj(["x"])},
                   {("1", "0"): set_map(set_obj(["a", "b"]), set_obj(["x"]),
                                        {"a": "x", "b": "x"})})
    hs = hom_pro(P, Y)
    assert len(hs) == 2


def test_hom_omega_two_tower():
    P = omega_pro_object(lambda n: set_obj(["*"]),
                         lambda n: identity(set_obj(["*"])), depth=16)
    Y = two_tower(depth=16)
    hs = hom_pro(P, Y)
    assert len(hs) == 2
    assert hs.stabilized_at == 1



def test_hom_between_omega_depths_is_refused():
    """Each ω depth is its own index; hom once evaluated the shallower
    object past its depth."""
    with pytest.raises(UnsupportedRegimeError):
        hom_pro(two_tower(depth=4), two_tower(depth=8))
    with pytest.raises(UnsupportedRegimeError):
        hom_pro(constant_embed(set_obj(["*"])), two_tower(depth=4))

def test_hom_composition_associative():
    # GENERAL composition (refinement chasing) is associative on samples
    X, Y, f = collapse_pair()
    g = to_general(f)
    idX, idY = to_general(identity_pro(X)), to_general(identity_pro(Y))
    lhs = compose_pro(idY, compose_pro(g, idX))
    rhs = compose_pro(compose_pro(idY, g), idX)
    assert lhs.equals(rhs)


# --------------------------------------------------------------- levelize

def test_levelize_level_passthrough():
    X, Y, f = collapse_pair()
    lv = levelize(f)
    assert lv.map is f
    lv.source_cert.replay()


def test_levelize_finite_general():
    X, Y, f = collapse_pair()
    g = to_general(f)
    lv = levelize(g)
    assert lv.map.kind == LEVEL
    assert sorted(lv.map.source.index.elements) == ["0", "1"]
    lv.source_cert.replay()
    lv.target_cert.replay()
    # the levelized map realizes to the same base map at the maxima
    assert lv.map.realize("1") == set_map(X.value("1"), Y.value("1"),
                                          {"a": "u", "b": "u"})


def test_levelize_omega_diagonal():
    P = omega_pro_object(lambda n: set_obj(["*"]),
                         lambda n: identity(set_obj(["*"])), depth=8)
    Y = two_tower(depth=8)
    g = general_map(P, Y, lambda n: (0, set_map(set_obj(["*"]), Y.value(n),
                                                {"*": "0"})))
    lv = levelize(g)
    assert lv.map.kind == LEVEL
    # the reindexing T is non-decreasing with T[n] >= n, hence cofinal
    T = [lv.source_cert.forward.component(n)[0] for n in range(8)]
    assert T == sorted(T) and all(t >= n for n, t in enumerate(T))
    lv.source_cert.replay()


# -------------------------------------------------------------- is_pro_iso

def test_is_pro_iso_identity():
    X, _, _ = collapse_pair()
    cert = is_pro_iso(identity_pro(X))
    assert cert is not None
    assert cert.backward is not None
    cert.replay()


def test_is_pro_iso_worked_collapse():
    X, Y, f = collapse_pair()
    cert = is_pro_iso(f)
    assert cert is not None
    assert cert.hfamily is not None
    h = cert.hfamily.get("1", "0")
    assert h == set_map(Y.value("1"), X.value("0"), {"u": "x"})
    cert.replay()


def test_is_pro_iso_absent_when_no_equalizer():
    I = chain_poset(2)
    X = pro_object(I, {"1": set_obj(["a", "b"]), "0": set_obj(["x", "y"])},
                   {("1", "0"): set_map(set_obj(["a", "b"]), set_obj(["x", "y"]),
                                        {"a": "x", "b": "y"})})
    Y = pro_object(I, {"1": set_obj(["u"]), "0": set_obj(["v"])},
                   {("1", "0"): set_map(set_obj(["u"]), set_obj(["v"]),
                                        {"u": "v"})})
    f = level_map(X, Y, {"1": set_map(X.value("1"), Y.value("1"),
                                      {"a": "u", "b": "u"}),
                         "0": set_map(X.value("0"), Y.value("0"),
                                      {"x": "v", "y": "v"})})
    assert is_pro_iso(f) is None


def test_is_pro_iso_candidate_rejected_when_wrong():
    X, Y, f = collapse_pair()
    wrong = HFamily({("1", "0"): set_map(Y.value("1"), X.value("0"), {"u": "x"})})
    cert = is_pro_iso(f, candidate_inverse=wrong)
    assert cert is not None  # this family happens to be the right one
    from promc.errors import VerificationFailure
    bad = HFamily({})
    with pytest.raises(VerificationFailure):
        is_pro_iso(f, candidate_inverse=bad)


# ------------------------------------------------------ levelwise limits

def test_pro_limit_single_object():
    X, _, _ = collapse_pair()
    pd = ProDiagram(X.index, {"v": X}, [])
    res = pro_limit_levelwise(pd)
    for s in X.index.elements:
        assert len(res.apex.value(s).elements) == len(X.value(s).elements)


def test_levelwise_limit_and_colimit_share_one_body_over_omega():
    """Both regimes store a pro-object alike, so an ω diagram takes the
    finite path: a (co)limit per level and the induced cover maps."""
    two = set_obj(["0", "1"])
    swap = set_map(two, two, {"0": "1", "1": "0"})
    Y = omega_pro_object(lambda n: two, lambda n: swap, depth=5)
    pd = ProDiagram(Y.index, {"a": Y, "b": Y}, [])
    prod, coprod = pro_limit_levelwise(pd), pro_colimit_levelwise(pd)
    for res in (prod, coprod):
        assert [len(res.apex.value(n).elements) for n in range(5)] == [4] * 5
    for n in range(4):
        a = prod.legs["a"].level_component
        assert compose(Y.struct(n + 1, n), a(n + 1)) == \
            compose(a(n), prod.apex.struct(n + 1, n))


def test_pro_limit_constant_pullback_is_constant():
    A = set_obj(["a1", "a2"])
    B = set_obj(["b"])
    I = chain_poset(2)
    cA, cB = constant_over(I, A), constant_over(I, B)
    f = level_map(cA, cB, {s: set_map(A, B, {"a1": "b", "a2": "b"})
                           for s in I.elements})
    pd = ProDiagram(I, {"x": cA, "y": cA, "z": cB},
                    [("x", "z", f), ("y", "z", f)])
    res = pro_limit_levelwise(pd)
    assert len(res.apex.value("0").elements) == 4
    assert res.apex.struct("1", "0") == identity(res.apex.value("1"))


def test_pro_limit_levelwise_matches_base_per_level():
    X, Y, f = collapse_pair()
    pd = ProDiagram(X.index, {"x": X, "y": Y}, [("x", "y", f)])
    res = pro_limit_levelwise(pd)
    from promc.baselim import Diagram, finite_limit
    for s in X.index.elements:
        base = finite_limit(pd.level_diagram(s))
        assert len(base.apex.elements) == len(res.apex.value(s).elements)
    for v, leg in res.legs.items():
        assert leg.kind == LEVEL


def test_pro_limit_requires_shared_level():
    X, Y, f = collapse_pair()
    g = to_general(f)
    with pytest.raises(PreconditionError):
        ProDiagram(X.index, {"x": X, "y": Y}, [("x", "y", g)])


# ----------------------------------------------------- constants and lim

def test_lim_of_constant_is_unit():
    X = set_obj(["p", "q"])
    assert lim_functor(constant_embed(X)).value == X


def test_lim_finite_chain_is_max_value():
    X, _, _ = collapse_pair()
    assert lim_functor(X).value == X.value("1")


def test_lim_omega_two_tower():
    Y = two_tower(depth=16)
    res = lim_functor(Y)
    assert res.value == set_obj(["0", "1"])
    assert res.stabilized_at == 1


def test_lim_omega_collapsing_tower():
    # eventually-constant image: {a,b} with both mapped to a at every step
    two = set_obj(["a", "b"])
    Y = omega_pro_object(lambda n: two,
                         lambda n: set_map(two, two, {"a": "a", "b": "a"}),
                         depth=12)
    res = lim_functor(Y)
    assert res.value == set_obj(["a"])
    assert res.stabilized_at is not None


def test_lim_omega_unstable_reported():
    # strictly shrinking images up to the depth: never stabilizes
    def val(n):
        return set_obj([f"e{i}" for i in range(20 - n)])

    def step(n):
        up, dn = val(n + 1), val(n)
        return set_map(up, dn, {e: e for e in up.elements})

    Y = omega_pro_object(val, step, depth=8)
    res = lim_functor(Y)
    assert res.stabilized_at is None


# ------------------------------------------------------ brute-force oracle


def _pairwise_classes(X, Y, s):
    """Germ pairs (t, g: X_t -> Y_s) and union-find roots, joined by an
    all-pairs scan: (t, g) ~ (u, h) when t < u and h = g . X(u -> t)."""
    J = X.index
    items = [(t, g) for t in J.elements
             for g in enumerate_base_maps(X.value(t), Y.value(s))]
    parent = list(range(len(items)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, (t, g) in enumerate(items):
        for b, (u, h) in enumerate(items):
            if J.lt(t, u) and h == compose(g, X.struct(u, t)):
                ra, rb = find(a), find(b)
                parent[max(ra, rb)] = min(ra, rb)
    return items, [find(a) for a in range(len(items))]


def _pairwise_hom(X, Y):
    """lim_s colim_t Hom(X_t, Y_s) with list scans: one thread per class
    at the maximum whose images agree along every transition of Y."""
    I = Y.index
    classes = {s: _pairwise_classes(X, Y, s) for s in I.elements}

    def root(s, t, g):
        items, roots = classes[s]
        return roots[items.index((t, g))]

    N = I.max_element()
    items_N, roots_N = classes[N]
    threads = []
    for r in sorted(set(roots_N)):
        t, g = items_N[r]
        thread = {s: root(s, t, compose(Y.struct(N, s), g)) for s in I.elements}
        if all(root(s1, *_rep(classes[s2], thread[s2], Y.struct(s2, s1)))
               == thread[s1]
               for s2 in I.elements for s1 in I.elements if I.lt(s1, s2)):
            threads.append(thread)
    return threads


def _rep(cls, idx, down):
    t, g = cls[0][idx]
    return t, compose(down, g)


def test_brute_force_hom_matches_pairwise_reference():
    family = hom_oracle_family()
    pairs = random.Random(5).sample(range(len(family) ** 2), 150)
    sizes = set()
    for k in pairs:
        X, Y = family[k // len(family)], family[k % len(family)]
        threads = brute_force_hom(X, Y)
        assert threads == _pairwise_hom(X, Y), (repr(X), repr(Y))
        sizes.add(len(threads))
    assert len(sizes) >= 5  # homs of many sizes, not only singletons


# Recorded from the SetMap oracle, before germs became image tuples.
ORACLE_DIGEST = "7c34f2ff57905e2f5468e248fa4b101653a57eb15b5e735c5d379f1992f3b72e"


def test_brute_force_hom_threads_are_pinned_on_every_family_pair():
    """One sha256 over json.dumps(threads, sort_keys=True) of every pair
    of the family, X-major: each thread names the same class roots."""
    family = hom_oracle_family()
    digest = hashlib.sha256()
    for X in family:
        for Y in family:
            digest.update(json.dumps(brute_force_hom(X, Y), sort_keys=True).encode())
    assert len(family) ** 2 == 16641
    assert digest.hexdigest() == ORACLE_DIGEST
