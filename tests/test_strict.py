import hashlib
import json
import os

import pytest

from promc import strict
from promc.base import (classify_map, compose, identity, set_map, set_obj,
                        chain_map, zero_complex)
from promc.chainf2 import ChainF2, ChainMap
from promc.docio import Document
from promc.errors import PreconditionError, VerificationFailure
from promc.indexing import chain_poset, from_covers, point_poset
from promc.prohom import constant_embed
from promc.proobj import (compose_pro, constant_over, identity_pro, level_map,
                          pro_object, to_general)
from promc.strict import (ACYCLIC_FIB, FIB, MODE_L1, MODE_L2, detect_special,
                          factor_strict, lift_strict, matching_map, square_failure)
from promc.suites import POSET_SHAPES, Rng, gen_level_map, gen_poset, gen_pro_object

from helpers import disk1, disk_to_sphere, sphere0

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def detect_example_pair():
    """Chain 0<1 with bijective M_1 f and bijective f_0 (the worked
    special acyclic fibration)."""
    I = chain_poset(2)
    X = pro_object(I, {"1": set_obj(["a", "b"]), "0": set_obj(["x"])},
                   {("1", "0"): set_map(set_obj(["a", "b"]), set_obj(["x"]),
                                        {"a": "x", "b": "x"})})
    Y = pro_object(I, {"1": set_obj(["u", "v"]), "0": set_obj(["y"])},
                   {("1", "0"): set_map(set_obj(["u", "v"]), set_obj(["y"]),
                                        {"u": "y", "v": "y"})})
    f = level_map(X, Y, {
        "1": set_map(X.value("1"), Y.value("1"), {"a": "u", "b": "v"}),
        "0": set_map(X.value("0"), Y.value("0"), {"x": "y"}),
    })
    return X, Y, f


# ------------------------------------------------------------- matching

def test_matching_minimal_is_component():
    X, Y, f = detect_example_pair()
    m = matching_map(f, "0")
    assert m.map == f.level_component("0")
    assert m.cone is None


def test_matching_worked_pullback():
    X, Y, f = detect_example_pair()
    m = matching_map(f, "1")
    assert sorted(m.map.target.elements) == ["(x,u)", "(x,v)"]
    assert m.map.mapping == {"a": "(x,u)", "b": "(x,v)"}
    assert classify_map(m.map).is_we


def test_matching_identity_is_iso():
    rng = Rng(5)
    X = gen_pro_object(rng, chain_poset(3), "set-bij")
    f = identity_pro(X)
    for t in X.index.elements:
        cls = classify_map(matching_map(f, t).map)
        assert cls.is_we  # M_t(id) is an isomorphism


# -------------------------------------------------------- detect_special

def test_detect_special_identity():
    rng = Rng(6)
    X = gen_pro_object(rng, chain_poset(2), "chain-f2")
    res = detect_special(identity_pro(X), ACYCLIC_FIB)
    assert res.ok


def test_detect_special_worked_example():
    _, _, f = detect_example_pair()
    assert detect_special(f, ACYCLIC_FIB).ok


def test_detect_special_disk_failing_level():
    # level map over chain 0<1 with M_1 f = D1 -> S0: a special fibration
    # but not a special acyclic fibration, failing at level 1
    I = chain_poset(2)
    D, S = disk1(), sphere0()
    X = pro_object(I, {"1": D, "0": S},
                   {("1", "0"): disk_to_sphere()})
    Y = constant_over(I, S)
    f = level_map(X, Y, {"1": disk_to_sphere(), "0": identity(S)})
    m = matching_map(f, "1")
    cls = classify_map(m.map)
    assert cls.is_fib and not cls.is_we
    assert detect_special(f, FIB).ok
    res = detect_special(f, ACYCLIC_FIB)
    assert not res.ok and res.failing == "1"


# -------------------------------------------------------- factor_strict

def test_factor_constant_is_base_factorization():
    S = sphere0()
    cS = constant_embed(zero_complex())
    cT = constant_embed(S)
    f = level_map(cS, cT, {"pt": chain_map(zero_complex(), S, {})})
    fs = factor_strict(f, MODE_L1)
    from promc.base import COF_ACF, factor_map
    base = factor_map(f.level_component("pt"), COF_ACF)
    assert fs.middle.value("pt") == base.middle
    assert fs.left.level_component("pt") == base.left
    assert fs.right.level_component("pt") == base.right


def test_factor_worked_collapse_L1():
    from helpers import collapse_triple
    X, Y, f = collapse_triple()
    fs = factor_strict(f, MODE_L1)
    assert fs.special.ok
    for s, cls in fs.special.verdicts.items():
        assert cls.is_we and cls.is_fib


def test_factor_modes_on_random_level_maps():
    rng = Rng(77)
    for k in range(6):
        for inst in ("set-bij", "chain-f2"):
            f = gen_level_map(rng, chain_poset(3), inst,
                              max_size=3, max_deg=1, max_dim=2)
            for mode in (MODE_L1, MODE_L2):
                fs = factor_strict(f, mode)
                fs.replay_composite()
                assert fs.special.ok


def test_factor_requires_level():
    rng = Rng(9)
    f = gen_level_map(rng, chain_poset(2), "set-bij")
    with pytest.raises(PreconditionError):
        factor_strict(to_general(f), MODE_L1)


def test_factor_omega_truncated():
    two = set_obj(["p", "q"])
    one = set_obj(["z"])
    from promc.proobj import omega_pro_object
    X = omega_pro_object(lambda n: two, lambda n: identity(two), depth=6)
    Y = omega_pro_object(lambda n: one, lambda n: identity(one), depth=6)
    f = level_map(X, Y, lambda n: set_map(two, one, {"p": "z", "q": "z"}),
                  check=False)
    fs = factor_strict(f, MODE_L1)
    assert fs.special.ok
    assert fs.depth == 6


# ----------------------------------------------------------- lift_strict

def test_lift_identity_left():
    X, Y, f = detect_example_pair()
    sp = detect_special(f, ACYCLIC_FIB)
    res = lift_strict(identity_pro(X), f, identity_pro(X), f,
                      mode=MODE_L1, special=sp)
    assert compose_pro(res.lift, identity_pro(X)).equals(identity_pro(X))
    assert compose_pro(f, res.lift).equals(f)


def test_lift_worked_inclusion():
    # i: c({a}) -> c({a,b}) against the worked special acyclic fibration
    X, Y, f = detect_example_pair()
    I = X.index
    A = constant_over(I, set_obj(["a"]))
    B = constant_over(I, set_obj(["a", "b"]))
    i = level_map(A, B, {s: set_map(A.value(s), B.value(s), {"a": "a"})
                         for s in I.elements})
    top = level_map(A, X, {
        "1": set_map(A.value("1"), X.value("1"), {"a": "a"}),
        "0": set_map(A.value("0"), X.value("0"), {"a": "x"}),
    })
    bottom = level_map(B, Y, {
        "1": set_map(B.value("1"), Y.value("1"), {"a": "u", "b": "v"}),
        "0": set_map(B.value("0"), Y.value("0"), {"a": "y", "b": "y"}),
    })
    res = lift_strict(i, f, top, bottom, mode=MODE_L1)
    assert compose_pro(res.lift, i).equals(top)
    assert compose_pro(f, res.lift).equals(bottom)


def test_lift_chain_constant_disk():
    D, S = disk1(), sphere0()
    P = point_poset()
    cz = constant_over(P, zero_complex())
    cD = constant_over(P, D)
    cS = constant_over(P, S)
    i = level_map(cz, cD, {"pt": chain_map(zero_complex(), D, {})})
    p = level_map(cD, cS, {"pt": disk_to_sphere()})
    top = level_map(cz, cD, {"pt": chain_map(zero_complex(), D, {})})
    bottom = level_map(cD, cS, {"pt": disk_to_sphere()})
    res = lift_strict(i, p, top, bottom, mode=MODE_L2)
    assert res.lift.realize("pt") == identity(D)


def test_lift_from_factorizations_random():
    rng = Rng(123)
    for k in range(4):
        for inst in ("set-bij", "chain-f2"):
            poset = chain_poset(2) if k % 2 else from_covers(
                ["0", "a", "b", "m"],
                [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m")])
            q = gen_level_map(rng, poset, inst, max_size=3, max_deg=1, max_dim=2)
            fsq = factor_strict(q, MODE_L1)
            j = fsq.left            # levelwise cofibration
            p = fsq.right           # special acyclic fibration
            res = lift_strict(j, p, j, p, mode=MODE_L1, special=fsq.special)
            assert compose_pro(res.lift, j).equals(j)
            assert compose_pro(p, res.lift).equals(p)


def test_the_largest_known_lift_system_stays_under_max_unknowns(monkeypatch):
    """The L2 square from ``Rng(7*1_000_003+15)`` over a 5-element poset
    builds a 15237 x 10778 lift system, the largest found while choosing
    the benchmark's lift inputs; it still lifts under the cap."""
    from promc import chainf2
    rng = Rng(7 * 1_000_003 + 15)
    poset = gen_poset(rng, 5)
    fs = factor_strict(gen_level_map(rng, poset, "chain-f2", max_deg=2, max_dim=3), MODE_L2)
    shapes, build = [], chainf2.chain_map_system

    def recorded(S, T, blocks=()):
        out = build(S, T, blocks)
        rows, cols = out[0].shape
        shapes.append((rows, cols - 1))  # one column is the right-hand side
        return out

    monkeypatch.setattr(chainf2, "chain_map_system", recorded)
    res = lift_strict(fs.left, fs.right, fs.left, fs.right, mode=MODE_L2)
    assert max(shapes, key=lambda s: s[1]) == (15237, 10778)
    assert 10778 <= chainf2.MAX_UNKNOWNS
    assert compose_pro(res.lift, fs.left).equals(fs.left)
    assert compose_pro(fs.right, res.lift).equals(fs.right)


def _special_square():
    """(i, p, top, bottom) of the lifting square of ``special.json``."""
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "special.json")) as fh:
        doc = Document(json.load(fh))
    return tuple(doc.map_named(name) for name in ("i", "p", "top", "bottom"))


def test_square_corners_are_compared_by_value():
    i, p, top, bottom = _special_square()
    assert square_failure(i, p, top, bottom, MODE_L1) is None
    # a second reading of the document: equal corners, other objects
    top2 = _special_square()[2]
    assert top2.source is not i.source and top2.target is not p.source
    assert square_failure(i, p, top2, bottom, MODE_L1) is None


def test_a_square_corner_mismatch_is_named():
    i, p, top, bottom = _special_square()
    assert square_failure(i, p, identity_pro(top.source), bottom, MODE_L1) == \
        ("top/right", "top/right corner mismatch")
    assert square_failure(i, p, top, identity_pro(bottom.target), MODE_L1) == \
        ("bottom/left", "bottom/left corner mismatch")


def _lift_square(inst):
    """(j, p, special, levels): the square (j, p, j, p) of an L1 strict
    factorization over a three-element chain, with p's certificate."""
    q = gen_level_map(Rng(5), chain_poset(3), inst, max_size=3, max_deg=1, max_dim=2)
    fs = factor_strict(q, MODE_L1)
    return fs.left, fs.right, fs.special, len(q.source.index.elements)


@pytest.mark.parametrize("inst", ["set-bij", "chain-f2"])
@pytest.mark.parametrize("kept", [True, False], ids=["certificate", "none"])
def test_lift_computes_each_matching_map_at_most_once(monkeypatch, inst, kept):
    # with p's certificate every matching map is the one it kept; without
    # one, detect_special computes each once for the square check and the
    # lift reuses them; both give the same lift
    j, p, special, levels = _lift_square(inst)
    ref = lift_strict(j, p, j, p, mode=MODE_L1, special=special)
    calls = []
    original = strict.matching_map
    monkeypatch.setattr(strict, "matching_map",
                        lambda f, t: calls.append(t) or original(f, t))
    res = lift_strict(j, p, j, p, mode=MODE_L1, special=special if kept else None)
    assert len(calls) == (0 if kept else levels)
    if not kept:
        assert sorted(calls) == sorted(j.source.index.elements)
    assert (res.level_index, res.components) == (ref.level_index, ref.components)


def test_omega_matching_diagram_keeps_only_cover_edges():
    with open(os.path.join(FIX, "omega_maps.json")) as fh:
        raw = json.load(fh)
    del raw["maps"]["g"]  # a GENERAL map listed only up to the fixture's depth
    f = Document(raw, depth=24).map_named("f")
    for t in range(1, 24):
        edges = matching_map(f, t).cone.diagram.edges
        assert len(edges) <= 4 * t, (t, len(edges))


def test_lift_rejects_noncommuting():
    X, Y, f = detect_example_pair()
    I = X.index
    A = constant_over(I, set_obj(["a"]))
    B = constant_over(I, set_obj(["a", "b"]))
    i = level_map(A, B, {s: set_map(A.value(s), B.value(s), {"a": "a"})
                         for s in I.elements})
    top = level_map(A, X, {
        "1": set_map(A.value("1"), X.value("1"), {"a": "a"}),
        "0": set_map(A.value("0"), X.value("0"), {"a": "x"}),
    })
    bad_bottom = level_map(B, Y, {
        "1": set_map(B.value("1"), Y.value("1"), {"a": "v", "b": "v"}),
        "0": set_map(B.value("0"), Y.value("0"), {"a": "y", "b": "y"}),
    })
    with pytest.raises(PreconditionError):
        lift_strict(i, f, top, bad_bottom, mode=MODE_L1)


# -------------------------------------- ChainF2 verdicts and limit legs

@pytest.fixture(scope="module")
def chain_factor_sweep():
    """factor_strict on ``gen_level_map`` inputs over every poset shape,
    both modes and seeds 0-2; records the classes of every ChainF2
    classification and every ChainF2 limit cone built, in call order."""
    verdicts, cones = [], []
    classify, limit = ChainF2.classify, ChainF2.limit

    def spy_classify(self, f):
        c = classify(self, f)
        verdicts.append((c.is_we, c.is_cof, c.is_fib))
        return c

    def spy_limit(self, diagram):
        cones.append(limit(self, diagram))
        return cones[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ChainF2, "classify", spy_classify)
        mp.setattr(ChainF2, "limit", spy_limit)
        for seed in range(3):
            for shape, (els, covers) in sorted(POSET_SHAPES.items()):
                for mode in (MODE_L1, MODE_L2):
                    f = gen_level_map(Rng(seed), from_covers(els, covers), "chain-f2")
                    factor_strict(f, mode)
    return verdicts, cones


# Recorded from the homology-based classification before the mapping-cone
# rewrite: 324 classifications, 175 of them weak equivalences.
VERDICTS_GOLDEN = "6f16643dc10b90a29e2c2e0277d4ab98681c076e77ee7d5346d4fe25d3455c6a"


def test_chainf2_verdicts_in_strict_factorizations(chain_factor_sweep):
    verdicts, _ = chain_factor_sweep
    assert (len(verdicts), sum(we for we, _, _ in verdicts)) == (324, 175)
    text = "".join(f"{we:d}{cof:d}{fib:d}" for we, cof, fib in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest() == VERDICTS_GOLDEN


def test_chainf2_limit_legs_are_chain_maps(chain_factor_sweep):
    _, cones = chain_factor_sweep
    legs = [leg for cone in cones for leg in cone.legs.values()]
    assert cones and legs
    for leg in legs:  # the checking constructor raises on a non-chain map
        assert ChainMap(leg.source, leg.target, leg._mats) == leg
