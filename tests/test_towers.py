import os
import sys

import pytest

from promc import base, cli, strict
from promc.base import chain_map, classify_map, identity, set_map, set_obj, zero_complex
from promc.errors import VerificationFailure
from promc.indexing import chain_poset, point_poset
from promc.prohom import constant_embed
from promc.proobj import (constant_over, identity_pro, level_map,
                          omega_pro_object, pro_object)
from promc.strict import ACYCLIC_FIB, FIB, MODE_L1, detect_special, factor_strict
from promc.suites import Rng, gen_level_map, gen_pro_object
from promc.towers import (Tower, adjunction_check, build_cocell_tower,
                          omega_constant_tower, tower_limit)

from helpers import disk1, disk_to_sphere, sphere0


def special_acyclic_example():
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


def test_single_level_tower():
    S = sphere0()
    P = point_poset()
    cD, cS = constant_over(P, disk1()), constant_over(P, S)
    f = level_map(cD, cS, {"pt": disk_to_sphere()})
    t = build_cocell_tower(f, special=detect_special(f, FIB))
    assert t.length == 1
    t.replay_base_changes()
    tl = tower_limit(t)
    tl.iso_cert.replay()


def test_worked_two_stage_tower():
    X, Y, f = special_acyclic_example()
    sp = detect_special(f, ACYCLIC_FIB)
    t = build_cocell_tower(f, special=sp)
    assert t.length == 2
    # every connecting map is a base change of a constant bijection
    for st in t.stages:
        assert st.attach_class.is_we and st.attach_class.is_fib
    t.replay_base_changes()
    tl = tower_limit(t)
    # limit ≅ X: the top stage has |X_max| elements
    assert len(tl.apex.value("pt").elements) == 2
    tl.iso_cert.replay()


def test_chainf2_constant_tower():
    S = sphere0()
    P = point_poset()
    cz, cS = constant_over(P, zero_complex()), constant_over(P, S)
    f = level_map(cz, cS, {"pt": chain_map(zero_complex(), S, {})})
    fs = factor_strict(f, MODE_L1)
    t = build_cocell_tower(fs.right, special=fs.special)
    assert t.length == 1
    t.replay_base_changes()
    tl = tower_limit(t)
    tl.iso_cert.replay()


def test_tower_round_trip_random():
    rng = Rng(17)
    for k in range(4):
        inst = ("set-bij", "chain-f2")[k % 2]
        f = gen_level_map(rng, chain_poset(3), inst,
                          max_size=3, max_deg=1, max_dim=2)
        fs = factor_strict(f, MODE_L1)
        t = build_cocell_tower(fs.right, special=fs.special)
        t.replay_base_changes()
        tl = tower_limit(t)
        tl.iso_cert.replay()


def test_corrupted_tower_detected():
    X, Y, f = special_acyclic_example()
    t = build_cocell_tower(f, special=detect_special(f, ACYCLIC_FIB))
    st = t.stages[1]
    # falsify the attach map's class by swapping in a collapse
    st.attach = set_map(st.attach.source, st.attach.target,
                        {e: st.attach.target.elements[0]
                         for e in st.attach.source.elements})
    with pytest.raises(VerificationFailure):
        t.replay_base_changes()


def test_omega_tower_of_constants():
    two = set_obj(["0", "1"])
    t = omega_constant_tower(lambda n: two, lambda n: identity(two), depth=8)
    tl = tower_limit(t)
    assert tl.apex.value(3) == two
    assert tl.apex.struct(5, 2) == identity(two)


# --------------------------------------------------------------- adjunction

def test_adjunction_empty_set():
    Y, _, _ = special_acyclic_example()
    w = adjunction_check(set_obj([]), Y)
    assert w.left_size == w.right_size == 1
    assert w.verified()


def test_adjunction_worked_chain():
    X, Y, f = special_acyclic_example()
    w = adjunction_check(set_obj(["*"]), X)
    assert w.left_size == 2  # collapses to Hom({*}, X_1)
    assert w.verified()


def test_adjunction_omega_two_tower():
    two = set_obj(["0", "1"])
    Y = omega_pro_object(lambda n: two, lambda n: identity(two), depth=16)
    w = adjunction_check(set_obj(["*"]), Y)
    assert w.left_size == w.right_size == 2
    assert w.stabilized_at == 1


def test_adjunction_naturality_probe():
    X, Y, f = special_acyclic_example()
    base = set_obj(["*"])
    probe = set_map(set_obj(["q"]), base, {"q": "*"})
    w = adjunction_check(base, X, naturality_probes=[probe])
    assert w.verified()


# ------------------------------------------- one matching map per level


def _counted(monkeypatch, fn):
    """Rebind *fn* in every loaded promc module that holds it to a wrapper
    that counts its calls; returns the list the calls are appended to."""
    calls = []

    def wrapper(*args, **kw):
        calls.append(args)
        return fn(*args, **kw)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "promc" or name.startswith("promc.")):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


@pytest.mark.parametrize("cmd", ["cocell", "tower-limit"])
def test_tower_commands_compute_each_matching_map_once(cmd, tmp_path, monkeypatch):
    # detect_special computes and classifies each matching map, the tower
    # reuses both, and Tower.replay_base_changes classifies once more as
    # its check: 2 matching maps and 4 classifications for 2 levels
    classified = _counted(monkeypatch, base.classify_map)
    matched = _counted(monkeypatch, strict.matching_map)
    doc = os.path.join(os.path.dirname(__file__), "fixtures", "special.json")
    code = cli.run_command([cmd, doc, "p", "--class", "acyclic-fib",
                            "--out", str(tmp_path / "cert.json")])
    assert code == 0
    assert (len(matched), len(classified)) == (2, 4)
