import itertools

import numpy as np
import pytest

from promc import gf2
from promc.base import (chain_map, chain_obj, classify_map, compose, identity,
                        set_map, set_obj, zero_complex)
from promc.baselim import (Cone, Diagram, finite_colimit, finite_limit,
                           pullback, pushout)
from promc.errors import PreconditionError

from helpers import (disk1, disk_to_sphere, random_chain_map, random_complex,
                     random_set_map, random_set_obj, sphere0)


def test_empty_limit_is_terminal():
    lim = finite_limit(Diagram({}, []))
    assert lim.apex.elements == ("*",)
    zc = finite_limit(Diagram({}, []))
    assert zc.apex.elements == ("*",)


def test_setbij_pullback_worked_example():
    A, B, C = set_obj(["x"]), set_obj(["y"]), set_obj(["u", "v"])
    f = set_map(A, B, {"x": "y"})
    g = set_map(C, B, {"u": "y", "v": "y"})
    lim = pullback(f, g)
    assert lim.apex.elements == ("(x,u)", "(x,v)")
    assert lim.check_limit_cone() is None


def test_chain_pullback_disk_sphere():
    p = disk_to_sphere()
    i = identity(sphere0())
    lim = pullback(p, i)
    assert lim.apex.dim(0) == 1 and lim.apex.dim(1) == 1
    assert lim.check_limit_cone() is None


def test_limit_single_node_iso_to_object():
    X = set_obj(["a", "b"])
    lim = finite_limit(Diagram({"v": X}, []))
    assert len(lim.apex.elements) == 2
    med = lim.mediate(Cone(lim.diagram, X, {"v": identity(X)}))
    assert classify_map(med).is_we


def test_mediate_setbij_universal():
    A, B, C = set_obj(["x"]), set_obj(["y"]), set_obj(["u", "v"])
    f = set_map(A, B, {"x": "y"})
    g = set_map(C, B, {"u": "y", "v": "y"})
    lim = pullback(f, g)
    W = set_obj(["w"])
    cone = Cone(lim.diagram, W, {
        "a": set_map(W, A, {"w": "x"}),
        "b": set_map(W, C, {"w": "v"}),
        "c": set_map(W, B, {"w": "y"}),
    })
    m = lim.mediate(cone)
    for v in ("a", "b", "c"):
        assert compose(lim.legs[v], m) == cone.legs[v]


def test_mediate_rejects_noncone():
    A, B = set_obj(["x", "z"]), set_obj(["y", "w"])
    f = set_map(A, B, {"x": "y", "z": "w"})
    dia = Diagram({"a": A, "b": B}, [("a", "b", f)])
    lim = finite_limit(dia)
    W = set_obj(["p"])
    bad = Cone(dia, W, {"a": set_map(W, A, {"p": "x"}),
                        "b": set_map(W, B, {"p": "w"})})
    with pytest.raises(PreconditionError):
        lim.mediate(bad)


def test_chain_limit_factor_refuses_legs_outside_the_kernel():
    # called directly, past the cone check of ``mediate``: the legs
    # (id, 0) into X -id-> X do not lie in the kernel {(x, x)}
    X = disk1()
    dia = Diagram({"a": X, "b": X}, [("a", "b", identity(X))])
    lim = finite_limit(dia)
    zero = chain_map(X, X, {})
    with pytest.raises(PreconditionError, match="does not factor"):
        lim.factor(Cone(dia, X, {"a": identity(X), "b": zero}))
    assert lim.factor(Cone(dia, X, {"a": identity(X), "b": identity(X)})) == \
        lim.mediate(Cone(dia, X, {"a": identity(X), "b": identity(X)}))


def test_setbij_limit_of_a_long_chain_needs_no_recursion():
    # one node per level of the search: 1,500 would exceed Python's
    # recursion limit in a recursive search
    names = [f"v{k:04d}" for k in range(1500)]
    one = set_obj(["*"])
    dia = Diagram({v: one for v in names},
                  [(a, b, identity(one)) for a, b in zip(names, names[1:])])
    lim = finite_limit(dia)
    assert lim.apex.elements == ("(*)",)
    assert lim.check_limit_cone() is None


def test_empty_colimit_is_initial():
    col = finite_colimit(Diagram({}, []))
    assert col.apex.elements == ()


def test_setbij_pushout_quotient():
    A = set_obj(["z"])
    B, C = set_obj(["b1", "b2"]), set_obj(["c"])
    f = set_map(A, B, {"z": "b1"})
    g = set_map(A, C, {"z": "c"})
    col = pushout(f, g)
    # b1 and c glued, b2 free: two classes
    assert len(col.apex.elements) == 2
    assert col.check_colimit_cocone() is None


def test_colimit_mediate_setbij():
    A = set_obj(["z"])
    B, C = set_obj(["b1", "b2"]), set_obj(["c"])
    f = set_map(A, B, {"z": "b1"})
    g = set_map(A, C, {"z": "c"})
    col = pushout(f, g)
    W = set_obj(["m", "n"])
    cocone = Cone(col.diagram, W, {
        "a": set_map(B, W, {"b1": "m", "b2": "n"}),
        "b": set_map(C, W, {"c": "m"}),
        "c": set_map(A, W, {"z": "m"}),
    })
    m = col.mediate(cocone)
    for v in ("a", "b", "c"):
        assert compose(m, col.legs[v]) == cocone.legs[v]


def test_chain_pushout_dims():
    Z = zero_complex()
    D, S = disk1(), sphere0()
    f = chain_map(Z, D, {})
    g = chain_map(Z, S, {})
    col = pushout(f, g)
    assert col.apex.dim(0) == 2 and col.apex.dim(1) == 1


@pytest.mark.parametrize("seed", range(15))
def test_chain_limit_universal_random(seed):
    rng = np.random.default_rng(700 + seed)
    X, Y, B = random_complex(rng), random_complex(rng), random_complex(rng)
    f = random_chain_map(rng, X, B)
    g = random_chain_map(rng, Y, B)
    lim = pullback(f, g)
    assert lim.check_limit_cone() is None
    # mediate the limit's own cone: must be an iso onto the apex (identity)
    m = lim.mediate(Cone(lim.diagram, lim.apex, dict(lim.legs)))
    assert m == identity(lim.apex)


@pytest.mark.parametrize("seed", range(15))
def test_chain_colimit_universal_random(seed):
    rng = np.random.default_rng(800 + seed)
    A, X, Y = random_complex(rng), random_complex(rng), random_complex(rng)
    f = random_chain_map(rng, A, X)
    g = random_chain_map(rng, A, Y)
    col = pushout(f, g)
    assert col.check_colimit_cocone() is None
    m = col.mediate(Cone(col.diagram, col.apex, dict(col.legs)))
    assert m == identity(col.apex)


@pytest.mark.parametrize("seed", range(25))
def test_chainf2_right_properness(seed):
    # pullback of a quasi-iso along a degreewise surjection is a quasi-iso
    from promc.base import ACOF_FIB, COF_ACF, factor_map
    rng = np.random.default_rng(900 + seed)
    Y = random_complex(rng)
    # surjection onto Y: mediate out of X ⊕ E(Y) with E(Y) the contractible
    # path-middle of 0 -> Y; quasi-iso exactly when the random block is one
    Xr = random_complex(rng)
    f = random_chain_map(rng, Xr, Y)
    pathE = factor_map(chain_map(zero_complex(), Y, {}), ACOF_FIB)
    cop = finite_colimit(Diagram({"x": Xr, "e": pathE.middle}, []))
    p = cop.mediate(Cone(cop.diagram, Y, {"x": f, "e": pathE.right}))
    assert classify_map(p).is_fib
    V = random_complex(rng)
    w = factor_map(random_chain_map(rng, V, Y), COF_ACF).right  # quasi-iso onto Y
    lim = pullback(w, p)
    assert classify_map(lim.legs["b"]).is_we  # base change of w along p


@pytest.mark.parametrize("seed", range(25))
def test_chainf2_left_properness(seed):
    # pushout of a quasi-iso along a degreewise injection is a quasi-iso
    from promc.base import ACOF_FIB, factor_map
    rng = np.random.default_rng(950 + seed)
    A = random_complex(rng)
    W = random_complex(rng)
    j = factor_map(random_chain_map(rng, A, W), ACOF_FIB).left  # acyclic cof
    R = random_complex(rng)
    cop = finite_colimit(Diagram({"a": A, "r": R}, []))
    i = cop.legs["a"]  # coproduct injection, a cofibration
    assert classify_map(i).is_cof
    col = pushout(j, i)
    assert classify_map(col.legs["b"]).is_we  # cobase change of j along i
