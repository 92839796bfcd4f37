from types import SimpleNamespace

import pytest

from promc import proiso
from promc.base import SET_BIJ, classify_map, compose, identity, set_map, set_obj
from promc.errors import PreconditionError, VerificationFailure
from promc.indexing import chain_poset
from promc.prohom import HFamily, IsoCertificate, hfamily_failure, is_pro_iso
from promc.proobj import (compose_pro, constant_over, identity_pro, level_map,
                          pro_object)
from promc.proiso import (ProperPullbackResult, RetractDiagram,
                          compose_zigzag_we, pro_factor_iso, proper_pullback,
                          retract_exhibit, two_of_three, verify_witnesses)
from promc.strict import MODE_L1, MODE_L2, detect_special, factor_strict
from promc.suites import (Rng, gen_level_map, gen_pro_object, gen_shift_iso, gen_we_level_map,
                          suite_properness, suite_two_of_three)

from helpers import collapse_triple


def identity_family(X):
    idx = X.index
    return HFamily({(t, s): X.struct(t, s)
                    for t in idx.elements for s in idx.elements
                    if idx.lt(s, t)})


def collapse_witnesses(X, Y):
    return HFamily({("1", "0"): set_map(Y.value("1"), X.value("0"), {"u": "x"})})


def test_hfamily_failure_names_the_failing_triangle():
    # Y_1 has an element v outside the image of f_1, so a witness can
    # pass the left triangle and still fail the right one
    I = chain_poset(2)
    X1, X0 = set_obj(["a"]), set_obj(["x", "z"])
    Y1, Y0 = set_obj(["u", "v"]), set_obj(["y", "w"])
    X = pro_object(I, {"1": X1, "0": X0},
                   {("1", "0"): set_map(X1, X0, {"a": "x"})})
    Y = pro_object(I, {"1": Y1, "0": Y0},
                   {("1", "0"): set_map(Y1, Y0, {"u": "y", "v": "y"})})
    f = level_map(X, Y, {"1": set_map(X1, Y1, {"a": "u"}),
                         "0": set_map(X0, Y0, {"x": "y", "z": "w"})})

    def fam(images):
        return HFamily({("1", "0"): set_map(Y1, X0, images)})

    assert hfamily_failure(f, fam({"u": "x", "v": "x"})) is None
    assert hfamily_failure(f, fam({"u": "x", "v": "z"})) == ("1", "0", "right")
    assert hfamily_failure(f, fam({"u": "z", "v": "x"})) == ("1", "0", "left")
    assert hfamily_failure(f, HFamily({})) == ("1", "0", "missing")
    with pytest.raises(PreconditionError, match="target"):
        verify_witnesses(f, fam({"u": "x", "v": "z"}))
    with pytest.raises(VerificationFailure, match="right triangle"):
        IsoCertificate(forward=f, hfamily=fam({"u": "x", "v": "z"})).replay()


# ----------------------------------------------------------- pro_factor_iso

def test_pro_factor_iso_identity():
    rng = Rng(1)
    X = gen_pro_object(rng, chain_poset(2), "set-bij")
    f = identity_pro(X)
    out = pro_factor_iso(f, identity_family(X))
    out.left_cert.replay()
    out.right_cert.replay()


def test_pro_factor_iso_worked_example():
    X, Y, f = collapse_triple()
    wit = collapse_witnesses(X, Y)
    out = pro_factor_iso(f, wit)
    # frozen from the construction: Z_1 = Y_1 = {u}, Z_0 = {y},
    # structure map = f_0 ∘ h, i = f levelwise, p = identity levelwise
    assert out.middle.value("1") == Y.value("1")
    assert out.middle.value("0") == Y.value("0")
    h = wit.get("1", "0")
    assert out.middle.struct("1", "0") == compose(f.level_component("0"), h)
    for s in ("0", "1"):
        assert out.left.level_component(s) == f.level_component(s)
        assert out.right.level_component(s) == identity(Y.value(s))
    out.left_cert.replay()
    out.right_cert.replay()


def test_pro_factor_iso_missing_witness():
    X, Y, f = collapse_triple()
    with pytest.raises(PreconditionError):
        pro_factor_iso(f, HFamily({}))


def test_pro_factor_iso_three_chain_functorial():
    rng = Rng(11)
    for inst in ("set-bij", "chain-f2"):
        f, wit = gen_shift_iso(rng, inst, length=3)
        out = pro_factor_iso(f, wit)
        out.middle.validate()
        out.left_cert.replay()
        out.right_cert.replay()


def test_pro_factor_iso_shift_pattern_random():
    rng = Rng(21)
    for k in range(6):
        inst = ("set-bij", "chain-f2")[k % 2]
        f, wit = gen_shift_iso(rng, inst, length=2, max_size=3,
                               max_deg=1, max_dim=2)
        verify_witnesses(f, wit)
        out = pro_factor_iso(f, wit)
        for s in f.source.index.elements:
            assert out.left_classes[s].is_cof
            assert out.right_classes[s].is_fib
        out.left_cert.replay()
        out.right_cert.replay()


# -------------------------------------------------------- compose_zigzag_we

def test_zigzag_identities():
    rng = Rng(31)
    X = gen_pro_object(rng, chain_poset(2), "set-bij")
    f = identity_pro(X)
    out = compose_zigzag_we(f, f, f, identity_family(X))
    for s in X.index.elements:
        assert out.level_classes[s].is_we
    out.source_cert.replay()
    out.target_cert.replay()


def test_zigzag_worked_collapse():
    X, Y, f = collapse_triple()
    wit = collapse_witnesses(X, Y)
    idY = identity_pro(Y)
    # f, g identities around the worked pro-iso h
    out = compose_zigzag_we(idY, f, identity_pro(X), wit)
    for s, cls in out.level_classes.items():
        assert cls.is_we
    out.replay_composite_identity(idY, wit, identity_pro(X))


def test_zigzag_chainf2_quasi_isos():
    rng = Rng(41)
    h, wit = gen_shift_iso(rng, "chain-f2", length=2, max_deg=1, max_dim=2)
    Z, Y = h.source, h.target
    f = gen_we_level_map(rng, Y)       # quasi-iso onto Y
    g = gen_we_level_map(rng, Z)       # quasi-iso onto Z... need out of Z
    # g must have source Z: use the we onto Z and flip roles via its source
    out = compose_zigzag_we(f, h, gen_we_from(rng, Z), wit)
    for s, cls in out.level_classes.items():
        assert cls.is_we


def gen_we_from(rng, Z):
    """A levelwise we out of Z (SetBij relabel or ChainF2 inclusion)."""
    from promc.suites import conjugate_pro
    Z2, alpha = conjugate_pro(rng, Z, prefix="o")
    return alpha


# ------------------------------------------------------------- two_of_three

def test_two_of_three_identities():
    rng = Rng(51)
    X = gen_pro_object(rng, chain_poset(2), "set-bij")
    idX = identity_pro(X)
    out = two_of_three("left-cancel", idX, idX, idX, idX, identity_family(X))
    for s, cls in out.level_classes.items():
        assert cls.is_we
    out.cancel_cert.replay()


def test_two_of_three_left_cancel_worked():
    X, Y, f = collapse_triple()
    wit = collapse_witnesses(X, Y)
    # top: X -> X identity-ish subject; left: X -> X id we; right: Y -> Y id;
    # bottom: the worked pro-iso f with witnesses
    out = two_of_three("left-cancel", f, identity_pro(X), identity_pro(Y),
                       f, wit)
    for s, cls in out.level_classes.items():
        assert cls.is_we
    out.cancel_cert.replay()


def test_two_of_three_right_cancel_worked():
    X, Y, f = collapse_triple()
    wit = collapse_witnesses(X, Y)
    out = two_of_three("right-cancel", f, identity_pro(X), identity_pro(Y),
                       f, wit)
    for s, cls in out.level_classes.items():
        assert cls.is_we
    out.cancel_cert.replay()


def test_two_of_three_chainf2_constant():
    rng = Rng(61)
    I = chain_poset(2)
    h, wit = gen_shift_iso(rng, "chain-f2", length=2, max_deg=1, max_dim=2)
    W, Z = h.source, h.target
    u = gen_we_level_map(rng, W)   # we onto W; source B
    X = u.source
    # square: top f' := compose of u then h; left u; right id_Z; bottom h
    top = compose_pro(h, u)
    out = two_of_three("left-cancel", top, u, identity_pro(Z), h, wit)
    for s, cls in out.level_classes.items():
        assert cls.is_we


# ------------------------------------------------------------- retracts

def test_retract_acyclic_cof_constant_bijection():
    rng = Rng(71)
    X = gen_pro_object(rng, chain_poset(2), "set-bij")
    f = identity_pro(X)
    grid = retract_exhibit(f, "acyclic-cof")
    grid.replay()


def test_retract_acyclic_cof_chainf2():
    from promc.base import ACOF_FIB, chain_map, factor_map, zero_complex
    from helpers import disk1
    from promc.prohom import constant_embed
    from promc.proobj import level_map as lm
    D = disk1()
    base = factor_map(chain_map(zero_complex(), D, {}), ACOF_FIB)
    P = constant_embed(zero_complex()).index
    cz = constant_over(P, zero_complex())
    cm = constant_over(P, base.middle)
    f = lm(cz, cm, {"pt": base.left})
    grid = retract_exhibit(f, "acyclic-cof")
    grid.replay()


def test_retract_acyclic_fib_worked():
    from helpers import collapse_triple
    X, Y, f = collapse_triple()
    # the collapse map is not levelwise we; use a genuine acyclic fib instead
    rng = Rng(81)
    Z = gen_pro_object(rng, chain_poset(2), "set-bij")
    w = gen_we_level_map(rng, Z)
    sp = detect_special(w, "fib")
    assert sp.ok
    grid = retract_exhibit(w, "acyclic-fib", special=sp)
    grid.replay()


def test_retract_requires_classes():
    X, Y, f = collapse_triple()
    with pytest.raises(PreconditionError):
        retract_exhibit(f, "acyclic-cof")  # not levelwise we


# -------------------------------------------------------- proper_pullback

def test_proper_pullback_identity_glue():
    rng = Rng(91)
    Y = gen_pro_object(rng, chain_poset(2), "set-bij")
    f = gen_we_level_map(rng, Y)
    p = identity_pro(Y)
    out = proper_pullback(p, f, identity_pro(Y), identity_family(Y))
    for s, cls in out.level_classes.items():
        assert cls.is_we
    out.glue_cert.replay()


def test_proper_pullback_worked_glue():
    X, Y, fcol = collapse_triple()
    wit = collapse_witnesses(X, Y)
    rng = Rng(101)
    # g := the worked pro-iso X -> Y; p: fibration into Y; f: we into X
    p = identity_pro(Y)
    fwe = gen_we_level_map(rng, X)
    out = proper_pullback(p, fwe, fcol, wit)
    for s, cls in out.level_classes.items():
        assert cls.is_we
    out.glue_cert.replay()


def test_proper_pullback_chainf2_constant():
    from promc.base import chain_map, zero_complex
    from promc.prohom import constant_embed
    from helpers import disk1, disk_to_sphere, sphere0
    from promc.proobj import level_map as lm
    D, S = disk1(), sphere0()
    P = constant_embed(S).index
    cD, cS = constant_over(P, D), constant_over(P, S)
    p = lm(cD, cS, {"pt": disk_to_sphere()})
    rng = Rng(111)
    fwe = gen_we_level_map(rng, cS)
    out = proper_pullback(p, fwe, identity_pro(cS), identity_family(cS))
    for s, cls in out.level_classes.items():
        assert cls.is_we


# ------------------------------------------- suites classify what they get


def _not_we_at_level_1(real, *kept, **stubs):
    """A stand-in for the construction *real*: its own result, but with a
    map that is not a weak equivalence at level "1" (the collapse of
    ``collapse_triple``) while level_classes still say every level is
    one.  The attributes named in *kept* come from the real result, the
    ones in *stubs* are given."""
    bad = collapse_triple()[2]

    def fake(*args):
        out = real(*args)
        return SimpleNamespace(map=bad, level_classes=out.level_classes,
                               **{k: getattr(out, k) for k in kept}, **stubs)
    return fake


def test_two_of_three_suite_reports_a_level_that_is_not_a_we(monkeypatch):
    monkeypatch.setattr(proiso, "compose_zigzag_we", _not_we_at_level_1(
        proiso.compose_zigzag_we, "source_cert", "target_cert",
        replay_composite_identity=lambda *args: None))
    rep = suite_two_of_three(SET_BIJ, 2, 0)
    assert rep.failures == [(0, "zigzag", "1"), (1, "zigzag", "1")]


def test_properness_suite_reports_a_level_that_is_not_a_we(monkeypatch):
    monkeypatch.setattr(proiso, "proper_pullback", _not_we_at_level_1(
        proiso.proper_pullback, "glue_cert"))
    rep = suite_properness(SET_BIJ, 2, 0)
    assert rep.failures == [(0, "1"), (1, "1")]
