import numpy as np
import pytest

from promc import gf2
from promc.base import (ACOF_FIB, COF_ACF, BaseMap, chain_map, chain_obj,
                        classify_map, compose, factor_map, identity, set_map,
                        set_obj, solve_lift, zero_complex)
from promc.errors import MalformedError, PreconditionError
from promc.indexing import chain_poset
from promc.prohom import enumerate_base_maps
from promc.setbij import INSTANCE as SET_BIJ
from promc.setbij import SetMap
from promc.strict import factor_strict
from promc.suites import (Rng, gen_level_map, gen_pro_object, gen_shift_iso,
                          suite_factorization)

from helpers import (disk1, disk_to_sphere, random_chain_map, random_complex,
                     random_set_map, random_set_obj, shifted, sphere0, to_np,
                     we_by_cone, we_by_homology)


# ----------------------------------------------------------- construction

def test_setbij_duplicate_names_rejected():
    with pytest.raises(MalformedError):
        set_obj(["a", "a"])


def test_chain_dd_zero_enforced():
    with pytest.raises(MalformedError):
        chain_obj(0, 2, [1, 1, 1], {0: [[1]], 1: [[1]]})


def test_chain_shape_mismatch_rejected():
    with pytest.raises(MalformedError):
        chain_obj(0, 1, [2, 1], {0: [[1]]})


def test_chain_map_must_commute():
    D, S = disk1(), sphere0()
    with pytest.raises(MalformedError):
        # degree-1 component nonzero forces failure against the boundary
        chain_map(D, D, {0: [[1]], 1: [[0]]})


def test_set_map_totality():
    A, B = set_obj(["a", "b"]), set_obj(["x"])
    with pytest.raises(MalformedError):
        set_map(A, B, {"a": "x"})
    with pytest.raises(MalformedError):
        set_map(A, B, {"a": "x", "b": "zzz"})


def test_set_map_between_instances_rejected():
    A, C = set_obj(["a"]), chain_obj(0, 0, [1])
    for source, target in ((A, C), (C, A)):
        with pytest.raises(MalformedError, match="different instances"):
            SetMap(source, target, {"a": "a"})


def test_setbij_gen_square_keeps_a_drawn_top_map_that_extends():
    """Along injective vertical maps every top map extends to a bottom
    map, so one try keeps the drawn top map: the constant square is only
    the fallback."""
    X, Y = set_obj(["a", "b", "c"]), set_obj(["x", "y", "z"])
    images = set()
    for seed in range(10):
        a, b = SET_BIJ.gen_square(Rng(seed), identity(X), identity(Y), tries=1)
        assert b == a
        images.add(len(set(a.mapping.values())))
    assert images - {1}


# -------------------------------------------------------------- classify

def test_classify_setbij_collapse():
    A, B = set_obj(["a", "b"]), set_obj(["x"])
    f = set_map(A, B, {"a": "x", "b": "x"})
    c = classify_map(f)
    assert (c.is_we, c.is_cof, c.is_fib) == (False, True, True)


def test_classify_identity_chain():
    for obj in (disk1(), sphere0(), zero_complex()):
        c = classify_map(identity(obj))
        assert (c.is_we, c.is_cof, c.is_fib) == (True, True, True)


def test_classify_disk_to_sphere():
    c = classify_map(disk_to_sphere())
    assert (c.is_we, c.is_cof, c.is_fib) == (False, False, True)


@pytest.mark.parametrize("seed", range(40))
def test_classify_we_matches_cone_oracle(seed):
    rng = np.random.default_rng(seed)
    X = random_complex(rng)
    Y = random_complex(rng)
    f = random_chain_map(rng, X, Y)
    assert classify_map(f).is_we == we_by_cone(f)


def _we_oracle_cases(seed):
    """(name, ChainF2 map) pairs: random maps, maps between shifted
    complexes (overlapping and disjoint degree ranges), identities, maps
    to and from the zero complex, and cylinder and path factors."""
    rng = np.random.default_rng(seed)
    X, Y = random_complex(rng), random_complex(rng)
    f = random_chain_map(rng, X, Y)
    gap = int(rng.integers(1, 3))  # a shift making the ranges disjoint
    EX, EY = (factor_map(chain_map(zero_complex(), V, {}), ACOF_FIB).middle
              for V in (X, Y))  # contractible
    cases = [("random", f),
             ("shifted", random_chain_map(rng, shifted(X, -1), Y)),
             ("disjoint above", random_chain_map(rng, X, shifted(Y, X.hi + gap))),
             ("disjoint below", random_chain_map(rng, shifted(X, Y.hi + gap), Y)),
             ("disjoint contractible",
              random_chain_map(rng, EX, shifted(EY, EX.hi + gap))),
             ("disjoint, one contractible",
              random_chain_map(rng, shifted(EX, EY.hi + gap), Y)),
             ("identity", identity(X)),
             ("identity of zero", identity(zero_complex())),
             ("from zero", chain_map(zero_complex(), shifted(Y, -gap), {})),
             ("to zero", chain_map(X, zero_complex(), {}))]
    for mode in (COF_ACF, ACOF_FIB):
        fp = factor_map(f, mode)
        cases += [(f"{mode} left", fp.left), (f"{mode} right", fp.right)]
    return cases


@pytest.mark.parametrize("seed", range(30))
def test_classify_we_matches_homology_and_cone_oracles(seed):
    for name, f in _we_oracle_cases(seed):
        we = classify_map(f).is_we
        assert we == we_by_homology(f) == we_by_cone(f), name


def test_we_oracle_cases_hold_both_verdicts():
    verdicts = {}
    for seed in range(30):
        for name, f in _we_oracle_cases(seed):
            verdicts.setdefault(name, set()).add(we_by_homology(f))
    for name in ("identity", "identity of zero", "disjoint contractible",
                 f"{COF_ACF} right", f"{ACOF_FIB} left"):
        assert verdicts[name] == {True}, name
    for name in ("random", "shifted", "disjoint, one contractible", "from zero",
                 "to zero", f"{COF_ACF} left", f"{ACOF_FIB} right"):
        assert verdicts[name] == {False, True}, name


def test_two_of_three_on_random_composables():
    rng = np.random.default_rng(7)
    for _ in range(60):
        X, Y, Z = (random_complex(rng) for _ in range(3))
        f = random_chain_map(rng, X, Y)
        g = random_chain_map(rng, Y, Z)
        wf, wg = classify_map(f).is_we, classify_map(g).is_we
        wgf = classify_map(compose(g, f)).is_we
        if wf and wg:
            assert wgf
        if wf and wgf:
            assert wg
        if wg and wgf:
            assert wf
    for _ in range(60):
        X, Y, Z = (random_set_obj(rng) for _ in range(3))
        f = random_set_map(rng, X, Y)
        g = random_set_map(rng, Y, Z)
        wf, wg = classify_map(f).is_we, classify_map(g).is_we
        wgf = classify_map(compose(g, f)).is_we
        if wf and wg:
            assert wgf
        if wf and wgf:
            assert wg
        if wg and wgf:
            assert wf


# ---------------------------------------------------------------- factor

def test_factor_setbij_modes():
    A, B = set_obj(["a", "b"]), set_obj(["x"])
    f = set_map(A, B, {"a": "x", "b": "x"})
    fp = factor_map(f, COF_ACF)
    assert fp.left == f and fp.right == identity(B)
    assert classify_map(fp.right).is_we
    fp2 = factor_map(f, ACOF_FIB)
    assert fp2.left == identity(A) and fp2.right == f


def test_factor_identity_sphere_both_we():
    f = identity(sphere0())
    for mode in (COF_ACF, ACOF_FIB):
        fp = factor_map(f, mode)
        assert fp.composite() == f
        assert classify_map(fp.left).is_we
        assert classify_map(fp.right).is_we


def test_factor_zero_to_sphere_cylinder():
    f = chain_map(zero_complex(), sphere0(), {})
    fp = factor_map(f, COF_ACF)
    assert fp.composite() == f
    cr = classify_map(fp.right)
    assert cr.is_fib and cr.is_we  # surjective quasi-iso by the rank oracle
    assert we_by_cone(fp.right)
    assert classify_map(fp.left).is_cof


@pytest.mark.parametrize("seed", range(30))
def test_factor_random_chain_postconditions(seed):
    rng = np.random.default_rng(100 + seed)
    X, Y = random_complex(rng), random_complex(rng)
    f = random_chain_map(rng, X, Y)
    fp = factor_map(f, COF_ACF)
    assert fp.composite() == f
    assert classify_map(fp.left).is_cof
    cr = classify_map(fp.right)
    assert cr.is_fib and cr.is_we
    fp = factor_map(f, ACOF_FIB)
    assert fp.composite() == f
    cl = classify_map(fp.left)
    assert cl.is_cof and cl.is_we
    assert classify_map(fp.right).is_fib


@pytest.mark.parametrize("seed", range(20))
def test_factor_random_setbij_postconditions(seed):
    rng = np.random.default_rng(200 + seed)
    X, Y = random_set_obj(rng, 3), random_set_obj(rng, 3)
    f = random_set_map(rng, X, Y)
    for mode in (COF_ACF, ACOF_FIB):
        fp = factor_map(f, mode)
        assert fp.composite() == f
        cl, cr = classify_map(fp.left), classify_map(fp.right)
        assert cl.is_cof and cr.is_fib
        if mode == COF_ACF:
            assert cr.is_we
        else:
            assert cl.is_we


# ------------------------------------------------------------------ lift

def test_lift_identity_i():
    D = disk1()
    p = disk_to_sphere()
    top = identity(D)
    h = solve_lift(identity(D), p, top, p)
    assert h == top


def test_lift_setbij_unique():
    A = set_obj(["a"])
    B = set_obj(["a", "b"])
    U = set_obj(["u", "v"])
    i = set_map(A, B, {"a": "a"})
    p = identity(U)
    top = set_map(A, U, {"a": "u"})
    bottom = set_map(B, U, {"a": "u", "b": "v"})
    h = solve_lift(i, p, top, bottom)
    assert h == bottom  # frozen: exhaustive search over all 4 maps B -> U
    candidates = [m for m in all_set_maps(B, U)
                  if compose(m, i) == top and compose(p, m) == bottom]
    assert candidates == [h]


def all_set_maps(X, Y):
    import itertools
    out = []
    for images in itertools.product(Y.elements, repeat=len(X.elements)):
        out.append(set_map(X, Y, dict(zip(X.elements, images))))
    return out


def test_lift_chain_disk_example():
    D, S = disk1(), sphere0()
    i = chain_map(zero_complex(), D, {})
    p = disk_to_sphere()
    top = chain_map(zero_complex(), D, {})
    h = solve_lift(i, p, top, p)
    assert h == identity(D)  # frozen: the linear system has this unique solution


def test_lift_noncommuting_square_rejected():
    A, B = set_obj(["a"]), set_obj(["a", "b"])
    i = set_map(A, B, {"a": "a"})
    U = set_obj(["u", "v"])
    p = identity(U)
    with pytest.raises(PreconditionError):
        solve_lift(i, p, set_map(A, U, {"a": "u"}),
                   set_map(B, U, {"a": "v", "b": "v"}))


@pytest.mark.parametrize("seed", range(25))
def test_lift_random_squares_compose(seed):
    # square with left = cof part and right = acyclic-fib part of one
    # factorization; a lift exists (the identity is one) and whatever the
    # solver returns must satisfy both triangles
    rng = np.random.default_rng(300 + seed)
    X, Y = random_complex(rng), random_complex(rng)
    w = random_chain_map(rng, X, Y)
    fp = factor_map(w, COF_ACF)
    i, q = fp.left, fp.right
    h = solve_lift(i, q, i, q)
    assert h is not None
    assert compose(h, i) == i
    assert compose(q, h) == q


@pytest.mark.parametrize("seed", range(25))
def test_lift_random_acof_vs_fib(seed):
    rng = np.random.default_rng(400 + seed)
    X, Y = random_complex(rng), random_complex(rng)
    w = random_chain_map(rng, X, Y)
    fp = factor_map(w, ACOF_FIB)
    j, p = fp.left, fp.right
    h = solve_lift(j, p, j, p)
    assert h is not None
    assert compose(h, j) == j
    assert compose(p, h) == p


# ------------------------------------------------ chain-map system oracle

def _brute_force_chain_maps(X, Y):
    """Every tuple of degreewise 0/1 matrices that commutes with the
    boundaries, checked with plain numpy; keys are per-degree entry tuples."""
    import itertools
    degs = range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 2)
    shapes = [(n, Y.dim(n), X.dim(n)) for n in degs]
    total = sum(r * c for _, r, c in shapes)
    found = set()
    for bits in itertools.product((0, 1), repeat=total):
        flat, mats = np.array(bits, dtype=np.int64), {}
        for n, r, c in shapes:
            mats[n], flat = flat[:r * c].reshape(r, c), flat[r * c:]
        if all(not ((to_np(Y.d(n)).astype(np.int64) @ mats[n]
                     + mats[n + 1] @ to_np(X.d(n)).astype(np.int64)) % 2).any()
               for n in degs[:-1]):
            found.add(tuple(_entries(mats[n]) for n in degs))
    return found


def _entries(M):
    """A 0/1 matrix (numpy or ``gf2.Mat``) as a tuple of row tuples."""
    return tuple(map(tuple, M.tolist()))


@pytest.mark.parametrize("seed", range(20))
def test_enumerate_chain_maps_matches_brute_force(seed):
    rng = np.random.default_rng(900 + seed)
    while True:
        X = random_complex(rng, max_deg=2, max_dim=3)
        Y = shifted(random_complex(rng, max_deg=2, max_dim=3),
                     int(rng.integers(0, 2)))
        unknowns = sum(X.dim(n) * Y.dim(n) for n in range(-1, 5))
        if 4 <= unknowns <= 10:
            break
    degs = range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 2)
    maps = enumerate_base_maps(X, Y)
    keys = [tuple(_entries(m.mat(n)) for n in degs) for m in maps]
    assert len(set(keys)) == len(keys)
    assert set(keys) == _brute_force_chain_maps(X, Y)


# ------------------------------------------------- unchecked construction

def _seeded_chain_maps(seed):
    f = gen_level_map(Rng(seed), chain_poset(3), "chain-f2")
    fs = factor_strict(f, "L1")
    for g in (f, fs.left, fs.right):
        for s in g.source.index.elements:
            yield g.level_component(s)
            for t in g.source.index.elements:
                if g.source.index.lt(s, t):
                    yield g.source.struct(t, s)


@pytest.mark.parametrize("seed", range(1, 6))
def test_unchecked_chain_map_equals_checked(seed, monkeypatch):
    from promc import chainf2
    reads = []
    read = chainf2._read
    monkeypatch.setattr(chainf2, "_read", lambda M, *a: reads.append(M) or read(M, *a))
    for m in _seeded_chain_maps(seed):
        degs = sorted(set(m.source.degrees) | set(m.target.degrees))
        arrays = {n: m.mat(n) for n in degs}  # immutable values: nothing to copy
        reads.clear()
        fast = BaseMap(m.source, m.target, mats=arrays, check=False)
        assert not reads
        slow = BaseMap(m.source, m.target, mats=dict(arrays), check=True)
        assert fast == slow == m
        assert hash(fast) == hash(slow) == hash(m)
        # check=False places the given values as they are; check=True reads each
        assert len(reads) == len(arrays)


@pytest.mark.parametrize("tag", [None, -1, 2.5, [], True, "bogus"])
def test_generators_refuse_an_unknown_instance(tag):
    with pytest.raises(MalformedError):
        gen_level_map(Rng(0), chain_poset(2), tag)
    with pytest.raises(MalformedError):
        gen_pro_object(Rng(0), chain_poset(2), tag)
    with pytest.raises(MalformedError):
        gen_shift_iso(Rng(0), tag)
    with pytest.raises(MalformedError):
        suite_factorization(tag, 1, 0)
