import itertools

import numpy as np
import pytest

from promc import gf2
from promc.base import (chain_map, chain_obj, classify_map, compose, identity,
                        set_map, set_obj, zero_complex)
from promc.baselim import (Cone, Diagram, finite_colimit, finite_limit,
                           pullback, pushout)
from promc.errors import MalformedError, PreconditionError

from helpers import (disk1, disk_to_sphere, image_basis, random_chain_map,
                     random_complex, random_set_map, random_set_obj, shifted, sphere0)


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


def test_diagram_refuses_an_edge_with_one_unknown_or_mismatched_end():
    A, B = set_obj(["a"]), set_obj(["b", "c"])
    f = set_map(A, B, {"a": "b"})
    for edge in (("A", "C", f), ("C", "B", f)):
        with pytest.raises(MalformedError, match="unknown node"):
            Diagram({"A": A, "B": B}, [edge])
    for nodes in ({"A": A, "B": A}, {"A": B, "B": B}):
        with pytest.raises(MalformedError, match="endpoints disagree"):
            Diagram(nodes, [("A", "B", f)])


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


# ------------------------------------ ChainF2 colimits and images, by solve
#
# The colimit and image that ChainF2 built with ``image_basis`` (now the
# reference in ``helpers``), ``gf2.quotient_map`` and ``gf2.solve``
# before it read them off one canonical basis per degree, kept as the
# reference: the RREF is unique, so both give the same bits.


def _blocks(rows, cols, parts):
    """The 0/1 matrix with row blocks of sizes *rows* and column blocks
    of sizes *cols*, block (i, j) being parts[i, j] or zero."""
    c = [0, *itertools.accumulate(cols)]
    grid = [[0] * h for h in rows]
    for (i, j), B in parts.items():
        grid[i] = [a | b << c[j] for a, b in zip(grid[i], B.rows)]
    return gf2.Mat(tuple(itertools.chain.from_iterable(grid)), c[-1])


def _columns(M, span):
    """The columns of *M* in the slice *span*."""
    mask = (1 << (span.stop - span.start)) - 1
    return gf2.Mat(tuple(r >> span.start & mask for r in M.rows), span.stop - span.start)


def _layout(diagram):
    """(nodes, degrees, span, width) of the product of the node objects,
    degree by degree: span[n][v] the slice of node v in degree n and
    width[n] the dimension of the product there."""
    nodes = sorted(diagram.nodes)
    degs = sorted({n for v in nodes for n in diagram.nodes[v].degrees})
    span, width = {}, {}
    for n in degs:
        ends = [0, *itertools.accumulate(diagram.nodes[v].dim(n) for v in nodes)]
        span[n] = {v: slice(ends[k], ends[k + 1]) for k, v in enumerate(nodes)}
        width[n] = ends[-1]
    return nodes, degs, span, width


def _block_diff(diagram, nodes, n):
    """The block-diagonal boundary degree n -> n+1 of the product of the
    node objects."""
    objs = [diagram.nodes[v] for v in nodes]
    return _blocks([X.dim(n + 1) for X in objs], [X.dim(n) for X in objs],
                   {(k, k): X.d(n) for k, X in enumerate(objs)})


def solve_colimit(diagram):
    """(apex, legs, factor) of the ChainF2 colimit, with a section of the
    quotient map solved for."""
    from promc.chainf2 import ChainMap, ChainObject
    nodes, degs, span, width = _layout(diagram)
    quotients, sections = {}, {}
    for n in degs:
        cols = []
        for src, tgt, f in diagram.edges:
            a, b = span[n][src].start, span[n][tgt].start
            cols += [(1 << (a + k)) ^ (c << b)
                     for k, c in enumerate(gf2.transpose(f.mat(n)).rows)]
        U = gf2.transpose(gf2.Mat(tuple(cols), width[n]))
        Q, k = gf2.quotient_map(image_basis(U), width[n])
        quotients[n] = Q
        sections[n] = gf2.solve(Q, gf2.eye(k)) if k else gf2.zeros(width[n], 0)
    lo, hi = degs[0], degs[-1]
    diff = {n: gf2.matmul(gf2.matmul(quotients[n + 1], _block_diff(diagram, nodes, n)),
                          sections[n])
            for n in range(lo, hi)}
    apex = ChainObject(lo, hi, {n: quotients[n].shape[0] for n in degs}, diff)
    legs = {v: ChainMap(diagram.nodes[v], apex,
                        {n: _columns(quotients[n], span[n][v]) for n in degs})
            for v in nodes}

    def factor(cocone):
        mats = {}
        for n in degs:
            stacked = _blocks([cocone.apex.dim(n)],
                              [diagram.nodes[v].dim(n) for v in nodes],
                              {(0, k): cocone.legs[v].mat(n) for k, v in enumerate(nodes)})
            m = gf2.matmul(stacked, sections[n])
            if gf2.matmul(m, quotients[n]) != stacked:
                raise PreconditionError("cocone does not factor through the colimit")
            mats[n] = m
        return ChainMap(apex, cocone.apex, mats)

    return apex, legs, factor


def solve_image(f):
    """(image, corestriction, inclusion) of a chain map, solved for."""
    from promc.chainf2 import ChainMap, ChainObject, _degrees
    bases = {n: image_basis(f.mat(n)) for n in _degrees(f.source, f.target)}
    degs = sorted(bases)
    diff = {n: gf2.solve(bases[n + 1], gf2.matmul(f.target.d(n), bases[n]))
            for n in range(degs[0], degs[-1])}
    img = ChainObject(degs[0], degs[-1], {n: bases[n].shape[1] for n in degs}, diff)
    core = ChainMap(f.source, img, {n: gf2.solve(bases[n], f.mat(n)) for n in degs},
                    check=False)
    return img, core, ChainMap(img, f.target, bases, check=False)


def chain_diagram(seed):
    """A seeded ChainF2 diagram of 1-3 complexes over shifted degree
    ranges (so some degrees are zero-dimensional), with no edges, one
    edge or parallel edges between the nodes."""
    rng = np.random.default_rng(1300 + seed)
    names = ["a", "b", "c"][:1 + seed % 3]
    nodes = {v: shifted(random_complex(rng), int(rng.integers(-1, 2))) for v in names}
    edges = []
    for i, src in enumerate(names):
        for tgt in names[i + 1:]:
            for _ in range(int(rng.integers(0, 3))):  # 0, 1 or 2 parallel edges
                edges.append((src, tgt, random_chain_map(rng, nodes[src], nodes[tgt])))
    return rng, Diagram(nodes, edges)


@pytest.mark.parametrize("seed", range(40))
def test_chain_colimit_equals_the_solved_colimit(seed):
    rng, dia = chain_diagram(seed)
    col = finite_colimit(dia)
    apex, legs, factor = solve_colimit(dia)
    assert col.apex == apex  # dimensions and boundaries
    assert col.legs == legs
    W = random_complex(rng)
    g = random_chain_map(rng, col.apex, W)
    cocone = Cone(dia, W, {v: compose(g, leg) for v, leg in col.legs.items()})
    assert col.mediate(cocone) == factor(cocone) == g
    bad = Cone(dia, W, {v: random_chain_map(rng, X, W) for v, X in dia.nodes.items()})
    outcomes = []
    for fac in (col.factor, factor):
        try:
            outcomes.append(fac(bad))
        except PreconditionError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("seed", range(40))
def test_chain_image_equals_the_solved_image(seed):
    from promc.base import COF_ACF, factor_map
    rng = np.random.default_rng(1400 + seed)
    X = shifted(random_complex(rng), int(rng.integers(-1, 2)))
    Y = random_complex(rng)
    f = random_chain_map(rng, X, Y) if seed % 4 else chain_map(X, Y, {})
    # the cylinder's projection (x, x', y) -> f x + y has the zero columns
    # of x' among its pivot columns
    for m in (f, factor_map(f, COF_ACF).right):
        img, core, incl = m.instance.image(m)
        ref = solve_image(m)
        assert img == ref[0]  # dimensions and boundaries
        assert (core, incl) == ref[1:]
        assert compose(incl, core) == m


def test_chain_limits_colimits_and_images_solve_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("gf2.solve called")

    monkeypatch.setattr(gf2, "solve", refuse)
    for seed in range(12):
        rng, dia = chain_diagram(seed)
        for cone in (finite_limit(dia), finite_colimit(dia)):
            assert cone.mediate(Cone(dia, cone.apex, dict(cone.legs))) == \
                identity(cone.apex)
        src, tgt = dia.nodes["a"], random_complex(rng)
        img, core, incl = src.instance.image(random_chain_map(rng, src, tgt))
        assert img.instance.classify(incl).is_cof
