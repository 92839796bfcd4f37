"""ChainF2's block kernels against per-degree references.

ChainF2 keeps each value as one block matrix over total spaces and
composes, compares, classifies and takes limits with one product or one
elimination.  The references here take one matrix per degree, through
the ``d(n)`` and ``mat(n)`` views: composites and equality degree by
degree, classes from the rank of each degree and the mapping cone
degree by degree, limits from one null basis per degree, documents from
the views of each degree.  The inputs
are seeded complexes and maps over shifted, overlapping and disjoint
degree ranges, with zero-dimensional degrees.
"""

import itertools
import json

import numpy as np
import pytest

from promc import gf2
from promc.base import (ACOF_FIB, COF_ACF, MapClasses, chain_map, chain_obj,
                        classify_map, compose, factor_map, identity, zero_complex)
from promc.baselim import Cone, Diagram, finite_limit
from promc.errors import MalformedError, PreconditionError

from helpers import random_chain_map, random_complex, shifted


def _degrees(*objs):
    """Every degree of the objects, with one more at each end."""
    return range(min(X.lo for X in objs) - 1, max(X.hi for X in objs) + 2)


def _maps(seed):
    """(name, map, second map or None): random maps over equal, shifted
    and disjoint degree ranges, maps to and from the zero complex,
    identities and factorization legs; the second map composes after
    the first."""
    rng = np.random.default_rng(2200 + seed)
    X, Y, Z = (random_complex(rng) for _ in range(3))
    gap = int(rng.integers(1, 3))
    Yd = shifted(Y, X.hi + gap)  # disjoint from X
    f = random_chain_map(rng, X, Y)
    cases = [("random", f, random_chain_map(rng, Y, Z)),
             ("shifted", random_chain_map(rng, shifted(X, -1), Y),
              random_chain_map(rng, Y, shifted(Z, 1))),
             ("disjoint", random_chain_map(rng, X, Yd), random_chain_map(rng, Yd, Z)),
             ("from zero", chain_map(zero_complex(), shifted(Y, -gap), {}), None),
             ("to zero", chain_map(X, zero_complex(), {}), None),
             ("identity", identity(X), f)]
    for mode in (COF_ACF, ACOF_FIB):
        fp = factor_map(f, mode)
        cases.append((f"{mode} legs", fp.left, fp.right))
    return cases


def compose_by_degree(g, f):
    return {n: gf2.matmul(g.mat(n), f.mat(n)) for n in _degrees(f.source, g.target)}


def equal_by_degree(f, g):
    return f.source == g.source and f.target == g.target and all(
        f.mat(n) == g.mat(n) for n in _degrees(f.source, f.target))


def classify_by_degree(f):
    """Classes from one rank per degree; we from the mapping cone
    C_n = X_{n+1} ⊕ Y_n, acyclic iff rank D_n + rank D_{n-1} = dim C_n
    in every degree."""
    X, Y = f.source, f.target
    ranks = {n: gf2.rank(f.mat(n)) for n in _degrees(X, Y)}
    we, prev = True, 0
    for n in _degrees(X, Y):
        a, width = X.dim(n + 1), X.dim(n + 1) + Y.dim(n)
        rows = X.d(n + 1).rows + tuple(
            x | y << a for x, y in zip(f.mat(n + 1).rows, Y.d(n).rows))
        r = gf2.rank(gf2.Mat(rows, width))
        we = we and r + prev == width
        prev = r
    return MapClasses(is_we=we, is_cof=all(r == X.dim(n) for n, r in ranks.items()),
                      is_fib=all(r == Y.dim(n) for n, r in ranks.items()))


@pytest.mark.parametrize("seed", range(25))
def test_compose_and_equality_match_the_degrees(seed):
    for name, f, g in _maps(seed):
        if g is not None:
            gf = compose(g, f)
            assert {n: gf.mat(n) for n in _degrees(f.source, g.target)} \
                == compose_by_degree(g, f), name
        copy = chain_map(f.source, f.target, {n: f.mat(n).tolist()
                                              for n in f.source.degrees})
        assert copy == f and hash(copy) == hash(f) and equal_by_degree(copy, f), name
        for n in f.source.degrees:  # one entry flipped
            M = f.mat(n)
            if M.ncols and M.rows:
                flipped = {k: f.mat(k) for k in f.source.degrees}
                flipped[n] = gf2.Mat((M.rows[0] ^ 1,) + M.rows[1:], M.ncols)
                try:
                    other = chain_map(f.source, f.target, flipped)
                except MalformedError:  # not a chain map: nothing to compare
                    continue
                assert (other == f) is False and not equal_by_degree(other, f), name


@pytest.mark.parametrize("seed", range(25))
def test_classify_matches_the_degrees(seed):
    for name, f, g in _maps(seed):
        for m in (f,) if g is None else (f, g):
            assert classify_map(m) == classify_by_degree(m), name


def test_the_classify_cases_hold_every_verdict():
    seen = {(c.is_we, c.is_cof, c.is_fib) for seed in range(25)
            for _, f, g in _maps(seed) for m in (f, g) if m is not None
            for c in [classify_map(m)]}
    assert {we for we, _, _ in seen} == {cof for _, cof, _ in seen} \
        == {fib for _, _, fib in seen} == {False, True}


# ------------------------------------------------------------------ writers


def obj_doc_by_degree(X):
    """The ChainF2 object document through the ``dim`` and ``d`` views."""
    return {"lo": X.lo, "hi": X.hi,
            "dims": [X.dim(n) for n in X.degrees],
            "d": {str(n): X.d(n).tolist()
                  for n in range(X.lo, X.hi) if X.dim(n) and X.dim(n + 1)}}


def map_doc_by_degree(f):
    """The ChainF2 map document through the ``mat`` views, degrees in the
    writer's order."""
    degs = set(f.source.degrees) | set(f.target.degrees)
    return {str(n): f.mat(n).tolist() for n in degs
            if f.source.dim(n) and f.target.dim(n)}


@pytest.mark.parametrize("seed", range(25))
def test_writers_match_the_degree_views(seed):
    """Same documents, key order included, as the views give: maps over
    equal, shifted and disjoint ranges, zero maps, and degrees wider than
    the unpacking table."""
    rng = np.random.default_rng(2400 + seed)
    X, Y = (random_complex(rng, max_deg=3, max_dim=11) for _ in range(2))
    cases = _maps(seed) + [("wide", random_chain_map(rng, X, Y), None),
                           ("wide shifted", random_chain_map(rng, shifted(X, -2), Y), None),
                           ("zero", chain_map(X, Y, {}), None)]
    inst = X.instance
    for name, f, g in cases:
        for m in (f,) if g is None else (f, g):
            assert json.dumps(inst.map_to_doc(m)) == json.dumps(map_doc_by_degree(m)), name
            for Z in (m.source, m.target):
                assert json.dumps(inst.obj_to_doc(Z)) == json.dumps(obj_doc_by_degree(Z)), \
                    name


# ------------------------------------------------------------------ limits


def limit_by_degree(diagram):
    """(dims, diff, legs, factor): the limit's dimension and boundary per
    degree, each leg's matrix per degree and the mediating maps' per
    degree, from one null basis of the edge equations per degree."""
    nodes = sorted(diagram.nodes)
    objs = [diagram.nodes[v] for v in nodes]
    lo, hi = min(X.lo for X in objs), max(X.hi for X in objs)
    degs = range(lo, hi + 1)
    span, basis, free = {}, {}, {}
    for n in degs:
        ends = [0, *itertools.accumulate(X.dim(n) for X in objs)]
        span[n] = {v: range(ends[k], ends[k + 1]) for k, v in enumerate(nodes)}
        rows = []
        for src, tgt, f in diagram.edges:
            a, b = span[n][src].start, span[n][tgt].start
            rows += [(r << a) ^ (1 << (b + k)) for k, r in enumerate(f.mat(n).rows)]
        vecs = gf2.null_vectors(gf2.Mat(tuple(rows), ends[-1]))
        free[n] = [v.bit_length() - 1 for v in vecs]
        basis[n] = gf2.transpose(gf2.Mat(tuple(vecs), ends[-1]))

    def coordinates(n, M):
        X = gf2.Mat(tuple(M.rows[fc] for fc in free[n]), M.ncols)
        return X if gf2.matmul(basis[n], X) == M else None

    def stacked(n, mats):
        """The matrices mats[v] (rows of node v in degree n), stacked."""
        return gf2.Mat(tuple(r for v in nodes for r in mats[v].rows),
                       mats[nodes[0]].ncols)

    diff = {}
    for n in range(lo, hi):
        images = {v: gf2.matmul(X.d(n), gf2.Mat(tuple(basis[n].rows[i] for i in span[n][v]),
                                                 basis[n].ncols))
                  for v, X in zip(nodes, objs)}
        diff[n] = coordinates(n + 1, stacked(n + 1, images))
        assert diff[n] is not None
    dims = {n: len(free[n]) for n in degs}
    legs = {v: {n: gf2.Mat(tuple(basis[n].rows[i] for i in span[n][v]), dims[n])
                for n in degs} for v in nodes}

    def factor(cone):
        out = {}
        for n in degs:
            sol = coordinates(n, stacked(n, {v: cone.legs[v].mat(n) for v in nodes}))
            if sol is None:
                raise PreconditionError("cone does not factor through the limit")
            out[n] = sol
        return out

    return dims, diff, legs, factor


def limit_diagram(seed):
    """A seeded diagram of 1-3 complexes with edges between them, the
    degree ranges shifted apart or overlapping (some degrees of the
    product then have no node at all)."""
    rng = np.random.default_rng(2300 + seed)
    names = ["a", "b", "c"][:1 + seed % 3]
    shifts = [0, int(rng.integers(-1, 2)), int(rng.integers(2, 5))]
    nodes = {v: shifted(random_complex(rng), k) for v, k in zip(names, shifts)}
    edges = []
    for i, src in enumerate(names):
        for tgt in names[i + 1:]:
            for _ in range(int(rng.integers(0, 3))):
                edges.append((src, tgt, random_chain_map(rng, nodes[src], nodes[tgt])))
    return rng, Diagram(nodes, edges)


@pytest.mark.parametrize("seed", range(40))
def test_limit_matches_the_degrees(seed):
    rng, dia = limit_diagram(seed)
    lim = finite_limit(dia)
    dims, diff, legs, factor = limit_by_degree(dia)
    apex = lim.apex
    assert (apex.lo, apex.hi) == (min(dims), max(dims))
    assert {n: apex.dim(n) for n in dims} == dims
    assert {n: apex.d(n) for n in diff} == diff
    for v, leg in lim.legs.items():
        assert {n: leg.mat(n) for n in dims} == legs[v]
    W = random_complex(rng)
    g = random_chain_map(rng, W, apex)
    cone = Cone(dia, W, {v: compose(leg, g) for v, leg in lim.legs.items()})
    m = lim.mediate(cone)
    assert m == g and {n: m.mat(n) for n in dims} == factor(cone)
    bad = Cone(dia, W, {v: random_chain_map(rng, W, X) for v, X in dia.nodes.items()})
    outcomes = []
    for fac in (lim.factor, factor):
        try:
            out = fac(bad)
            outcomes.append(out if isinstance(out, dict) else
                            {n: out.mat(n) for n in dims})
        except PreconditionError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]


def test_a_limit_over_a_degree_no_node_has_is_zero_there():
    a, b = chain_obj(0, 0, [2]), chain_obj(3, 4, [1, 1], {3: [[1]]})
    lim = finite_limit(Diagram({"a": a, "b": b}, []))
    assert (lim.apex.lo, lim.apex.hi) == (0, 4)
    assert [lim.apex.dim(n) for n in range(5)] == [2, 0, 0, 1, 1]
    assert lim.apex.d(3).tolist() == [[1]]
