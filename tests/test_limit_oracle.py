"""Finite limits against their definition, by brute force.

A limit of a finite diagram is the set of compatible tuples: one
element (one vector, for ChainF2) per node, every edge commuting on
them.  The oracle below enumerates the whole product with a plain
``itertools.product`` and checks every edge; it calls no limit code of
promc.  It is compared with ``finite_limit`` on hand-built diagrams with
loops, cycles and parallel edges, and on every diagram that
``finite_limit`` receives in seeded SetBij and ChainF2
``suite_factorization`` and ``suite_cocell`` runs.

A SetBij apex element is named by its coordinates at the in-degree-zero
nodes, or at every node when the diagram has a cycle, and the apex lists
the names in sorted order; the oracle checks the names too.
"""

import itertools

import pytest

from promc import baselim, prohom, strict, suites
from promc.base import chain_map, chain_obj, identity, set_map, set_obj
from promc.baselim import Diagram, finite_limit

SET_PRODUCT_CAP = 50_000  # SetBij diagrams whose product is larger are skipped
CHAIN_BITS_CAP = 14  # ChainF2 diagrams whose product has more bits are skipped


def _has_cycle(dia):
    """Whether the edges of *dia* close a cycle, by repeatedly removing
    the nodes that no remaining edge enters."""
    left = set(dia.nodes)
    while True:
        entered = {tgt for src, tgt, _ in dia.edges if src in left and tgt in left}
        if entered == left:
            return bool(left)
        left = entered


def set_oracle(dia):
    """The compatible tuples of the SetBij diagram *dia*, as (node ->
    element) dicts."""
    nodes = sorted(dia.nodes)
    out = []
    for xs in itertools.product(*(dia.nodes[v].elements for v in nodes)):
        row = dict(zip(nodes, xs))
        if all(f.mapping[row[src]] == row[tgt] for src, tgt, f in dia.edges):
            out.append(row)
    return out


def check_set_limit(dia):
    lim = finite_limit(dia)
    assert lim.check_limit_cone() is None
    nodes = sorted(dia.nodes)
    got = [tuple(lim.legs[v].mapping[a] for v in nodes) for a in lim.apex.elements]
    want = [tuple(row[v] for v in nodes) for row in set_oracle(dia)]
    assert len(set(got)) == len(got)
    assert set(got) == set(want)
    ins = {tgt for _, tgt, _ in dia.edges}
    key = nodes if _has_cycle(dia) else [v for v in nodes if v not in ins]
    names = ["(" + ",".join(lim.legs[v].mapping[a] for v in key) + ")"
             for a in lim.apex.elements]
    assert list(lim.apex.elements) == names == sorted(names)
    return lim


def _apply(M, x):
    """The ``gf2.Mat`` *M* applied to the vector *x* (bit c = coordinate c)."""
    return sum(1 << k for k, r in enumerate(M.rows) if (r & x).bit_count() % 2)


def _bits(X):
    return sum(X.dim(n) for n in X.degrees)


def _vectors(X):
    """Every vector of the complex *X*, as a tuple of one int per degree."""
    return itertools.product(*(range(1 << X.dim(n)) for n in X.degrees))


def _image(f, x):
    """The chain map *f* applied to the vector *x* of its source."""
    at = dict(zip(f.source.degrees, x))
    return tuple(_apply(f.mat(n), at.get(n, 0)) for n in f.target.degrees)


def chain_oracle(dia):
    """The compatible tuples of the ChainF2 diagram *dia*: every tuple of
    vectors, one per node in sorted order, kept when every edge map takes
    its source's vector to its target's."""
    nodes = sorted(dia.nodes)
    tables = [(src, tgt, {x: _image(f, x) for x in _vectors(f.source)})
              for src, tgt, f in dia.edges]
    out = set()
    for xs in itertools.product(*(list(_vectors(dia.nodes[v])) for v in nodes)):
        row = dict(zip(nodes, xs))
        if all(table[row[src]] == row[tgt] for src, tgt, table in tables):
            out.add(xs)
    return out


def check_chain_limit(dia):
    lim = finite_limit(dia)
    assert lim.check_limit_cone() is None
    nodes = sorted(dia.nodes)
    image = {tuple(_image(lim.legs[v], a) for v in nodes) for a in _vectors(lim.apex)}
    assert len(image) == 1 << _bits(lim.apex)  # the stacked legs are injective
    assert image == chain_oracle(dia)
    return lim


# ------------------------------------------------------------ hand-built

A2 = set_obj(["a", "b"])
SWAP = set_map(A2, A2, {"a": "b", "b": "a"})
CONST = set_map(A2, A2, {"a": "a", "b": "a"})


def test_setbij_swap_loop_has_the_empty_limit():
    lim = check_set_limit(Diagram({"A": A2}, [("A", "A", SWAP)]))
    assert lim.apex.elements == ()


def test_setbij_identity_loop_keeps_both_elements():
    lim = check_set_limit(Diagram({"A": A2}, [("A", "A", identity(A2))]))
    assert lim.apex.elements == ("(a)", "(b)")


def test_setbij_constant_loop_keeps_its_fixed_point():
    lim = check_set_limit(Diagram({"A": A2}, [("A", "A", CONST)]))
    assert lim.apex.elements == ("(a)",)


def test_setbij_two_node_cycle_without_a_compatible_pair_is_empty():
    B = set_obj(["x", "y"])
    f = set_map(A2, B, {"a": "x", "b": "y"})
    g = set_map(B, A2, {"x": "b", "y": "a"})
    lim = check_set_limit(Diagram({"A": A2, "B": B}, [("A", "B", f), ("B", "A", g)]))
    assert lim.apex.elements == ()


def test_setbij_two_node_cycle_names_by_full_tuples():
    B = set_obj(["x", "y"])
    f = set_map(A2, B, {"a": "x", "b": "y"})
    g = set_map(B, A2, {"x": "a", "y": "a"})
    lim = check_set_limit(Diagram({"A": A2, "B": B}, [("A", "B", f), ("B", "A", g)]))
    assert lim.apex.elements == ("(a,x)",)


def test_setbij_cycle_feeding_a_tail():
    C = set_obj(["u", "v", "w"])
    h = set_map(A2, C, {"a": "u", "b": "w"})
    lim = check_set_limit(Diagram({"A": A2, "C": C},
                                  [("A", "A", CONST), ("A", "C", h)]))
    assert lim.apex.elements == ("(a,u)",)


def test_setbij_parallel_edges_give_the_equalizer():
    B = set_obj(["x", "y"])
    f = set_map(A2, B, {"a": "x", "b": "y"})
    g = set_map(A2, B, {"a": "x", "b": "x"})
    lim = check_set_limit(Diagram({"A": A2, "B": B}, [("A", "B", f), ("A", "B", g)]))
    assert lim.apex.elements == ("(a)",)


def test_setbij_disjoint_nodes_give_the_product():
    B = set_obj(["x", "y", "z"])
    lim = check_set_limit(Diagram({"A": A2, "B": B}))
    assert len(lim.apex.elements) == 6


def _chain2():
    return chain_obj(0, 0, [2])


def test_chainf2_swap_loop_keeps_the_fixed_subspace():
    X = _chain2()
    swap = chain_map(X, X, {0: [[0, 1], [1, 0]]})
    lim = check_chain_limit(Diagram({"A": X}, [("A", "A", swap)]))
    assert _bits(lim.apex) == 1


def test_chainf2_two_node_cycle_and_parallel_edges():
    X, Y = _chain2(), chain_obj(0, 0, [1])
    f = chain_map(X, Y, {0: [[1, 1]]})
    g = chain_map(Y, X, {0: [[1], [0]]})
    check_chain_limit(Diagram({"A": X, "B": Y}, [("A", "B", f), ("B", "A", g)]))
    h = chain_map(X, Y, {0: [[1, 0]]})
    lim = check_chain_limit(Diagram({"A": X, "B": Y}, [("A", "B", f), ("A", "B", h)]))
    assert _bits(lim.apex) == 1


def test_chainf2_identity_loop_on_a_disk_keeps_every_degree():
    D = chain_obj(0, 1, [1, 1], {0: [[1]]})
    lim = check_chain_limit(Diagram({"A": D}, [("A", "A", identity(D))]))
    assert _bits(lim.apex) == 2


# ------------------------------------------------- captured from the suites

def _captured(monkeypatch, suite, instance, trials, seed):
    """Every diagram ``finite_limit`` receives while *suite* runs."""
    seen, limit = [], baselim.finite_limit

    def capture(dia):
        seen.append(dia)
        return limit(dia)

    for module in (baselim, strict, prohom):
        monkeypatch.setattr(module, "finite_limit", capture)
    rep = suite(instance, trials, seed)
    assert not rep.failures
    return seen


@pytest.mark.parametrize("suite", [suites.suite_factorization, suites.suite_cocell])
@pytest.mark.parametrize("seed", [1, 2])
def test_setbij_suite_limits_are_the_compatible_tuples(monkeypatch, suite, seed):
    diagrams = _captured(monkeypatch, suite, "set-bij", 10, seed)
    checked = [d for d in diagrams
               if len(d.nodes) and _size(d) <= SET_PRODUCT_CAP]
    assert len(checked) >= 0.9 * len(diagrams) > 0
    for dia in checked:
        check_set_limit(dia)


def _size(dia):
    n = 1
    for X in dia.nodes.values():
        n *= len(X.elements)
    return n


@pytest.mark.parametrize("suite", [suites.suite_factorization, suites.suite_cocell])
@pytest.mark.parametrize("seed", [1, 2])
def test_chainf2_suite_limits_are_the_compatible_tuples(monkeypatch, suite, seed):
    diagrams = _captured(monkeypatch, suite, "chain-f2", 10, seed)
    checked = [d for d in diagrams
               if len(d.nodes) and sum(map(_bits, d.nodes.values())) <= CHAIN_BITS_CAP]
    assert len(checked) >= 10
    for dia in checked:
        check_chain_limit(dia)
