"""The descending-layout chain-map systems against the standard-layout
reference.

``chainf2.chain_map_system`` writes unknown c at bit total - c and the
right side at bit 0, and ``gf2.solve_high`` / ``gf2.null_vectors_high``
pivot on the highest bit.  ``helpers.reference_chain_map_system`` builds
the same rows in the standard layout (unknown c at bit c), where
``gf2.solve`` and ``gf2.null_vectors`` pivot on the lowest column.  The
two are mirror images, so for every system the solution, the
inconsistent systems, the null vectors and their order must be the same
bits.  Checked on every system built in one seed-1 round of the
``chainf2-lift`` benchmark workload (set-up, operations and replays), in
acceptance criterion 2 and in the ChainF2 ``hom`` and ``lift`` runs of
the CLI sweep (whose ChainF2 documents offer no lifting square, so hom
spaces only), and on inconsistent, zero-unknown and wide systems.
"""

import json
import pathlib

import pytest
from helpers import mirrored, reference_chain_map_system, standard_system

from promc import chainf2, gf2, suites
from promc.base import CHAIN_F2
from promc.chainf2 import chain_map_system, map_from_vector

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def assert_matches_reference(S, T, blocks):
    """The system of (S, T, blocks) solves and spans as its reference;
    returns (unknowns, solvable)."""
    M, offs = chain_map_system(S, T, blocks)
    A, b, ref_offs = reference_chain_map_system(S, T, blocks)
    total = A.ncols
    assert offs == ref_offs and M.shape == (len(A.rows), total + 1)
    assert standard_system(M) == (A, b)
    x, y = gf2.solve_high(M), gf2.solve(A, b)
    assert mirrored(x, total) == y
    if x is not None:
        h = map_from_vector(S, T, x, offs, check=False)
        for n, o in offs.items():
            s = S.dim(n)
            assert h.mat(n).tolist() == [[y >> (o + i * s + j) & 1 for j in range(s)]
                                         for i in range(T.dim(n))]
    vecs = gf2.null_vectors_high(M)
    assert [mirrored(v, total) for v in vecs] == gf2.null_vectors(A)
    return total, x is not None


class Recorder:
    """Every (S, T, blocks) that ``chain_map_system`` is called with while
    it is installed."""

    def __init__(self, monkeypatch):
        self.calls = []
        build = chainf2.chain_map_system

        def recorded(S, T, blocks=()):
            self.calls.append((S, T, tuple(blocks)))
            return build(S, T, blocks)

        monkeypatch.setattr(chainf2, "chain_map_system", recorded)

    def check(self):
        """Each recorded system against its reference: (unknowns,
        solvable) per system."""
        return [assert_matches_reference(*call) for call in self.calls]


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    return workloads


def test_a_lift_benchmark_round_matches_the_reference(monkeypatch):
    workloads = _workloads(monkeypatch)
    rec = Recorder(monkeypatch)
    work = workloads.make("chainf2-lift", None)
    items = work.build(1)
    for item in items:
        out = work.op(item)
        assert work.check(item, out) is None
        work.replay(item, work.certify(item, out))
    monkeypatch.undo()
    results = rec.check()
    assert max(total for total, _ in results) > 5000
    assert any(ok for _, ok in results) and any(not ok for _, ok in results)
    assert any(not blocks for _, _, blocks in rec.calls)  # hom spaces in set-up


def test_criterion_2_systems_match_the_reference(monkeypatch):
    rec = Recorder(monkeypatch)
    rep = suites.suite_lifting(CHAIN_F2, 100, 20240801 + 1)
    monkeypatch.undo()
    assert rep.ok
    results = rec.check()
    assert any(ok for _, ok in results) and any(not ok for _, ok in results)


def test_the_cli_sweep_chainf2_hom_and_lift_systems_match_the_reference(monkeypatch,
                                                                       tmp_path):
    import test_cli_sweep as sweep
    for name, raw in sweep.SEEDED.items():
        (tmp_path / name).write_text(json.dumps(raw))
    rec = Recorder(monkeypatch)
    ran = 0
    for argv in sweep.RUNS.values():
        doc = argv[3] if argv[0] == "--depth" else argv[1]
        raw = sweep.DOCUMENTS.get(doc)
        if sweep._command(argv) in ("hom", "lift") and raw and raw["instance"] == CHAIN_F2:
            sweep._digest(argv, tmp_path, tmp_path / "cert.json")
            ran += 1
    monkeypatch.undo()
    # the sweep's ChainF2 documents hold no lifting square: hom spaces only
    assert ran >= 20 and len(rec.calls) >= 40
    assert max(total for total, _ in rec.check()) > 0


def wide_case(seed):
    """(S, T, blocks): complexes of three degrees of dimension 5 to 7 with
    a random d_0, so h has more than 64 entries, and one block h_n·R =
    out per degree with R and out random."""
    rng = suites.Rng(500 + seed)

    def complex_():
        dims = [rng.randint(5, 7) for _ in range(3)]
        return chainf2.chain_obj(0, 2, dims, {0: rng.mat(dims[1], dims[0])})

    S, T = complex_(), complex_()
    blocks = [(n, gf2.eye(T.dim(n)), rng.mat(S.dim(n), S.dim(n)),
               rng.mat(T.dim(n), S.dim(n))) for n in S.degrees]
    return S, T, blocks


@pytest.mark.parametrize("seed", range(8))
def test_random_systems_wider_than_64_unknowns_match_the_reference(seed):
    S, T, blocks = wide_case(seed)
    assert assert_matches_reference(S, T, ())[0] > 64
    assert_matches_reference(S, T, blocks[:1])
    assert_matches_reference(S, T, blocks)


def test_the_wide_cases_include_consistent_and_inconsistent_systems():
    solvable = [gf2.solve_high(chain_map_system(S, T, blocks[:k])[0]) is not None
                for S, T, blocks in map(wide_case, range(8)) for k in (1, 3)]
    assert solvable.count(True) >= 2 and solvable.count(False) >= 2


def test_an_equation_zero_equals_one_is_inconsistent():
    X = chainf2.chain_obj(0, 1, [2, 1], {0: [[1, 1]]})
    one = gf2.eye(2)
    # h_0 = 1 and h_0 = 0 in degree 0
    blocks = [(0, one, one, one), (0, one, one, gf2.zeros(2, 2))]
    assert assert_matches_reference(X, X, blocks) == (5, False)
    # the same block twice is consistent
    assert assert_matches_reference(X, X, blocks[:1] * 2) == (5, True)


def test_systems_without_unknowns_match_the_reference():
    Z, X = chainf2.zero_complex(), chainf2.chain_obj(0, 1, [1, 1], {0: [[1]]})
    for S, T in ((Z, X), (X, Z), (Z, Z)):
        assert assert_matches_reference(S, T, ()) == (0, True)
    # a block in a degree where h has no entries: 0 = out
    empty = gf2.zeros(0, 0)
    assert assert_matches_reference(Z, X, [(0, gf2.eye(1), empty, gf2.zeros(1, 0))]) \
        == (0, True)
    assert assert_matches_reference(X, Z, [(0, gf2.zeros(1, 0), gf2.eye(1),
                                            gf2.eye(1))]) == (0, False)
    M, _ = chain_map_system(Z, Z)
    assert M.shape == (0, 1) and gf2.solve_high(M) == 0
    assert gf2.null_vectors_high(M) == []


def test_no_chain_map_system_reaches_the_lowest_bit_solvers(monkeypatch):
    """Lifts, hom spaces and the square generator solve through the
    highest-bit path only: ``gf2.solve`` and ``gf2.null_vectors`` are
    left to limits, colimits, ``corestrict`` and inverses."""
    rng = suites.Rng(11)
    X, Y = (chainf2.gen_complex(rng, max_deg=2, max_dim=3) for _ in range(2))
    f = chainf2.INSTANCE.gen_map(rng, X, Y)
    fs = chainf2.factor_map(f, chainf2.COF_ACF)
    v_up = chainf2.INSTANCE.gen_map(rng, X, Y)

    def refuse(*args):
        raise AssertionError("a lowest-bit solver was called")

    monkeypatch.setattr(gf2, "solve", refuse)
    monkeypatch.setattr(gf2, "null_vectors", refuse)
    j, p = fs.left, fs.right
    h = chainf2.INSTANCE.lift(j, p, j, p)
    assert chainf2.compose(h, j) == j and chainf2.compose(p, h) == p
    assert len(chainf2.INSTANCE.hom(X, X)) >= 1
    a, b = chainf2.INSTANCE.gen_square(rng, v_up, v_up, tries=3)
    assert chainf2.compose(v_up, a) == chainf2.compose(b, v_up)
