"""The benchmark's own tests: every correctness check accepts the
program's real output and rejects a deliberately wrong one, and the
traced run's wrappers reach names copied between promc modules.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench_checks.py
"""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from promc import strict  # noqa: E402
from promc.base import BaseMap, chain_obj, zero_complex  # noqa: E402
from promc.prohom import constant_embed  # noqa: E402
from promc.proobj import level_map  # noqa: E402
from promc.strict import LiftResult  # noqa: E402

# ------------------------------------------------------- GF(2) on ints


def test_rank_and_matmul_on_int_rows():
    A = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    rows = checks.rows_of(A)
    assert rows == [0b011, 0b110, 0b101]
    assert checks.rank(rows) == 2  # third row is the sum of the others
    B = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    want = checks.rows_of((A.astype(int) @ B.astype(int)) % 2)
    assert checks.matmul(rows, checks.rows_of(B)) == want


# --------------------------------------------- hand-made factorizations
#
# Over the one-point index: S0 and S1 are one generator in degree 0 and
# 1; D1 is the acyclic disk with d: degree 0 -> degree 1 the identity.

S0 = chain_obj(0, 0, [1])
S1 = chain_obj(1, 1, [1])
D1 = chain_obj(0, 1, [1, 1], {0: [[1]]})
Z0 = zero_complex()


def pro(obj):
    return constant_embed(obj)


def lvl(src, tgt, mats, check=True):
    m = BaseMap(src, tgt, mats=mats, check=check)
    return level_map(pro(src), pro(tgt), {"pt": m}, check=False)


def fake_factorization(f, left, right):
    return SimpleNamespace(left=left, right=right), f


def test_factorization_check_accepts_identity():
    fs, f = fake_factorization(lvl(S0, S0, {0: [[1]]}), lvl(S0, S0, {0: [[1]]}),
                               lvl(S0, S0, {0: [[1]]}))
    assert checks.check_factorization(fs, f, "L1") is None
    assert checks.check_factorization(fs, f, "L2") is None


@pytest.mark.parametrize("case, mode, reason", [
    # right ∘ left = 0, but f is the identity
    ((lvl(S0, S0, {0: [[1]]}), lvl(S0, S0, {0: [[1]]}), lvl(S0, S0, {})),
     "L1", "differs from f"),
    # left is not a chain map (d∘left ≠ 0)
    ((lvl(S0, Z0, {}), lvl(S0, D1, {0: [[1]]}, check=False), lvl(D1, Z0, {})),
     "L1", "left not a chain map"),
    # left factors through zero: not injective
    ((lvl(S0, S0, {}), lvl(S0, Z0, {}), lvl(Z0, S0, {})),
     "L1", "left not injective"),
    # right is zero onto S0: not surjective
    ((lvl(S0, S0, {}), lvl(S0, S0, {0: [[1]]}), lvl(S0, S0, {})),
     "L1", "right not surjective"),
    # D1 -> S0 is surjective but not a quasi-isomorphism
    ((lvl(Z0, S0, {}), lvl(Z0, D1, {}), lvl(D1, S0, {0: [[1]]})),
     "L1", "right is not a quasi-isomorphism"),
    # S1 -> D1 is injective but not a quasi-isomorphism
    ((lvl(S1, Z0, {}), lvl(S1, D1, {1: [[1]]}), lvl(D1, Z0, {})),
     "L2", "left is not a quasi-isomorphism"),
])
def test_factorization_check_rejects(case, mode, reason):
    f, left, right = case
    fs, f = fake_factorization(f, left, right)
    err = checks.check_factorization(fs, f, mode)
    assert err is not None and reason in err


def test_factorization_check_mode_matters():
    # the last two cases pass in the other mode: the quasi-isomorphism
    # side is the one the mode names
    fs, f = fake_factorization(lvl(Z0, S0, {}), lvl(Z0, D1, {}),
                               lvl(D1, S0, {0: [[1]]}))
    assert checks.check_factorization(fs, f, "L2") is None
    fs, f = fake_factorization(lvl(S1, Z0, {}), lvl(S1, D1, {1: [[1]]}),
                               lvl(D1, Z0, {}))
    assert checks.check_factorization(fs, f, "L1") is None


@pytest.mark.parametrize("shape", ["chain2", "vee3"])
@pytest.mark.parametrize("mode", ["L1", "L2"])
def test_factorization_check_accepts_program_output(shape, mode):
    f = workloads.level_map(3, shape, 0)
    assert checks.check_factorization(strict.factor_strict(f, mode), f, mode) is None


# ----------------------------------------------------------------- lifts


def _square(shape, mode):
    fs = strict.factor_strict(workloads.level_map(3, shape, 0), mode)
    return workloads.Lift.plain(fs, mode)


def _corrupt(res, s, new):
    comps = dict(res.components)
    comps[s] = new
    return LiftResult(lift=res.lift, level_index=res.level_index, components=comps)


@pytest.mark.parametrize("mode", ["L1", "L2"])
def test_lift_check_rejects_wrong_components(mode):
    square, mode, special = _square("chain2", mode)
    res = strict.lift_strict(*square, mode=mode, special=special)
    assert checks.check_lift(square, res) is None
    top = square[2]
    s = next(s for s in res.components if top.level_component(s)._mats)
    h = res.components[s]
    zero = BaseMap(h.source, h.target, mats={}, check=False)
    assert "triangle" in checks.check_lift(square, _corrupt(res, s, zero))
    n = next(iter(h._mats))
    flipped = {d: M.copy() for d, M in h._mats.items()}
    flipped[n][0, 0] ^= 1
    bad = BaseMap(h.source, h.target, mats=flipped, check=False)
    assert checks.check_lift(square, _corrupt(res, s, bad)) is not None


def test_lift_check_accepts_nested_square():
    fs = strict.factor_strict(workloads.level_map(3, "chain3", 0), "L1")
    square, mode, special = workloads.Lift.nested(fs, "L1")
    res = strict.lift_strict(*square, mode=mode, special=special)
    assert checks.check_lift(square, res) is None


@pytest.mark.parametrize("seed", [1, 7])
def test_large_lift_slots_stay_in_their_band(seed):
    # the fixed slots of the large L2 squares were picked by this band
    for shape, slots, (lo, hi) in workloads.Lift.large:
        for k in slots:
            fs = strict.factor_strict(workloads.level_map(seed, shape, k), "L2")
            assert lo <= workloads.lift_unknowns(fs) <= hi, (shape, k)


# ------------------------------------------------------------ hom counts


def test_hom_count_check():
    w = workloads.HomOracle()
    w.pairs = 30
    for item in w.build(5):
        out = w.op(item)
        assert w.check(item, out) is None
        assert w.replay(item, None) is None
        wrong = SimpleNamespace(maps=out.maps[1:])
        assert "hom_pro" in w.check(item, wrong)
    assert checks.check_hom_count(8, 3, 2, "oracle") is None
    assert "expected 8" in checks.check_hom_count(9, 3, 2, "oracle")


def test_hom_oracle_count_check_catches_a_lost_thread(monkeypatch):
    w = workloads.HomOracle()
    w.pairs = 5
    item = w.build(1)[0]
    real = workloads.suites.brute_force_hom
    monkeypatch.setattr(workloads.suites, "brute_force_hom",
                        lambda X, Y: real(X, Y)[1:])
    assert "brute_force_hom" in w.replay(item, None)


# -------------------------------------------------------- certify-verify


@pytest.fixture
def cv(tmp_path):
    w = workloads.CertifyVerify(str(tmp_path))
    items = w.build(2)
    return w, items


def test_certify_verify_round_trip_and_identical_bytes(cv):
    w, items = cv
    for item in items[:9]:  # one SetBij document, every construction
        data = w.op(item)
        assert w.check(item, data) is None
        assert w.replay(item, w.certify(item, data)) is None
        assert w.check(item, w.op(item)) is None   # same bytes again
    assert w.finish() == []   # every falsified claim exits 1


def test_certify_verify_rejects_changed_bytes(cv):
    w, items = cv
    item = items[0]
    data = w.op(item)
    assert w.check(item, data) is None
    assert "differ" in w.check(item, data.replace(b'"L1"', b'"L2"'))


def test_certify_verify_flags_a_replay_that_accepts_a_falsified_claim(cv, monkeypatch):
    w, items = cv
    item = items[0]  # factor: records class verdicts
    assert w.check(item, w.op(item)) is None
    monkeypatch.setattr(workloads, "falsify", lambda doc, rnd: doc)
    errors = w.finish()
    assert len(errors) == 1 and "exit 0" in errors[0]


def test_certify_verify_flags_a_failed_replay(cv):
    w, items = cv
    item = items[0]
    path = w.certify(item, w.op(item))
    with open(path) as fh:
        doc = json.load(fh)
    verdict = next(iter(doc["left_verdicts"].values()))
    verdict["we"] = not verdict["we"]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert "exit 1" in w.replay(item, path)


def test_falsify_changes_exactly_one_claim():
    import random
    doc = {"kind": "hom", "count": 4}
    assert workloads.falsify(doc, random.Random(0)) == {"kind": "hom", "count": 5}
    assert workloads.falsify({"kind": "lift"}, random.Random(0)) is None


# --------------------------------------------------------------- tracing


def test_tracer_rebinds_copied_names_and_restores_them():
    import promc.base
    import promc.strict
    orig, eq = promc.base.compose, BaseMap.__eq__
    assert promc.strict.compose is orig
    tr = tracing.Tracer()
    tr.install()
    try:
        assert promc.strict.compose is not orig
        assert promc.strict.compose is promc.base.compose
        f = workloads.level_map(3, "chain2", 0)
        strict.factor_strict(f, "L1")
        out = tr.summary()
    finally:
        tr.uninstall()
    assert promc.strict.compose is orig and BaseMap.__eq__ is eq
    assert out["base.map_eq.calls"] > 0
    assert out["strict.factor_strict.calls"] == 1
    assert out["base.compose.calls"] > 0
    assert out["gf2.row_echelon.le16.calls"] > 0
    assert out["gf2.row_echelon.cells"] > 0
    # self time never exceeds inclusive time
    assert out["strict.factor_strict.self_ms"] <= out["strict.factor_strict.ms"]
