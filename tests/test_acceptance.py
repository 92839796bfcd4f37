"""Acceptance suite: one test per criterion, each printing a pass line.

Scales and tolerances are pinned here: randomized trial counts meet the
stated minimums, the exhaustive families are enumerated in full, and
every check demands zero failures.
"""

import json
import os
import time

import pytest

from promc.base import CHAIN_F2, SET_BIJ, classify_map
from promc.cli import run_command
from promc.strict import ACYCLIC_FIB, FIB, MODE_L1, MODE_L2, factor_strict
from promc.suites import (Rng, gen_level_map, gen_poset, hom_oracle_family,
                          suite_adjunction, suite_cocell, suite_factorization,
                          suite_hom_oracle, suite_lifting,
                          suite_pro_factor_iso, suite_properness,
                          suite_two_of_three)

FIX = os.path.join(os.path.dirname(__file__), "fixtures")
SEED = 20240801


def _report(num, name, detail):
    print(f"[PASS] criterion {num}: {name}: {detail}", flush=True)


def test_criterion_1_factorization_axiom():
    t0 = time.time()
    trials = 200
    reports = []
    for instance in (SET_BIJ, CHAIN_F2):
        rep = suite_factorization(instance, trials, SEED)
        assert rep.ok, rep.failures[:5]
        reports.append(rep)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "factorization axiom",
            f"{trials} inputs per instance x modes L1+L2, 0 failures, "
            f"{elapsed:.1f}s")


def test_criterion_2_lifting_axiom():
    total = 0
    for instance in (SET_BIJ, CHAIN_F2):
        rep = suite_lifting(instance, 100, SEED + 1)
        assert rep.ok, rep.failures[:5]
        total += rep.trials
    assert total >= 200
    _report(2, "lifting axiom", f"{total} squares, both pairings, 0 failures")


def test_criterion_3_pro_iso_factorization():
    total = 0
    for instance in (SET_BIJ, CHAIN_F2):
        rep = suite_pro_factor_iso(instance, 25, SEED + 2)
        assert rep.ok, rep.failures[:5]
        total += rep.trials
    assert total >= 50
    _report(3, "pro-iso factorization",
            f"{total} witnessed presentations, certificates replayed, "
            "0 failures")


def test_criterion_4_two_out_of_three():
    total = 0
    for instance in (SET_BIJ, CHAIN_F2):
        rep = suite_two_of_three(instance, 50, SEED + 3)
        assert rep.ok, rep.failures[:5]
        total += rep.trials
    # each trial runs zigzag + left-cancel + right-cancel
    assert total >= 100
    _report(4, "two-out-of-three",
            f"{total} configurations x 3 constructions, levelwise we on "
            "every output level, 0 failures")


def test_criterion_5_special_implies_levelwise():
    checked = 0
    for instance in (SET_BIJ, CHAIN_F2):
        for k in range(20):
            rng = Rng(SEED + 40_000 + k)
            poset = gen_poset(rng, max_elems=5)
            sizes = ({"max_size": 4} if instance == SET_BIJ
                     else {"max_deg": 2, "max_dim": 3})
            f = gen_level_map(rng, poset, instance, **sizes)
            mode = (MODE_L1, MODE_L2)[k % 2]
            fs = factor_strict(f, mode)
            assert fs.special.ok
            want_we = mode == MODE_L1
            for s in poset.elements:
                cls = classify_map(fs.right.level_component(s))
                assert cls.is_fib, (instance, k, s)
                if want_we:
                    assert cls.is_we, (instance, k, s)
                checked += 1
    _report(5, "special implies levelwise",
            f"{checked} level maps under certificates re-classified, "
            "0 failures")


def test_criterion_6_cocell_round_trip():
    total = 0
    for instance in (SET_BIJ, CHAIN_F2):
        rep = suite_cocell(instance, 25, SEED + 5)
        assert rep.ok, rep.failures[:5]
        total += rep.trials
    _report(6, "cocell round trip",
            f"{total} towers rebuilt, base changes replayed, limits "
            "certified against the sources, 0 failures")


def test_criterion_7_hom_oracle_exhaustive():
    family = hom_oracle_family()
    rep = suite_hom_oracle(family)
    assert rep.ok, rep.failures[:5]
    _report(7, "hom oracle",
            f"all {rep.detail['objects']}^2 = {rep.trials} pairs: "
            "maxima-collapse equals brute-force lim-colim")


def test_criterion_8_adjunction():
    family = hom_oracle_family()
    rep = suite_adjunction(depth=16, family=family)
    assert rep.ok, rep.failures[:5]
    _report(8, "adjunction",
            f"{rep.trials} bijections verified (exhaustive family + "
            "ω-towers to depth 16)")


def test_criterion_9_properness():
    total = 0
    for instance in (SET_BIJ, CHAIN_F2):
        rep = suite_properness(instance, 50, SEED + 9)
        assert rep.ok, rep.failures[:5]
        total += rep.trials
    assert total >= 100
    _report(9, "properness witness",
            f"{total} pullback configurations, levelwise we everywhere, "
            "0 failures")


def test_criterion_10_negative_controls(tmp_path, capsys):
    detected = []
    # (a) non-commuting square
    code = run_command(["lift", os.path.join(FIX, "special.json"),
                        "--i", "i", "--p", "p", "--top", "top",
                        "--bottom", "bad_bottom"])
    out = capsys.readouterr().out
    detected.append(("non-commuting square", code == 2 and "commute" in out))
    # (b) falsified matching certificate
    cert_file = tmp_path / "ds.json"
    assert run_command(["detect-special", os.path.join(FIX, "special.json"),
                        "p", "--mode", "acyclic-fib",
                        "--out", str(cert_file)]) == 0
    doc = json.loads(cert_file.read_text())
    doc["verdicts"]["1"]["we"] = False
    cert_file.write_text(json.dumps(doc, sort_keys=True, indent=2))
    code = run_command(["verify", str(cert_file)])
    out = capsys.readouterr().out
    detected.append(("falsified matching certificate",
                     code == 1 and "witness" in out))
    # (c) broken functoriality square
    code = run_command(["hom", os.path.join(FIX, "broken_functor.json"),
                        "X", "X"])
    out = capsys.readouterr().out
    detected.append(("broken functoriality", code == 2
                     and "functoriality" in out))
    bad = [name for name, ok in detected if not ok]
    assert not bad, f"undetected corruptions: {bad}"
    _report(10, "negative controls",
            f"{len(detected)}/{len(detected)} corrupted fixtures rejected "
            "with named witnesses")
