import json
import math
import os
import time

import pytest

from promc.base import set_obj
from promc.chainf2 import INSTANCE, MAX_DEGREE, MAX_DIM, MAX_UNKNOWNS
from promc.cli import run_command
from promc.errors import PreconditionError
from promc.indexing import MAX_DEPTH
from promc.setbij import ENUMERATION_CAP as SETBIJ_CAP
from promc.setbij import INSTANCE as SET_INSTANCE

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hom_singleton(capsys):
    code, out = run(capsys, "hom", fx("collapse.json"), "Y", "Y")
    assert code == 0
    assert "1 class" in out


def test_hom_collapse_two_classes(capsys):
    code, out = run(capsys, "hom", fx("collapse.json"), "Y", "X")
    assert code == 0
    assert "2 classes" in out


def test_hom_omega(capsys):
    code, out = run(capsys, "hom", fx("omega.json"), "P", "T")
    assert code == 0
    assert "2 classes" in out and "stabilized at depth 1" in out


def test_hom_chainf2_two_classes_and_verify(tmp_path, capsys):
    # the ChainF2 realized maps are dicts, which have no natural order
    out_file = tmp_path / "hom.json"
    code, out = run(capsys, "hom", fx("chainf2.json"), "cD", "cS",
                    "--out", str(out_file))
    assert code == 0
    assert "2 classes" in out
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_levelize_and_verify(tmp_path, capsys):
    out_file = tmp_path / "lv.json"
    code, out = run(capsys, "levelize", fx("collapse.json"), "f",
                    "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


@pytest.mark.parametrize("depth", [5, 16, "6", 6.0, True, None])
def test_an_iso_payload_depth_other_than_the_certificates_exits_2(tmp_path, capsys,
                                                                   depth):
    """An iso payload was replayed at the depth it recorded; it now only
    repeats its certificate's depth, and any other value is refused."""
    out = tmp_path / "lv.json"
    assert run(capsys, "levelize", fx("omega_maps.json"), "g", "--out", str(out))[0] == 0
    cert = json.loads(out.read_text())
    assert cert["depth"] == cert["source_cert"]["depth"] == cert["target_cert"]["depth"] == 6
    assert run(capsys, "verify", str(out))[0] == 0
    cert["target_cert"]["depth"] = depth
    out.write_text(json.dumps(cert))
    code, text = run(capsys, "verify", str(out))
    assert code == 2 and text.count("\n") == 1
    assert "iso payload depth" in text and "the certificate's 6" in text


def test_matching_cert_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "m.json"
    code, out = run(capsys, "matching", fx("special.json"), "p",
                    "--level", "1", "--out", str(out_file))
    assert code == 0 and "we=True" in out
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_detect_special_and_verify(tmp_path, capsys):
    out_file = tmp_path / "ds.json"
    code, out = run(capsys, "detect-special", fx("special.json"), "p",
                    "--mode", "acyclic-fib", "--out", str(out_file))
    assert code == 0 and "yes" in out
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_detect_special_failing_exit1(capsys):
    code, out = run(capsys, "detect-special", fx("chainf2.json"), "p",
                    "--mode", "acyclic-fib")
    assert code == 1
    assert "failing level" in out


def test_factor_and_verify(tmp_path, capsys):
    out_file = tmp_path / "fac.json"
    code, out = run(capsys, "factor", fx("collapse.json"), "f",
                    "--mode", "L1", "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_factor_chainf2_L2(tmp_path, capsys):
    out_file = tmp_path / "fac2.json"
    code, out = run(capsys, "factor", fx("chainf2.json"), "z",
                    "--mode", "L2", "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_lift_and_verify(tmp_path, capsys):
    out_file = tmp_path / "lift.json"
    code, out = run(capsys, "lift", fx("special.json"), "--i", "i", "--p", "p",
                    "--top", "top", "--bottom", "bottom",
                    "--out", str(out_file))
    assert code == 0 and "lift found" in out
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_lift_noncommuting_square_exit2(capsys):
    code, out = run(capsys, "lift", fx("special.json"), "--i", "i", "--p", "p",
                    "--top", "top", "--bottom", "bad_bottom")
    assert code == 2
    assert "commute" in out


def test_pro_factor_iso_and_verify(tmp_path, capsys):
    out_file = tmp_path / "pfi.json"
    code, out = run(capsys, "pro-factor-iso", fx("collapse.json"), "f",
                    "--witnesses", "h", "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_zigzag_and_verify(tmp_path, capsys):
    out_file = tmp_path / "zz.json"
    # f, g identities around the worked pro-iso h: encode identities inline
    code, out = run(capsys, "zigzag-we", fx("zigzag.json"), "--f", "idY",
                    "--h", "f", "--g", "idX", "--witnesses", "h",
                    "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_two_of_three_and_verify(tmp_path, capsys):
    out_file = tmp_path / "tt.json"
    code, out = run(capsys, "two-of-three", fx("zigzag.json"), "--side", "left",
                    "--top", "f", "--left", "idX", "--right", "idY",
                    "--bottom", "f", "--witnesses", "h", "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_proper_pullback_and_verify(tmp_path, capsys):
    out_file = tmp_path / "pp.json"
    code, out = run(capsys, "proper-pullback", fx("zigzag.json"), "--p", "idY",
                    "--f", "idX2", "--g", "f", "--witnesses", "h",
                    "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0


def test_cocell_and_tower_limit(tmp_path, capsys):
    out_file = tmp_path / "cc.json"
    code, out = run(capsys, "cocell", fx("special.json"), "p",
                    "--class", "acyclic-fib", "--out", str(out_file))
    assert code == 0 and "2 stages" in out
    code, out = run(capsys, "verify", str(out_file))
    assert code == 0
    out_file2 = tmp_path / "tl.json"
    code, out = run(capsys, "tower-limit", fx("special.json"), "p",
                    "--class", "acyclic-fib", "--out", str(out_file2))
    assert code == 0
    code, out = run(capsys, "verify", str(out_file2))
    assert code == 0


def test_adjunction_finite_and_omega(tmp_path, capsys):
    code, out = run(capsys, "adjunction", fx("collapse.json"),
                    "--base", "pt", "--object", "X")
    assert code == 0 and "2 classes" in out
    code, out = run(capsys, "adjunction", fx("omega.json"),
                    "--base", "pt", "--object", "T")
    assert code == 0 and "stabilized at depth 1" in out


def test_check_axioms_small(capsys):
    code, out = run(capsys, "check-axioms", "--trials", "2", "--seed", "0")
    assert code == 0
    assert "all passed" in out


def test_check_axioms_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PROMC_SEED", "7")
    code, out = run(capsys, "check-axioms", "--trials", "1")
    assert code == 0


# ------------------------------------------------------- negative controls

def test_broken_functoriality_exit2(capsys):
    code, out = run(capsys, "hom", fx("broken_functor.json"), "X", "X")
    assert code == 2
    assert "functoriality" in out


def test_falsified_matching_certificate_exit1(tmp_path, capsys):
    out_file = tmp_path / "ds.json"
    code, _ = run(capsys, "detect-special", fx("special.json"), "p",
                  "--mode", "acyclic-fib", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    doc["verdicts"]["1"]["we"] = False  # falsify a recorded verdict
    out_file.write_text(json.dumps(doc, sort_keys=True, indent=2))
    code, out = run(capsys, "verify", str(out_file))
    assert code == 1
    assert "witness" in out or "FAIL" in out


def test_corrupted_lift_certificate_exit1(tmp_path, capsys):
    out_file = tmp_path / "lift.json"
    code, _ = run(capsys, "lift", fx("special.json"), "--i", "i", "--p", "p",
                  "--top", "top", "--bottom", "bottom", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    # corrupt the lift's component at level 1
    doc["lift"]["general"]["1"][1] = {"a": "b", "b": "b"}
    out_file.write_text(json.dumps(doc, sort_keys=True, indent=2))
    code, out = run(capsys, "verify", str(out_file))
    assert code in (1, 2)


def test_lift_certificate_level_index_is_replayed(tmp_path, capsys):
    out_file = tmp_path / "lift.json"
    code, _ = run(capsys, "lift", fx("special.json"), "--i", "i", "--p", "p",
                  "--top", "top", "--bottom", "bottom", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    levels = sorted(doc["level_index"])
    assert levels == sorted(doc["lift"]["general"])
    doc["level_index"] = {s: "bogus" for s in levels}
    out_file.write_text(json.dumps(doc, sort_keys=True, indent=2))
    code, out = run(capsys, "verify", str(out_file))
    assert code == 1
    assert "level_index" in out and f"witness: level_index.{levels[0]}" in out


UNKNOWN_TAGS = [None, -1, 2.5, [], True, "bogus"]


@pytest.mark.parametrize("tag", UNKNOWN_TAGS)
def test_verify_refuses_an_unknown_instance_tag(tmp_path, capsys, tag):
    out_file = tmp_path / "fac.json"
    code, _ = run(capsys, "factor", fx("chainf2.json"), "p", "--mode", "L1",
                  "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    doc["instance"] = tag
    out_file.write_text(json.dumps(doc, sort_keys=True, indent=2))
    code, out = run(capsys, "verify", str(out_file))
    assert code == 2
    assert out.count("\n") == 1 and "unknown instance" in out


@pytest.mark.parametrize("where", ["map", "boundary"])
@pytest.mark.parametrize("matrix", [[[1, 0], [1]], [[[1]]], [["x"]], [[None]], [1]])
def test_a_malformed_chainf2_matrix_exits_2(tmp_path, capsys, where, matrix):
    doc = json.loads(open(fx("chainf2.json")).read())
    if where == "map":
        doc["maps"]["p"]["level"]["pt"]["0"] = matrix
    else:
        doc["objects"]["cD"]["values"]["pt"]["d"]["0"] = matrix
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code = run_command(["factor", str(f), "p", "--mode", "L1",
                        "--out", str(tmp_path / "out.json")])
    text = "".join(capsys.readouterr())
    assert code == 2
    assert text.count("\n") == 1
    assert ("matrix in degree 0" if where == "map" else "boundary out of degree 0") in text


# One field of object cS of the fixture edited.  Before ChainF2 object
# documents were checked field by field, dims [10**30] exited 3 with a
# MemoryError, hi 10**30 or a hi that disagrees with len(dims) exited 3
# with a KeyError, and true, "1" or 1.7 as a dim was read and exited 0.
BAD_CHAINF2_FIELDS = {
    "dims-10**30": ("dims", [10**30],
                    f"dims[0] = {10**30} is not an int in [0, MAX_DIM = {MAX_DIM}]"),
    "dims-above-max": ("dims", [MAX_DIM + 1], f"dims[0] = {MAX_DIM + 1} is not an int"),
    "dims-negative": ("dims", [-1], "dims[0] = -1 is not an int"),
    "dims-true": ("dims", [True], "dims[0] = True is not an int"),
    "dims-string": ("dims", ["1"], "dims[0] = '1' is not an int"),
    "dims-float": ("dims", [1.7], "dims[0] = 1.7 is not an int"),
    "dims-not-a-list": ("dims", 1, "dims = 1 is not a list"),
    "hi-10**30": ("hi", 10**30, f"hi = {10**30} is not lo + len(dims) - 1 = 0"),
    "hi-disagrees": ("hi", 3, "hi = 3 is not lo + len(dims) - 1 = 0"),
    "lo-true": ("lo", True, "lo = True is not an int"),
    "lo-string": ("lo", "1", "lo = '1' is not an int"),
    "lo-float": ("lo", 1.7, "lo = 1.7 is not an int"),
    "d-list": ("d", [], "bad ChainF2 object payload"),
    "d-key": ("d", {"x": [[1]]}, "bad ChainF2 object payload"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHAINF2_FIELDS))
def test_a_malformed_chainf2_object_field_exits_2(tmp_path, capsys, case):
    field, value, says = BAD_CHAINF2_FIELDS[case]
    doc = json.loads(open(fx("chainf2.json")).read())
    doc["objects"]["cS"]["values"]["pt"][field] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "hom", str(f), "cD", "cS")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out.count("\n") == 1 and says in out


def test_a_chainf2_object_may_reach_max_dim():
    X = INSTANCE.obj_from_doc({"lo": -1, "hi": 0, "dims": [0, MAX_DIM]})
    assert (X.lo, X.hi, X.dim(0)) == (-1, 0, MAX_DIM)



@pytest.mark.parametrize("lo", [10**9, -10**9, MAX_DEGREE + 1, -MAX_DEGREE - 2])
def test_a_chainf2_degree_beyond_max_degree_exits_2_within_a_second(tmp_path, capsys, lo):
    """Before degrees were bounded, cD at lo 10**9 made ``factor`` walk
    every degree from 0 to 10**9 and exit 3 with a MemoryError."""
    doc = json.loads(open(fx("chainf2.json")).read())
    doc["objects"]["cD"]["values"]["pt"] = {"lo": lo, "hi": lo + 1, "dims": [1, 1],
                                            "d": {str(lo): [[1]]}}
    doc["maps"]["p"]["level"]["pt"] = {}
    f = tmp_path / "far.json"
    f.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "factor", str(f), "p", "--mode", "L1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out.count("\n") == 1 and f"MAX_DEGREE = {MAX_DEGREE}" in out


def _square_of_side(n, identity=True):
    """The chainf2.json document with cD of dimension n in degrees 0 and 1
    and zero boundary, p its identity (else zero) and z the zero map
    cZ -> cD: the square (z, p, z, p) lifts through a system of 2 * n**2
    unknowns, and Hom(cD, cD) has as many."""
    doc = json.loads(open(fx("chainf2.json")).read())
    doc["objects"]["cD"]["values"]["pt"] = {"lo": 0, "hi": 1, "dims": [n, n]}
    eye = [[int(r == c) for c in range(n)] for r in range(n)] if identity else None
    doc["maps"]["p"] = {"source": "cD", "target": "cD",
                        "level": {"pt": {"0": eye, "1": eye} if identity else {}}}
    doc["maps"]["z"]["target"] = "cD"
    return doc


@pytest.mark.parametrize("argv, side", [
    (["hom", "cD", "cD"], "least"), (["hom", "cD", "cD"], "MAX_DIM"),
    (["lift", "--i", "z", "--p", "p", "--top", "z", "--bottom", "p"], "least")],
    ids=["hom-least", "hom-MAX_DIM", "lift-least"])
def test_a_chain_map_system_beyond_max_unknowns_exits_2_within_a_second(tmp_path, capsys,
                                                                         argv, side):
    """At the smallest n with 2 * n**2 > MAX_UNKNOWNS each system is refused
    before any row of it is built; ``hom`` also at cD's largest dimension,
    MAX_DIM.  Inside a lift the refusal is not read as "no lift"."""
    n = math.isqrt(MAX_UNKNOWNS // 2) + 1 if side == "least" else MAX_DIM
    f = tmp_path / "wide.json"
    f.write_text(json.dumps(_square_of_side(n, identity=argv[0] == "lift")))
    start = time.perf_counter()
    code, out = run(capsys, argv[0], str(f), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out.count("\n") == 1
    assert f"unknowns = {2 * n * n} exceeds MAX_UNKNOWNS = {MAX_UNKNOWNS}" in out


def _big_set_values(prefix, n=12):
    """A value of n elements at level 1 over the single 0 of collapse.json."""
    return {"values": {"1": [f"{prefix}{k}" for k in range(n)], "0": [f"{prefix}0"]},
            "structure": {"1>0": {f"{prefix}{k}": f"{prefix}0" for k in range(n)}}}


def _big_sets():
    """collapse.json with X and Y of 12 elements at level 1 and a
    12-element base object: each SetBij hom between them has 12**12 maps."""
    doc = json.loads(open(fx("collapse.json")).read())
    for name, prefix in (("X", "a"), ("Y", "u")):
        doc["objects"][name] = dict(_big_set_values(prefix), index="I")
    doc["base_objects"]["big"] = [f"b{k}" for k in range(12)]
    del doc["maps"], doc["witnesses"]
    return doc


def _big_hom_certificate(tmp_path, capsys):
    """The certificate of ``hom collapse.json X Y`` with X and Y
    replaced by the 12-element values of ``_big_sets``."""
    out = tmp_path / "hom.json"
    assert run(capsys, "hom", fx("collapse.json"), "X", "Y", "--out", str(out))[0] == 0
    cert = json.loads(out.read_text())
    cert["X"], cert["Y"] = _big_set_values("a"), _big_set_values("u")
    out.write_text(json.dumps(cert))
    return ["verify", str(out)]


@pytest.mark.parametrize("argv", [
    ["hom", "X", "Y"], ["adjunction", "--base", "big", "--object", "Y"], "verify"],
    ids=["hom", "adjunction", "verify-hom"])
def test_a_setbij_hom_beyond_the_enumeration_cap_exits_2_within_a_second(
        tmp_path, capsys, argv):
    """12**12 maps: ``SetBij.hom`` enumerated them all and ran until it was
    killed; it is refused before any map is built."""
    if argv == "verify":
        argv = _big_hom_certificate(tmp_path, capsys)
    else:
        f = tmp_path / "big.json"
        f.write_text(json.dumps(_big_sets()))
        argv = [argv[0], str(f), *argv[1:]]
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out.count("\n") == 1
    assert f"|Y|^|X| = 12^12 maps > {SETBIJ_CAP}" in out


def test_a_setbij_hom_at_the_enumeration_cap_is_enumerated():
    X, Y = set_obj([f"a{k}" for k in range(6)]), set_obj(["u", "v", "w", "z"])
    assert 4 ** 6 == SETBIJ_CAP
    assert len(SET_INSTANCE.hom(X, Y)) == SETBIJ_CAP
    with pytest.raises(PreconditionError, match="enumeration refused"):
        SET_INSTANCE.hom(set_obj([*X.elements, "a6"]), Y)


def test_a_setbij_hom_out_of_a_large_set_is_refused_by_its_power_alone():
    """10**5000 has more digits than an int may print: the refusal
    names the power, not its digits."""
    big = set_obj([f"b{k}" for k in range(5000)])
    assert len(SET_INSTANCE.hom(big, set_obj(["u"]))) == 1
    assert SET_INSTANCE.hom(big, set_obj([])) == []
    with pytest.raises(PreconditionError, match=r"\|Y\|\^\|X\| = 10\^5000 maps"):
        SET_INSTANCE.hom(big, set_obj([str(k) for k in range(10)]))


def test_a_chainf2_object_may_reach_max_degree():
    for lo in (-MAX_DEGREE, MAX_DEGREE - 1):
        X = INSTANCE.obj_from_doc({"lo": lo, "hi": lo + 1, "dims": [1, 1]})
        assert (X.lo, X.hi) == (lo, lo + 1)

@pytest.mark.parametrize("entry", [-1, 10**30, 2.5, "1", True],
                         ids=["-1", "10**30", "2.5", "string", "true"])
def test_a_chainf2_matrix_entry_other_than_0_or_1_exits_2(tmp_path, capsys, entry):
    doc = json.loads(open(fx("chainf2.json")).read())
    doc["maps"]["p"]["level"]["pt"]["0"] = [[entry]]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "factor", str(f), "p", "--mode", "L1")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error:")
    assert "matrix in degree 0" in out


REFLEXIVE_SWAP_COMMANDS = [
    ["hom", "{doc}", "B", "B"],
    ["lift", "{doc}", "--i", "i", "--p", "p", "--top", "top", "--bottom", "bottom"],
]


@pytest.mark.parametrize("argv", REFLEXIVE_SWAP_COMMANDS, ids=["hom", "lift"])
def test_a_reflexive_structure_map_other_than_the_identity_exits_2(tmp_path, capsys,
                                                                   argv):
    doc = json.loads(open(fx("special.json")).read())
    doc["objects"]["B"]["structure"]["1>1"] = {"a": "b", "b": "a"}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, *[a.format(doc=f) for a in argv])
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error:")
    assert "functoriality" in out


@pytest.mark.parametrize("key", ["0>1", "2>0", "1>x"])
def test_a_structure_key_off_the_order_exits_2(tmp_path, capsys, key):
    doc = json.loads(open(fx("special.json")).read())
    doc["objects"]["B"]["structure"][key] = {"a": "a", "b": "b"}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "hom", str(f), "B", "B")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error:")


@pytest.mark.parametrize("key", ["9>0", "10", "0>1", "1>1"])
@pytest.mark.parametrize("argv", [["pro-factor-iso", "f", "--witnesses", "h"],
                                  ["hom", "X", "Y"]], ids=lambda a: a[0])
def test_a_witness_key_off_the_order_exits_2(tmp_path, capsys, key, argv):
    doc = json.loads(open(fx("zigzag.json")).read())
    doc["witnesses"]["h"]["pairs"][key] = {"u": "x"}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error:") and key in out


def test_unreadable_file_exit2(capsys):
    code, out = run(capsys, "hom", "/nonexistent/xx.json", "X", "Y")
    assert code == 2


def test_bad_schema_exit2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"schema": "nope"}')
    code, out = run(capsys, "hom", str(f), "X", "Y")
    assert code == 2


def test_unknown_subcommand_exit2(capsys):
    assert run_command(["frobnicate"]) == 2


# ------------------------------------------------------------- determinism

def test_certificates_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "factor", fx("special.json"), "p", "--mode", "L1",
        "--out", str(a))
    run(capsys, "factor", fx("special.json"), "p", "--mode", "L1",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- ω depth

EVERY_COMMAND = [
    ["hom", fx("omega.json"), "P", "T"],
    ["levelize", fx("collapse.json"), "f"],
    ["matching", fx("special.json"), "p", "--level", "1"],
    ["detect-special", fx("special.json"), "p", "--mode", "acyclic-fib"],
    ["factor", fx("omega_maps.json"), "f", "--mode", "L1"],
    ["lift", fx("special.json"), "--i", "i", "--p", "p", "--top", "top",
     "--bottom", "bottom"],
    ["pro-factor-iso", fx("collapse.json"), "f", "--witnesses", "h"],
    ["zigzag-we", fx("zigzag.json"), "--f", "idY", "--h", "f", "--g", "idX",
     "--witnesses", "h"],
    ["two-of-three", fx("zigzag.json"), "--side", "left", "--top", "f",
     "--left", "idX", "--right", "idY", "--bottom", "f", "--witnesses", "h"],
    ["proper-pullback", fx("zigzag.json"), "--p", "idY", "--f", "idX2",
     "--g", "f", "--witnesses", "h"],
    ["cocell", fx("special.json"), "p", "--class", "acyclic-fib"],
    ["tower-limit", fx("special.json"), "p", "--class", "acyclic-fib"],
    ["adjunction", fx("omega.json"), "--base", "pt", "--object", "T"],
    ["check-axioms", "--trials", "1", "--seed", "0"],
    ["verify", fx("omega.json")],
]


@pytest.mark.parametrize("where", ["global", "command"])
@pytest.mark.parametrize("depth", ["0", "-3"])
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda a: a[0])
def test_a_depth_below_1_exits_2_on_one_line(capsys, argv, depth, where):
    full = ["--depth", depth, *argv] if where == "global" else [*argv, "--depth", depth]
    code = run_command(full)
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == "" and cap.err.count("\n") == 1
    assert "depth must be a positive integer" in cap.err


@pytest.mark.parametrize("depth", [0, -1, True, 2.5, "5"])
def test_a_malformed_document_depth_exits_2(tmp_path, capsys, depth):
    doc = json.loads(open(fx("omega.json")).read())
    doc["depth"] = depth
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "hom", str(f), "P", "T")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error:")
    assert "positive integer" in out


@pytest.mark.parametrize("where", ["document", "command line"])
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 10**6, 10**30])
def test_an_omega_depth_above_max_depth_exits_2_within_a_second(tmp_path, capsys,
                                                                 depth, where):
    """An ω index stores every level below its depth; before that bound, a
    document at depth 10**6 exhausted a 1 GB address space at load."""
    doc = json.loads(open(fx("omega.json")).read())
    if where == "document":
        doc["depth"] = depth
    f = tmp_path / "deep.json"
    f.write_text(json.dumps(doc))
    argv = ["hom", str(f), "P", "T"]
    start = time.perf_counter()
    code, out = run(capsys, *(argv if where == "document"
                              else ["--depth", str(depth), *argv]))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out.count("\n") == 1 and f"MAX_DEPTH = {MAX_DEPTH}" in out


def test_depth_overrides_the_documents(tmp_path, capsys):
    cert = tmp_path / "hom.json"
    code, out = run(capsys, "--depth", "4", "hom", fx("omega.json"), "P", "T",
                    "--out", str(cert))
    assert code == 0 and "2 classes, stabilized at depth 1" in out
    doc = json.loads(cert.read_text())
    assert doc["depth"] == 4 and len(doc["Y"]["values"]) == 4


def _motivation(tmp_path):
    """``omega_maps.json`` without its GENERAL map, which lists only as
    many components as the document's depth."""
    doc = json.loads(open(fx("omega_maps.json")).read())
    del doc["maps"]["g"]
    path = tmp_path / "motivation.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("depth", ["4", "8"])
def test_factor_at_another_depth_than_the_documents_verifies(tmp_path, capsys, depth):
    cert = tmp_path / "fac.json"
    code, out = run(capsys, "--depth", depth, "factor", _motivation(tmp_path), "f",
                    "--mode", "L1", "--out", str(cert))
    assert code == 0
    assert out.count("  level ") == int(depth)
    code, out = run(capsys, "verify", str(cert))
    assert code == 0 and f"levels={depth}" in out


@pytest.mark.parametrize("argv", [
    ["factor", "f", "--mode", "L1"], ["factor", "f", "--mode", "L2"],
    ["detect-special", "f", "--mode", "fib"], ["levelize", "f"],
    ["levelize", "g"], ["hom", "P", "T"], ["adjunction", "--base", "pt", "--object", "T"],
], ids=lambda a: "-".join(a[:2] if a[0] != "adjunction" else a[:1]))
def test_the_omega_maps_fixture_certifies_and_verifies(tmp_path, capsys, argv):
    cert = tmp_path / "cert.json"
    code, out = run(capsys, argv[0], fx("omega_maps.json"), *argv[1:],
                    "--out", str(cert))
    assert code == 0
    code, out = run(capsys, "verify", str(cert))
    assert code == 0


def test_an_omega_general_map_shorter_than_the_depth_exits_2(capsys):
    code, out = run(capsys, "--depth", "8", "hom", fx("omega_maps.json"), "P", "T")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error:")
    assert "map g lists 6 components" in out and "depth 8" in out



def _omega_general_at(tmp_path, n, level):
    """``omega_maps.json`` with component n of its GENERAL map g at *level*."""
    doc = json.loads(open(fx("omega_maps.json")).read())
    doc["maps"]["g"]["general"][n][0] = level
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("level", [10**6, 6, -1, "x", 2.5, True])
def test_an_omega_general_component_off_the_depth_exits_2_at_load(tmp_path, capsys,
                                                                  level):
    """The document's depth is 6.  Before ω lists were read up to the depth
    only, level 10**6 was read and levelize failed on it later; "x" exited
    3, and 2.5 and true were read as the levels 2 and 1."""
    start = time.perf_counter()
    code, out = run(capsys, "levelize", _omega_general_at(tmp_path, 3, level), "g")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error: ")
    assert "map g" in out and "depth 6" in out


def _general_entry_set(tmp_path, entry):
    """``omega_maps.json`` (ω) and ``collapse.json`` (finite, with f written
    as a GENERAL map g) with one entry of g replaced by *entry*."""
    omega = json.loads(open(fx("omega_maps.json")).read())
    omega["maps"]["g"]["general"][3] = entry
    finite = json.loads(open(fx("collapse.json")).read())
    finite["maps"]["g"] = {"source": "X", "target": "Y",
                           "general": {"1": ["1", {"a": "u", "b": "u"}], "0": entry}}
    paths = []
    for name, doc in (("omega", omega), ("finite", finite)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    return [str(p) for p in paths]


@pytest.mark.parametrize("entry", [5, None, "0", [0], [0, {"*": "0"}, 1], {"0": 1}])
def test_a_general_entry_that_is_no_level_map_pair_exits_2(tmp_path, capsys, entry):
    """It exited 3 with a TypeError (cannot unpack), in both regimes."""
    omega, finite = _general_entry_set(tmp_path, entry)
    for path, where in ((omega, "ω general map g: component 3"),
                        (finite, "general map g: component at 0")):
        code, out = run(capsys, "hom", path, "Y" if path == finite else "P",
                        "X" if path == finite else "T")
        assert code == 2
        assert out == (f"error: {where} is {json.dumps(entry)}, "
                       "not a [level, map] pair\n")


def test_a_general_map_of_level_map_pairs_still_loads(tmp_path, capsys):
    _, finite = _general_entry_set(tmp_path, ["0", {"x": "y"}])
    code, out = run(capsys, "levelize", finite, "g")
    assert code == 0


def _levelize_cert(tmp_path, capsys, name):
    cert = tmp_path / "lv.json"
    code, _ = run(capsys, "levelize", fx("omega_maps.json"), name, "--out", str(cert))
    assert code == 0
    return cert, json.loads(cert.read_text())


def test_a_forged_omega_levelize_certificate_fails(tmp_path, capsys):
    """Every component of the levelized g edited from {"*": "0"} to
    {"*": "1"}: without the original map recorded this verified."""
    cert, doc = _levelize_cert(tmp_path, capsys, "g")
    assert doc["depth"] == 6 and "original" in doc
    code, out = run(capsys, "verify", str(cert))
    assert code == 0
    assert doc["map"]["level"] == [{"*": "0"}] * 6
    doc["map"]["level"] = [{"*": "1"}] * 6
    cert.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(cert))
    assert code == 1
    assert out == "FAIL: levelized map does not represent the original\n"


@pytest.mark.parametrize("name", ["f", "g"])
def test_a_levelize_certificate_without_its_original_exits_2(tmp_path, capsys, name):
    cert, doc = _levelize_cert(tmp_path, capsys, name)
    del doc["original"]
    cert.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(cert))
    assert code == 2
    assert out == "error: levelize certificate records no original map\n"


@pytest.mark.parametrize("path", [("objects", "T", "values"), ("objects", "T", "steps"),
                                  ("maps", "f", "level"), ("maps", "g", "general")],
                         ids=lambda p: p[-1])
def test_an_omega_list_that_is_no_list_exits_2(tmp_path, capsys, path):
    doc = json.loads(open(fx("omega_maps.json")).read())
    doc[path[0]][path[1]][path[2]] = {"0": []}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "hom", str(f), "P", "T")
    assert code == 2
    assert out.count("\n") == 1 and f"ω {path[2]} must be a list" in out


def test_an_omega_list_is_read_only_up_to_the_depth(tmp_path, capsys):
    """At depth 3 the components of g from level 3 on are not read."""
    path = _omega_general_at(tmp_path, 4, 10**6)
    cert = tmp_path / "lv.json"
    code, out = run(capsys, "--depth", "3", "levelize", path, "g", "--out", str(cert))
    assert code == 0
    assert len(json.loads(cert.read_text())["map"]["level"]) == 3
    code, out = run(capsys, "verify", str(cert))
    assert code == 0


def _omega_collapse():
    """The ω map f: {0,1} -> {*} of ``omega_maps.json`` (not a bijection)
    and its target P."""
    from promc.docio import load_document
    doc = load_document(fx("omega_maps.json"))
    return doc.map_named("f"), doc.object_named("P")


def test_a_false_omega_levelwise_we_certificate_exits_1(tmp_path, capsys):
    """The ω levelwise-we claim for f was once replayed over no level and
    verified with levels=0."""
    from promc.certs import levelwise_we_cert
    from promc.docio import dump_json
    f, _ = _omega_collapse()
    cert = tmp_path / "we.json"
    dump_json(levelwise_we_cert("zigzag-we", f, {}, []), str(cert))
    code, out = run(capsys, "verify", str(cert))
    assert code == 1
    assert out.startswith("FAIL: ") and out.rstrip().endswith("(witness: 0)")


def test_a_false_omega_l2_lift_certificate_exits_1(tmp_path, capsys):
    """A lift certificate whose left map f is no levelwise acyclic
    cofibration, against the identity of P; it was once replayed over no
    level and verified with levels=0."""
    from promc.certs import lift_cert
    from promc.docio import dump_json
    from promc.proobj import identity_pro
    from promc.strict import MODE_L2, LiftResult
    f, P = _omega_collapse()
    idP = identity_pro(P)
    levels = range(P.index.depth)
    res = LiftResult(lift=idP, level_index={n: n for n in levels},
                     components={n: idP.level_component(n) for n in levels})
    cert = tmp_path / "lift.json"
    dump_json(lift_cert(f, idP, f, idP, MODE_L2, res), str(cert))
    code, out = run(capsys, "verify", str(cert))
    assert code == 1
    assert "acyclic-cof" in out and out.rstrip().endswith("(witness: 0)")

# ------------------------------------------------------- levels and trials

def test_an_omega_matching_level_is_read_as_an_int_and_verifies(tmp_path, capsys):
    cert = tmp_path / "m.json"
    code, out = run(capsys, "matching", fx("omega_maps.json"), "f",
                    "--level", "1", "--out", str(cert))
    assert code == 0 and out.startswith("matching map at 1: ")
    code, out = run(capsys, "verify", str(cert))
    assert code == 0 and "level=1" in out


@pytest.mark.parametrize("level", ["x", "-1", "6", "01x", "²"])
def test_an_omega_level_off_the_index_exits_2_on_one_line(capsys, level):
    code, out = run(capsys, "matching", fx("omega_maps.json"), "f",
                    "--level", level)
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error: level ")


def test_a_finite_level_off_the_index_exits_2_on_one_line(capsys):
    code, out = run(capsys, "matching", fx("special.json"), "p", "--level", "2")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error: level '2'")


def test_an_omega_matching_certificate_built_at_an_int_level_verifies(tmp_path, capsys):
    from promc.certs import matching_cert
    from promc.docio import dump_json, load_document
    from promc.strict import matching_map
    f = load_document(fx("omega_maps.json")).map_named("f")
    cert = tmp_path / "m.json"
    dump_json(matching_cert(f, 2, matching_map(f, 2)), str(cert))
    code, out = run(capsys, "verify", str(cert))
    assert code == 0 and "level=2" in out
    doc = json.loads(cert.read_text())
    # the certificate records depth 6, so replay refuses level 16 as the CLI does
    for bad in ["x", "16", 2, None]:
        doc["level"] = bad
        cert.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", str(cert))
        assert code == 2 and out.count("\n") == 1 and out.startswith("error: level ")


def test_an_omega_matching_certificate_is_replayed_at_its_depth(tmp_path, capsys):
    """The ω matching certificate records the document's depth (6), so
    level 6, which the CLI refuses on that document, is refused on replay
    too; a finite matching certificate records no depth."""
    cert = tmp_path / "m.json"
    code, _ = run(capsys, "matching", fx("omega_maps.json"), "f",
                  "--level", "1", "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    doc["level"] = "6"
    cert.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(cert))
    assert code == 2 and out.count("\n") == 1 and out.startswith("error: level ")
    code, _ = run(capsys, "matching", fx("special.json"), "p",
                  "--level", "1", "--out", str(cert))
    assert code == 0 and "depth" not in json.loads(cert.read_text())


@pytest.mark.parametrize("seed", ["-1", "-3", "abc", "2.5", ""])
def test_check_axioms_takes_only_a_non_negative_seed(capsys, seed):
    code = run_command(["check-axioms", "--trials", "1", "--seed", seed])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == "" and cap.err.count("\n") == 1
    assert "seed must be a non-negative integer" in cap.err


@pytest.mark.parametrize("seed", ["-1", "-3", "abc", "2.5", ""])
def test_check_axioms_takes_only_a_non_negative_env_seed(capsys, monkeypatch, seed):
    monkeypatch.setenv("PROMC_SEED", seed)
    code, out = run(capsys, "check-axioms", "--trials", "1")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error: PROMC_SEED")
    assert "must be a non-negative integer" in out


def test_the_seed_option_overrides_an_unreadable_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PROMC_SEED", "abc")
    code, out = run(capsys, "check-axioms", "--trials", "1", "--seed", "0")
    assert code == 0 and "all passed" in out


@pytest.mark.parametrize("trials", ["0", "-3", "x", "2.5"])
def test_check_axioms_takes_only_a_positive_trial_count(capsys, trials):
    code = run_command(["check-axioms", "--trials", trials, "--seed", "0"])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == "" and cap.err.count("\n") == 1
    assert "trials must be a positive integer" in cap.err


def test_only_commands_that_certify_take_out(tmp_path, capsys):
    out_file = tmp_path / "x.json"
    code = run_command(["check-axioms", "--trials", "1", "--seed", "0",
                        "--out", str(out_file)])
    cap = capsys.readouterr()
    assert code == 2 and "unrecognized arguments: --out" in cap.err
    assert not out_file.exists()
    code = run_command(["verify", fx("omega.json"), "--out", str(out_file)])
    assert code == 2 and not out_file.exists()


def test_the_command_table_readme_and_depth_tests_name_the_same_commands():
    from promc.cli import COMMANDS
    readme = open(os.path.join(os.path.dirname(FIX), "..", "README.md")).read()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    in_readme = {line.split()[1] for line in block.splitlines()
                 if line.startswith("promc ")}
    assert set(COMMANDS) == in_readme == {argv[0] for argv in EVERY_COMMAND}


def _edited(tmp_path, fixture, edit):
    doc = json.loads(open(fx(fixture)).read())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _add_general(doc, general):
    doc["maps"]["g"] = {"source": "Y", "target": "X", "general": general}


@pytest.mark.parametrize("fixture,edit,argv,message", [
    ("collapse.json", lambda d: d["posets"]["I"]["covers"].__setitem__(0, ["0"]),
     ("hom", "X", "Y"), "error: poset covers must be [lower, upper] pairs\n"),
    ("collapse.json", lambda d: d["maps"]["f"].__setitem__("level", [1]),
     ("hom", "Y", "X"), "error: pro-map f: level must be an object, not list\n"),
    ("collapse.json", lambda d: _add_general(d, [1, 2]),
     ("hom", "Y", "X"), "error: pro-map g: general must be an object, not list\n"),
    ("collapse.json", lambda d: d["objects"]["X"].__setitem__("values", ["a"]),
     ("hom", "Y", "X"), "error: object: values must be an object, not list\n"),
    ("chainf2.json", lambda d: d["maps"]["p"]["level"]["pt"].__setitem__("0", ["1"]),
     ("factor", "p", "--mode", "L1"),
     "error: matrix in degree 0: a row is '1', not a list\n"),
    ("chainf2.json", lambda d: d["maps"]["p"]["level"]["pt"].__setitem__("0", []),
     ("factor", "p", "--mode", "L1"),
     "error: matrix in degree 0 is [], not a 1x1 matrix\n"),
], ids=["cover-not-a-pair", "level-not-an-object", "general-not-an-object",
        "values-not-an-object", "chainf2-row-a-string", "chainf2-empty-for-a-row"])
def test_malformed_document_exits_2_with_one_line(tmp_path, capsys, fixture, edit,
                                                  argv, message):
    path = _edited(tmp_path, fixture, edit)
    code, out = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, message)


def _set_general_payload(doc):
    doc["maps"]["g"]["general"][1][1] = 5


LIFT = ("lift", "--i", "i", "--p", "p", "--top", "top", "--bottom", "bottom")


# A base map payload that is not a JSON object, in either instance and
# regime, and a SetBij element that is not a string
@pytest.mark.parametrize("fixture,edit,argv,message", [
    ("special.json", lambda d: d["maps"]["p"]["level"].__setitem__("1", 5), LIFT,
     "error: base map payload must be an object, not int\n"),
    ("special.json", lambda d: d["objects"]["B"]["values"].__setitem__("1", [["a"], "b"]),
     LIFT, "error: SetBij object: element ['a'] is not a string\n"),
    ("chainf2.json", lambda d: d["maps"]["p"]["level"].__setitem__("pt", 1),
     ("hom", "cD", "cS"), "error: base map payload must be an object, not int\n"),
    ("omega_maps.json", _set_general_payload, ("hom", "P", "T"),
     "error: base map payload must be an object, not int\n"),
], ids=["setbij-level-payload", "setbij-element", "chainf2-level-payload",
        "omega-general-payload"])
def test_a_base_payload_of_the_wrong_shape_exits_2(tmp_path, capsys, fixture, edit,
                                                   argv, message):
    path = _edited(tmp_path, fixture, edit)
    assert run(capsys, argv[0], path, *argv[1:]) == (2, message)


# A map key that names no degree, a level map key outside the source
# index and a general map key outside the target index
@pytest.mark.parametrize("fixture,edit,argv,message", [
    ("chainf2.json", lambda d: d["maps"]["p"]["level"].__setitem__("pt", {"x": [[1]]}),
     ("factor", "p", "--mode", "L1"), "error: ChainF2 map: key 'x' is not a degree\n"),
    ("special.json", lambda d: d["maps"]["p"]["level"].__setitem__("9", {"a": "u"}),
     LIFT, "error: level map p: level '9' is not an element of the source index\n"),
    ("collapse.json", lambda d: _add_general(d, {"9": ["0", {"y": "x"}]}),
     ("hom", "Y", "X"),
     "error: general map g: level '9' is not an element of the target index\n"),
], ids=["chainf2-degree-key", "level-key-outside-the-index",
        "general-key-outside-the-index"])
def test_a_key_outside_the_degrees_or_the_index_exits_2(tmp_path, capsys, fixture, edit,
                                                       argv, message):
    path = _edited(tmp_path, fixture, edit)
    assert run(capsys, argv[0], path, *argv[1:]) == (2, message)


# A document section, an entry of one, a finite object's structure or a
# witness bundle's pairs that is not a JSON object
NOT_AN_OBJECT = {
    "objects.X.structure": [1], "witnesses.h.pairs": [1],
    **{section: [1] for section in ("posets", "base_objects", "objects", "maps",
                                    "witnesses")},
    "objects.X": [1], "maps.f": 5,
}


def _set(path, value):
    """The edit that sets the dotted *path* of a document to *value*."""
    *keys, last = path.split(".")

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("path", sorted(NOT_AN_OBJECT))
def test_a_document_part_that_is_no_object_exits_2(tmp_path, capsys, path):
    doc = _edited(tmp_path, "collapse.json", _set(path, NOT_AN_OBJECT[path]))
    code, out = run(capsys, "hom", doc, "X", "Y")
    assert code == 2, out
    assert out.count("\n") == 1 and "must be an object" in out, out
