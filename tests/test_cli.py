import json
import os
import time

import pytest

from promc.chainf2 import INSTANCE, MAX_DIM
from promc.cli import run_command

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
    assert "level_index" in out and f"witness: {levels[0]}" in out


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
