"""Certificate replay against tampered and malformed certificates.

A certificate with one recorded claim or one witness map changed must
fail replay (exit 1, one ``FAIL:`` line); a certificate whose data are
not well formed, an unknown mode or class tag included, must be refused
as malformed (exit 2, one line), never read as some other claim.
"""

import json
import os

import pytest

from promc import cli
from promc.cli import run_command
from test_cert_bytes import CLI_RUNS

FIX = os.path.join(os.path.dirname(__file__), "fixtures")
RUNS = dict(CLI_RUNS, **{
    "factor-chainf2-L2": ("factor", "chainf2.json", "p", "--mode", "L2"),
    "matching-chainf2-pt": ("matching", "chainf2.json", "p", "--level", "pt")})

# The fixtures' pro-isos have singleton targets, so an h-family map there
# has no well-formed alternative; this document widens level 0.
WIDE = {
    "schema": "promc.doc/1", "instance": "set-bij",
    "posets": {"I": {"elements": ["0", "1"], "covers": [["0", "1"]]}},
    "objects": {
        "X": {"index": "I", "values": {"1": ["a", "b"], "0": ["x", "z"]},
              "structure": {"1>0": {"a": "x", "b": "x"}}},
        "Y": {"index": "I", "values": {"1": ["u"], "0": ["y", "w"]},
              "structure": {"1>0": {"u": "y"}}}},
    "maps": {
        "f": {"source": "X", "target": "Y",
              "level": {"1": {"a": "u", "b": "u"}, "0": {"x": "y", "z": "w"}}},
        "idX": {"source": "X", "target": "X",
                "level": {"1": {"a": "a", "b": "b"}, "0": {"x": "x", "z": "z"}}},
        "idY": {"source": "Y", "target": "Y",
                "level": {"1": {"u": "u"}, "0": {"y": "y", "w": "w"}}}},
    "witnesses": {"h": {"map": "f", "pairs": {"1>0": {"u": "x"}}}},
}

WIDE_RUNS = {
    "pro-factor-iso": ("pro-factor-iso", "f", "--witnesses", "h"),
    "zigzag-we": ("zigzag-we", "--f", "idY", "--h", "f", "--g", "idX",
                  "--witnesses", "h"),
    "two-of-three": ("two-of-three", "--side", "left", "--top", "f",
                     "--left", "idX", "--right", "idY", "--bottom", "f",
                     "--witnesses", "h"),
    "proper-pullback": ("proper-pullback", "--p", "idY", "--f", "idX",
                        "--g", "f", "--witnesses", "h"),
}


def certificate(tmp_path, capsys, name, wide=False):
    """The certificate document of one fixture run (RUNS, or WIDE_RUNS on
    the WIDE document)."""
    if wide:
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(WIDE))
        command, *rest = WIDE_RUNS[name]
    else:
        command, fixture, *rest = RUNS[name]
        path = os.path.join(FIX, fixture)
    out_file = tmp_path / "cert.json"
    code = run_command([command, str(path), *rest, "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    return json.loads(out_file.read_text())


def replay(tmp_path, capsys, doc):
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    code = run_command(["verify", str(path)])
    return code, capsys.readouterr().out


def other_map(mapping, codomain):
    """A SetBij map with the same domain as *mapping* but another image
    for its first element."""
    key = sorted(mapping)[0]
    new = dict(mapping)
    new[key] = next(y for y in codomain if y != mapping[key])
    assert new != mapping
    return new


def flip(flags, name="we"):
    flags[name] = not flags[name]


def first(table):
    return table[sorted(table)[0]]


def _left_family(doc):
    fam = doc["left_family"]
    fam["1>0"] = other_map(fam["1>0"],
                           doc["input"]["source_object"]["values"]["0"])


def _iso_family(doc, k=0):
    iso = doc["isos"][k]
    fam = iso["hfamily"]
    fam["1>0"] = other_map(fam["1>0"],
                           iso["forward"]["source_object"]["values"]["0"])


def _backward(doc):
    back = doc["source_cert"]["backward"]["level"]
    back["1"] = other_map(back["1"], sorted(back["1"].values()))


def _bonding(doc):
    stage = doc["stages"][0]
    stage["bonding"] = other_map(stage["bonding"], doc["base_value"])


def _right_size(doc):
    doc["right_size"] += 1


# (fixture run, on the WIDE document, change)
TAMPER = {
    "factorization-left-verdict": (
        "factor-special-L1", False,
        lambda d: flip(first(d["left_verdicts"]), "cof")),
    "factorization-matching-verdict": (
        "factor-special-L2", False,
        lambda d: flip(first(d["matching_verdicts"]), "fib")),
    "detect-special-verdict": (
        "detect-special", False, lambda d: flip(first(d["verdicts"]))),
    "pro-factor-iso-right-verdict": (
        "pro-factor-iso", True, lambda d: flip(first(d["right_verdicts"]))),
    "pro-factor-iso-left-family": ("pro-factor-iso", True, _left_family),
    "zigzag-we-verdict": (
        "zigzag-we", True, lambda d: flip(first(d["verdicts"]))),
    "zigzag-we-iso-family": ("zigzag-we", True, _iso_family),
    "zigzag-we-second-iso-family": (
        "zigzag-we", True, lambda d: _iso_family(d, 1)),
    "two-of-three-verdict": (
        "two-of-three", True, lambda d: flip(first(d["verdicts"]))),
    "two-of-three-iso-family": ("two-of-three", True, _iso_family),
    "proper-pullback-verdict": (
        "proper-pullback", True, lambda d: flip(first(d["verdicts"]))),
    "proper-pullback-iso-family": ("proper-pullback", True, _iso_family),
    "levelize-backward": ("levelize-collapse", False, _backward),
    "cocell-attach-classes": (
        "cocell-special-fib", False,
        lambda d: flip(d["stages"][0]["attach_classes"], "cof")),
    "cocell-bonding": ("cocell-special-fib", False, _bonding),
    "tower-limit-attach-classes": (
        "tower-special-acyclic", False,
        lambda d: flip(d["stages"][1]["attach_classes"])),
    "tower-limit-bonding": ("tower-special-acyclic", False, _bonding),
    "adjunction-right-size": ("adjunction-collapse-X", False, _right_size),
}


@pytest.mark.parametrize("case", sorted(TAMPER))
def test_tampered_certificate_fails_replay(tmp_path, capsys, case):
    name, wide, change = TAMPER[case]
    doc = certificate(tmp_path, capsys, name, wide)
    code, out = replay(tmp_path, capsys, doc)
    assert code == 0, out  # the untouched certificate verifies
    change(doc)
    code, out = replay(tmp_path, capsys, doc)
    assert code == 1, out
    assert out.count("\n") == 1 and out.startswith("FAIL:"), out


# (fixture run, field, value): a mode, class tag or verdict that is not
# one of the known ones
MALFORMED_TAGS = [
    ("factor-chainf2-L2", "mode", "bogus"),
    ("factor-chainf2-L2", "mode", None),
    ("factor-chainf2-L2", "mode", 7),
    ("factor-special-L2", "mode", "bogus"),
    ("factor-collapse-L1", "mode", "bogus"),
    ("detect-special", "mode", "bogus"),
    ("detect-special", "ok", None),
    ("cocell-special-fib", "class_tag", "bogus"),
    ("tower-special-acyclic", "class_tag", "bogus"),
    ("lift-special", "mode", "bogus"),
]


@pytest.mark.parametrize("name,field,value", MALFORMED_TAGS)
def test_unknown_mode_or_tag_is_malformed(tmp_path, capsys, name, field, value):
    doc = certificate(tmp_path, capsys, name)
    doc[field] = value
    code, out = replay(tmp_path, capsys, doc)
    assert code == 2, out
    assert out.count("\n") == 1 and out.startswith("error:"), out


OMEGA_T = {"index": "omega", "values": [["0", "1"]], "steps": []}


def test_omega_iso_with_an_empty_hfamily_fails(tmp_path, capsys):
    # the ω level map T -> T collapsing {0, 1} onto 0 is no pro-iso, and
    # an empty h-family over ω tests nothing
    doc = {"schema": "promc.cert/1", "kind": "iso", "instance": "set-bij",
           "forward": {"source": "src", "target": "tgt",
                       "level": [{"0": "0", "1": "0"}],
                       "poset": "omega", "target_poset": "omega",
                       "source_object": OMEGA_T, "target_object": OMEGA_T},
           "backward": None, "hfamily": {}}
    code, out = replay(tmp_path, capsys, doc)
    assert code == 1, out
    assert out.count("\n") == 1 and out.startswith("FAIL:"), out


# Malformed data that used to escape replay as a raw exception
CRASHES = [
    lambda d: d.__setitem__("left_verdicts", []),
    lambda d: d["input"].__setitem__("level", True),
]


@pytest.mark.parametrize("change", CRASHES, ids=["left_verdicts", "level"])
def test_malformed_certificate_gets_one_line(tmp_path, capsys, change):
    doc = certificate(tmp_path, capsys, "factor-chainf2-L2")
    change(doc)
    code, out = replay(tmp_path, capsys, doc)
    assert code in (2, 3), out
    assert out.count("\n") == 1 and "Traceback" not in out, out


def test_an_unexpected_exception_exits_3(capsys, monkeypatch):
    def boom(args, depth):
        raise RuntimeError("something broke")

    monkeypatch.setattr(cli, "_dispatch", boom)
    code = run_command(["verify", "whatever.json"])
    out = capsys.readouterr().out
    assert code == 3
    assert out == "internal error: RuntimeError: something broke\n"


# ------------------------------------------- answer kinds: rerun and compare

def _raise_stabilized_at(doc):
    doc["stabilized_at"] += 1


# (fixture run, change): forged answers that replay once accepted, since
# only a finite SetBij hom was recounted and an ω adjunction only had its
# two sizes compared
FORGERIES = {
    "chainf2-hom-count": (
        ("hom", "chainf2.json", "cD", "cS"), lambda d: d.update(count=999)),
    "omega-hom-count": ("hom-omega-P-T", lambda d: d.update(count=999)),
    "omega-hom-stabilized-at": ("hom-omega-P-T", _raise_stabilized_at),
    "omega-adjunction-sizes": (
        "adjunction-omega-T",
        lambda d: d.update(left_size=999, right_size=999, assignments=[])),
}


def _answer(tmp_path, capsys, run):
    if isinstance(run, str):
        return certificate(tmp_path, capsys, run)
    command, fixture, *rest = run
    out_file = tmp_path / "cert.json"
    assert run_command([command, os.path.join(FIX, fixture), *rest,
                        "--out", str(out_file)]) == 0
    capsys.readouterr()
    return json.loads(out_file.read_text())


@pytest.mark.parametrize("case", sorted(FORGERIES))
def test_a_forged_answer_fails_replay(tmp_path, capsys, case):
    run, change = FORGERIES[case]
    doc = _answer(tmp_path, capsys, run)
    assert replay(tmp_path, capsys, doc)[0] == 0
    change(doc)
    code, out = replay(tmp_path, capsys, doc)
    assert code == 1, out
    assert out.count("\n") == 1 and out.startswith("FAIL: recorded "), out


def test_the_first_differing_key_is_the_witness(tmp_path, capsys):
    doc = certificate(tmp_path, capsys, "hom-omega-P-T")
    doc["count"] += 1
    doc["stabilized_at"] += 1
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (1, "FAIL: recorded count differs from the rerun "
                              "(witness: count)\n")


def test_a_recorded_value_of_another_json_type_is_malformed(tmp_path, capsys):
    doc = certificate(tmp_path, capsys, "hom-collapse-X-Y")
    doc["count"] = True
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (2, "error: certificate field count is a boolean, "
                              "not an integer\n")


@pytest.mark.parametrize("run,path", [
    (("levelize", "chainf2.json", "p"),
     "target_cert.forward.target_object.values.pt.lo"),
    (("matching", "chainf2.json", "p", "--level", "pt"), "matching_source.lo"),
], ids=["levelize-copy-of-an-end", "matching-answer-field"])
def test_false_recorded_for_0_is_malformed(tmp_path, capsys, run, path):
    """Python's equality takes false for 0, so replay once read the
    retyped copy of an end as the copy beside it and accepted the
    retyped answer field."""
    doc = _answer(tmp_path, capsys, run)
    assert replay(tmp_path, capsys, doc)[0] == 0
    *keys, last = path.split(".")
    node = doc
    for key in keys:
        node = node[key]
    assert node[last] == 0 and type(node[last]) is int
    node[last] = False
    code, out = replay(tmp_path, capsys, doc)
    assert code == 2, out
    assert out.count("\n") == 1 and out.startswith("error:"), out


# ------------------------------------- cocell and tower-limit certificates

def _presented_entry(doc):
    doc["source_presentation"]["level"]["pt"]["0"] = [[0]]


def _limit_value(doc):
    doc["limit_value"].pop()


def _swap_stages(doc):
    doc["stages"].reverse()


@pytest.mark.parametrize("run,change", [
    ("cocell-chainf2-fib", _presented_entry),
    ("tower-chainf2-fib", _presented_entry),
    ("tower-special-fib", _limit_value),
    ("cocell-special-acyclic", _swap_stages),
], ids=["cocell-presented-map", "tower-presented-map", "tower-limit-value",
        "cocell-stage-order"])
def test_a_tower_certificate_is_tied_to_the_map_it_presents(
        tmp_path, capsys, run, change):
    doc = certificate(tmp_path, capsys, run)
    if run.startswith("cocell-chainf2"):
        assert doc["source_presentation"]["level"]["pt"]["0"] == [[1]]
    change(doc)
    code, out = replay(tmp_path, capsys, doc)
    assert code == 1, out
    assert out.count("\n") == 1 and out.startswith("FAIL:"), out


def _rename_in_iso(old, new):
    """The edit that renames the element *old* throughout a tower-limit
    certificate's pro-iso, which stays an iso."""
    def change(doc):
        doc["iso"] = json.loads(json.dumps(doc["iso"]).replace(f'"{old}"', f'"{new}"'))
    return change


@pytest.mark.parametrize("change", [_rename_in_iso("a", "a2"),
                                    _rename_in_iso("((u,x),a)", "((u,x),a2)")],
                         ids=["source-end", "target-end"])
def test_a_tower_limit_iso_wrong_at_one_end_fails(tmp_path, capsys, change):
    doc = certificate(tmp_path, capsys, "tower-special-acyclic")
    change(doc)
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (1, "FAIL: the limit's pro-iso does not run from the "
                              "presented source to the last stage\n")


@pytest.mark.parametrize("run", ["cocell-special-fib", "tower-special-fib"])
def test_a_tower_certificate_without_its_presented_map_exits_2(
        tmp_path, capsys, run):
    doc = certificate(tmp_path, capsys, run)
    del doc["source_presentation"]
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (2, "error: a JSON object lacks the key "
                              "'source_presentation'\n")


@pytest.mark.parametrize("run", ["cocell-special-fib", "tower-special-fib"])
@pytest.mark.parametrize("change", [
    lambda d: d.__setitem__("stages", "ab"),
    lambda d: d.__setitem__("stages", [5] * len(d["stages"])),
], ids=["stages-string", "stages-numbers"])
def test_tower_stages_that_are_not_objects_exit_2(tmp_path, capsys, run, change):
    doc = certificate(tmp_path, capsys, run)
    assert len(doc["stages"]) == 2  # so the string "ab" has a stage's length
    change(doc)
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (2, "error: tower stages must be a list of objects\n")


# ------------------------------------------------ levelwise-we certificates

@pytest.mark.parametrize("run", ["zigzag-we", "two-of-three", "proper-pullback"])
def test_a_levelwise_we_certificate_carries_exactly_its_isos(tmp_path, capsys, run):
    doc = certificate(tmp_path, capsys, run)
    doc["isos"].pop()
    code, out = replay(tmp_path, capsys, doc)
    assert code == 1, out
    assert out.startswith(f"FAIL: {doc['construction']} certifies "), out


def test_an_unknown_levelwise_we_construction_exits_2(tmp_path, capsys):
    doc = certificate(tmp_path, capsys, "zigzag-we")
    doc["construction"] = "zigzag"
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (2, "error: unknown levelwise-we construction 'zigzag'\n")


def test_a_levelwise_we_iso_must_share_an_end_with_the_map(tmp_path, capsys):
    doc = certificate(tmp_path, capsys, "two-of-three")
    other = _answer(tmp_path, capsys, ("levelize", "special.json", "bottom"))
    doc["isos"] = [other["source_cert"]]
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (1, "FAIL: the pro-iso shares no end with the map "
                              "(witness: isos.0)\n")


def test_a_certificate_without_a_key_its_replay_reads_exits_2(tmp_path, capsys):
    command = ("levelize", os.path.join(FIX, "omega_maps.json"), "g")
    out_file = tmp_path / "cert.json"
    assert run_command([*command, "--out", str(out_file)]) == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    del doc["map"]
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (2, "error: a JSON object lacks the key 'map'\n")


@pytest.mark.parametrize("payload", [[1], "level", 5])
def test_a_pro_object_payload_that_is_not_an_object_exits_2(tmp_path, capsys, payload):
    doc = certificate(tmp_path, capsys, "matching-chainf2-pt")
    doc["map"]["source_object"] = payload
    code, out = replay(tmp_path, capsys, doc)
    kind = type(payload).__name__
    assert (code, out) == (2, f"error: pro-object payload must be an object, not {kind}\n")


@pytest.mark.parametrize("payload", [[1], "level"])
def test_a_pro_map_payload_that_is_not_an_object_exits_2(tmp_path, capsys, payload):
    doc = certificate(tmp_path, capsys, "lift-special")
    doc["top"] = payload
    code, out = replay(tmp_path, capsys, doc)
    kind = type(payload).__name__
    assert (code, out) == (2, f"error: pro-map payload must be an object, not {kind}\n")


FACTOR_L1 = ("factor", "chainf2.json", "p", "--mode", "L1")


@pytest.mark.parametrize("kind", [{}, ["factorization"], 5])
def test_a_kind_that_is_not_a_string_is_unknown(tmp_path, capsys, kind):
    doc = _answer(tmp_path, capsys, FACTOR_L1)
    doc["kind"] = kind
    code, out = replay(tmp_path, capsys, doc)
    assert (code, out) == (2, f"error: unknown certificate kind {kind!r}\n")


@pytest.mark.parametrize("field,value,what", [
    ("input", True, "pro-map payload must be an object, not bool"),
    ("construction", [], "unknown levelwise-we construction []"),
    ("isos", 1, "levelwise-we isos must be a list"),
    ("isos", [2.5], "iso payload must be an object, not float")])
def test_a_payload_of_the_wrong_shape_exits_2(tmp_path, capsys, field, value, what):
    doc = _answer(tmp_path, capsys, FACTOR_L1 if field == "input" else "two-of-three")
    doc[field] = value
    assert replay(tmp_path, capsys, doc) == (2, f"error: {what}\n")


def test_a_general_component_from_no_source_level_exits_2(tmp_path, capsys):
    doc = certificate(tmp_path, capsys, "lift-special")
    first(doc["lift"]["general"])[0] = "bogus"
    code, out = replay(tmp_path, capsys, doc)
    assert code == 2 and out.count("\n") == 1
    assert "has source level 'bogus', not an element of the source index" in out
