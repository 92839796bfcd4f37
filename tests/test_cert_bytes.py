"""Golden bytes of factorization, hom and lift certificates.

Speed-ups must leave certificates byte-identical, so these hashes may
only change together with a deliberate change of the certificate
format or of a construction's choices.
"""

import hashlib
import json
import os
import random

import pytest

from promc import certs, strict, suites
from promc.cli import run_command
from promc.docio import (dump_json, hfamily_to_doc, poset_to_doc,
                         promap_to_doc, proobj_to_doc)
from promc.indexing import from_covers

from test_cli_sweep import SEEDED

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "chainf2.json")

GOLDEN = {
    ("p", "L1"): "0ee77000f6a50d1e7a60cddba6aabd1d426f39c7801218c7ed5f38d78d95ace4",
    ("p", "L2"): "d14d569a11208c31217c9bf52569cc8bb89418a7fc0e33b44e718cbac23097e9",
    ("z", "L1"): "07f2dcc22fd85a83c4ebd7e2c2daf7b67926269a24cb296f2b61417dc0c5b4c0",
    ("z", "L2"): "a8a9a4d9d6dda3e975b6be3d1edb931fc00bcd64bd9ba5b556ac72a20f8ec296",
}


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_factor_certificate_bytes(tmp_path, capsys, name, mode):
    out_file = tmp_path / "cert.json"
    code = run_command(["factor", FIXTURE, name, "--mode", mode,
                        "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == GOLDEN[(name, mode)]


HOM_GOLDEN = "be69d814368e22eb69051356ab1294cccfd2133d06a2a4bf0b7dc926dd4b5c9e"


def test_hom_certificate_bytes(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code = run_command(["hom", FIXTURE, "cD", "cS", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == HOM_GOLDEN


# Plain squares (j, p, j, p) of strict factorizations of generated level
# maps: the generators' chain-map systems, the base lifts and the
# matching maps all feed these bytes.
LIFT_GOLDEN = {
    (1, "chain3", "L1"):
        "c5d68ee6721d8e5e8f6421c7ccfc873df261e4f198e18f396830000aab47bedb",
    (1, "chain3", "L2"):
        "d6fcc013d525f3b156403434632d66eeedd1ffefb1eb0357af189630c8c2db73",
    (1, "diamond", "L1"):
        "386cb428a6db28eb7ac3fec419e0f1f5dafad4c3486456964c923244438dbfd1",
    (1, "diamond", "L2"):
        "e402910d6e57b158e8d57734f249b344f682087f167ead86d75fc72af813affa",
    (2, "chain3", "L1"):
        "7e8865619cbfcb2c88aca952afd219b26696d40061010811bf41df1ac277a2cd",
    (2, "chain3", "L2"):
        "f8971fd916ea57dd57c23cab73afa21b64e2631561e67a80e05c91ed27781fbd",
    (2, "diamond", "L1"):
        "d45effcec93fcc629f06435efbdb65757bbeb9b456be75788ff49a5853987b82",
    (2, "diamond", "L2"):
        "ff41dc374a50e54c82ab233968b628b12e00a17eae7eaef69e74bf19881bd139",
    (3, "chain3", "L1"):
        "efaf604d47162d1aa0854309f147820a733fa3cb4bc182fd7dd5e51097110d89",
    (3, "chain3", "L2"):
        "74040c3a8eea26f24fb56e544840f6e310a79cdacdd0ca32a439557b4991beeb",
    (3, "diamond", "L1"):
        "d6ecbca13f9ba216193e6b2eab43c9c5781e08585ace5d0749c379449f4994fb",
    (3, "diamond", "L2"):
        "03f84b8af0f61137c0947e7f0e5592d106fe616631e630c316e6ad43afcf2a73",
}


@pytest.mark.parametrize("seed,shape,mode", sorted(LIFT_GOLDEN))
def test_lift_certificate_bytes(seed, shape, mode):
    els, covers = suites.POSET_SHAPES[shape]
    f = suites.gen_level_map(suites.Rng(seed), from_covers(els, covers),
                             "chain-f2")
    fs = strict.factor_strict(f, mode)
    j, p = fs.left, fs.right
    res = strict.lift_strict(j, p, j, p, mode=mode, special=fs.special)
    doc = certs.lift_cert(j, p, j, p, mode, res)
    digest = hashlib.sha256(dump_json(doc).encode()).hexdigest()
    assert digest == LIFT_GOLDEN[(seed, shape, mode)]


# SetBij certificates written by the CLI from the fixtures (the digests
# above are all ChainF2 ones), plus the ChainF2 runs that only cocell,
# tower-limit and levelize exercise, and ChainF2 lifts through the CLI
# over the CLI sweep's seeded lift documents.
CLI_RUNS = {
    "hom-collapse-X-Y": ("hom", "collapse.json", "X", "Y"),
    "hom-collapse-Y-X": ("hom", "collapse.json", "Y", "X"),
    "hom-omega-P-T": ("hom", "omega.json", "P", "T"),
    "factor-special-L1": ("factor", "special.json", "p", "--mode", "L1"),
    "factor-special-L2": ("factor", "special.json", "p", "--mode", "L2"),
    "factor-collapse-L1": ("factor", "collapse.json", "f", "--mode", "L1"),
    "factor-collapse-L2": ("factor", "collapse.json", "f", "--mode", "L2"),
    "lift-special": ("lift", "special.json", "--i", "i", "--p", "p",
                     "--top", "top", "--bottom", "bottom"),
    "levelize-collapse": ("levelize", "collapse.json", "f"),
    "levelize-chainf2": ("levelize", "chainf2.json", "p"),
    "cocell-special-acyclic": ("cocell", "special.json", "p",
                               "--class", "acyclic-fib"),
    "cocell-special-fib": ("cocell", "special.json", "p", "--class", "fib"),
    "tower-special-acyclic": ("tower-limit", "special.json", "p",
                              "--class", "acyclic-fib"),
    "tower-special-fib": ("tower-limit", "special.json", "p", "--class", "fib"),
    "cocell-chainf2-fib": ("cocell", "chainf2.json", "p", "--class", "fib"),
    "tower-chainf2-fib": ("tower-limit", "chainf2.json", "p", "--class", "fib"),
    "adjunction-collapse-X": ("adjunction", "collapse.json",
                              "--base", "pt", "--object", "X"),
    "adjunction-collapse-Y": ("adjunction", "collapse.json",
                              "--base", "pt", "--object", "Y"),
    "adjunction-omega-T": ("adjunction", "omega.json",
                           "--base", "pt", "--object", "T"),
    "detect-special": ("detect-special", "special.json", "p",
                       "--mode", "acyclic-fib"),
    "matching-special-1": ("matching", "special.json", "p", "--level", "1"),
    "pro-factor-iso": ("pro-factor-iso", "collapse.json", "f",
                       "--witnesses", "h"),
    "zigzag-we": ("zigzag-we", "zigzag.json", "--f", "idY", "--h", "f",
                  "--g", "idX", "--witnesses", "h"),
    "two-of-three": ("two-of-three", "zigzag.json", "--side", "left",
                     "--top", "f", "--left", "idX", "--right", "idY",
                     "--bottom", "f", "--witnesses", "h"),
    "proper-pullback": ("proper-pullback", "zigzag.json", "--p", "idY",
                        "--f", "idX2", "--g", "f", "--witnesses", "h"),
    **{f"lift-chainf2-{mode}": ("lift", f"seeded-lift-{mode}-chain-f2-1.json",
                                "--i", "j", "--p", "p", "--top", "j", "--bottom", "p",
                                "--mode", mode) for mode in ("L1", "L2")},
}

CLI_GOLDEN = {
    "adjunction-collapse-X":
        "46a74cf688cfe8d1ff1f8a5b5dddb3068860651bd448fc0fedd1471aacd4444e",
    "adjunction-collapse-Y":
        "cdb84b20572f823fff501d1ed2dee320f751473e188fa66c2e90039a682af473",
    "adjunction-omega-T":
        "fecffc270119adeaf4b116a0104ce399b183d9aeda75bb0c551cf5bb0ea254d2",
    "cocell-chainf2-fib":
        "9be72d8398e0f3990232eff617c898eec57ae4749162b69b4d624f0709d8f937",
    "cocell-special-acyclic":
        "e1f948a12a99f8a418f88b138af5a783f0b1771e63df6fab3805cbb5638f361c",
    "cocell-special-fib":
        "6915700915afe5c6319888266438246df8e7c312ab231689bf52636c0fbd0255",
    "detect-special":
        "38968c2a2a72a1aefc4a921b6e87c3b75f034663071e8fee8e300f29f1681f50",
    "factor-collapse-L1":
        "6a12f19bd8a31cbb3501770b88e8f8cf3038b52cfcd286c6313486541cf428f2",
    "factor-collapse-L2":
        "9bc4053699703f7848c6d0bb079474e132d9aaed799095ef398f4a74afac77d3",
    "factor-special-L1":
        "1097c2bd2bf186e67577d962c7464055794b403a358e746d1c9c558b045b12c8",
    "factor-special-L2":
        "7129afc0f96e460dcff2044dda9e11b1dcfe7a94d66286f6dfe245bc79e08c09",
    "hom-collapse-X-Y":
        "d2d733541f5231d2a12bbb7ecc9bb4a551fd08d1be82716127975d718b5ab881",
    "hom-collapse-Y-X":
        "d45f6dbe1e914874c6782577d31b5120b739393886e7817d90cd49ad6b4a6c31",
    "hom-omega-P-T":
        "097868c723553459b5bbbf0a0f0147439076aaa4a716bf28a40eb519073db38e",
    "levelize-chainf2":
        "ec8c929f480028e98cc8d15972c0c1e64d2813001580928d70e53ff0de9b4c4a",
    "levelize-collapse":
        "75c23bc22b0ac31ea6e4c8897a03e6c298850bd97c78b36aa4a5a7904c0b41fd",
    "lift-chainf2-L1":
        "e8142e692a57c2fc9e4d743e6db31d00383425729e15c990a84410eb134c93a7",
    "lift-chainf2-L2":
        "3f2863a6e06a9e7c66dad179e6b26ba6c5bf52e7df0e6b4e948578281795de1f",
    "lift-special":
        "7146e9256e6beabb856b34a6e2c88471ca0a4e1b0660f8428d167628caab7acf",
    "matching-special-1":
        "50a107319a708f88eec7a8c777da8326586aab2196e6f7981d27453fc8f1e88c",
    "pro-factor-iso":
        "4c3e5b20ceaf2823d4666c5a5acd254dc75b2e4f6ef2cd7df0c329ed12a4a9f6",
    "proper-pullback":
        "d0822bd5dfa7bd4be7c25dde9ff8c8a7b92a95a20acb1453ef62fd60f7969871",
    "tower-chainf2-fib":
        "0d7a2ce4aeb1cda988e4788a543d428de262030b44b2cd046ae5f4fc227588d5",
    "tower-special-acyclic":
        "82b0d1d452df1d448b404bc38126503a7fa8c5ff77eb94a1b7992a66a07bd3ac",
    "tower-special-fib":
        "83fe3571d977608e5e7dc614666aacd8815366f4fe7c158e72185c3b20ecc4f0",
    "two-of-three":
        "437b5479e3384468d720a9c088d7afc6b49bda9d8c354c48529bfc6c7b565200",
    "zigzag-we":
        "d1e5aa19e1e5cfd783357ba83af0f43a5f634258169393831f4c2bdbf5eb1c76",
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_certificate_bytes(tmp_path, capsys, name):
    command, fixture, *rest = CLI_RUNS[name]
    out_file = tmp_path / "cert.json"
    path = os.path.join(os.path.dirname(__file__), "fixtures", fixture)
    if fixture in SEEDED:
        path = tmp_path / fixture
        path.write_text(json.dumps(SEEDED[fixture]))
    code = run_command([command, str(path), *rest, "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == CLI_GOLDEN[name]


# The seeded generators: the benchmark's inputs depend on the order in
# which they draw random numbers, so their outputs are pinned too.
def _level_map_doc(f):
    return {"poset": poset_to_doc(f.source.index),
            "X": proobj_to_doc(f.source), "Y": proobj_to_doc(f.target),
            "f": promap_to_doc(f, "X", "Y")}


def _generated(kind, instance, seed):
    rng = suites.Rng(seed)
    small = ({"max_size": 3} if instance == "set-bij"
             else {"max_deg": 1, "max_dim": 2})
    if kind == "level":
        return _level_map_doc(suites.gen_level_map(
            rng, suites.gen_poset(rng, 4), instance))
    if kind == "shift":
        f, wit = suites.gen_shift_iso(rng, instance, length=2, **small)
        return dict(_level_map_doc(f), h=hfamily_to_doc(wit))
    X = suites.gen_pro_object(rng, suites.gen_poset(rng, 4), instance, **small)
    return _level_map_doc(suites.gen_we_level_map(rng, X))


GEN_GOLDEN = {
    ("level", "chain-f2", 1):
        "8cb3f2d0dcbaca470003815ae7a57f57bc9931ca0325ccab939ef51cad53840f",
    ("level", "chain-f2", 2):
        "e519cd4dc9d2e2bc3f93bd5b94b64d956e175ebc6e8ee66d84346408995f637d",
    ("level", "chain-f2", 3):
        "30e9064624718131f6b63cbe8abcb14765359e1ee549cea7473d6f4f236fcea2",
    ("level", "set-bij", 1):
        "2651014220a2b6073fed0efe191e8853345691bbf480f670a88e7fdbe0849a68",
    ("level", "set-bij", 2):
        "0446c6a909661e2f7b30895b29d13218fda0e9e52f80ae333b0d06326c3b15bf",
    ("level", "set-bij", 3):
        "2d7602235be51118b42221f9c4bfaaad66c900ea558880d8514a4bbbbc6e7df2",
    ("shift", "chain-f2", 1):
        "aa96f45917486fa72c7b599841fa7314c6dddc73d1dcd896abe5142d8b1056e4",
    ("shift", "chain-f2", 2):
        "98744e1c6a11a75be4fea9d8ef80dae68ab618609d4bfb6aeedea07ee2210ad1",
    ("shift", "chain-f2", 3):
        "2a70f57fbae87b4572ccb83444c92a189362ac254a0de51506d8837097b0b8bb",
    ("shift", "set-bij", 1):
        "31eb28056293fd869ad210f239a80719b22f546f632b822f89e9004479ef8107",
    ("shift", "set-bij", 2):
        "db932d43acd312062cbdc3c510a27d1214a4758227b5fae16b85120c47363833",
    ("shift", "set-bij", 3):
        "5c2e1303708c4fa4bb28468710b5dbb290a63749f8b5b15901e7ffe97202ce4e",
    ("we", "chain-f2", 1):
        "4058a9bd7cb3af86cddc474105bf64a06261e55e95af06bac57cf83728808c94",
    ("we", "chain-f2", 2):
        "a121e3a0d58de2a8e8ae37bb119d9f47aaa495e4e76cb37cb147d406dbcccf6b",
    ("we", "chain-f2", 3):
        "66697906f82861fd0c3ddccb1a1504c714cb5efb5768861ec4e52934cc85bffb",
    ("we", "set-bij", 1):
        "c19e8f9bfd60fad34847dc3a19b7d2dd6bf30cb904143384a0fba1d25ddd0987",
    ("we", "set-bij", 2):
        "2c54d068808f79b589ac950b9a3d7e7933ce42f01a001ac5dbb63089143f9929",
    ("we", "set-bij", 3):
        "824b8f3ca852c79a418d6d483fa86326bd61c5b1ce5bcee5fba558ae29c75be6",
}


@pytest.mark.parametrize("kind,instance,seed", sorted(GEN_GOLDEN))
def test_generator_bytes(kind, instance, seed):
    doc = _generated(kind, instance, seed)
    digest = hashlib.sha256(dump_json(doc).encode()).hexdigest()
    assert digest == GEN_GOLDEN[(kind, instance, seed)]


# ------------------------------------------------------- the JSON writer

STRINGS = ["", "a", "x0", "é", "日本", "\U0001f600", "tab\there", "new\nline",
           'quote"d', "back\\slash", "\x00\x1f\x7f", "[1, 2]", "{\"k\": [}", "a>b",
           "]}", ": ,"]


def random_json(rng, depth):
    """A seeded JSON value: nested lists and dicts (int, str and non-ASCII
    keys, empty ones too) over ints, negative ints, bools, None and
    strings with escapes and brackets."""
    pick = rng.random()
    if depth and pick < 0.3:
        return [random_json(rng, depth - 1) for _ in range(rng.randrange(5))]
    if depth and pick < 0.55:
        if rng.random() < 0.3:
            keys = {rng.randrange(-50, 50) for _ in range(rng.randrange(4))}
        else:
            keys = {rng.choice(STRINGS) + rng.choice(STRINGS)
                    for _ in range(rng.randrange(5))}
        return {k: random_json(rng, depth - 1) for k in keys}
    return rng.choice([rng.randrange(-10**20, 10**20), rng.randrange(-2, 2), True,
                       False, None, rng.choice(STRINGS), [], {}, [0, 1, 1],
                       ["a", "é"]])


@pytest.mark.parametrize("seed", range(40))
def test_dump_json_writes_the_bytes_of_json_dumps(seed):
    rng = random.Random(seed)
    doc = {"kind": random_json(rng, 5), "maps": [random_json(rng, 4) for _ in range(3)]}
    assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for value in ([], {}, "", 0, -7, True, False, None, [[]], [{}], {"": {}}):
        assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
