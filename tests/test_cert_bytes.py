"""Golden bytes of factorization, hom and lift certificates.

Speed-ups must leave certificates byte-identical, so these hashes may
only change together with a deliberate change of the certificate
format or of a construction's choices.
"""

import hashlib
import os

import pytest

from promc import certs, strict, suites
from promc.cli import run_command
from promc.docio import dump_json
from promc.indexing import from_covers

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
