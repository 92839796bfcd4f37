"""Golden bytes of factorization certificates.

Speed-ups must leave certificates byte-identical, so these hashes may
only change together with a deliberate change of the certificate
format or of a construction's choices.
"""

import hashlib
import os

import pytest

from promc.cli import run_command

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
