"""Tamper sweep: every one-leaf change of a certificate fails replay.

One certificate of every kind, instance and regime that the CLI sweep
(``test_cli_sweep``) emits is changed one leaf at a time: an integer
gets +1, a boolean is flipped, a non-empty list loses its last entry,
and an integer 0 or 1 is retyped to the boolean false or true.
Each variant must make ``verify`` exit 1 (a claim failed) or 2 (the
data are malformed); none may verify or crash.  The variants are
enumerated in a fixed order from the certificates, which the seeded
documents of the CLI sweep and the fixtures determine.  ``EXEMPT`` lists
the variants that re-encode the same certificate or certify another true
claim, each with its reason.
"""

import contextlib
import io
import json
import os

import pytest

from promc.cli import run_command
from test_cert_bytes import CLI_RUNS
from test_cli_sweep import SEEDED

FIX = os.path.join(os.path.dirname(__file__), "fixtures")

# CLI_RUNS plus the kind × instance × regime triples it lacks
RUNS = dict(CLI_RUNS, **{
    "hom-chainf2-cD-cS": ("hom", "chainf2.json", "cD", "cS"),
    "levelize-omega-g": ("levelize", "omega_maps.json", "g"),
    "factor-chainf2-L1": ("factor", "chainf2.json", "p", "--mode", "L1"),
    "factor-omega-L1": ("factor", "omega_maps.json", "f", "--mode", "L1"),
    "detect-special-chainf2": ("detect-special", "chainf2.json", "p",
                               "--mode", "fib"),
    "detect-special-omega": ("detect-special", "omega_maps.json", "f",
                             "--mode", "fib"),
    "matching-chainf2-pt": ("matching", "chainf2.json", "p", "--level", "pt"),
    "matching-omega-1": ("matching", "omega_maps.json", "f", "--level", "1"),
    "pro-factor-iso-chainf2": ("pro-factor-iso", "seeded-shift-chain-f2-1.json",
                               "f", "--witnesses", "h"),
})


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run_command(argv)
    return code, out.getvalue()


def _leaves(node, path=()):
    """(path, value) of every value under *node*, depth first in key order."""
    yield path, node
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _leaves(value, path + (k,))


def variants(doc):
    """(path, change) of every one-leaf change of *doc*: *path* is the
    tuple of keys and list positions down to the leaf, *change* one of
    "+1", "flip", "drop" and "retype"."""
    for path, value in _leaves(doc):
        if isinstance(value, bool):
            yield path, "flip"
        elif isinstance(value, int):
            yield path, "+1"
            if value in (0, 1):
                yield path, "retype"
        elif isinstance(value, list) and value:
            yield path, "drop"


def changed(doc, path, change):
    """A copy of *doc* with the leaf at *path* changed by *change*."""
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    last = path[-1]
    if change == "flip":
        node[last] = not node[last]
    elif change == "+1":
        node[last] += 1
    elif change == "retype":
        node[last] = bool(node[last])
    else:
        node[last].pop()
    return out


def dotted(path):
    return ".".join(map(str, path))


# The reader repeats the last entry of an ω list up to the depth, so
# dropping the last entry of a list whose last two entries are equal
# re-encodes the same values.
OMEGA_TAIL = "drops an ω list entry that the reader repeats from the one before"
# Every level of the ω object P of omega_maps.json is {*} with identity
# steps, so a GENERAL component from P read at a higher source level is
# the same map.
CONSTANT_SOURCE = "raises a source level of a GENERAL component out of a constant ω object"
# A ChainF2 value reads an absent matrix as zero, so raising a dimension
# whose boundary and structure matrices were empty adds a generator that
# every map of the square sends to zero and that no map reaches.
ABSENT_ZERO = ("adds a generator with zero boundary: another square, which the "
               "same lift solves; its canonical text would list the zero matrices")

EXEMPT = {
    **{("levelize-omega-g", where, "drop"): OMEGA_TAIL for where in (
        "map.level",
        "map.source_object.steps", "map.source_object.values",
        "map.target_object.steps", "map.target_object.values",
        "original.source_object.steps", "original.source_object.values",
        "original.target_object.steps", "original.target_object.values",
        "source_cert.forward.source_object.steps",
        "source_cert.forward.source_object.values",
        "source_cert.forward.target_object.steps",
        "source_cert.forward.target_object.values",
        "target_cert.backward.level", "target_cert.forward.level",
        "target_cert.forward.source_object.steps",
        "target_cert.forward.source_object.values",
        "target_cert.forward.target_object.steps",
        "target_cert.forward.target_object.values")},
    **{("levelize-omega-g", where, "+1"): CONSTANT_SOURCE for where in (
        "original.general.0.0", "original.general.1.0", "original.general.2.0",
        "original.general.3.0", "original.general.4.0", "original.general.5.0",
        "source_cert.backward.general.0.0", "source_cert.backward.general.1.0",
        "source_cert.backward.general.2.0", "source_cert.backward.general.3.0",
        "source_cert.backward.general.4.0",
        "source_cert.forward.general.0.0", "source_cert.forward.general.1.0",
        "source_cert.forward.general.2.0", "source_cert.forward.general.3.0",
        "source_cert.forward.general.4.0")},
    **{("factor-omega-L1", where, "drop"): OMEGA_TAIL for where in (
        "input.level",
        "input.source_object.steps", "input.source_object.values",
        "input.target_object.steps", "input.target_object.values")},
    ("pro-factor-iso-chainf2", "right.level.0.0.1.1", "+1"):
        "changes the right factor at level 0 only on the basis vector 1 of "
        "the middle's degree 0, which neither the left factor nor the "
        "structure map from level 1 reaches: the same pro-map, so every "
        "claim still holds",
    ("lift-chainf2-L1", "i.target_object.values.0.dims.2", "+1"): ABSENT_ZERO,
    ("lift-chainf2-L2", "p.source_object.values.2.dims.4", "+1"): ABSENT_ZERO,
    ("lift-chainf2-L2", "lift.general.1.1.1.1.0", "+1"):
        "changes the lift's level-1 component only off the image of the "
        "structure map from level 2, the deepest level: the same pro-map",
    ("lift-chainf2-L2", "lift.general.2.1.2.1.0", "+1"):
        "gives another lift of the same square: lifts are not unique, and "
        "this one also makes both triangles commute",
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The fixtures and the CLI sweep's seeded documents, by file name."""
    path = tmp_path_factory.mktemp("seeded")
    for name, raw in SEEDED.items():
        (path / name).write_text(json.dumps(raw))
    return lambda name: str(path / name) if name in SEEDED else os.path.join(FIX, name)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_one_leaf_change_fails_replay(run, documents, tmp_path):
    command, fixture, *rest = RUNS[run]
    out = tmp_path / "cert.json"
    assert _quiet([command, documents(fixture), *rest, "--out", str(out)])[0] == 0
    doc = json.loads(out.read_text())
    assert _quiet(["verify", str(out)])[0] == 0
    accepted, exempt = [], {key[1:] for key in EXEMPT if key[0] == run}
    for path, change in variants(doc):
        out.write_text(json.dumps(changed(doc, path, change)))
        code, text = _quiet(["verify", str(out)])
        if (dotted(path), change) in exempt:
            exempt.remove((dotted(path), change))
        elif code not in (1, 2) or text.count("\n") != 1:
            accepted.append(f"{dotted(path)} {change}: exit {code}: {text.strip()}")
    assert not accepted
    assert not exempt, "exempted variants that the certificate does not have"
