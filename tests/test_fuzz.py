"""One-field fuzzer: a document or certificate with any one field set to
a value of the wrong shape gets exit 0, 1 or 2 and one line, never a
Python traceback or the last-resort exit 3.

A variant sets one node of the JSON tree (an object's value or a list's
entry, at any depth) to one of ``VALUES``.  A seeded sample of the
variants of three commands over the fixtures, and of ``verify`` over the
certificates of ``test_tamper.RUNS`` (every kind, instance and regime the
CLI sweep emits), runs in process; the sample sizes keep the test within
a few seconds.
"""

import json
import random

import pytest

from test_tamper import RUNS, _quiet, documents, dotted  # noqa: F401  (a fixture)

VALUES = [None, True, 1, -1, 10**30, "bogus", [], {}, [[1]], 2.5]

# name -> (a command over a fixture, as in RUNS; the sample size)
COMMANDS = {
    "lift-special": (("lift", "special.json", "--i", "i", "--p", "p",
                      "--top", "top", "--bottom", "bottom"), 400),
    "hom-omega-P-T": (("hom", "omega_maps.json", "P", "T"), 150),
    "hom-chainf2-cD-cS": (("hom", "chainf2.json", "cD", "cS"), 150),
}
# the factor certificate is sampled more densely than the others
VERIFIED = {name: 300 if name == "factor-chainf2-L1" else 80 for name in RUNS}


def paths(node, path=()):
    """The key path of every node below *node*, depth first in key order."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from paths(value, path + (key,))


def variants(doc, n, seed=0):
    """A seeded sample of n of the (path, value) variants of *doc*."""
    every = [(path, value) for path in paths(doc) for value in VALUES]
    return random.Random(seed).sample(every, min(n, len(every)))


def with_field(doc, path, value):
    """A copy of *doc* with the node at *path* set to *value*."""
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def sweep(doc, command, rest, n, tmp_path):
    """The variants among n sampled ones of *doc* on which *command*, run
    on the variant with the arguments *rest*, does not exit 0, 1 or 2
    with one line."""
    variant = tmp_path / "variant.json"
    argv = [command, str(variant), *rest]
    failed = []
    for path, value in variants(doc, n):
        variant.write_text(json.dumps(with_field(doc, path, value)))
        code, text = _quiet(argv)
        if code not in (0, 1, 2) or text.count("\n") != 1:
            failed.append(f"{dotted(path)} = {json.dumps(value)}: exit {code}: {text}")
    return failed


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_document_field_of_the_wrong_shape_exits_0_1_or_2(name, documents, tmp_path):
    (command, fixture, *rest), n = COMMANDS[name]
    with open(documents(fixture)) as fh:
        doc = json.load(fh)
    assert not sweep(doc, command, rest, n, tmp_path)


@pytest.mark.parametrize("name", sorted(VERIFIED))
def test_a_certificate_field_of_the_wrong_shape_exits_0_1_or_2(name, documents,
                                                                 tmp_path):
    command, fixture, *rest = RUNS[name]
    out = tmp_path / "cert.json"
    assert _quiet([command, documents(fixture), *rest, "--out", str(out)])[0] == 0
    doc = json.loads(out.read_text())
    assert not sweep(doc, "verify", [], VERIFIED[name], tmp_path)
