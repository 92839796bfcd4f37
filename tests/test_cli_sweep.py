"""Every command of the CLI table over every fixture, output pinned.

The runs are enumerated from ``promc.cli.COMMANDS``: each command that
takes a document runs over every fixture and over a few seeded
documents, with every object pair, map, map triple, map square, choice
(mode, class, side), level and witness bundle the document offers, plus
one variant per named argument that names nothing, one run on a missing
document and, on ω documents, one run under ``--depth 3``.  ``verify``
runs on every fixture (none is a certificate).  ``check-axioms`` is left
out: it reads no document and is pinned by its own tests.

Each run is pinned by one sha256 over its exit code, its stdout (with
the document directories and the ``--out`` path replaced by fixed
names), the bytes of the certificate it writes, and the exit code and
stdout of ``verify`` on that certificate.  The digests in
``fixtures/cli_sweep.json`` were recorded once, from the code before the
command table existed; ``CHANGED`` lists the runs whose output was
changed on purpose since, each with its exit code now.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from promc import cli, strict, suites
from promc.docio import (DOC_SCHEMA, hfamily_to_doc, poset_to_doc,
                         promap_to_doc, proobj_to_doc)
from promc.indexing import DEFAULT_DEPTH

FIX = pathlib.Path(__file__).resolve().parent / "fixtures"
RECORDED = json.loads((FIX / "cli_sweep.json").read_text())
FIXTURES = {p.name: json.loads(p.read_text())
            for p in sorted(FIX.glob("*.json")) if p.name != "cli_sweep.json"}
MISSING = "missing.json"

# The document section each lookup reads names from.
SECTIONS = {"object_named": "objects", "map_named": "maps",
            "base_object_named": "base_objects", "witnesses_named": "witnesses"}

# The four maps of a square command as (a, b, c, d) of the square
# a: P -> Q, b: P -> R, c: Q -> S, d: R -> S; only squares are tried.
SQUARES = {"lift": ("--i", "--top", "--bottom", "--p"),
           "two-of-three": ("--top", "--left", "--right", "--bottom")}

UNKNOWN = "nope"

def _seeded(kind, instance, seed):
    """A document around one generated level map f: X -> Y (with its
    witness bundle h for a shift pro-isomorphism), drawn as the
    generator golden digests of test_cert_bytes draw it, or for kind
    "lift-L1" and "lift-L2" with its strict factorization f = p ∘ j
    through Z in that mode, as the benchmark's documents hold it."""
    rng = suites.Rng(seed)
    small = ({"max_size": 3} if instance == "set-bij"
             else {"max_deg": 1, "max_dim": 2})
    wit = fs = None
    if kind.startswith("lift-"):
        f = suites.gen_level_map(rng, suites.gen_poset(rng, 4), instance, **small)
        fs = strict.factor_strict(f, kind[len("lift-"):])
    elif kind == "level":
        f = suites.gen_level_map(rng, suites.gen_poset(rng, 4), instance)
    elif kind == "shift":
        f, wit = suites.gen_shift_iso(rng, instance, length=2, **small)
    else:
        X = suites.gen_pro_object(rng, suites.gen_poset(rng, 4), instance, **small)
        f = suites.gen_we_level_map(rng, X)
    doc = {"schema": DOC_SCHEMA, "instance": instance,
           "posets": {"P": poset_to_doc(f.source.index)},
           "objects": {"X": dict(proobj_to_doc(f.source), index="P"),
                       "Y": dict(proobj_to_doc(f.target), index="P")},
           "maps": {"f": promap_to_doc(f, "X", "Y")}}
    if wit is not None:
        doc["witnesses"] = {"h": {"map": "f", "pairs": hfamily_to_doc(wit)}}
    if fs is not None:
        doc["objects"]["Z"] = dict(proobj_to_doc(fs.middle), index="P")
        doc["maps"].update(j=promap_to_doc(fs.left, "X", "Z"),
                           p=promap_to_doc(fs.right, "Z", "Y"))
    return doc


SEEDED = {f"seeded-{kind}-{instance}-1.json": _seeded(kind, instance, 1)
          for kind in ("level", "shift", "we")
          for instance in ("chain-f2", "set-bij")}
# ChainF2 lifting squares (j, p, j, p), one per mode: no other document
# offers a ChainF2 square
SEEDED.update({f"seeded-{kind}-chain-f2-1.json": _seeded(kind, "chain-f2", 1)
               for kind in ("lift-L1", "lift-L2")})
DOCUMENTS = {**FIXTURES, **SEEDED}


def _levels(raw, map_name):
    """The levels of a map's source index, then level texts that name
    nothing: for ω a non-numeral, a negative and the depth."""
    index = raw["posets"][raw["objects"][raw["maps"][map_name]["source"]]["index"]]
    if index == "omega":
        depth = raw.get("depth", DEFAULT_DEPTH)
        return [str(n) for n in range(depth)] + ["-1", str(depth), "x"]
    return sorted(index["elements"]) + [UNKNOWN]


def _domain(arg, raw, chosen):
    """The values a sweep gives *arg* on the document *raw*, after the
    earlier arguments took the values *chosen*."""
    if arg.lookup is not None:
        return sorted(raw.get(SECTIONS[arg.lookup.__name__], {}))
    if "choices" in arg.options:
        return list(arg.options["choices"])
    if arg.flag == "--level":
        return _levels(raw, chosen["map"])
    raise AssertionError(f"the sweep has no values for {arg.flag}")


def _is_square(raw, name, chosen):
    if name not in SQUARES:
        return True
    a, b, c, d = (raw["maps"][chosen[flag]] for flag in SQUARES[name])
    return (a["source"] == b["source"] and a["target"] == c["source"]
            and b["target"] == d["source"] and c["target"] == d["target"])


def _argv(name, doc, command, chosen):
    argv = [name, doc]
    for arg in command.args:
        value = chosen[arg.flag]
        argv += [value] if not arg.flag.startswith("--") else [arg.flag, value]
    return argv


def _assignments(command, raw):
    """Every applicable choice of argument values, each a dict by flag."""
    out = [{}]
    for arg in command.args:
        out = [dict(chosen, **{arg.flag: v}) for chosen in out
               for v in _domain(arg, raw, chosen)]
    return out


def _runs():
    """key -> argv, the documents in it named by file name."""
    runs = {}
    for name, command in cli.COMMANDS.items():
        if not command.document:
            continue
        argvs = []
        for doc, raw in DOCUMENTS.items():
            chosen = [c for c in _assignments(command, raw)
                      if _is_square(raw, name, c)]
            if not chosen:
                continue
            first = _argv(name, doc, command, chosen[0])
            argvs += [_argv(name, doc, command, c) for c in chosen]
            argvs += [_argv(name, doc, command, dict(chosen[0], **{arg.flag: UNKNOWN}))
                      for arg in command.args if arg.lookup is not None]
            if "omega" in raw.get("posets", {}).values():
                argvs.append(["--depth", "3", *first])
        argvs.append([name, MISSING, *argvs[0][2:]])
        runs.update((" ".join(argv), argv) for argv in argvs)
    for doc in FIXTURES:
        runs[f"verify {doc}"] = ["verify", doc]
    return runs


RUNS = _runs()

# Runs whose output differs from the recorded one on purpose, with their
# exit code now.  The matching level is read by ``IndexPoset.read_level``:
# an ω level is an int below the depth (it was a string, and every ω run
# exited 3), and a level that names no element exits 2 with its own
# message, also on a GENERAL map, which is refused after the level.  The
# seven ω runs that exit 0 also write the document's depth into their
# certificates, which replay rebuilds the map at.  The three ω levelize
# runs write the original map and the depth into their certificates, and
# verify checks the levelized map against the original (a levelize
# certificate of ω maps without it verified whatever its map said).
# Their certificates and stdout also no longer carry the cofinality of
# the reindexing, which holds by construction and which nothing read.
CHANGED = {
    **{f"matching omega_maps.json f --level {n}": 0 for n in range(6)},
    "--depth 3 matching omega_maps.json f --level 0": 0,
    **{f"matching omega_maps.json {m} --level {bad}": 2
       for m in ("f", "g") for bad in ("-1", "6", "x")},
    **{key: 2 for key in RUNS
       if key.startswith("matching ") and key.endswith(f" --level {UNKNOWN}")},
    **{key: 0 for key in ("levelize omega_maps.json f", "levelize omega_maps.json g",
                          "--depth 3 levelize omega_maps.json f")},
}


def _capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_command(argv)
    return code, buf.getvalue()


def _command(argv):
    return argv[2] if argv[0] == "--depth" else argv[0]


def _digest(argv, seeded_dir, out):
    """(exit code, sha256) of one run: the documents named in *argv* are
    read from the fixtures or from *seeded_dir*, the certificate goes to
    *out* and is replayed by ``verify``."""
    where = {name: str(seeded_dir / name) for name in SEEDED}
    real = [where.get(a, str(FIX / a)) if a.endswith(".json") else a
            for a in argv]
    if cli.COMMANDS[_command(argv)].document:
        real += ["--out", str(out)]

    def plain(text):
        for path, name in [(str(out), "<out>"), (f"{seeded_dir}/", ""),
                           (f"{FIX}/", "")]:
            text = text.replace(path, name)
        return text

    code, stdout = _capture(real)
    cert = vcode = vout = None
    if out.exists():
        cert = hashlib.sha256(out.read_bytes()).hexdigest()
        vcode, vout = _capture(["verify", str(out)])
        out.unlink()
    record = json.dumps([code, plain(stdout), cert, vcode, plain(vout or "")])
    return code, hashlib.sha256(record.encode()).hexdigest()


@pytest.fixture(scope="module")
def seeded_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("seeded")
    for name, raw in SEEDED.items():
        (path / name).write_text(json.dumps(raw))
    return path


SWEPT = sorted({_command(argv) for argv in RUNS.values()})


def test_the_sweep_runs_exactly_the_recorded_runs():
    assert sorted(RUNS) == sorted(RECORDED)
    assert set(CHANGED) <= set(RUNS)


def test_every_command_but_check_axioms_is_swept():
    assert set(cli.COMMANDS) - set(SWEPT) == {"check-axioms"}


@pytest.mark.parametrize("command", SWEPT)
def test_output_is_unchanged(command, seeded_dir, tmp_path):
    """Every run of *command*; a failure lists each run that differs."""
    differ = {}
    for key, argv in RUNS.items():
        if _command(argv) != command:
            continue
        code, digest = _digest(argv, seeded_dir, tmp_path / "cert.json")
        if key in CHANGED:
            if code != CHANGED[key]:
                differ[key] = f"exit {code}, expected {CHANGED[key]}"
        elif digest != RECORDED[key]:
            differ[key] = f"exit {code}, output differs from the recorded"
    assert not differ
