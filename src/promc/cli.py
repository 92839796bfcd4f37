"""
Command-line front end.

One table, ``COMMANDS``, holds each subcommand's name, help, arguments
and run function.  The parser is built from it.  Dispatch reads the
document, looks up each argument that names an entry of it, runs the
command, and writes the certificate it returns (sorted-key JSON,
byte-identical for identical inputs and seeds) to ``--out``, which only
commands that take a document have.  Exit codes: 0 success/verified, 1
property violation or failed verification (with a named witness), 2
parse/validation errors (a bad command line on one line), 3 any other
error inside promc, reported on one line as ``internal error: <type>:
<message>``.  ``--depth`` overrides a document's own ω depth; ``verify``
uses it only for certificates that record none.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

from . import certs
from .base import classify_map
from .docio import Document, Record, dump_json, load_document
from .errors import (DepthExhaustedError, MalformedError, PreconditionError,
                     UnsupportedRegimeError, VerificationFailure)
from .indexing import DEFAULT_DEPTH


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line on one line, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _integer(what, least=1):
    """An argparse type: the text of an integer >= *least* (1 or 0), else
    exit 2."""
    kind = "positive" if least else "non-negative"

    def read(text):
        if not (text.isascii() and text.isdigit()) or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"{what} must be a {kind} integer, not {text!r}")
        return int(text)
    return read


_depth = _integer("depth")
_seed = _integer("seed", least=0)


class Arg(NamedTuple):
    flag: str
    lookup: Callable | None  # the Document method reading the entry it names
    options: dict  # the rest of add_argument's keywords


def _arg(flag, lookup=None, **options):
    """An Arg; an option without a default is required."""
    if flag.startswith("--"):
        options.setdefault("required", "default" not in options)
    return Arg(flag, lookup, options)


def _maps(*flags):
    return tuple(_arg(flag, Document.map_named) for flag in flags)


_MAP = _arg("map", Document.map_named)
_MODES = ("L1", "L2")
_CLASSES = ("fib", "acyclic-fib")
_WITNESSES = _arg("--witnesses", Document.witnesses_named)
_CLASS = _arg("--class", dest="class_tag", choices=_CLASSES)


class Command(NamedTuple):
    """One subcommand; ``run(args)`` sees every named entry looked up."""
    name: str
    help: str
    run: Callable
    args: tuple = ()
    document: bool = True
    depth_help: str = "ω truncation depth for this command"


def _hom(args):
    from .prohom import hom_pro
    hs = hom_pro(args.X, args.Y)
    line = f"{len(hs.maps)} class" + ("es" if len(hs.maps) != 1 else "")
    depth = args.X.index.depth
    if depth is not None:
        line += (f", stabilized at depth {hs.stabilized_at}"
                 if hs.stabilized_at is not None
                 else f", verified to depth {depth} (not stabilized)")
    print(line)
    return 0, certs.hom_cert(args.X, args.Y, hs)


def _levelize(args):
    from .prohom import levelize
    lv = levelize(args.map)
    idx = lv.map.source.index
    where = "ω" if idx.regime == "omega" else f"{len(idx.elements)} levels"
    print(f"levelized over {where}")
    return 0, certs.levelize_cert(lv)


def _matching(args):
    from .strict import matching_map
    level = args.map.source.index.read_level(args.level)
    data = matching_map(args.map, level)
    cls = classify_map(data.map)
    print(f"matching map at {level}: we={cls.is_we} "
          f"cof={cls.is_cof} fib={cls.is_fib}")
    return 0, certs.matching_cert(args.map, level, data)


def _detect_special(args):
    from .strict import detect_special
    res = detect_special(args.map, args.mode)
    depth = args.map.source.index.depth
    note = f" (verified to depth {depth})" if depth is not None else ""
    print(f"special {args.mode}: " + (f"yes{note}" if res.ok
                                      else f"no, failing level {res.failing}"))
    return (0 if res.ok else 1), certs.detect_special_cert(args.map, res)


def _factor(args):
    from .strict import factor_strict
    fs = factor_strict(args.map, args.mode)
    print(f"factored ({args.mode}); matching verdicts:")
    for s, cls in fs.special.verdicts.items():
        print(f"  level {s}: we={cls.is_we} cof={cls.is_cof} fib={cls.is_fib}")
    return 0, certs.factorization_cert(fs)


def _lift(args):
    from .strict import lift_strict
    res = lift_strict(args.i, args.p, args.top, args.bottom, mode=args.mode)
    table = ", ".join(f"{s}->{a}" for s, a in sorted(res.level_index.items()))
    print(f"lift found; refinement levels: {table}")
    return 0, certs.lift_cert(args.i, args.p, args.top, args.bottom, args.mode, res)


def _pro_factor_iso(args):
    from .proiso import pro_factor_iso
    out = pro_factor_iso(args.map, args.witnesses)
    print("factored through the chain quotient; both factors certified")
    return 0, certs.pro_factor_iso_cert(out, args.witnesses)


def _zigzag_we(args):
    from .proiso import compose_zigzag_we
    out = compose_zigzag_we(args.f, args.h, args.g, args.witnesses)
    print("zigzag composed; levelwise weak equivalence verified")
    return 0, certs.levelwise_we_cert("zigzag-we", out.map, out.level_classes,
                                      [out.source_cert, out.target_cert])


def _two_of_three(args):
    from .proiso import two_of_three
    side = args.side + "-cancel"
    out = two_of_three(side, args.top, args.left, args.right, args.bottom,
                       args.witnesses)
    print(f"{side}: output certified levelwise weak equivalence")
    return 0, certs.levelwise_we_cert(f"two-of-three/{side}", out.map,
                                      out.level_classes, [out.cancel_cert])


def _proper_pullback(args):
    from .proiso import proper_pullback
    out = proper_pullback(args.p, args.f, args.g, args.witnesses)
    print("pullback formed; levelwise weak equivalence verified")
    return 0, certs.levelwise_we_cert("proper-pullback", out.map,
                                      out.level_classes, [out.glue_cert])


def _tower(args, limit=False):
    """The cocell tower of a special map, with its limit when *limit*."""
    from .strict import detect_special
    from .towers import build_cocell_tower, tower_limit
    sp = detect_special(args.map, args.class_tag)
    if not sp.ok:
        print(f"not a special {args.class_tag}: failing level {sp.failing}")
        return 1, None
    tower = build_cocell_tower(args.map, special=sp)
    tower.replay_base_changes()
    print(f"cocell tower with {tower.length} stages (class {args.class_tag})")
    if not limit:
        return 0, certs.cocell_cert(tower)
    tl = tower_limit(tower)
    print("tower limit certified against the source")
    return 0, certs.tower_limit_cert(tower, tl)


def _adjunction(args):
    from .towers import adjunction_check
    w = adjunction_check(args.base, args.object)
    line = f"bijection verified: {w.left_size} classes on both sides"
    depth = args.object.index.depth
    if depth is not None:
        line += (f", stabilized at depth {w.stabilized_at}"
                 if w.stabilized_at is not None
                 else f", to depth {depth}")
    print(line)
    return 0, certs.adjunction_cert(args.base, args.object, w)


def _check_axioms(args):
    from .suites import run_all_suites
    seed = args.seed
    if seed is None:
        try:
            seed = _seed(os.environ.get("PROMC_SEED", "0"))
        except argparse.ArgumentTypeError as e:
            raise MalformedError(f"PROMC_SEED: {e}") from None
    bad = 0
    for rep in run_all_suites(args.trials, seed, depth=args.depth or DEFAULT_DEPTH):
        status = "ok" if rep.ok else f"FAILED ({len(rep.failures)})"
        print(f"{rep.name}: {rep.trials} trials: {status}")
        for w in rep.failures[:5]:
            print(f"  witness: {w}")
        bad += len(rep.failures)
    print(f"axiom suites: {'all passed' if not bad else f'{bad} failures'}")
    return (0 if not bad else 1), None


def _verify(args):
    from .verify import verify_certificate
    try:
        with open(args.certificate) as fh:
            doc = json.load(fh, object_hook=Record)
    except json.JSONDecodeError as e:
        raise MalformedError(f"certificate is not valid JSON: {e}")
    report = verify_certificate(doc, depth=args.depth or DEFAULT_DEPTH)
    print("verified: " + ", ".join(f"{k}={v}" for k, v in sorted(report.items())
                                   if v is not None))
    return 0, None


COMMANDS = {c.name: c for c in [
    Command("hom", "pro-hom classes between two named pro-objects", _hom,
            (_arg("X", Document.object_named), _arg("Y", Document.object_named))),
    Command("levelize", "re-present a pro-map as a level map", _levelize, (_MAP,)),
    Command("matching", "relative matching map of a level map", _matching,
            (_MAP, _arg("--level"))),
    Command("detect-special", "special (acyclic) fibration detection",
            _detect_special, (_MAP, _arg("--mode", choices=_CLASSES))),
    Command("factor", "strict factorization", _factor,
            (_MAP, _arg("--mode", choices=_MODES))),
    Command("lift", "inductive lift for a commuting square", _lift,
            (*_maps("--i", "--p", "--top", "--bottom"),
             _arg("--mode", choices=_MODES, default="L1"))),
    Command("pro-factor-iso", "factor a witnessed pro-iso", _pro_factor_iso,
            (_MAP, _WITNESSES)),
    Command("zigzag-we", "compose a we zigzag through a witnessed pro-iso",
            _zigzag_we, (*_maps("--f", "--h", "--g"), _WITNESSES)),
    Command("two-of-three", "cancellation constructions", _two_of_three,
            (_arg("--side", choices=("left", "right")),
             *_maps("--top", "--left", "--right", "--bottom"), _WITNESSES)),
    Command("proper-pullback", "pullback of a we along a fibration",
            _proper_pullback, (*_maps("--p", "--f", "--g"), _WITNESSES)),
    Command("cocell", "cocell tower of a special (acyclic) fibration", _tower,
            (_MAP, _CLASS)),
    Command("tower-limit", "cocell tower plus its limit certificate",
            functools.partial(_tower, limit=True), (_MAP, _CLASS)),
    Command("adjunction", "hom_pro(cX, Y) against Hom(X, lim Y)", _adjunction,
            (_arg("--base", Document.base_object_named),
             _arg("--object", Document.object_named))),
    Command("check-axioms", "run the randomized axiom suites", _check_axioms,
            (_arg("--trials", type=_integer("trials"), default=20),
             _arg("--seed", type=_seed, default=None)), document=False),
    Command("verify", "replay a certificate file", _verify,
            (_arg("certificate"),), document=False,
            depth_help="ω truncation depth for certificates that record none"),
]}


@functools.cache
def _parser():
    ap = _Parser(
        prog="promc",
        description="strict model structure constructions on pro-categories")
    ap.add_argument("--depth", type=_depth, default=None,
                    help="ω truncation depth (default: the document's, "
                         f"else {DEFAULT_DEPTH})")
    sub = ap.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        if command.document:
            p.add_argument("document")
            p.add_argument("--out", help="write the certificate file here")
        p.add_argument("--depth", type=_depth, default=argparse.SUPPRESS,
                       help=command.depth_help)
        for arg in command.args:
            p.add_argument(arg.flag, **arg.options)
    return ap


def run_command(argv):
    """Dispatch; returns the exit status."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _dispatch(args, args.depth)
    except VerificationFailure as e:
        print(f"FAIL: {e}" + (f" (witness: {e.witness})" if e.witness is not None
                              else ""))
        return 1
    except (MalformedError, PreconditionError, UnsupportedRegimeError,
            DepthExhaustedError, OSError) as e:
        print(f"error: {e}")
        return 2
    except Exception as e:  # noqa: BLE001 - the last resort: one line, exit 3
        print(f"internal error: {type(e).__name__}: {' '.join(str(e).split())}")
        return 3


def _dispatch(args, depth):
    command = COMMANDS[args.command]
    if command.document:
        doc = load_document(args.document, depth=depth)
        for arg in command.args:
            if arg.lookup is not None:
                dest = arg.flag.lstrip("-")
                setattr(args, dest, arg.lookup(doc, getattr(args, dest)))
    code, cert = command.run(args)
    if cert is not None and args.out:
        dump_json(cert, args.out)
        print(f"certificate written to {args.out}")
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
