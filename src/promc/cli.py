"""
Command-line front end.

Subcommands parse a document file (JSON), dispatch the construction,
print a human-readable report, and optionally write a machine-checkable
certificate file (sorted-key JSON, byte-identical for identical inputs
and seeds).  Exit codes: 0 success/verified, 1 property violation or
failed verification (with a named witness), 2 parse/validation errors
(a bad command line on one line), 3 any other error inside promc,
reported on one line as ``internal error: <type>: <message>``.
``--depth`` overrides a document's own ω depth; ``verify`` uses it only
for certificates that record none.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import certs
from .base import classify_map
from .docio import dump_json, load_document
from .errors import (DepthExhaustedError, MalformedError, PreconditionError,
                     UnsupportedRegimeError, VerificationFailure)
from .indexing import DEFAULT_DEPTH


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line on one line, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _depth(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"depth must be a positive integer, not {text!r}")
    return int(text)


@functools.cache
def _parser():
    ap = _Parser(
        prog="promc",
        description="strict model structure constructions on pro-categories")
    ap.add_argument("--depth", type=_depth, default=None,
                    help="ω truncation depth (default: the document's, "
                         f"else {DEFAULT_DEPTH})")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", help="write the certificate file here")
        p.add_argument("--depth", type=_depth, default=argparse.SUPPRESS,
                       help="ω truncation depth for this command")
        return p

    p = cmd("hom", help="pro-hom classes between two named pro-objects")
    p.add_argument("document")
    p.add_argument("X")
    p.add_argument("Y")

    p = cmd("levelize", help="re-present a pro-map as a level map")
    p.add_argument("document")
    p.add_argument("map")

    p = cmd("matching", help="relative matching map of a level map")
    p.add_argument("document")
    p.add_argument("map")
    p.add_argument("--level", required=True)

    p = cmd("detect-special", help="special (acyclic) fibration detection")
    p.add_argument("document")
    p.add_argument("map")
    p.add_argument("--mode", choices=["fib", "acyclic-fib"], required=True)

    p = cmd("factor", help="strict factorization")
    p.add_argument("document")
    p.add_argument("map")
    p.add_argument("--mode", choices=["L1", "L2"], required=True)

    p = cmd("lift", help="inductive lift for a commuting square")
    p.add_argument("document")
    p.add_argument("--i", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--top", required=True)
    p.add_argument("--bottom", required=True)
    p.add_argument("--mode", choices=["L1", "L2"], default="L1")

    p = cmd("pro-factor-iso", help="factor a witnessed pro-iso")
    p.add_argument("document")
    p.add_argument("map")
    p.add_argument("--witnesses", required=True)

    p = cmd("zigzag-we", help="compose a we zigzag through a witnessed pro-iso")
    p.add_argument("document")
    p.add_argument("--f", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--witnesses", required=True)

    p = cmd("two-of-three", help="cancellation constructions")
    p.add_argument("document")
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--top", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--bottom", required=True)
    p.add_argument("--witnesses", required=True)

    p = cmd("proper-pullback", help="pullback of a we along a fibration")
    p.add_argument("document")
    p.add_argument("--p", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--witnesses", required=True)

    p = cmd("cocell", help="cocell tower of a special (acyclic) fibration")
    p.add_argument("document")
    p.add_argument("map")
    p.add_argument("--class", dest="class_tag",
                   choices=["fib", "acyclic-fib"], required=True)

    p = cmd("tower-limit", help="cocell tower plus its limit certificate")
    p.add_argument("document")
    p.add_argument("map")
    p.add_argument("--class", dest="class_tag",
                   choices=["fib", "acyclic-fib"], required=True)

    p = cmd("adjunction", help="hom_pro(cX, Y) against Hom(X, lim Y)")
    p.add_argument("document")
    p.add_argument("--base", required=True)
    p.add_argument("--object", required=True)

    p = cmd("check-axioms", help="run the randomized axiom suites")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", help="replay a certificate file")
    p.add_argument("certificate")
    p.add_argument("--depth", type=_depth, default=argparse.SUPPRESS,
                   help="ω truncation depth for certificates that record none")
    return ap


def _write(doc, out):
    if out:
        dump_json(doc, out)
        print(f"certificate written to {out}")


def run_command(argv):
    """Dispatch; returns the exit status."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    depth = getattr(args, "depth", None)
    try:
        return _dispatch(args, depth)
    except VerificationFailure as e:
        print(f"FAIL: {e}" + (f" (witness: {e.witness})" if e.witness is not None
                              else ""))
        return 1
    except (MalformedError, PreconditionError, UnsupportedRegimeError,
            DepthExhaustedError) as e:
        print(f"error: {e}")
        return 2
    except OSError as e:
        print(f"error: {e}")
        return 2
    except Exception as e:  # noqa: BLE001 - the last resort: one line, exit 3
        print(f"internal error: {type(e).__name__}: {' '.join(str(e).split())}")
        return 3


def _dispatch(args, depth):
    cmd = args.command
    if cmd == "verify":
        from .verify import verify_certificate
        try:
            with open(args.certificate) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise MalformedError(f"certificate is not valid JSON: {e}")
        report = verify_certificate(doc, depth=depth or DEFAULT_DEPTH)
        print("verified: " + ", ".join(f"{k}={v}" for k, v in sorted(report.items())))
        return 0
    if cmd == "check-axioms":
        from .suites import run_all_suites
        seed = args.seed
        if seed is None:
            seed = int(os.environ.get("PROMC_SEED", "0"))
        reports = run_all_suites(args.trials, seed, depth=depth or DEFAULT_DEPTH)
        bad = 0
        for rep in reports:
            status = "ok" if rep.ok else f"FAILED ({len(rep.failures)})"
            print(f"{rep.name}: {rep.trials} trials: {status}")
            for w in rep.failures[:5]:
                print(f"  witness: {w}")
            bad += len(rep.failures)
        print(f"axiom suites: {'all passed' if not bad else f'{bad} failures'}")
        return 0 if not bad else 1

    doc = load_document(args.document, depth=depth)

    if cmd == "hom":
        from .prohom import hom_pro
        X, Y = doc.object_named(args.X), doc.object_named(args.Y)
        hs = hom_pro(X, Y)
        line = f"{len(hs.maps)} class" + ("es" if len(hs.maps) != 1 else "")
        if hs.depth is not None:
            line += (f", stabilized at depth {hs.stabilized_at}"
                     if hs.stabilized_at is not None
                     else f", verified to depth {hs.depth} (not stabilized)")
        print(line)
        _write(certs.hom_cert(X, Y, hs), args.out)
        return 0

    if cmd == "levelize":
        from .prohom import levelize
        lv = levelize(doc.map_named(args.map))
        idx = lv.map.source.index
        where = "ω" if idx.regime == "omega" else f"{len(idx.elements)} levels"
        print(f"levelized over {where}")
        if lv.cofinality is not None:
            print(f"  reindexing cofinal: {lv.cofinality.ok} "
                  f"(depth {lv.cofinality.depth})")
        _write(certs.levelize_cert(lv), args.out)
        return 0

    if cmd == "matching":
        from .strict import matching_map
        f = doc.map_named(args.map)
        data = matching_map(f, args.level)
        cls = classify_map(data.map)
        print(f"matching map at {args.level}: we={cls.is_we} "
              f"cof={cls.is_cof} fib={cls.is_fib}")
        _write(certs.matching_cert(f, args.level, data), args.out)
        return 0

    if cmd == "detect-special":
        from .strict import detect_special
        f = doc.map_named(args.map)
        res = detect_special(f, args.mode)
        if res.ok:
            note = (f" (verified to depth {res.depth})"
                    if res.depth is not None else "")
            print(f"special {args.mode}: yes{note}")
            _write(certs.detect_special_cert(f, res), args.out)
            return 0
        print(f"special {args.mode}: no, failing level {res.failing}")
        _write(certs.detect_special_cert(f, res), args.out)
        return 1

    if cmd == "factor":
        from .strict import factor_strict
        f = doc.map_named(args.map)
        fs = factor_strict(f, args.mode)
        print(f"factored ({args.mode}); matching verdicts:")
        for s, cls in fs.special.verdicts.items():
            print(f"  level {s}: we={cls.is_we} cof={cls.is_cof} fib={cls.is_fib}")
        _write(certs.factorization_cert(fs), args.out)
        return 0

    if cmd == "lift":
        from .strict import lift_strict
        i = doc.map_named(args.i)
        p = doc.map_named(args.p)
        top = doc.map_named(args.top)
        bottom = doc.map_named(args.bottom)
        res = lift_strict(i, p, top, bottom, mode=args.mode)
        table = ", ".join(f"{s}->{a}" for s, a in sorted(res.level_index.items()))
        print(f"lift found; refinement levels: {table}")
        _write(certs.lift_cert(i, p, top, bottom, args.mode, res), args.out)
        return 0

    if cmd == "pro-factor-iso":
        from .proiso import pro_factor_iso
        f = doc.map_named(args.map)
        wit = doc.witnesses.get(args.witnesses)
        if wit is None:
            raise MalformedError(f"no witness bundle named {args.witnesses!r}")
        out = pro_factor_iso(f, wit)
        print("factored through the chain quotient; both factors certified")
        _write(certs.pro_factor_iso_cert(out, wit), args.out)
        return 0

    if cmd == "zigzag-we":
        from .proiso import compose_zigzag_we
        wit = doc.witnesses.get(args.witnesses)
        if wit is None:
            raise MalformedError(f"no witness bundle named {args.witnesses!r}")
        out = compose_zigzag_we(doc.map_named(args.f), doc.map_named(args.h),
                                doc.map_named(args.g), wit)
        print("zigzag composed; levelwise weak equivalence verified")
        _write(certs.levelwise_we_cert("zigzag-we", out.map, out.level_classes,
                                       [out.source_cert, out.target_cert]),
               args.out)
        return 0

    if cmd == "two-of-three":
        from .proiso import two_of_three
        wit = doc.witnesses.get(args.witnesses)
        if wit is None:
            raise MalformedError(f"no witness bundle named {args.witnesses!r}")
        side = args.side + "-cancel"
        out = two_of_three(side, doc.map_named(args.top),
                           doc.map_named(args.left), doc.map_named(args.right),
                           doc.map_named(args.bottom), wit)
        print(f"{side}: output certified levelwise weak equivalence")
        _write(certs.levelwise_we_cert(f"two-of-three/{side}", out.map,
                                       out.level_classes, [out.cancel_cert]),
               args.out)
        return 0

    if cmd == "proper-pullback":
        from .proiso import proper_pullback
        wit = doc.witnesses.get(args.witnesses)
        if wit is None:
            raise MalformedError(f"no witness bundle named {args.witnesses!r}")
        out = proper_pullback(doc.map_named(args.p), doc.map_named(args.f),
                              doc.map_named(args.g), wit)
        print("pullback formed; levelwise weak equivalence verified")
        _write(certs.levelwise_we_cert("proper-pullback", out.map,
                                       out.level_classes, [out.glue_cert]),
               args.out)
        return 0

    if cmd in ("cocell", "tower-limit"):
        from .strict import detect_special
        from .towers import build_cocell_tower, tower_limit
        f = doc.map_named(args.map)
        sp = detect_special(f, args.class_tag)
        if not sp.ok:
            print(f"not a special {args.class_tag}: failing level {sp.failing}")
            return 1
        tower = build_cocell_tower(f, special=sp)
        tower.replay_base_changes()
        print(f"cocell tower with {tower.length} stages (class {args.class_tag})")
        if cmd == "cocell":
            _write(certs.cocell_cert(tower), args.out)
            return 0
        tl = tower_limit(tower)
        print("tower limit certified against the source")
        _write(certs.tower_limit_cert(tower, tl), args.out)
        return 0

    if cmd == "adjunction":
        from .towers import adjunction_check
        X = doc.base_objects.get(args.base)
        if X is None:
            raise MalformedError(f"no base object named {args.base!r}")
        Y = doc.object_named(args.object)
        w = adjunction_check(X, Y)
        line = f"bijection verified: {w.left_size} classes on both sides"
        if w.depth is not None:
            line += (f", stabilized at depth {w.stabilized_at}"
                     if w.stabilized_at is not None
                     else f", to depth {w.depth}")
        print(line)
        _write(certs.adjunction_cert(X, Y, w), args.out)
        return 0

    raise MalformedError(f"unknown subcommand {cmd!r}")


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
