"""The four workloads.

Each workload builds its inputs from the seed (``build``), then runs one
operation per input (``op``, timed), checks the output apart from the
program (``check``), writes the operation's certificate (``certify``,
untimed) and replays it (``replay``, timed).  ``check`` and ``replay``
return None or the reason the output is wrong; a rejected replay raises
VerificationFailure.  One round is every input once, in a fixed order.

Calls into promc go through module attributes (``strict.factor_strict``
rather than a copied name), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from promc import certs, cli, docio, prohom, strict, suites, verify
from promc.base import CHAIN_F2, SET_BIJ
from promc.indexing import from_covers
from promc.proobj import compose_pro, to_general

import checks

SHAPES = list(suites.POSET_SHAPES)
SIZES = {"max_deg": 2, "max_dim": 3}  # the axiom suites' ChainF2 sizes


def poset(shape):
    els, covers = suites.POSET_SHAPES[shape]
    return from_covers(els, covers)


class ProfiledRng(suites.Rng):
    """The suites' generator with its integer draws taken from a second,
    fixed stream.

    In the suite generators every ``randint`` draw is a size: the degree
    range and dimensions of a ChainF2 complex, the size of a SetBij set.
    Matrices and map choices come from the seeded streams.  So input slot
    k of a shape has the same dimension profile under every seed (drawn
    once from the suites' own distribution), and the seed varies
    everything else.  Without this, a run's cost and certificate bytes
    follow a handful of random dimension draws: 20% apart between seeds
    at 80 factorizations a round."""

    def __init__(self, seed, profile):
        super().__init__(seed)
        self.profile = random.Random(profile)

    def randint(self, a, b):
        return self.profile.randint(a, b)


def rng_for(seed, shape, k):
    """The generator for input slot k of *shape* under *seed*."""
    slot = 1000 * SHAPES.index(shape) + k
    return ProfiledRng(seed * 1_000_003 + slot, slot)


def level_map(seed, shape, k):
    return suites.gen_level_map(rng_for(seed, shape, k), poset(shape),
                                CHAIN_F2, **SIZES)


def cert_bytes(doc):
    return len(docio.dump_json(doc).encode())


class Workload:
    """Defaults shared by the workloads."""

    def cert_size(self, cert):
        return cert_bytes(cert)

    def finish(self):
        """Checks made once after the measured rounds; a list of errors."""
        return []


# ------------------------------------------------------------ chainf2-factor


class Factor(Workload):
    """Seeded ChainF2 level maps over every poset shape, each factored in
    L1 and L2: the small-matrix regime.

    Shapes with four or more elements get more maps than the smaller
    ones.  With equal counts the median latency sits exactly on the gap
    between the 3-element shapes (about 30 ms) and the 4-element ones
    (about 40 ms) and jumps from one side to the other between runs."""

    name = "chainf2-factor"
    maps_small, maps_large = 5, 7

    def build(self, seed):
        items = []
        for shape in SHAPES:
            count = self.maps_large if len(poset(shape).elements) >= 4 else self.maps_small
            for k in range(count):
                f = level_map(seed, shape, k)
                items += [(f, strict.MODE_L1), (f, strict.MODE_L2)]
        return items

    def op(self, item):
        f, mode = item
        return strict.factor_strict(f, mode)

    def check(self, item, out):
        f, mode = item
        return checks.check_factorization(out, f, mode)

    def certify(self, item, out):
        return certs.factorization_cert(out)

    def replay(self, item, cert):
        verify.verify_certificate(cert)


# -------------------------------------------------------------- chainf2-lift


def lift_unknowns(fs):
    """Unknowns of the largest lift system of the square (j, p, j, p):
    the entries of one map Z_s -> Z_s, summed over degrees."""
    Z = fs.middle
    return max(sum(Z.value(s).dim(n) ** 2 for n in Z.value(s).degrees)
               for s in Z.index.elements)


class Lift(Workload):
    """Lifting squares built from strict factorizations, both pairings,
    plain (j, p, j, p) and nested as in acceptance criterion 2, plus L2
    squares over 4- and 5-element chains: the large-matrix regime.

    The large squares sit at fixed input slots: the first from k = 100 on
    whose biggest lift system has a number of unknowns inside a band
    (``lift_unknowns``; 1500-3000 over chain4, 5000-6500 over chain5).
    A slot's dimension profile does not depend on the seed, so neither do
    these slots.  Over all dimension profiles, one L2 square over a
    5-element chain costs from 0.2 s to over 10 s and up to 1.3 GB, too
    much for a run of at least 100 lifts in 20 seconds."""

    name = "chainf2-lift"
    small_shapes = ("point", "chain2", "chain3", "vee3")
    mid_shapes = ("diamond", "chain4")
    per_small = 3
    per_mid = 2
    # (shape, input slots, unknowns band).  Nine large squares put the p90
    # latency inside their cluster rather than on the gap below it.
    large = (("chain4", (100, 101, 104, 105, 107, 109, 113, 115), (1500, 3000)),
             ("chain5", (101,), (5000, 6500)))

    @staticmethod
    def plain(fs, mode):
        j, p = fs.left, fs.right
        return (j, p, j, p), mode, fs.special

    @staticmethod
    def nested(fs, mode):
        j, p = fs.left, fs.right
        fs2 = strict.factor_strict(j, mode)
        return (fs2.left, p, j, compose_pro(p, fs2.right)), mode, fs.special

    def build(self, seed):
        L1, L2 = strict.MODE_L1, strict.MODE_L2
        items = []
        for k in range(self.per_small):
            for shape in self.small_shapes:
                f = level_map(seed, shape, k)
                for mode in (L1, L2):
                    fs = strict.factor_strict(f, mode)
                    items += [self.plain(fs, mode), self.nested(fs, mode)]
        for k in range(self.per_mid):
            for shape in self.mid_shapes:
                f = level_map(seed, shape, k)
                fs = strict.factor_strict(f, L1)
                items += [self.plain(fs, L1), self.nested(fs, L1)]
        for shape, slots, _ in self.large:
            for k in slots:
                fs = strict.factor_strict(level_map(seed, shape, k), L2)
                items.append(self.plain(fs, L2))
        return items

    def op(self, item):
        (i, p, top, bottom), mode, special = item
        return strict.lift_strict(i, p, top, bottom, mode=mode, special=special)

    def check(self, item, out):
        return checks.check_lift(item[0], out)

    def certify(self, item, out):
        (i, p, top, bottom), mode, _ = item
        return certs.lift_cert(i, p, top, bottom, mode, out)

    def replay(self, item, cert):
        verify.verify_certificate(cert)


# --------------------------------------------------------- setbij-hom-oracle


class HomOracle(Workload):
    """Seeded pairs from the exhaustive SetBij hom-oracle family; the fast
    path (hom_pro) is the operation, the brute-force limit-of-colimits
    oracle (what replaying a SetBij hom certificate runs) is the replay.
    No GF(2) call is made."""

    name = "setbij-hom-oracle"
    pairs = 2000

    def build(self, seed):
        fam = suites.hom_oracle_family()
        n = len(fam)
        picks = random.Random(seed).sample(range(n * n), self.pairs)
        items = []
        for code in picks:
            X, Y = fam[code // n], fam[code % n]
            items.append((X, Y, len(X.max_value().elements),
                          len(Y.max_value().elements)))
        return items

    def op(self, item):
        X, Y, _, _ = item
        return prohom.hom_pro(X, Y)

    def check(self, item, out):
        _, _, nx, ny = item
        return checks.check_hom_count(len(out.maps), nx, ny, "hom_pro")

    def certify(self, item, out):
        X, Y, _, _ = item
        return certs.hom_cert(X, Y, out)

    def replay(self, item, cert):
        X, Y, nx, ny = item
        return checks.check_hom_count(len(suites.brute_force_hom(X, Y)),
                                      nx, ny, "brute_force_hom")


# ------------------------------------------------------------ certify-verify


def _claim_paths(doc):
    """Recorded claims a replay must re-derive: class verdicts and sizes.
    Lift and levelize certificates record only the constructed maps."""
    kind = doc["kind"]
    paths = []

    def verdicts(prefix, table):
        for key in sorted(table):
            for flag in ("we", "cof", "fib"):
                paths.append(prefix + (key, flag))

    if kind == "factorization":
        verdicts(("left_verdicts",), doc["left_verdicts"])
        verdicts(("matching_verdicts",), doc["matching_verdicts"])
    elif kind == "detect-special":
        verdicts(("verdicts",), doc["verdicts"])
    elif kind == "matching":
        paths += [("classes", flag) for flag in ("we", "cof", "fib")]
    elif kind == "pro-factor-iso":
        verdicts(("left_verdicts",), doc["left_verdicts"])
        verdicts(("right_verdicts",), doc["right_verdicts"])
    elif kind == "tower-limit":
        for k in range(len(doc["stages"])):
            paths += [("stages", k, "attach_classes", flag)
                      for flag in ("we", "cof", "fib")]
    elif kind == "adjunction":
        paths.append(("right_size",))
    elif kind == "hom":
        paths.append(("count",))
    return paths


def falsify(doc, rnd):
    """A copy of a certificate with one seeded claim changed (a verdict
    flipped or a size raised by one), or None if it records no claim."""
    paths = _claim_paths(doc)
    if not paths:
        return None
    path = rnd.choice(paths)
    bad = json.loads(json.dumps(doc))
    node = bad
    for key in path[:-1]:
        node = node[key]
    last = path[-1]
    node[last] = (not node[last]) if isinstance(node[last], bool) else node[last] + 1
    return bad


def _document(instance, shape, mode, seed, k):
    """One input document: a level map f over *shape* with its strict
    factorization f = p ∘ j in *mode*, f as a GENERAL map, a witnessed
    shift pro-isomorphism h and a small base object."""
    rng = rng_for(seed, shape, 500 + k)
    small = ({"max_size": 3} if instance == SET_BIJ
             else {"max_deg": 1, "max_dim": 2})
    big = {"max_size": 4} if instance == SET_BIJ else SIZES
    P = poset(shape)
    f = suites.gen_level_map(rng, P, instance, **big)
    fs = strict.factor_strict(f, mode)
    h, wit = suites.gen_shift_iso(rng, instance, length=2, **small)
    base = (suites.gen_set_obj(rng, max_size=2, prefix="b") if instance == SET_BIJ
            else suites.gen_complex(rng, max_deg=1, max_dim=1))
    return {
        "schema": docio.DOC_SCHEMA,
        "instance": instance,
        "posets": {"P": docio.poset_to_doc(P),
                   "C": docio.poset_to_doc(h.source.index)},
        "base_objects": {"B": docio.obj_to_doc(base)},
        "objects": {
            "X": dict(docio.proobj_to_doc(f.source), index="P"),
            "Y": dict(docio.proobj_to_doc(f.target), index="P"),
            "Z": dict(docio.proobj_to_doc(fs.middle), index="P"),
            "Xi": dict(docio.proobj_to_doc(h.source), index="C"),
            "Yi": dict(docio.proobj_to_doc(h.target), index="C"),
        },
        "maps": {
            "f": docio.promap_to_doc(f, "X", "Y"),
            "g": docio.promap_to_doc(to_general(f), "X", "Y"),
            "j": docio.promap_to_doc(fs.left, "X", "Z"),
            "p": docio.promap_to_doc(fs.right, "Z", "Y"),
            "h": docio.promap_to_doc(h, "Xi", "Yi"),
        },
        "witnesses": {"w": {"map": "h", "pairs": docio.hfamily_to_doc(wit)}},
    }, P.max_element()


def _commands(path, instance, mode, top):
    special = "acyclic-fib" if mode == strict.MODE_L1 else "fib"
    cmds = [
        ["factor", path, "f", "--mode", mode],
        ["lift", path, "--i", "j", "--p", "p", "--top", "j", "--bottom", "p",
         "--mode", mode],
        ["detect-special", path, "p", "--mode", special],
        ["matching", path, "f", "--level", top],
        ["levelize", path, "g"],
        ["pro-factor-iso", path, "h", "--witnesses", "w"],
        ["tower-limit", path, "p", "--class", special],
        ["adjunction", path, "--base", "B", "--object", "Y"],
    ]
    if instance == SET_BIJ:
        # ChainF2 hom is left out: certs.hom_cert sorts a list of dicts
        # and raises TypeError for two or more classes.
        cmds.append(["hom", path, "X", "Y"])
    return cmds


def run_cli(argv):
    """The in-process CLI with its report captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_command(argv)


class CertifyVerify(Workload):
    """Seeded documents for both instances through the in-process CLI:
    each construction writes its certificate with --out, then ``verify``
    replays it.

    The check keeps each certificate's bytes from the first round and
    requires every later round to write the same bytes; after the run,
    ``finish`` replays copies with one seeded claim changed."""

    name = "certify-verify"
    shapes = ("point", "chain2", "chain3", "vee3")

    def __init__(self, workdir):
        self.workdir = workdir
        self.first = {}
        self.rnd = None

    def build(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        self.rnd = random.Random(seed)
        items = []
        k = 0
        for instance in (SET_BIJ, CHAIN_F2):
            for shape in self.shapes:
                for mode in (strict.MODE_L1, strict.MODE_L2):
                    doc, top = _document(instance, shape, mode, seed, k)
                    path = os.path.join(self.workdir, f"doc{k}.json")
                    with open(path, "w") as fh:
                        json.dump(doc, fh)
                    for c, argv in enumerate(_commands(path, instance, mode, top)):
                        out = os.path.join(self.workdir, f"cert{k}-{c}.json")
                        items.append((argv + ["--out", out], out))
                    k += 1
        return items

    def op(self, item):
        argv, out = item
        code = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: promc {' '.join(argv)}")
        with open(out, "rb") as fh:
            return fh.read()

    def check(self, item, out):
        argv, path = item
        first = self.first.setdefault(path, out)
        if out != first:
            return f"promc {argv[0]}: certificate bytes differ between rounds"
        return None

    def finish(self):
        """Replay, for every certificate that records a claim, a copy
        with one seeded claim changed; each must exit 1."""
        errors = []
        for path, data in self.first.items():
            bad = falsify(json.loads(data), self.rnd)
            if bad is None:
                continue
            bad_path = path[:-len(".json")] + ".falsified.json"
            with open(bad_path, "w") as fh:
                json.dump(bad, fh)
            code = run_cli(["verify", bad_path])
            if code != 1:
                errors.append(f"falsified {bad['kind']} certificate {path} "
                              f"replayed with exit {code}")
        return errors

    def certify(self, item, out):
        return item[1]

    def cert_size(self, cert):
        return os.path.getsize(cert)

    def replay(self, item, cert):
        code = run_cli(["verify", cert])
        return f"promc verify exit {code}: {cert}" if code != 0 else None


def make(name, workdir):
    if name == CertifyVerify.name:
        return CertifyVerify(workdir)
    for cls in (Factor, Lift, HomOracle):
        if cls.name == name:
            return cls()
    raise KeyError(name)
