"""
Randomized generators, independent oracles, and the axiom property
suites.

Generators build functors along a linear extension (values and maps are
chained through consecutive levels), so functoriality holds by
construction; level maps are generated in the arrow category the same
way, with rejection sampling for the commuting-square solves.  The
brute-force hom oracle, ``brute_force_hom``, lives in ``setbij`` (it
reads SetBij payloads) and is re-exported here; it evaluates the
limit-of-colimits formula directly and is independent of the
maxima-collapse code path it cross-checks.  ``Rng`` draws its GF(2)
entries from a pure-Python copy of numpy's default generator (PCG64
seeded through ``SeedSequence``), bit for bit, so the recorded seeded
documents stand and promc needs no numpy.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import gf2
from .base import (SHIPPED, classify_map, compose, identity, instance_of, inverse,
                   set_map, set_obj)
from .chainf2 import gen_complex  # noqa: F401  (a public name here)
from .indexing import chain_poset, from_covers, linear_extension
from .prohom import HFamily, enumerate_base_maps
from .proobj import ProObject, compose_pro, level_map
from .setbij import brute_force_hom, gen_set_obj  # noqa: F401  (public names here)


class Rng:
    """One seeded source for both discrete choices and GF(2) matrices.

    ``randint`` and ``choice`` draw from ``random.Random(seed)``; ``mat``,
    ``combination`` and ``invertible`` draw 0/1 entries from ``_PCG64``,
    the stream that every seeded document and test was recorded with:
    numpy's ``default_rng(seed).integers(0, 2, size=...)``, entries in
    row-major order, each packed straight into its row's int.  numpy
    draws from [0, 2) by Lemire's method (ACM TOMACS 29(1), 2019), (u·2)
    >> 32 for a 32-bit output u, which never rejects at this range: each
    entry is bit 31 of one ``next_uint32``."""

    def __init__(self, seed):
        self.rnd = random.Random(seed)
        self._pcg = _PCG64(seed)

    def randint(self, a, b):
        return self.rnd.randint(a, b)

    def choice(self, xs):
        return self.rnd.choice(list(xs))

    def mat(self, rows, cols):
        draw = self._pcg.next_uint32
        out = []
        for _ in range(rows):
            r = 0
            for c in range(cols):
                r |= draw() >> 31 << c
            out.append(r)
        return gf2.Mat(tuple(out), cols)

    def combination(self, vectors):
        """A random GF(2) combination of the int *vectors*: one draw per
        vector, as a 0/1 column (no draw when there are none)."""
        draw = self._pcg.next_uint32
        out = 0
        for v in vectors:
            if draw() >> 31:
                out ^= v
        return out

    def invertible(self, n):
        while True:
            M = self.mat(n, n)
            if gf2.rank(M) == n or n == 0:
                return M


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _seed_sequence(seed):
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)`` for an
    int seed >= 0: the seed's 32-bit words, lowest first, hashed into a
    pool of four words and mixed, then eight words hashed out and read
    in pairs, low word first."""
    if seed < 0:
        raise ValueError("the seed must be non-negative")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43b0d7e5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931e8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xca01f9dd * x - 0x4973f715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], 0x8b51f9dd
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58f38ded & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


class _PCG64:
    """numpy's ``PCG64(seed)`` (O'Neill, HMC-CS-2014-0905): a 128-bit LCG
    with XSL-RR output, seeded as ``pcg_setseq_128_srandom_r`` with the
    initial state and sequence read off the four ``_seed_sequence`` words,
    high word first."""

    MULT = 0x2360ED051FC65DA44385DF649FCCF645

    __slots__ = ("state", "inc", "_high")

    def __init__(self, seed):
        s0, s1, s2, s3 = _seed_sequence(seed)
        initstate, initseq = s0 << 64 | s1, s2 << 64 | s3
        self.inc = (initseq << 1 | 1) & _MASK128
        self.state = ((self.inc + initstate) * self.MULT + self.inc) & _MASK128
        self._high = None

    def next_uint64(self):
        self.state = s = (self.state * self.MULT + self.inc) & _MASK128
        x, rot = (s >> 64 ^ s) & _MASK64, s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def next_uint32(self):
        """The low half of a 64-bit output, then its high half."""
        if self._high is not None:
            out, self._high = self._high, None
            return out
        x = self.next_uint64()
        self._high = x >> 32
        return x & _MASK32


# --------------------------------------------------------------- posets


POSET_SHAPES = {
    "point": (["m"], []),
    "chain2": (["0", "1"], [("0", "1")]),
    "chain3": (["0", "1", "2"], [("0", "1"), ("1", "2")]),
    "vee3": (["a", "b", "m"], [("a", "m"), ("b", "m")]),
    "diamond": (["0", "a", "b", "m"],
                [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m")]),
    "chain4": (["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "3")]),
    "wide5": (["0", "a", "b", "c", "m"],
              [("0", "a"), ("0", "b"), ("0", "c"),
               ("a", "m"), ("b", "m"), ("c", "m")]),
    "chain5": (["0", "1", "2", "3", "4"],
               [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4")]),
}


def gen_poset(rng, max_elems=5):
    names = [k for k, (els, _) in POSET_SHAPES.items() if len(els) <= max_elems]
    els, covers = POSET_SHAPES[rng.choice(sorted(names))]
    return from_covers(els, covers)


# ------------------------------------------------------------ pro-objects


def gen_pro_object(rng, poset, instance, **kw):
    """A random functor: values assigned along the linear extension, each
    cover's structure map routed through every intermediate chain level."""
    instance = instance_of(instance)
    order = list(linear_extension(poset))
    vals = {}
    for k, s in enumerate(order):
        vals[s] = instance.gen_object(rng, prefix=f"l{k}_", **kw)
    chain_maps = {}
    for k in range(len(order) - 1):
        chain_maps[k] = instance.gen_map(rng, vals[order[k + 1]], vals[order[k]])
    pos = {s: k for k, s in enumerate(order)}
    structs = {}
    for s, t in poset.covers():
        m = identity(vals[order[pos[s]]])
        for k in range(pos[s], pos[t]):
            step = chain_maps[k]
            m = compose(m, step) if k > pos[s] else step
        structs[(t, s)] = m
    return ProObject(poset, values=vals, structs=structs)


def gen_level_map(rng, poset, instance, tries=64, **kw):
    """A random LEVEL map over *poset*, built in the arrow category along
    the linear extension with rejection sampling for each square."""
    instance = instance_of(instance)
    order = list(linear_extension(poset))
    n = len(order)
    A = [instance.gen_object(rng, prefix=f"a{k}_", **kw) for k in range(n)]
    B = [instance.gen_object(rng, prefix=f"b{k}_", **kw) for k in range(n)]
    v = [instance.gen_map(rng, A[k], B[k]) for k in range(n)]
    asteps, bsteps = {}, {}
    for k in range(n - 1):
        a, b = instance.gen_square(rng, v[k + 1], v[k], tries)
        asteps[k], bsteps[k] = a, b
    pos = {s: k for k, s in enumerate(order)}

    def chained(steps, vals, t, s):
        m = identity(vals[pos[s]])
        for k in range(pos[s], pos[t]):
            m = compose(m, steps[k]) if k > pos[s] else steps[k]
        return m

    covers = poset.covers()
    X = ProObject(poset, values={s: A[pos[s]] for s in poset.elements},
                  structs={(t, s): chained(asteps, A, t, s) for s, t in covers})
    Y = ProObject(poset, values={s: B[pos[s]] for s in poset.elements},
                  structs={(t, s): chained(bsteps, B, t, s) for s, t in covers})
    f = level_map(X, Y, {s: v[pos[s]] for s in poset.elements})
    return f


# ------------------------------------------------- isomorphism-style data


def conjugate_pro(rng, X, prefix="c"):
    """(X', alpha: X -> X' a levelwise iso LEVEL map)."""
    vals, alphas = {}, {}
    for k, s in enumerate(X.index.elements):
        vals[s], alphas[s] = X.instance.gen_iso(rng, X.value(s), f"{prefix}{k}_")
    structs = {(t, s): compose(alphas[s], compose(X.struct(t, s), inverse(alphas[t])))
               for s, t in X.index.covers()}
    X2 = ProObject(X.index, values=vals, structs=structs)
    return X2, level_map(X, X2, alphas)


def gen_shift_iso(rng, instance, length=2, **kw):
    """The tower-shift pro-isomorphism with its witness family.

    A tower over the (length+1)-chain shifted against itself: X_s is the
    tower one level up, f the connecting maps, h_ts the tower structure
    maps; conjugated by random level isos on both sides.
    """
    tower = gen_pro_object(rng, chain_poset(length + 1), instance, **kw)
    I = chain_poset(length)
    up = {s: str(int(s) + 1) for s in I.elements}
    X = ProObject(I, values={s: tower.value(up[s]) for s in I.elements},
                  structs={(t, s): tower.struct(up[t], up[s])
                           for s, t in I.covers()})
    Y = ProObject(I, values={s: tower.value(s) for s in I.elements},
                  structs={(t, s): tower.struct(t, s) for s, t in I.covers()})
    f = level_map(X, Y, {s: tower.struct(up[s], s) for s in I.elements})
    fam = {(t, s): tower.struct(t, up[s]) for t, s in I.pairs}
    X2, alpha = conjugate_pro(rng, X, prefix="x")
    Y2, beta = conjugate_pro(rng, Y, prefix="y")
    f2 = level_map(X2, Y2, {
        s: compose(beta.level_component(s),
                   compose(f.level_component(s),
                           inverse(alpha.level_component(s))))
        for s in I.elements})
    fam2 = {(t, s): compose(alpha.level_component(s),
                            compose(fam[(t, s)],
                                    inverse(beta.level_component(t))))
            for (t, s) in fam}
    return f2, HFamily(fam2)


def gen_we_level_map(rng, X, prefix="w"):
    """A natural levelwise weak equivalence onto X, as its instance
    builds one."""
    return X.instance.gen_we_level_map(rng, X, prefix)


# ------------------------------------------------------------ axiom suites


@dataclass
class SuiteReport:
    name: str
    trials: int
    failures: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures


def _gen_instances(seed, trials):
    for k in range(trials):
        yield k, Rng(seed * 1_000_003 + k)


def suite_factorization(instance, trials, seed):
    """Strict factorization postconditions on random level maps over
    posets of at most five elements."""
    from .strict import MODE_L1, MODE_L2, factor_strict
    instance = instance_of(instance)
    rep = SuiteReport(name=f"factorization[{instance.tag}]", trials=trials)
    for k, rng in _gen_instances(seed, trials):
        poset = gen_poset(rng)
        f = gen_level_map(rng, poset, instance, **instance.sizes)
        for mode in (MODE_L1, MODE_L2):
            try:
                fs = factor_strict(f, mode)
                fs.replay_composite()
            except Exception as e:  # noqa: BLE001 - recorded as a failure
                rep.failures.append((k, mode, repr(e)))
    return rep


def suite_lifting(instance, trials, seed):
    """Squares assembled from factorization outputs over posets of at
    most four elements; both pairings."""
    from .strict import (MODE_L1, MODE_L2, factor_strict, lift_strict,
                         triangle_failure)
    instance = instance_of(instance)
    rep = SuiteReport(name=f"lifting[{instance.tag}]", trials=trials)
    for k, rng in _gen_instances(seed, trials):
        poset = gen_poset(rng, max_elems=4)
        q = gen_level_map(rng, poset, instance, **instance.sizes)
        mode = (MODE_L1, MODE_L2)[k % 2]
        try:
            fs = factor_strict(q, mode)
            j, p = fs.left, fs.right
            i, bottom = j, p
            if k % 3 == 2:
                # nested square: refactor the cofibration side again
                fs2 = factor_strict(j, mode)
                i, bottom = fs2.left, compose_pro(p, fs2.right)
            res = lift_strict(i, p, j, bottom, mode=mode, special=fs.special)
            bad = triangle_failure(i, p, j, bottom, res.lift)
            if bad is not None:
                rep.failures.append((k, mode, bad[1]))
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, mode, repr(e)))
    return rep


def suite_pro_factor_iso(instance, trials, seed):
    """Shift-pattern pro-isos with witnesses through pro_factor_iso."""
    from .proiso import pro_factor_iso
    instance = instance_of(instance)
    rep = SuiteReport(name=f"pro-factor-iso[{instance.tag}]", trials=trials)
    for k, rng in _gen_instances(seed, trials):
        try:
            f, wit = gen_shift_iso(rng, instance, length=2, **instance.small_sizes)
            bad = pro_factor_iso(f, wit).failure()
            if bad is not None:
                rep.failures.append((k, *bad))
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, repr(e)))
    return rep


def _non_we_levels(m):
    """The levels at which the level map *m* is not a weak equivalence,
    each component classified here rather than read from a result."""
    return [s for s in m.source.index.elements
            if not classify_map(m.level_component(s)).is_we]


def suite_two_of_three(instance, trials, seed):
    """compose_zigzag_we and both two_of_three sides on generated data."""
    from .proiso import compose_zigzag_we, two_of_three
    from .proobj import identity_pro
    instance = instance_of(instance)
    rep = SuiteReport(name=f"two-of-three[{instance.tag}]", trials=trials)
    for k, rng in _gen_instances(seed, trials):
        try:
            h, wit = gen_shift_iso(rng, instance, length=2, **instance.small_sizes)
            Z, Y = h.source, h.target
            f = gen_we_level_map(rng, Y)
            g = conjugate_pro(rng, Z, prefix="g")[1]
            out = compose_zigzag_we(f, h, g, wit)
            rep.failures += [(k, "zigzag", s) for s in _non_we_levels(out.map)]
            out.source_cert.replay()
            out.target_cert.replay()
            out.replay_composite_identity(f, wit, g)
            u = gen_we_level_map(rng, Z)
            top = compose_pro(h, u)
            o2 = two_of_three("left-cancel", top, u, identity_pro(Y), h, wit)
            rep.failures += [(k, "left-cancel", s) for s in _non_we_levels(o2.map)]
            o2.cancel_cert.replay()
            o3 = two_of_three("right-cancel", h, identity_pro(Z),
                              identity_pro(Y), h, wit)
            rep.failures += [(k, "right-cancel", s) for s in _non_we_levels(o3.map)]
            o3.cancel_cert.replay()
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, repr(e)))
    return rep


def gen_fib_onto(rng, Y):
    """A levelwise fibration onto Y: the projection from the levelwise
    product with a random pro-object over the same index."""
    from .prohom import ProDiagram, pro_limit_levelwise
    R = gen_pro_object(rng, Y.index, Y.instance, **Y.instance.small_sizes)
    lim = pro_limit_levelwise(ProDiagram(Y.index, {"y": Y, "r": R}, []))
    return lim.legs["y"]


def suite_properness(instance, trials, seed):
    """proper_pullback outputs are levelwise weak equivalences."""
    from .proiso import proper_pullback
    from .proobj import identity_pro
    instance = instance_of(instance)
    rep = SuiteReport(name=f"properness[{instance.tag}]", trials=trials)
    for k, rng in _gen_instances(seed, trials):
        try:
            g, wit = gen_shift_iso(rng, instance, length=2, **instance.small_sizes)
            W, Y = g.source, g.target
            fwe = gen_we_level_map(rng, W)
            p = gen_fib_onto(rng, Y)
            out = proper_pullback(p, fwe, g, wit)
            rep.failures += [(k, s) for s in _non_we_levels(out.map)]
            out.glue_cert.replay()
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, repr(e)))
    return rep


def suite_cocell(instance, trials, seed):
    """Cocell round trip on special (acyclic) fibrations from factor_strict."""
    from .strict import MODE_L1, MODE_L2, factor_strict
    from .towers import build_cocell_tower, tower_limit
    instance = instance_of(instance)
    rep = SuiteReport(name=f"cocell[{instance.tag}]", trials=trials)
    for k, rng in _gen_instances(seed, trials):
        poset = gen_poset(rng, max_elems=4)
        f = gen_level_map(rng, poset, instance, **instance.sizes)
        mode = (MODE_L1, MODE_L2)[k % 2]
        try:
            fs = factor_strict(f, mode)
            t = build_cocell_tower(fs.right, special=fs.special)
            t.replay_base_changes()
            tl = tower_limit(t)
            tl.iso_cert.replay()
        except Exception as e:  # noqa: BLE001
            rep.failures.append((k, mode, repr(e)))
    return rep


def hom_oracle_family():
    """The exhaustive SetBij family: every pro-object over each directed
    poset shape with <= 3 elements; all sizes <= 3 with all structure maps
    on <= 2-element posets, sizes 1 and 2 on 3-element shapes."""
    out = []
    for name in ("point", "chain2", "chain3", "vee3"):
        els, covers = POSET_SHAPES[name]
        poset = from_covers(els, covers)
        sizes = (1, 2, 3) if len(els) <= 2 else (1, 2)
        out.extend(_all_pro_objects(poset, sizes))
    return out


def _all_pro_objects(poset, sizes):
    order = list(linear_extension(poset))
    out = []
    for dims in itertools.product(sizes, repeat=len(order)):
        vals = {s: set_obj([f"{s}e{i}" for i in range(dims[k])])
                for k, s in enumerate(order)}
        cover_pairs = [(t, s) for (s, t) in poset.covers()]
        choices = [enumerate_base_maps(vals[t], vals[s]) for t, s in cover_pairs]
        for combo in itertools.product(*choices):
            structs = {pair: m for pair, m in zip(cover_pairs, combo)}
            try:
                out.append(ProObject(poset, values=vals, structs=structs))
            except Exception:  # non-functorial diamond choices
                continue
    return out


def suite_hom_oracle(family=None):
    """Maxima-collapse hom against the brute-force formula, exhaustively."""
    from .prohom import hom_pro
    family = hom_oracle_family() if family is None else family
    rep = SuiteReport(name="hom-oracle[set-bij]", trials=0)
    count = 0
    for X in family:
        for Y in family:
            count += 1
            fast = hom_pro(X, Y)
            slow = brute_force_hom(X, Y)
            if len(fast.maps) != len(slow):
                rep.failures.append((repr(X), repr(Y), len(fast.maps), len(slow)))
    rep.trials = count
    rep.detail["objects"] = len(family)
    return rep


def suite_adjunction(depth=16, family=None):
    """Adjunction bijections over the hom-oracle family and ω-towers."""
    from .base import set_obj as _so
    from .proobj import omega_pro_object
    from .towers import adjunction_check
    family = hom_oracle_family() if family is None else family
    rep = SuiteReport(name="adjunction[set-bij]", trials=0)
    count = 0
    for base_size in (1, 2, 3):
        X = _so([f"p{i}" for i in range(base_size)])
        for Y in family:
            count += 1
            try:
                w = adjunction_check(X, Y)
                if not w.verified():
                    rep.failures.append((base_size, repr(Y)))
            except Exception as e:  # noqa: BLE001
                rep.failures.append((base_size, repr(Y), repr(e)))
    two = _so(["0", "1"])
    for vals, steps in _omega_tower_samples(two):
        count += 1
        Y = omega_pro_object(vals, steps, depth=depth)
        try:
            w = adjunction_check(_so(["*"]), Y)
            if not w.verified():
                rep.failures.append(("omega", w.left_size, w.right_size))
        except Exception as e:  # noqa: BLE001
            rep.failures.append(("omega", repr(e)))
    rep.trials = count
    return rep


def _omega_tower_samples(two):
    # towers whose image systems become isomorphisms (the exact regime of
    # the stable-image semantics): identities, all-collapse, and swaps
    from .base import identity as _id
    collapse = set_map(two, two, {"0": "0", "1": "0"})
    swap = set_map(two, two, {"0": "1", "1": "0"})
    yield (lambda n: two), (lambda n: _id(two))
    yield (lambda n: two), (lambda n: collapse)
    yield (lambda n: two), (lambda n: swap)


def run_all_suites(trials, seed, depth=16):
    """Everything check-axioms runs; returns the list of reports."""
    reports = []
    for instance in SHIPPED:
        reports.append(suite_factorization(instance, trials, seed))
        reports.append(suite_lifting(instance, trials, seed + 1))
        reports.append(suite_pro_factor_iso(instance, max(1, trials // 2), seed + 2))
        reports.append(suite_two_of_three(instance, max(1, trials // 2), seed + 3))
        reports.append(suite_properness(instance, max(1, trials // 2), seed + 4))
        reports.append(suite_cocell(instance, max(1, trials // 2), seed + 5))
    small = hom_oracle_family()
    reports.append(suite_hom_oracle(small[:40]))
    reports.append(suite_adjunction(depth=depth, family=small[:25]))
    return reports
