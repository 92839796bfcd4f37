"""``suites.Rng`` draws numpy's ``default_rng(seed).integers(0, 2, ...)``
stream bit for bit, without numpy.

Every seeded document, certificate and ``check-axioms`` run was recorded
with numpy's stream, so the pure-Python generator is compared with numpy
itself: ``mat`` and ``combination`` calls interleaved on one generator,
against the same sizes drawn from one numpy generator.  The shapes
include 0-row and 0-column matrices (no draw), odd entry counts (the
buffered high half of a 64-bit output is carried into the next call)
and (n, 1) columns, the shape ``combination`` draws.
"""

import numpy as np
import pytest

from promc import suites

BENCH_SHAPES = 8  # the benchmark's poset shapes, slot 1000*shape + k
SEEDS = {
    "small": list(range(200)),
    "large": [2**32 + 5, 2**63 + 11, 12345678901234567890, 2**130 + 7],
    # bench/workloads.py rng_for: seed * 1_000_003 + slot
    "bench-slots": [seed * 1_000_003 + 1000 * shape + k
                    for seed in range(2201, 2211) for shape in range(BENCH_SHAPES)
                    for k in (0, 1, 7, 500, 503)],
    # the seed of the 15237 x 10778 L2 lift system (bench/README.md)
    "large-lift": [7 * 1_000_003 + 15],
}
# ("mat", rows, cols) or ("comb", number of vectors), in call order
CALLS = [("mat", 3, 3), ("mat", 0, 4), ("comb", 5), ("mat", 4, 0), ("mat", 1, 1),
         ("mat", 5, 1), ("comb", 0), ("mat", 2, 5), ("comb", 3), ("mat", 7, 3),
         ("mat", 0, 0), ("comb", 1), ("mat", 6, 6), ("mat", 3, 1), ("comb", 8)]


def _rows(a):
    """A numpy 0/1 matrix as int rows, bit c = column c."""
    return tuple(sum(int(x) << c for c, x in enumerate(row)) for row in a.tolist())


@pytest.mark.parametrize("group", sorted(SEEDS))
def test_mat_and_combination_draw_numpys_stream(group):
    for seed in SEEDS[group]:
        rng, ref = suites.Rng(seed), np.random.default_rng(seed)
        for call in CALLS:
            if call[0] == "mat":
                _, rows, cols = call
                M = rng.mat(rows, cols)
                assert (M.rows, M.ncols) == (_rows(ref.integers(0, 2, size=(rows, cols))),
                                             cols), (seed, call)
            else:
                n = call[1]
                got = rng.combination([1 << i for i in range(n)])
                col = ref.integers(0, 2, size=(n, 1))
                assert got == sum(int(c) << i for i, (c,) in enumerate(col.tolist())), \
                    (seed, call)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63 + 11, 2**130 + 7])
def test_raw_outputs_are_numpys(seed):
    """64-bit outputs are PCG64's ``random_raw``; 32-bit ones are the low
    then the high half of each, as numpy's full-range uint32 draws."""
    ref = np.random.default_rng(seed).bit_generator.random_raw(9).tolist()
    pcg = suites._PCG64(seed)
    assert [pcg.next_uint64() for _ in range(9)] == ref
    pcg = suites._PCG64(seed)
    ref = np.random.default_rng(seed).integers(0, 2**32, size=11, dtype=np.uint32)
    assert [pcg.next_uint32() for _ in range(11)] == ref.tolist()


def test_invertible_and_choices_follow_the_seed():
    a, b = suites.Rng(41), suites.Rng(41)
    assert [a.invertible(n) for n in range(5)] == [b.invertible(n) for n in range(5)]
    assert [a.randint(0, 9) for _ in range(5)] == [b.randint(0, 9) for _ in range(5)]
    assert a.choice("xyz") == b.choice("xyz")


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        suites.Rng(-1)
