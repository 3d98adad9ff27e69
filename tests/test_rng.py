import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (lane_state_arange, sample_range, scan_draw_searchsorted,
                     shuffle_by_randrange, splitmix64)
from smcensus import rng
from smcensus.instances import PreferenceProfile, random_instance
from smcensus.rng import (KEY_CELLS, MC_LANES, ScanTable, Xoshiro256StarStar,
                          XoshiroLanes, _stream_state, bernoulli_threshold, lane_rounds)


def test_streams_are_deterministic():
    a = Xoshiro256StarStar(123).next_u64()
    b = Xoshiro256StarStar(123).next_u64()
    assert a == b
    assert Xoshiro256StarStar(124).next_u64() != a


def test_lanes_match_scalar_streams():
    lanes = XoshiroLanes(9001, 16)
    scalars = [Xoshiro256StarStar(9001, stream=j) for j in range(16)]
    for _ in range(50):
        vec = lanes.next_block(1, 16)[0]
        assert [int(v) for v in vec] == [s.next_u64() for s in scalars]
    wide = XoshiroLanes(9001, 4096)
    scalars = [Xoshiro256StarStar(9001, stream=j) for j in range(4096)]
    for _ in range(3):
        vec = wide.next_block(1, 4096)[0]
        assert [int(v) for v in vec] == [s.next_u64() for s in scalars]


@pytest.mark.parametrize("seed", [0, 1, 9001, (1 << 63) + 5, (1 << 64) - 1])
@pytest.mark.parametrize("lanes", [1, 3, 4096])
def test_lane_state_equals_flat_oracle_and_scalar_streams(seed, lanes):
    state = XoshiroLanes(seed, lanes)._s
    assert all(row.dtype == np.uint64 and row.flags.c_contiguous for row in state)
    assert [row.tolist() for row in state] == [row.tolist() for row in
                                               lane_state_arange(seed, lanes)]
    scalar = [Xoshiro256StarStar(seed, stream=j)._s for j in range(lanes)]
    assert list(zip(*(row.tolist() for row in state))) == scalar


def test_stream_state_is_the_splitmix64_sequence():
    for seed in (0, 9001, (1 << 64) - 1):
        gen = splitmix64(seed)
        for stream in range(1024):
            assert _stream_state(seed, stream) == [next(gen) for _ in range(4)]


def test_next_block_rows_are_successive_draws():
    a, b = XoshiroLanes(5, 8), XoshiroLanes(5, 8)
    block = a.next_block(3, 5)
    assert block.shape == (3, 5)
    for row in block:
        assert row.tolist() == b.next_block(1, 8)[0, :5].tolist()


@pytest.mark.parametrize("lanes, width", [(7, 3), (7, 7), (1, 1)])
def test_in_place_steps_match_scalar_streams_across_interleaved_calls(lanes, width):
    """Full-width and partial blocks in any interleaving stay on the scalar
    streams, writing into a returned array changes no later draw, and a
    later draw changes no returned array."""
    vec = XoshiroLanes(77, lanes)
    scalars = [Xoshiro256StarStar(77, stream=j) for j in range(lanes)]
    kept = []
    for step in range(12):
        if step % 3 == 0:
            got = vec.next_block(1, lanes)[0]
            want = [s.next_u64() for s in scalars]
        else:
            got = vec.next_block(step % 3, width)
            want = [[s.next_u64() for s in scalars][:width] for _ in range(step % 3)]
        assert got.tolist() == want
        if step % 2:
            got[...] = np.uint64(12345)
        kept.append((got.copy(), got))
    assert all(np.array_equal(copy, got) for copy, got in kept)


def test_lane_rounds_balance_and_cap_the_keys_held():
    for total, keys, want in [(10, 1, [10]), (MC_LANES + 1, 1, [8193, 8192]),
                              (3 * MC_LANES, 1, [MC_LANES] * 3),
                              (1000, KEY_CELLS // 100, [100] * 10), (5, KEY_CELLS, [1] * 5)]:
        lanes, rounds = lane_rounds(3, total, keys)
        assert rounds == want and lanes.lanes == want[0] and sum(rounds) == total


def test_lane_rounds_refuse_a_lane_past_the_key_cap(monkeypatch):
    # a round holds one lane at least, so a lane of more keys than the cap
    # is refused before any generator is built; a lane at the cap still runs
    monkeypatch.setattr(rng, "KEY_CELLS", 64)
    assert lane_rounds(3, 5, 64)[1] == [1] * 5
    monkeypatch.setattr(rng, "XoshiroLanes", None)  # building one would fail
    with pytest.raises(ValueError, match="65 keys per lane exceed the 64 a round holds"):
        lane_rounds(3, 5, 65)


def test_randrange_bounds_and_determinism():
    rng = Xoshiro256StarStar(5)
    vals = [rng.randrange(7) for _ in range(2000)]
    assert set(vals) == set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_sample_range_distinct_sorted():
    rng = Xoshiro256StarStar(6)
    for _ in range(200):
        got = sample_range(rng, 10, 4)
        assert got == sorted(got)
        assert len(set(got)) == 4
        assert all(0 <= x < 10 for x in got)


def test_shuffle_permutes():
    rng = Xoshiro256StarStar(7)
    xs = list(range(12))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(12))


@pytest.mark.parametrize("seed", [0, 1, (1 << 63) + 5, (1 << 64) - 1])
@pytest.mark.parametrize("stream", [0, 3])
def test_shuffle_equals_fisher_yates_over_randrange(seed, stream):
    """Same permutation and same state left behind, so random_instance,
    which draws all 2n rows from one generator, stays on the same stream."""
    fast, slow = Xoshiro256StarStar(seed, stream), Xoshiro256StarStar(seed, stream)
    for length in [0, 1, 2, 3, 4, 5, 8, 9, 17, 64, 65]:
        got, want = list(range(length)), list(range(length))
        fast.shuffle(got)
        shuffle_by_randrange(slow, want)
        assert got == want, length
        assert [fast.next_u64() for _ in range(8)] == [slow.next_u64() for _ in range(8)]


@pytest.mark.parametrize("seed", range(8))
def test_random_instance_equals_profile_built_by_randrange(seed):
    n, gen = 50, Xoshiro256StarStar(seed)

    def rows():
        out = []
        for _ in range(n):
            row = list(range(n))
            shuffle_by_randrange(gen, row)
            out.append(tuple(row))
        return tuple(out)

    jobs = rows()
    assert random_instance(n, seed) == PreferenceProfile(n, jobs, rows())


def test_bernoulli_threshold_exact():
    assert bernoulli_threshold(Fraction(1, 2)) == 1 << 63
    assert bernoulli_threshold(0) == 0
    assert bernoulli_threshold(1) == 1 << 64
    with pytest.raises(ValueError):
        bernoulli_threshold(2)


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.9, Fraction(1, 3)])
def test_scan_table_matches_scan_law_exactly(x):
    """Mass of steps = k under the table against (1-p)^(k-1) p (the cap at
    window taking the rest), p = thr / 2^64, within 2^-63, in integers."""
    thr = bernoulli_threshold(Fraction(x))
    window = math.ceil(40 / x)
    table = ScanTable(thr, window)
    q = (1 << 64) - thr
    t = [1 << 64] + table.bounds + [0] * (window - 1 - len(table.bounds))
    for k in range(1, window + 1):
        # both masses scaled by 2^(64 k)
        mass = (t[k - 1] - (t[k] if k < window else 0)) << (64 * (k - 1))
        law = q ** (k - 1) * (thr if k < window else 1 << 64)
        assert abs(mass - law) <= 1 << (64 * k - 63), k


def _exact_scan_bounds(threshold, window):
    """Oracle: T_k = floor(q^k / 2^(64 (k-1))) from the exact power q^k."""
    q = (1 << 64) - threshold
    power, out = q, []
    for k in range(1, window):
        t = power >> (64 * (k - 1))
        if t == 0:
            break
        out.append(t)
        power *= q
    return out


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.9, 1, Fraction(1, 3), 0.01, 0.003])
def test_scan_table_equals_exact_power_build(x):
    thr = bernoulli_threshold(Fraction(x))
    window = math.ceil(40 / x)
    assert ScanTable(thr, window).bounds == _exact_scan_bounds(thr, window)


@pytest.mark.parametrize("guard", [1, 2, 8])
def test_scan_table_exact_fallback(monkeypatch, guard):
    """With a few guard bits the running product cannot settle most T_k,
    so nearly every entry comes from the exact fallback."""
    monkeypatch.setattr(rng, "_GUARD_BITS", guard)
    for x in (0.1, 0.9, Fraction(1, 3)):
        thr = bernoulli_threshold(Fraction(x))
        window = math.ceil(40 / x)
        assert ScanTable(thr, window).bounds == _exact_scan_bounds(thr, window)


@pytest.mark.parametrize("x", [0.1, 0.9])
def test_scan_table_draw_inverts_at_the_bounds(x):
    """steps = 1 + #{k : U < T_k}: U just below T_k scans past k, U = T_k stops at k."""
    table = ScanTable(bernoulli_threshold(Fraction(x)), math.ceil(40 / x))
    bounds = table.bounds
    u = np.array([b - 1 for b in bounds] + bounds + [0, (1 << 64) - 1], dtype=np.uint64)
    ks = list(range(1, len(bounds) + 1))
    expect = [k + 1 for k in ks] + ks + [1 + len(bounds), 1]
    assert table.draw(u).tolist() == expect


def _edge_draws(table):
    """U at 0, T_k - 1, T_k, T_k + 1 for every k, and 2^64 - 1."""
    edges = {0, (1 << 64) - 1}
    edges.update(t + d for t in table.bounds for d in (-1, 0, 1))
    return np.array(sorted(u for u in edges if 0 <= u < 1 << 64), dtype=np.uint64)


# c12's five x and c13's x = 0.5; p = 1 (an empty table); a window of one
# step (an empty table); the smallest threshold, whose T_k sit 1 apart
# just below 2^64; and a table whose last T_k repeat at 1
@pytest.mark.parametrize("threshold, window", [
    *((bernoulli_threshold(Fraction(x)), math.ceil(40 / x)) for x in (0.1, 0.3, 0.5, 0.7, 0.9)),
    (1 << 64, 10), ((1 << 64) - 1, 10), (bernoulli_threshold(Fraction(1, 3)), 1),
    (1, 300), (1 << 62, 200),
], ids=["x0.1", "x0.3", "x0.5", "x0.7", "x0.9", "p1", "p1-ulp", "window1", "tiny", "to-1"])
def test_scan_draw_equals_searchsorted_oracle(threshold, window):
    table = ScanTable(threshold, window)
    u = _edge_draws(table)
    random = np.random.default_rng(threshold % 1000).integers(
        0, 1 << 64, 50000, dtype=np.uint64)
    for draws in (u, random, u[::-1].copy()):
        got = table.draw(draws)
        assert got.dtype == np.int64
        assert got.tolist() == scan_draw_searchsorted(table, draws).tolist()
        assert 1 <= got.min() and got.max() <= 1 + len(table.bounds)


def test_scan_table_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ScanTable(0, 10)
    with pytest.raises(ValueError):
        ScanTable(1 << 63, 0)
