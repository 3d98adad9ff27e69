"""Deterministic pseudo-random generation for the whole toolkit.

Every random draw in the package flows through xoshiro256** seeded via
SplitMix64, so identical seeds give bit-identical streams on every
platform.  A numpy-vectorized multi-lane variant backs the heavy Monte
Carlo checks; lane j of the vector generator carries exactly the same
state as the scalar generator opened with ``stream=j``.  Truncated
geometric scans are drawn by inversion (``ScanTable``), one u64 per scan:
a float logarithm only picks where each lane's search starts, and
comparisons of the u64 with the table's integers settle the count, so
the result is the exact integer inversion.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GUARD_BITS = 64  # ScanTable's running-product precision below the binary point
_U5, _U7, _U9, _U11, _U17, _U19, _U27, _U30, _U31, _U45, _U57 = (
    np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 27, 30, 31, 45, 57))

MC_LANES = 1 << 14   # widest round of a vectorized draw
KEY_CELLS = 1 << 20  # cap on the u64 keys a round holds at once (8 MiB)


def _splitmix64_at(seed: int, i: int) -> int:
    """Output i of the SplitMix64 sequence from ``seed`` in closed form:
    mix(seed + (i+1) gamma)."""
    z = (seed + (i + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _stream_state(seed: int, stream: int) -> list[int]:
    """Four xoshiro state words for (seed, stream): SplitMix64 outputs 4*stream..4*stream+3."""
    out = [_splitmix64_at(seed, 4 * stream + i) for i in range(4)]
    if all(w == 0 for w in out):  # all-zero state is a fixed point of xoshiro
        out[0] = _GAMMA
    return out


class Xoshiro256StarStar:
    """Scalar xoshiro256** stream.

    ``seed`` is any 64-bit integer; ``stream`` selects an independent
    substream (used for worker/seed splitting).
    """

    def __init__(self, seed: int, stream: int = 0):
        self._s = tuple(_stream_state(seed & _MASK64, stream))

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & _MASK64
        result = (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64  # rotl(s1 * 5, 7) * 9
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s = (s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & _MASK64)  # s3 = rotl(s3, 45)
        return result

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by bitmask rejection."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        k = (n - 1).bit_length()
        if k == 0:
            return 0
        while True:
            r = self.next_u64() >> (64 - k)
            if r < n:
                return r

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle: element i swaps with j drawn as
        ``randrange(i + 1)`` draws it, with the bitmask rejection inlined,
        so the stream and the state left behind are randrange's."""
        next_u64 = self.next_u64
        for i in range(len(xs) - 1, 0, -1):
            shift = 64 - i.bit_length()
            while (j := next_u64() >> shift) > i:
                pass
            xs[i], xs[j] = xs[j], xs[i]

    def permutation(self, n: int) -> list[int]:
        xs = list(range(n))
        self.shuffle(xs)
        return xs

    def bernoulli(self, threshold: int) -> bool:
        """True with probability threshold / 2^64 (integer threshold, exact)."""
        return self.next_u64() < threshold


def bernoulli_threshold(p) -> int:
    """Integer t with t/2^64 closest below-or-equal to probability p."""
    f = Fraction(p)
    if not 0 <= f <= 1:
        raise ValueError("probability outside [0, 1]")
    return int(f * (1 << 64))


class XoshiroLanes:
    """Vectorized xoshiro256**: ``lanes`` independent substreams advanced in lockstep.

    Lane j reproduces Xoshiro256StarStar(seed, stream=j) bit for bit, so the
    vectorized Monte Carlo paths are deterministic and cross-checkable
    against the scalar generator.  A step updates the four state arrays in
    place through one scratch array; only the draws it returns are new.
    """

    def __init__(self, seed: int, lanes: int):
        # word r of lane j is SplitMix64 output 4 j + r, by the closed form
        # mix(seed + (4 j + r + 1) gamma), computed in place row by row
        state = np.empty((4, lanes), np.uint64)
        t = self._t = np.empty(lanes, np.uint64)
        state[0] = np.arange(1, 4 * lanes + 1, 4, dtype=np.uint64)
        for r in (3, 2, 1, 0):  # row 0 holds 4 j + 1 until it is mixed last
            z = state[r]
            if r:
                np.add(state[0], np.uint64(r), out=z)
            z *= np.uint64(_GAMMA)
            z += np.uint64(seed & _MASK64)
            z ^= np.right_shift(z, _U30, out=t)
            z *= np.uint64(_MIX1)
            z ^= np.right_shift(z, _U27, out=t)
            z *= np.uint64(_MIX2)
            z ^= np.right_shift(z, _U31, out=t)
        zero_lanes = ~state.any(axis=0)  # all-zero state is a fixed point of xoshiro
        state[0, zero_lanes] = np.uint64(_GAMMA)
        self._s = tuple(state)  # s0, s1, s2, s3: rows of one array
        self.lanes = lanes

    def next_block(self, rows: int, width: int) -> np.ndarray:
        """The next ``rows`` draws of the first ``width`` lanes, shape (rows, width)."""
        s0, s1, s2, s3 = self._s
        t = self._t
        s1w, tw = s1[:width], t[:width]
        block = np.empty((rows, width), np.uint64)
        for out in block:
            np.multiply(s1w, _U5, out=out)  # rotl(s1 * 5, 7) * 9, mod 2^64
            np.left_shift(out, _U7, out=tw)
            np.right_shift(out, _U57, out=out)
            np.bitwise_or(out, tw, out=out)
            np.multiply(out, _U9, out=out)
            np.left_shift(s1, _U17, out=t)  # then every lane steps in place
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            np.left_shift(s3, _U45, out=t)  # s3 = rotl(s3, 45)
            np.right_shift(s3, _U19, out=s3)
            s3 |= t
        return block


def lane_rounds(seed: int, total: int, keys: int = 1) -> tuple[XoshiroLanes, list[int]]:
    """Split `total` lane draws into balanced rounds of at most MC_LANES
    lanes, and of at most KEY_CELLS u64 keys when each lane holds `keys` at
    once: one generator, and the number m of its first lanes each round uses.
    A lane of more than KEY_CELLS keys is refused before any is drawn."""
    if keys > KEY_CELLS:
        raise ValueError(f"{keys} keys per lane exceed the {KEY_CELLS} a round holds")
    width = min(MC_LANES, KEY_CELLS // keys)
    rounds = -(-total // width)
    size = -(-total // rounds)
    return XoshiroLanes(seed, size), [min(size, total - r * size) for r in range(rounds)]


class ScanTable:
    """Integer inversion table for a capped Bernoulli scan.

    The scan tests slots 1, 2, ... with ``Xoshiro256StarStar.bernoulli``
    at ``threshold`` (p = threshold / 2^64) and returns the step of the
    first hit, or ``window`` when none of the first window - 1 slots hits,
    so it exceeds k < window steps with probability (1 - p)^k.  Inversion
    from one uniform u64 U: with T_k = floor((2^64 - threshold)^k / 2^(64 (k-1))),
    the scan exceeds k steps exactly when U < T_k, i.e. it is
    1 + #{1 <= k < window : U < T_k}.  Each cell's mass (T_{k-1} - T_k) / 2^64
    is within 2^-64 of the scan's.

    The T_k come from a running product with ``_GUARD_BITS`` guard bits,
    P_k = floor(q P_{k-1} / 2^64) with q = 2^64 - threshold, which stays
    below the exact q^k / 2^(64 (k-1) - guard) by less than k units; so
    T_k = P_k >> guard whenever (P_k + k) >> guard agrees, and otherwise
    T_k is taken from the exact power.  The table equals the exact one bit
    for bit, at linear cost in the window.
    """

    def __init__(self, threshold: int, window: int):
        if not 0 < threshold <= 1 << 64:
            raise ValueError("scan threshold outside (0, 2^64]")
        if window < 1:
            raise ValueError("scan window must be >= 1")
        # T_1 .. T_{window-1}; once T_k reaches 0 every later one does too
        q = (1 << 64) - threshold
        guard = _GUARD_BITS
        p = q << guard  # P_1, exact
        self.bounds = []
        for k in range(1, window):
            t = p >> guard
            if (p + k) >> guard != t:
                t = q ** k >> (64 * (k - 1))
            if t == 0:
                break
            self.bounds.append(t)
            p = p * q >> 64
        # for a count c: T_{c+1}, 0 past the last, and T_c - 1, 2^64 - 1 at c = 0
        self._next = np.array(self.bounds + [0], dtype=np.uint64)
        self._last = np.array([_MASK64] + [t - 1 for t in self.bounds], dtype=np.uint64)
        prob = threshold / (1 << 64)
        # 1 / log(1 - p); -0.0 where p rounds to 1, which starts every count at 0
        self._per_log = 1 / math.log1p(-prob) if prob < 1 else -0.0

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Scan lengths 1 + #{k : U < T_k} for a vector of uniform u64 draws U.

        T_k is close to 2^64 (1 - p)^k, so each lane starts its count at
        floor(log u / log(1 - p)), clipped to [0, len(T)], with u =
        (U >> 11) 2^-53 + 2^-54 in (0, 1).  The float only picks the start:
        every lane then steps up while U < T_{c+1} and down while U >= T_c,
        until no lane moves, and those integer comparisons give the exact
        count (T is nonincreasing, so the two tests never both hold).
        """
        n = len(u)
        word = np.empty(n, np.uint64)
        start = np.empty(n)
        count = np.empty(n, np.int64)
        up, down = np.empty(n, bool), np.empty(n, bool)
        np.right_shift(u, _U11, out=word)
        np.copyto(start, word.view(np.int64), casting="unsafe")  # exact: below 2^53
        start *= 2.0 ** -53
        start += 2.0 ** -54
        np.log(start, out=start)
        start *= self._per_log
        np.minimum(start, len(self.bounds), out=start)
        np.copyto(count, start, casting="unsafe")  # truncation: start >= 0
        while True:
            np.less(u, np.take(self._next, count, out=word, mode="clip"), out=up)
            np.greater(u, np.take(self._last, count, out=word, mode="clip"), out=down)
            if not (up.any() or down.any()):
                break
            count += up
            count -= down
        count += 1
        return count
