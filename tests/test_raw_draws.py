"""``RawDraws`` against the ``Generator`` calls it replays: the same values
bit for bit, and after ``sync`` the same bit-generator state, half-word
buffer included."""

import numpy as np
import pytest

from incdur.models import base
from incdur.models.base import RawDraws


def _pair(seed, buffered):
    """Two generators in one state; ``buffered`` leaves a half word held
    over in the bit generator's ``uinteger`` buffer."""
    real, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        real.integers(7)
        replayed.integers(7)
        assert real.bit_generator.state["has_uint32"] == 1
    return real, replayed


def _synced(real, replayed, draws):
    draws.sync()
    same = real.bit_generator.state == replayed.bit_generator.state
    return same and real.random() == replayed.random() and real.integers(9) == replayed.integers(9)


@pytest.mark.parametrize("block", [1, 2, 16])
def test_interleaved_integers_and_doubles_match_the_generator(monkeypatch, block):
    monkeypatch.setattr(base, "DRAW_BLOCK", block)
    for seed in range(150):
        ops = np.random.default_rng(10_000 + seed)
        real, replayed = _pair(seed, buffered=seed % 2 == 1)
        draws = RawDraws(replayed)
        for _ in range(int(ops.integers(0, 80))):
            if ops.random() < 0.6:
                k = int(ops.integers(2, 65))
                assert draws.bounded(k) == real.integers(k), (seed, k)
            else:
                assert draws.random() == real.random(), seed
        assert _synced(real, replayed, draws), seed


def test_bounded_matches_the_generator_where_rejections_are_common():
    # 2**32 mod k is 2**30 here: a quarter of the half words are drawn again
    k = 3 << 30
    for seed in range(40):
        real, replayed = _pair(seed, buffered=seed % 2 == 1)
        draws = RawDraws(replayed)
        assert [draws.bounded(k) for _ in range(50)] == real.integers(k, size=50).tolist()
        assert _synced(real, replayed, draws), seed


class _Words:
    """A bit generator stand-in that hands out fixed raw words."""

    def __init__(self, words):
        self.words = list(words)
        self.state = {"has_uint32": 0, "uinteger": 0}

    def random_raw(self, n):
        taken, self.words = self.words[:n], self.words[n:]
        return np.array(taken, dtype=np.uint64)


class _Rng:
    def __init__(self, words):
        self.bit_generator = _Words(words)


def test_bounded_draws_again_when_the_low_product_half_is_below_the_threshold():
    # k = 3 * 2**30: the low half of w * k is ((3w) mod 4) * 2**30, below the
    # threshold 2**32 mod k = 2**30 exactly when w is a multiple of 4, and
    # the result is floor(3w / 4)
    k = 3 << 30
    draws = RawDraws(_Rng([(5 << 32) | 4, (4 << 32) | 8, (7 << 32) | 1]))
    assert draws.bounded(k) == 3  # low half 4 rejected, high half 5 taken
    assert draws.has == 0
    assert draws.bounded(k) == 0  # 8 and 4 rejected, then the next low half, 1
    assert draws.has == 1 and draws.half == 7
    # the held-over high half, 7: its low product half is the threshold
    # itself, below k but not below the threshold, so it is kept
    assert draws.bounded(k) == 5
    assert draws.has == 0


def test_sorted_choice_matches_the_generator_for_every_small_draw():
    for m in range(1, 61):
        real, replayed = _pair(m, buffered=m % 2 == 1)
        draws = RawDraws(replayed)
        for k in range(1, m + 1):
            want = np.sort(real.choice(m, size=k, replace=False)).tolist()
            assert draws.sorted_choice(m, k) == want, (m, k)
        assert _synced(real, replayed, draws), m


@pytest.mark.parametrize("m", [10_001, 12_000])
def test_sorted_choice_matches_the_generator_on_the_tail_shuffle(m):
    # above 10000 rows and m // 50 picks numpy shuffles the tail of arange(m)
    for k in (m // 50, m // 50 + 1, m // 3, m - 1, m):
        real, replayed = _pair(k, buffered=k % 2 == 1)
        draws = RawDraws(replayed)
        want = np.sort(real.choice(m, size=k, replace=False)).tolist()
        assert draws.sorted_choice(m, k) == want, (m, k)
        assert _synced(real, replayed, draws), (m, k)
