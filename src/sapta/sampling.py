"""Draws from numpy's seeded PCG64 stream for Schrödinger's cat.

An opened box needs the first ``random()`` of
``numpy.random.default_rng(seed)``, which :func:`_first_draw` computes in
pure Python; only :func:`count_alive`, the bulk sample of a cat run with
``--trials``, imports numpy.  Only ``scenario cat --open`` and ``corpus``
load this module.
"""
from __future__ import annotations

__all__ = ["count_alive"]

# Draws per chunk when the cat scenario samples --trials outcomes.
_CAT_CHUNK = 1 << 16

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _first_draw(seed: int) -> float:
    """``numpy.random.default_rng(seed).random()``, computed without numpy.

    numpy's ``SeedSequence`` hashes the seed's 32-bit words into a pool of
    four and draws four 64-bit words from it; PCG64 (O'Neill 2014) takes
    them as a 128-bit state and stream, steps its 128-bit LCG and permutes
    the state into 64 output bits (XSL-RR), and ``random()`` keeps the top
    53 of them.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired low word first.
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> 16)
    high, low, inc_high, inc_low = (halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2))

    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    increment = ((inc_high << 64 | inc_low) << 1 | 1) & _M128
    state = (increment + (high << 64 | low)) * multiplier + increment & _M128
    state = state * multiplier + increment & _M128
    rotation = state >> 122
    folded = (state >> 64 ^ state) & _M64
    out = (folded >> rotation | folded << (64 - rotation)) & _M64
    return (out >> 11) * 2.0**-53


def count_alive(seed: int, trials: int, p_alive: float) -> int:
    """How many of the first ``trials`` draws from ``default_rng(seed)``
    find the cat alive (a draw below ``p_alive``)."""
    import numpy as np  # only the bulk sample needs numpy

    rng = np.random.default_rng(seed)
    # The draws come from the stream in chunks, so memory stays constant; a
    # sum of 0/1 counts is exact, so the frequency equals the mean over one
    # array of all draws.
    count = 0
    while trials:
        chunk = min(trials, _CAT_CHUNK)
        count += int(np.count_nonzero(rng.random(chunk) < p_alive))
        trials -= chunk
    return count
