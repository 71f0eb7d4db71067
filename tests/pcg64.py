"""A pure-Python spec of the random stream under ``RngStream``: the test oracle.

``RngStream(seed, stream_id)`` is numpy's ``Generator(PCG64(SeedSequence([seed,
stream_id])))``, and every ``simulate`` byte rests on it. NEP 19 does not promise
that numpy keeps these streams the same across versions
(https://numpy.org/neps/nep-0019-rng-policy.html), so this module states them
without numpy:

* ``SeedSequence``: each seed word is hashed into a pool of four 32-bit words,
  the pool words are mixed with each other, and ``generate_state`` hashes the
  pool, cycled, into as many 32-bit words as asked for;
* PCG64: a 128-bit linear congruential generator whose output is XSL-RR, the
  xor of the state's two halves rotated right by its top six bits (O'Neill,
  "PCG: A Family of Simple Fast Space-Efficient Statistically Good Algorithms
  for Random Number Generation", 2014, https://www.pcg-random.org/paper.html);
* a double in [0, 1): the top 53 bits of the next 64-bit output, times 2**-53.
"""

from itertools import cycle, islice

MASK32 = 2**32 - 1
MASK64 = 2**64 - 1
MASK128 = 2**128 - 1

# SeedSequence's hash and mix constants, and its pool size in 32-bit words.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4

PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def words32(n):
    """The non-negative integer ``n`` as 32-bit words, least significant first;
    0 is one word."""
    words = [n & MASK32]
    while n := n >> 32:
        words.append(n & MASK32)
    return words


class SeedSequence:
    """numpy's ``SeedSequence(entropy)`` for a list of non-negative integers, with no
    spawn key."""

    def __init__(self, entropy):
        words = [w for n in entropy for w in words32(n)]
        hash_const = INIT_A

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * MULT_A & MASK32
            value = value * hash_const & MASK32
            return value ^ value >> 16

        def mix(x, y):
            result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
            return result ^ result >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
        for src in range(POOL_SIZE):
            for dst in range(POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[POOL_SIZE:]:
            for dst in range(POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        self.pool = pool

    def generate_state(self, n_words):
        """``n_words`` 32-bit words of seed state."""
        hash_const, state = INIT_B, []
        for value in islice(cycle(self.pool), n_words):
            value ^= hash_const
            hash_const = hash_const * MULT_B & MASK32
            value = value * hash_const & MASK32
            state.append(value ^ value >> 16)
        return state

    def generate_state64(self, n_words):
        """``n_words`` 64-bit words, each two 32-bit words, the low one first."""
        state = self.generate_state(2 * n_words)
        return [low | high << 32 for low, high in zip(state[::2], state[1::2])]


class PCG64:
    """numpy's ``PCG64(seed_sequence)``: a 128-bit LCG with the XSL-RR output."""

    def __init__(self, seed_sequence):
        s_high, s_low, i_high, i_low = seed_sequence.generate_state64(4)
        self.inc = ((i_high << 64 | i_low) << 1 | 1) & MASK128
        self.state = 0
        self.step()
        self.state = (self.state + (s_high << 64 | s_low)) & MASK128
        self.step()

    def step(self):
        self.state = (self.state * PCG_MULTIPLIER + self.inc) & MASK128

    def next64(self):
        """Step, then the XSL-RR output of the new state."""
        self.step()
        rot = self.state >> 122
        x = (self.state >> 64 ^ self.state) & MASK64
        return (x >> rot | x << (64 - rot)) & MASK64

    def random(self):
        """The next double in [0, 1), as ``Generator.random`` draws it."""
        return (self.next64() >> 11) * 2.0**-53


def stream(seed, stream_id):
    """The spec of ``RngStream(seed, stream_id)``."""
    return PCG64(SeedSequence([seed, stream_id]))
