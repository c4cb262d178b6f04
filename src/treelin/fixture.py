"""The ``fixture`` command: a reproducible random problem document.

The coefficients are numpy's ``default_rng(seed).uniform`` draws, double for
double, from :class:`Uniform`, a Python copy of that stream: numpy's
``SeedSequence`` seeding, its PCG64 (XSL-RR 128/64) generator and its
53-bit doubles.  The document is plain data, laid out as
:func:`documents.problem_to_doc` lays out a problem, so a ``fixture``
process loads no numpy at all.  Only ``fixture`` runs this module.
"""

from __future__ import annotations

import math

from .canonical import write
from .indices import iter_indices
from .output import send

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4


def _seed_state(seed: int) -> list:
    """``numpy.random.SeedSequence(seed).generate_state(4, numpy.uint64)``, as ints."""
    entropy = [seed & _MASK32]  # little-endian 32-bit words, one at least
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Uniform:
    """The doubles of ``numpy.random.default_rng(seed).uniform``, bit for bit."""

    __slots__ = ("_state", "_increment")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self._increment = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + (s0 << 64 | s1)) & _MASK128
        self._step()

    def _step(self):
        self._state = (self._state * _PCG_MULTIPLIER + self._increment) & _MASK128

    def uniform(self, low: float, high: float) -> float:
        """The next draw: step, take XSL-RR of the new state, keep its top 53 bits."""
        self._step()
        state = self._state
        word = (state >> 64 ^ state) & _MASK64
        turn = state >> 122
        word = (word >> turn | word << (64 - turn)) & _MASK64
        return low + (high - low) * ((word >> 11) * 2.0**-53)


def cmd_fixture(args) -> int:
    rng = Uniform(args.seed)
    n, D = args.n, args.trunc
    terms = []
    # iter_indices is graded, so the terms come in canonical order, and those
    # above --trunc, which a series would drop, are not drawn at all; every
    # modulus is at least 0.05, so no term is zero
    for alpha in iter_indices(n, min(args.degree_f, D), 2):
        polar = [(rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(n)]
        terms.append({"alpha": list(alpha),
                      "value": [[r * math.cos(phi), r * math.sin(phi)] for r, phi in polar]})
    if args.kind == "germ":
        spectrum = {"rotation": [_GOLDEN, _SILVER, 1.0 / math.e][:n]}
    else:
        omega = (1.0,) if n == 1 else (-1.0, _GOLDEN, _SILVER)[:n]
        spectrum = {"omega": [[w, 0.0] for w in omega]}
    doc = {"kind": args.kind, "n": n, "D": D, "spectrum": spectrum,
           "series": {"n": n, "D": D, "kind": "vector", "terms": terms},
           "options": {"seed": args.seed}}
    send(lambda out: write(doc, out), args.out)
    return 0
