"""Seeded randomness helpers shared by the randomized structures.

All randomized structures in this library accept either an integer seed or a
ready-made :class:`random.Random` instance.  Centralising the coercion here
keeps constructors short and guarantees the library never touches the global
``random`` module state, which matters both for reproducible experiments and
for the history-independence audits (which need many *independent* samples of
a structure's memory representation).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Union

RandomLike = Union[int, random.Random, None]


def make_rng(seed: RandomLike = None) -> random.Random:
    """Return a private ``random.Random`` instance.

    ``seed`` may be ``None`` (fresh OS entropy), an ``int`` (deterministic
    stream), or an existing ``random.Random`` (used as-is, shared with the
    caller).
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def spawn_rng(rng: random.Random) -> random.Random:
    """Derive an independent child generator from ``rng``.

    The child is seeded from the parent's stream, so a structure that owns
    several internal random consumers can give each a private generator while
    staying reproducible from a single top-level seed.
    """
    return random.Random(rng.getrandbits(64))


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)`` (``n >= 1``), taken from
    ``getrandbits`` (a generator's bound ``getrandbits``) exactly as
    ``random.Random`` takes it.

    ``Random.randint(a, b)`` is ``a + _randbelow(b - a + 1)`` and
    ``Random.choice(seq)`` is ``seq[_randbelow(len(seq))]``; on CPython
    3.11 and 3.12 ``_randbelow`` draws ``n.bit_length()`` bits and draws
    again while the result is ``n`` or more.  Taking the same bits here
    returns the same number and leaves the generator in the same state,
    without the argument checks of ``randrange`` (about a third of
    ``randint``'s cost).  The WHI size rule
    (:class:`~repro.core.sizing.WHICapacityRule`) and the skip list's run
    kernel take every uniform choice through it.  ``tests/test_rng.py``
    pins it, draw for draw and state for state, to ``randint`` and
    ``choice`` on a twin ``random.Random``.
    """
    bits = n.bit_length()
    drawn = getrandbits(bits)
    while drawn >= n:
        drawn = getrandbits(bits)
    return drawn


def geometric_level(rng: random.Random, promote_probability: float,
                    max_level: Optional[int] = None) -> int:
    """Sample the level of a skip-list element.

    Returns the number of consecutive successful promotions (heads) before the
    first failure when flipping a coin with success probability
    ``promote_probability``: one ``rng.random()`` per flip, heads when it
    falls below the probability.  Level 0 means the element lives only in
    the base list.  ``max_level`` optionally caps the result (useful to bound
    memory in adversarially unlucky runs); the flip that reaches it is the
    last one drawn.  The skip list's run kernel flips the same coins inline;
    ``tests/test_rng.py`` pins this loop to that definition.
    """
    if not 0.0 < promote_probability < 1.0:
        raise ValueError("promote_probability must be in (0, 1), got %r"
                         % (promote_probability,))
    flip = rng.random
    level = 0
    while flip() < promote_probability:
        level += 1
        if max_level is not None and level >= max_level:
            return max_level
    return level
