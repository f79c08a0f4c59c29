"""Named, reproducible random substreams derived from one master seed.

Every source of randomness in a run pulls from its own named stream
(e.g. ``"layout"``, ``"perception.2"``).  Streams are derived by hashing
``"{master_seed}:{name}"``, so adding or removing one consumer never
perturbs the draws seen by any other.

A stream is a ``random.Random`` seeded with that integer, and every draw
is built on its ``random()`` alone: Python keeps that sequence stable for
an integer seed across versions and platforms, while it makes no such
promise for ``gauss`` or ``normalvariate``.  Normals come from the polar
method (Marsaglia and Bray 1964), which yields them in pairs; the second
of a pair is kept for the next call.  Poisson counts come from Knuth's
multiplication method (TAOCP vol. 2, 3.4.1), exact and free of underflow
for the rates the scenario parser admits (at most
``scenario.MAX_FALSE_ALARM_RATE``).
"""

import hashlib
import math
import random
from typing import Optional


def derive_seed(master_seed: int, name: str) -> int:
    """Deterministic 64-bit child seed for a named substream."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class Stream(random.Random):
    """One substream: uniforms, standard normals and Poisson counts.

    The cached second normal of a polar pair is part of the stream's
    state, so ``getstate`` returns it beside ``random.Random``'s own.
    """

    _spare: Optional[float] = None

    def seed(self, *args, **kwargs) -> None:
        super().seed(*args, **kwargs)
        self._spare = None

    def getstate(self) -> tuple:
        return super().getstate(), self._spare

    def setstate(self, state: tuple) -> None:
        inner, spare = state
        super().setstate(inner)
        self._spare = spare

    def standard_normal(self) -> float:
        """One N(0, 1) draw; each polar pair serves two calls."""
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        uniform = self.random
        while True:
            u = 2.0 * uniform() - 1.0
            v = 2.0 * uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        f = math.sqrt(-2.0 * math.log(s) / s)
        self._spare = v * f
        return u * f

    def poisson(self, lam: float) -> int:
        """One Poisson(``lam``) count: uniforms are multiplied until the
        product falls to ``exp(-lam)`` or below."""
        limit = math.exp(-lam)
        uniform = self.random
        k = 0
        p = uniform()
        while p > limit:
            k += 1
            p *= uniform()
        return k


def substream(master_seed: int, name: str) -> Stream:
    """Independent stream for the named substream of ``master_seed``."""
    return Stream(derive_seed(master_seed, name))
