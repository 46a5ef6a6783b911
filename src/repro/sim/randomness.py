"""Seeded random-number streams for reproducible simulations.

Every stochastic component (arrival process, service-time sampler, RSS
hash, work-stealing victim choice, ...) draws from its own named stream so
that changing one component's consumption pattern does not perturb the
others.  Streams are derived from a single root seed with
``numpy.random.SeedSequence.spawn``-style child seeding, giving
statistically independent streams.

:class:`RawSampler` serves numpy's bounded-integer and
sampling-without-replacement draws in pure Python from blocks of a
stream's raw PCG64 output, for per-request call sites where one numpy
call costs more than the decision it feeds.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

#: Raw 64-bit PCG64 outputs a :class:`RawSampler` fetches per refill.
RAW_BLOCK_SIZE = 4096

#: numpy's ``choice(n, k, replace=False)`` runs Floyd's algorithm, which
#: :meth:`RawSampler.sample` reproduces, when ``n <= FLOYD_MAX_POPULATION``
#: or ``k <= n // FLOYD_CUTOFF``; otherwise it tail-shuffles ``arange(n)``.
FLOYD_MAX_POPULATION = 10_000
FLOYD_CUTOFF = 50

_MASK32 = 0xFFFFFFFF


class RngRegistry:
    """A registry of independent, named random streams.

    Example
    -------
    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("arrivals")
    >>> b = rngs.stream("service")
    >>> a is rngs.stream("arrivals")
    True
    >>> a is not b
    True
    """

    def __init__(self, seed: Optional[int] = None):
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self.seed = seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The stream for a given (root seed, name) pair is always the same,
        independent of creation order, because child seeds are derived by
        hashing the name into the entropy pool.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed deterministically from the stream name so
            # that registration order does not matter.
            name_entropy = [ord(c) for c in name]
            child = np.random.SeedSequence(
                entropy=self._root.entropy if self._root.entropy is not None else 0,
                spawn_key=tuple(name_entropy),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def fork(self, salt: int) -> "RngRegistry":
        """Return a registry with a seed derived from this one and ``salt``.

        Useful for running statistically independent replications of the
        same experiment.
        """
        base = self.seed if self.seed is not None else 0
        return RngRegistry(seed=(base * 1_000_003 + salt) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"


class RawSampler:
    """numpy's integer draws, bit for bit, from blocks of raw PCG64 output.

    ``Generator.integers`` and ``Generator.choice(replace=False)`` cost
    microseconds per call in fixed overhead.  This class reproduces the
    values they return for the draws the rack makes, in pure Python:

    * the 32-bit stream is PCG64's ``next_uint32``: the low half of a
      raw 64-bit output first, then its buffered high half.  A half the
      generator had already buffered (``has_uint32`` in its state) is
      served first;
    * :meth:`bounded` is numpy's Lemire rejection method, so
      ``bounded(n - 1)`` equals ``integers(0, n)`` for ``n <= 2**32``;
    * :meth:`sample` is the Floyd's-algorithm-plus-shuffle path of
      ``choice(n, k, replace=False)``, which numpy takes for
      ``n <= 10,000`` and for ``k <= n // 50``.

    Raw outputs are fetched ``block`` at a time with ``random_raw``, so
    the sampler owns its generator: anything else drawing from the same
    stream would see values the sampler has already read (or will read).
    :meth:`state` reports the state numpy's own calls would have left.
    """

    __slots__ = ("_bitgen", "_block", "_words", "_left")

    def __init__(self, rng: np.random.Generator, block: int = RAW_BLOCK_SIZE):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise ConfigurationError(
                f"RawSampler reproduces PCG64 streams only, got {type(bitgen).__name__}"
            )
        if block < 1:
            raise ConfigurationError(f"block must be >= 1, got {block}")
        self._bitgen = bitgen
        self._block = block
        state = bitgen.state
        #: 32-bit words of the current block; the last ``_left`` of them
        #: are unread, and the next one is ``_words[-_left]``.
        self._words: List[int] = [state["uinteger"]] if state["has_uint32"] else []
        self._left = len(self._words)

    def _refill(self) -> int:
        """Fetch the next block and return its first 32-bit word."""
        raw = self._bitgen.random_raw(self._block)
        halves = np.empty((len(raw), 2), dtype=np.uint64)
        halves[:, 0] = raw & _MASK32
        halves[:, 1] = raw >> 32
        words = self._words = halves.ravel().tolist()
        self._left = len(words) - 1
        return words[0]

    def _next_uint32(self) -> int:
        """PCG64's next 32-bit output."""
        left = self._left
        if left:
            self._left = left - 1
            return self._words[-left]
        return self._refill()

    def bounded(self, r: int) -> int:
        """Uniform on ``[0, r]`` for ``0 <= r < 2**32``, as numpy draws
        it: ``bounded(n - 1) == integers(0, n)``.  ``r == 0`` returns 0
        and draws nothing."""
        return self._bounded_each((r,))[0]

    def _bounded_each(self, bounds: Iterable[int]) -> List[int]:
        """``[bounded(r) for r in bounds]``: numpy's Lemire method on
        ``next_uint32``, with the block read inline."""
        words = self._words
        left = self._left
        out: List[int] = []
        for r in bounds:
            if not r:
                out.append(0)
                continue
            span = r + 1
            if left:
                m = words[-left] * span
                left -= 1
            else:
                m = self._refill() * span
                words = self._words
                left = self._left
            if m & _MASK32 < span:
                # Rejection zone (probability below span / 2**32).
                self._left = left
                threshold = (_MASK32 - r) % span
                while m & _MASK32 < threshold:
                    m = self._next_uint32() * span
                words = self._words
                left = self._left
            out.append(m >> 32)
        self._left = left
        return out

    def sample(self, n: int, k: int) -> List[int]:
        """``choice(n, k, replace=False)`` as a list, for ``n >= 1``,
        ``0 <= k <= n``, and ``n <= 10,000`` or ``k <= n // 50``.

        Floyd's algorithm then a shuffle of the ``k`` picks; neither
        step's bounds depend on drawn values, so every draw is taken up
        front."""
        if not 0 <= k <= n or n < 1 or (
            n > FLOYD_MAX_POPULATION and k > n // FLOYD_CUTOFF
        ):
            raise ConfigurationError(
                f"sample(n={n}, k={k}) is not numpy's Floyd path: it needs "
                f"0 <= k <= n, n >= 1, and n <= {FLOYD_MAX_POPULATION} or "
                f"k <= n // {FLOYD_CUTOFF}"
            )
        floyd = range(n - k, n)
        swaps = range(k - 1, 0, -1)
        draws = self._bounded_each(chain(floyd, swaps))
        out: List[int] = []
        taken = set()
        for j, value in zip(floyd, draws):
            if value in taken:
                value = j
            taken.add(value)
            out.append(value)
        for i, j in zip(swaps, draws[k:]):
            out[i], out[j] = out[j], out[i]
        return out

    def pair(self, n: int) -> Tuple[int, int]:
        """``tuple(sample(n, 2))`` for ``n >= 2``: the same three draws,
        without :meth:`sample`'s set and index list."""
        first, second, keep = self._bounded_each((n - 2, n - 1, 1))
        if second == first:
            second = n - 1
        if keep:
            return first, second
        return second, first

    def state(self) -> dict:
        """The generator state numpy's own calls would have left: the
        raw stream rewound over unread block outputs, and the last high
        half drawn in ``uinteger`` (``has_uint32`` set while it is
        still unread)."""
        state = self._bitgen.state
        words = self._words
        left = self._left
        if left > 1:
            twin = np.random.PCG64()
            twin.state = state
            twin.advance(-(left // 2))
            state = twin.state
        state["has_uint32"] = left % 2
        if left % 2:
            state["uinteger"] = words[-left]
        elif len(words) > left:
            state["uinteger"] = words[-left - 1]
        return state
