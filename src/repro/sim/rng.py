"""Deterministic random-number streams for the simulator.

Every stochastic component (client think times, query argument selection,
page-access patterns, load noise) draws from its own named stream derived
from a single experiment seed.  This gives two properties the reproduction
relies on:

* bit-for-bit reproducibility of every figure and table, and
* independence between components — adding draws to one component does not
  perturb any other component's sequence.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

__all__ = ["SeedSequenceFactory", "RandomStream", "ZipfGenerator"]


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStream:
    """A named, independently seeded wrapper around ``numpy.random.Generator``."""

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.seed = _derive_seed(root_seed, name)
        self._rng = np.random.default_rng(self.seed)
        # choice()'s memo: the last weight vector seen (with the item
        # count) and its normalised CDF as a list.  One entry, so a mix
        # that changes mid-run needs no invalidation.
        self._cdf_key: tuple | None = None
        self._cdf: list[float] = []

    @property
    def generator(self) -> np.random.Generator:
        return self._rng

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive: {mean}")
        return float(self._rng.exponential(mean))

    def normal(self, mean: float, std: float) -> float:
        return float(self._rng.normal(mean, std))

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``."""
        return int(self._rng.integers(low, high))

    def integers_array(self, low: int, high: int, count: int) -> np.ndarray:
        """``count`` uniform integers in ``[low, high)`` as an int64 array.

        numpy's batched draw consumes the bit stream exactly as ``count``
        scalar :meth:`integers` calls would, so callers can vectorise the
        hot path without perturbing any seeded sequence.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        return self._rng.integers(low, high, size=count)

    def choice(self, items: Sequence, weights: Sequence[float] | None = None):
        """Pick one element, optionally with (unnormalised) weights.

        A weighted draw is ``Generator.choice(len(items), p=weights/sum)``
        index for index: numpy builds the same normalised CDF, draws one
        ``random()`` and bisects to the right.  The CDF is built once per
        weight vector, not once per draw.
        """
        if weights is None:
            return items[int(self._rng.integers(0, len(items)))]
        key = (len(items), tuple(weights))
        if key != self._cdf_key:
            self._cdf = _choice_cdf(len(items), weights)
            self._cdf_key = key
        return items[bisect_right(self._cdf, self._rng.random())]

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def __repr__(self) -> str:
        return f"RandomStream(name={self.name!r}, seed={self.seed})"


def _choice_cdf(count: int, weights: Sequence[float]) -> list[float]:
    """The CDF ``Generator.choice(count, p=weights/sum)`` draws against,
    after the checks it makes on ``p``, raising the same ``ValueError``s."""
    probs = np.asarray(weights, dtype=float)
    total = probs.sum()
    if total <= 0:
        raise ValueError("choice weights must have a positive sum")
    probs = probs / total
    if probs.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if probs.size != count:
        raise ValueError("a and p must have same size")
    if np.isnan(probs).any():
        raise ValueError("probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(math.fsum(probs) - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class SeedSequenceFactory:
    """Creates independent :class:`RandomStream` objects from one root seed."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = RandomStream(self.root_seed, name)
        return self._streams[name]

    def fork(self, name: str) -> "SeedSequenceFactory":
        """A child factory whose streams are independent of this factory's."""
        return SeedSequenceFactory(_derive_seed(self.root_seed, f"fork:{name}"))


class ZipfGenerator:
    """Zipf-distributed integers over ``[0, n)`` with exponent ``theta``.

    Used to model skewed page popularity: database working sets typically
    follow a Zipf-like law, which is what makes small buffer pools effective
    and gives miss-ratio curves their characteristic knee.

    The implementation precomputes the CDF and samples by inverse transform,
    so draws are O(log n) and the distribution is exact (unlike
    ``numpy.random.zipf``, which is unbounded).
    """

    def __init__(self, n: int, theta: float, stream: RandomStream) -> None:
        if n <= 0:
            raise ValueError(f"Zipf support size must be positive: {n}")
        if theta < 0:
            raise ValueError(f"Zipf exponent must be non-negative: {theta}")
        self.n = n
        self.theta = theta
        self._stream = stream
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** (-theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self) -> int:
        """Draw one rank in ``[0, n)``; rank 0 is the most popular."""
        # random() is the double uniform(0, 1) returns: 0 + 1 * random().
        return int(self._cdf.searchsorted(self._stream.generator.random()))

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` ranks as an int64 array."""
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        us = self._stream.generator.random(count)
        return self._cdf.searchsorted(us).astype(np.int64, copy=False)

    def probability(self, rank: int) -> float:
        """Exact probability mass of ``rank``."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} outside [0, {self.n})")
        lower = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lower)
