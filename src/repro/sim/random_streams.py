"""Reproducible named random streams.

CSIM gives each stochastic component its own random stream so that
changing one part of a model does not perturb the variate sequences of
the others (common random numbers).  We reproduce this with numpy's
``SeedSequence`` spawning: a :class:`StreamFactory` holds a root seed
and derives an independent, deterministic child stream for every
*name*, so the arrival process, the lifetime sampler, the source
chooser and each AC-router's selection dice all have their own streams.

Identical ``(root_seed, name)`` pairs always produce identical variate
sequences, which makes whole experiments bit-for-bit reproducible.

Streams draw in blocks.  A numpy scalar call costs about a hundred
times more than one value of a block, so each stream draws
:data:`BLOCK_SIZE` primitives at a time (standard uniforms, standard
exponentials, or integers below one bound) and builds every variate
from the next one with numpy's own arithmetic (``low + (high - low) *
u``, ``mean * e``).  Every variate is therefore bit-identical to the
matching scalar ``numpy.random.Generator`` call.  A block is filled at
the first draw, not when the stream is created.  When a stream switches
primitive (or integer bound), or makes an unbuffered draw
(:meth:`RandomStream.shuffle`, :meth:`RandomStream.poisson`), it
restores the bit-generator state saved at the last refill and redraws
exactly the primitives already used, so any interleaving of calls stays
exact.  One purpose per named stream remains the rule: it keeps streams
independent, and it keeps them on the fast path, because mixing
primitives pays a rewind at every switch.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Any, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

T = TypeVar("T")

#: Primitives drawn per refill of a stream's block.  Small, so that a
#: stream holds at most a few kilobytes of buffered values.
BLOCK_SIZE = 128

# Block kinds.  A block of bounded integers is keyed by its bound
# ``k >= 1`` (values in ``[0, k)``), so the two float kinds are negative.
_UNIFORM = -1
_EXPONENTIAL = -2
_EMPTY = 0


def _name_to_entropy(name: str) -> int:
    """Hash a stream name to a stable 128-bit integer."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def _bounds_error(low: float, high: float) -> str:
    """Why ``[low, high)`` is no valid uniform range."""
    for name, bound in (("low", low), ("high", high)):
        if not math.isfinite(bound):
            return f"uniform bound {name}={bound} is not finite"
    if high < low:
        return f"need low <= high, got [{low}, {high})"
    return f"uniform range [{low}, {high}) overflows a float"


def _weights_error(weights: Sequence[float], total: float) -> str:
    """Why non-negative ``weights`` summing to ``total`` are no valid weights."""
    for weight in weights:
        if not math.isfinite(weight):
            return f"weight {weight} is not finite"
    if total <= 0:
        return "weights must not all be zero"
    return "weights sum overflows a float"


class RandomStream:
    """A single named random stream with distribution helpers.

    Thin wrapper over :class:`numpy.random.Generator` exposing exactly
    the variates the anycast model needs, with validation.  Values are
    drawn in blocks (see the module docstring); ``draws`` counts the
    variates handed out, not the blocks.
    """

    def __init__(
        self, seed_sequence: np.random.SeedSequence, name: str = ""
    ) -> None:
        self.name = name
        self._generator = np.random.Generator(np.random.PCG64(seed_sequence))
        self.draws = 0
        self._kind = _EMPTY
        self._block: list[Any] = []
        self._used = 0
        self._state: dict[str, Any] = {}

    def _draw_block(self, kind: int, count: int) -> NDArray[Any]:
        """``count`` primitives of ``kind``, as the scalar calls draw them."""
        generator = self._generator
        if kind == _UNIFORM:
            return generator.random(count)
        if kind == _EXPONENTIAL:
            return generator.standard_exponential(count)
        return generator.integers(0, kind, size=count)

    def _sync(self) -> None:
        """Leave the generator where scalar draws would have left it.

        Rewinds to the state saved at the last refill and redraws the
        primitives of the block already handed out; the rest of the
        block is dropped.
        """
        used = self._used
        if used < len(self._block):
            self._generator.bit_generator.state = self._state
            if used:
                self._draw_block(self._kind, used)
        self._kind = _EMPTY
        self._block = []
        self._used = 0

    def _next(self, kind: int) -> Any:
        """The next primitive of ``kind``, refilling the block if needed."""
        used = self._used
        block = self._block
        if kind != self._kind or used == len(block):
            self._sync()
            self._state = self._generator.bit_generator.state
            block = self._draw_block(kind, BLOCK_SIZE).tolist()
            self._block = block
            self._kind = kind
            used = 0
        self._used = used + 1
        return block[used]

    def exponential(self, mean: float) -> float:
        """Sample an exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        self.draws += 1
        e: float = self._next(_EXPONENTIAL)
        return mean * e

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Sample uniformly from ``[low, high)``; both bounds finite."""
        span = high - low
        if not 0.0 <= span < math.inf:  # NaN fails both comparisons
            raise ValueError(_bounds_error(low, high))
        self.draws += 1
        u: float = self._next(_UNIFORM)
        return low + span * u

    def integer(self, low: int, high: int) -> int:
        """Sample an integer uniformly from ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"need low <= high, got [{low}, {high}]")
        self.draws += 1
        k: int = self._next(high - low + 1)
        return low + k

    def choice(self, items: Sequence[T]) -> T:
        """Pick one item uniformly."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        self.draws += 1
        k: int = self._next(len(items))
        return items[k]

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one item with probability proportional to its weight.

        Weights must be finite and non-negative with a positive, finite
        sum; they are normalized internally, so callers may pass
        unnormalized values.
        """
        if len(items) != len(weights):
            raise ValueError(
                f"{len(items)} items but {len(weights)} weights"
            )
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        total = 0.0
        for weight in weights:
            if weight < 0:
                raise ValueError(f"negative weight {weight}")
            total += weight
        if not 0.0 < total < math.inf:  # also where NaN and inf weights go
            raise ValueError(_weights_error(weights, total))
        self.draws += 1
        u: float = self._next(_UNIFORM)
        point = total * u
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if point < acc:
                return item
        return items[-1]  # guard against floating-point edge at total

    def shuffle(self, items: "list[Any]") -> None:
        """Shuffle ``items`` in place (unbuffered)."""
        self._sync()
        self.draws += 1
        self._generator.shuffle(items)

    def poisson(self, mean: float) -> int:
        """Sample a Poisson count with the given mean (unbuffered)."""
        if mean < 0:
            raise ValueError(f"poisson mean must be non-negative, got {mean}")
        self._sync()
        self.draws += 1
        return int(self._generator.poisson(mean))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStream({self.name!r}, draws={self.draws})"


class StreamFactory:
    """Derives independent named :class:`RandomStream` objects.

    Parameters
    ----------
    root_seed:
        Experiment-level seed.  Every stream name deterministically
        maps to its own child seed, so two factories with the same root
        seed hand out identical streams for identical names.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._issued: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* stream
        object (its internal state advances as it is used).
        """
        existing = self._issued.get(name)
        if existing is not None:
            return existing
        seed_sequence = np.random.SeedSequence(
            entropy=self.root_seed, spawn_key=(_name_to_entropy(name),)
        )
        stream = RandomStream(seed_sequence, name=name)
        self._issued[name] = stream
        return stream

    def fresh(self, name: str, replication: int = 0) -> RandomStream:
        """Return a *new* stream for (name, replication).

        Unlike :meth:`stream`, this always constructs a fresh stream;
        useful for independent replications of the same experiment.
        """
        seed_sequence = np.random.SeedSequence(
            entropy=self.root_seed,
            spawn_key=(_name_to_entropy(name), int(replication)),
        )
        return RandomStream(seed_sequence, name=f"{name}#{replication}")

    def issued_names(self) -> list[str]:
        """Names of all streams created so far, in creation order."""
        return list(self._issued)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamFactory(seed={self.root_seed}, streams={len(self._issued)})"
