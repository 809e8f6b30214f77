"""Deterministic random-number management.

The simulator, the workflow generators, the RL policies and the simulated
cloud each need their own independent random stream: consuming randomness
in one component must not perturb another (otherwise adding, say, a
fluctuation model would silently change which VM an ε-greedy policy
explores).  :class:`RngService` hands out named child streams derived from
one root seed via SeedSequence spawning, which is the numpy-recommended
way to create statistically independent generators.
"""

from __future__ import annotations

import hashlib
from operator import length_hint
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.util.validate import ValidationError

__all__ = ["BlockDraws", "RngService", "derive_seed"]

_U32 = 1 << 32
_LOW32 = _U32 - 1
#: numpy's ``next_double`` scale: a 53-bit integer times 2**-53
_DOUBLE_UNIT = 2.0 ** -53


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 63-bit child seed from ``root_seed`` and a label.

    Uses a hash rather than sequential offsets so that the mapping from
    label to stream is insensitive to the order in which streams are
    requested.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << 63) - 1)


class RngService:
    """A registry of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed.  Two services built with the same seed produce identical
        streams for identical stream names, regardless of request order.

    Examples
    --------
    >>> rng = RngService(seed=42)
    >>> a = rng.stream("policy").random()
    >>> b = RngService(seed=42).stream("policy").random()
    >>> a == b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this service was constructed with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if not name:
            raise ValueError("stream name must be a non-empty string")
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self._seed, name))
            self._streams[name] = gen
        return gen

    def child(self, name: str) -> "RngService":
        """Return an independent child service (e.g. one per episode)."""
        return RngService(derive_seed(self._seed, f"child:{name}"))

    def spawn_seed(self, name: str) -> int:
        """Return a derived integer seed without creating a stream."""
        return derive_seed(self._seed, name)

    def reset(self, name: Optional[str] = None) -> None:
        """Re-seed one stream (or all streams when ``name`` is None)."""
        if name is None:
            self._streams.clear()
        else:
            self._streams.pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngService(seed={self._seed}, streams={sorted(self._streams)})"


class BlockDraws:
    """Scalar ``random()`` / ``integers(n)`` of a PCG64 generator, block-fed.

    A bit-exact replica of numpy's scalar ``Generator.random()`` and
    ``Generator.integers(n)`` for ``1 <= n <= 2**32`` that reads the raw
    64-bit words from blocks prefetched with ``random_raw``, so a draw
    costs a few Python operations instead of a numpy call.  Drawing
    through the replica returns exactly the values per-call numpy draws
    would, in the same order; :meth:`sync` then leaves ``gen`` exactly
    where those draws would have left it, the unused prefetch included.
    Until :meth:`sync`, ``gen`` itself stands ahead of the replica and
    must not be drawn from directly.

    Parameters
    ----------
    gen:
        The generator to draw from; its bit generator must be
        :class:`numpy.random.PCG64` (every :class:`RngService` stream is).
    """

    __slots__ = ("_bg", "_start", "_words", "_fetched", "_has32", "_u32")

    #: raw words per prefetch
    _BLOCK = 1024

    def __init__(self, gen: np.random.Generator) -> None:
        bg = gen.bit_generator
        if not isinstance(bg, np.random.PCG64):
            raise ValidationError(
                f"BlockDraws replicates PCG64 only, got {type(bg).__name__}"
            )
        self._bg = bg
        #: the generator's state when the unsynced draws began
        self._start = bg.state
        self._words: Iterator[int] = iter(())
        #: raw words prefetched since ``_start``
        self._fetched = 0
        # numpy's buffered upper half word (``has_uint32``/``uinteger``)
        self._has32 = bool(self._start["has_uint32"])
        self._u32 = int(self._start["uinteger"])

    def _refill(self) -> int:
        """Prefetch the next block; return its first word."""
        words: List[int] = self._bg.random_raw(self._BLOCK).tolist()
        self._fetched += len(words)
        self._words = it = iter(words)
        return next(it)

    def _uint32(self) -> int:
        """numpy's ``next_uint32``: a fresh word's low half, high half kept."""
        if self._has32:
            self._has32 = False
            return self._u32
        w = next(self._words, None)
        if w is None:
            w = self._refill()
        self._has32 = True
        self._u32 = w >> 32
        return w & _LOW32

    def random(self) -> float:
        """``Generator.random()``: a float in [0, 1) from one word."""
        w = next(self._words, None)
        if w is None:
            w = self._refill()
        return (w >> 11) * _DOUBLE_UNIT

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: uniform on ``range(n)``, ``1 <= n <= 2**32``.

        numpy's 32-bit Lemire method with rejection; ``n == 1`` draws
        nothing and ``n == 2**32`` is one raw 32-bit draw.
        """
        if 1 < n < _U32:
            m = self._uint32() * n
            if m & _LOW32 < n:
                threshold = (_U32 - n) % n
                while m & _LOW32 < threshold:
                    m = self._uint32() * n
            return m >> 32
        if n == 1:
            return 0
        if n == _U32:
            return self._uint32()
        raise ValidationError(f"integers(n) needs 1 <= n <= 2**32, got {n}")

    def sync(self) -> None:
        """Leave the generator where per-call draws would have left it.

        Rewinds it to the state the unsynced draws began from, advances
        it by the words they consumed and writes back the buffered half
        word.  The replica then carries on from that state.
        """
        consumed = self._fetched - length_hint(self._words)
        bg = self._bg
        bg.state = self._start
        bg.advance(consumed)
        state = bg.state
        state["has_uint32"] = int(self._has32)
        state["uinteger"] = self._u32
        bg.state = state
        self._start = state
        self._words = iter(())
        self._fetched = 0
