"""``repro.util.rng.BlockDraws`` against numpy's own scalar draws.

The fused lane draws every ε, explore and tie index through the
replica, so the lane is bit-identical to the object path only if each
replica call returns exactly what the same numpy call would, and if
``sync()`` leaves the generator exactly where those numpy calls would.
Each case drives a replica over one ``default_rng(seed)`` and a twin
generator with numpy's ``random()`` / ``integers(n)``, and demands equal
values, equal bit-generator states after ``sync()``, and agreeing draws
afterwards.

The bounds cover every branch of numpy's int64 scalar path: ``n == 1``
draws nothing, ``2**32`` is one raw 32-bit draw, and the rest run
32-bit Lemire with rejection (``2**31 + 1`` rejects about half its
draws).  A leading ``integers`` call on both sides leaves a buffered
upper half word in the state, which the replica must pick up.  The
block size is a class constant; a subclass per case varies it from 1 to
1,024 so the draws cross block boundaries at every offset.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import BlockDraws
from repro.util.validate import ValidationError

BOUNDS = [1, 2, 3, 20, 750, 2**31 + 1, 2**32 - 1, 2**32]

calls = st.lists(
    st.one_of(st.none(), st.sampled_from(BOUNDS)), max_size=600
)


def _replica(gen, block):
    """A replica over ``gen`` that prefetches ``block`` raw words at a time."""

    class Sized(BlockDraws):
        __slots__ = ()
        _BLOCK = block

    return Sized(gen)


def _draw(target, n):
    """One call on ``target``: ``random()`` when ``n`` is None."""
    return target.random() if n is None else target.integers(n)


def _twin_pair(seed, half_word):
    gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_word:
        assert gen.integers(20) == twin.integers(20)
        assert gen.bit_generator.state["has_uint32"] == 1
    return gen, twin


def _assert_in_step(gen, twin):
    assert gen.bit_generator.state == twin.bit_generator.state
    for n in (None, 750, None, 2**32, 3):
        assert _draw(gen, n) == _draw(twin, n)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    block=st.integers(1, 1024),
    half_word=st.booleans(),
    sequence=calls,
)
def test_interleaved_draws_match_numpy(seed, block, half_word, sequence):
    gen, twin = _twin_pair(seed, half_word)
    draws = _replica(gen, block)
    for n in sequence:
        got = _draw(draws, n)
        want = _draw(twin, n)
        assert got == want
        assert type(got) is (float if n is None else int)
    draws.sync()
    _assert_in_step(gen, twin)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    block=st.integers(1, 1024),
    half_word=st.booleans(),
    first=calls,
    second=calls,
)
def test_draws_carry_on_after_sync(seed, block, half_word, first, second):
    gen, twin = _twin_pair(seed, half_word)
    draws = _replica(gen, block)
    for sequence in (first, second):
        for n in sequence:
            assert _draw(draws, n) == _draw(twin, n)
        draws.sync()
        assert gen.bit_generator.state == twin.bit_generator.state
    _assert_in_step(gen, twin)


@pytest.mark.parametrize("n, count", [(2**31 + 1, 2000), (2**32, 50)])
def test_wide_bounds(n, count):
    gen, twin = _twin_pair(17, half_word=False)
    draws = _replica(gen, 7)
    assert [draws.integers(n) for _ in range(count)] == [
        int(twin.integers(n)) for _ in range(count)
    ]
    draws.sync()
    _assert_in_step(gen, twin)


def test_sync_gives_back_the_unused_prefetch():
    gen, twin = _twin_pair(3, half_word=True)
    draws = _replica(gen, 16)
    draws.random()  # prefetches 16 words from the generator
    assert gen.bit_generator.state != twin.bit_generator.state
    twin.random()
    draws.sync()
    draws.sync()  # a second sync with no draws in between is a no-op
    _assert_in_step(gen, twin)


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_out_of_range_bound_raises(n):
    with pytest.raises(ValidationError, match="1 <= n <= 2"):
        BlockDraws(np.random.default_rng(0)).integers(n)


def test_other_bit_generators_raise():
    with pytest.raises(ValidationError, match="PCG64 only, got MT19937"):
        BlockDraws(np.random.Generator(np.random.MT19937(0)))
