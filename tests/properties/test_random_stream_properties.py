"""Block-drawn streams equal scalar numpy calls (hypothesis).

:class:`repro.sim.random_streams.RandomStream` draws its primitives in
blocks and rewinds when a stream switches primitive.  Whatever the call
sequence, every variate and the ``draws`` count must equal those of the
same scalar calls on a plain ``numpy.random.Generator`` with the same
seed.  Runs of up to three blocks per call kind make the sequences
cross block boundaries and switch primitive mid-block.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random_streams import BLOCK_SIZE, RandomStream

finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-3, 1e3, allow_nan=False)

calls = st.one_of(
    st.tuples(st.just("exponential"), positive),
    st.tuples(st.just("uniform"), finite, finite).map(
        lambda c: (c[0], min(c[1:]), max(c[1:]))
    ),
    st.tuples(st.just("choice"), st.integers(1, 9)),
    st.tuples(
        st.just("weighted_choice"),
        st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=6)
        .filter(lambda w: sum(w) > 0),
    ),
    st.tuples(st.just("integer"), st.integers(-50, 50), st.integers(0, 2**40)),
    st.tuples(st.just("shuffle"), st.integers(0, 8)),
    st.tuples(st.just("poisson"), st.floats(0.0, 50.0, allow_nan=False)),
)
runs = st.lists(
    st.tuples(calls, st.integers(1, 3 * BLOCK_SIZE)), min_size=1, max_size=8
)


def stream_call(stream, call):
    kind, *args = call
    if kind == "choice":
        return stream.choice(list(range(args[0])))
    if kind == "weighted_choice":
        return stream.weighted_choice(list(range(len(args[0]))), args[0])
    if kind == "integer":
        low, width = args
        return stream.integer(low, low + width)
    if kind == "shuffle":
        items = list(range(args[0]))
        stream.shuffle(items)
        return items
    return getattr(stream, kind)(*args)


def scalar_call(generator, call):
    """The same variate from one scalar numpy call."""
    kind, *args = call
    if kind == "exponential":
        return float(generator.exponential(args[0]))
    if kind == "uniform":
        return float(generator.uniform(args[0], args[1]))
    if kind == "choice":
        return int(generator.integers(0, args[0]))
    if kind == "weighted_choice":
        weights = args[0]
        point = generator.uniform(0.0, sum(weights))
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight
            if point < acc:
                return index
        return len(weights) - 1
    if kind == "integer":
        low, width = args
        return int(generator.integers(low, low + width + 1))
    if kind == "shuffle":
        items = list(range(args[0]))
        generator.shuffle(items)
        return items
    return int(generator.poisson(args[0]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sequence=runs)
def test_block_draws_equal_scalar_calls(seed, sequence):
    stream = RandomStream(np.random.SeedSequence(seed))
    generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    made = 0
    for call, repeat in sequence:
        for _ in range(repeat):
            assert stream_call(stream, call) == scalar_call(generator, call)
        made += repeat
        assert stream.draws == made
    # A last unbuffered draw checks that the rewound state is exact.
    assert stream.poisson(3.0) == int(generator.poisson(3.0))
