"""Property tests: the multi-target feasible-path BFS against the loop
of one bandwidth-filtered BFS per target that it replaced."""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import feasible_path
from repro.network.topologies import waxman_random


def reference_single(net, source, target, min_available_bps):
    """One bandwidth-filtered BFS to one target (the former search)."""
    if source == target:
        return [source]
    parents = {source: source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in sorted(net.neighbors(node), key=repr):
            if neighbor in parents:
                continue
            if net.link(node, neighbor).available_bps + 1e-9 < min_available_bps:
                continue
            parents[neighbor] = node
            if neighbor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                return path[::-1]
            frontier.append(neighbor)
    return None


def reference_paths(net, source, targets, bandwidth_bps):
    return [reference_single(net, source, t, bandwidth_bps) for t in targets]


def reference_choice(paths):
    """The former GDI loop: first strictly shorter path in target order."""
    best = None
    for path in paths:
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return best


def build_case(n, seed, island, reservations, bandwidth_fraction):
    net = waxman_random(n, seed=seed)
    if island:
        net.add_node("island")
    capacity = net.link_by_index(0).capacity_bps
    for i, (position, fraction) in enumerate(reservations):
        link = net.link_by_index(position % net.link_count)
        amount = fraction * capacity
        if link.can_admit(amount):
            link.reserve(f"pre{i}", amount)
    return net, bandwidth_fraction * capacity


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=4, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    island = draw(st.booleans())
    reservations = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.sampled_from([0.25, 0.5, 0.75, 1.0]),
            ),
            max_size=40,
        )
    )
    bandwidth_fraction = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    nodes = list(range(n)) + (["island"] if island else [])
    source = draw(st.integers(min_value=0, max_value=n - 1))
    targets = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=6, unique=True))
    return n, seed, island, reservations, bandwidth_fraction, source, targets


class TestMatchesPerTargetLoop:
    @settings(max_examples=200, deadline=None)
    @given(case=cases())
    def test_same_target_and_path(self, case):
        n, seed, island, reservations, fraction, source, targets = case
        net, bandwidth = build_case(n, seed, island, reservations, fraction)
        expected = reference_choice(reference_paths(net, source, targets, bandwidth))
        assert feasible_path(net, source, targets, bandwidth) == expected

    def test_seeded_sweep_covers_each_situation(self):
        """The situations the choice must get right all occur here:
        source is a target, unreachable targets and equal-depth ties."""
        rng = random.Random(20010405)
        seen = {"source": 0, "unreachable": 0, "tie": 0, "blocked": 0}
        for _ in range(300):
            n = rng.randint(4, 16)
            island = rng.random() < 0.3
            reservations = [
                (rng.randrange(500), rng.choice([0.5, 1.0]))
                for _ in range(rng.randrange(30))
            ]
            net, bandwidth = build_case(
                n, rng.randrange(10_000), island, reservations, rng.choice([0.5, 1.0])
            )
            nodes = list(range(n)) + (["island"] if island else [])
            source = rng.randrange(n)
            targets = rng.sample(nodes, rng.randint(1, min(5, len(nodes))))
            paths = reference_paths(net, source, targets, bandwidth)
            expected = reference_choice(paths)
            assert feasible_path(net, source, targets, bandwidth) == expected
            lengths = [len(p) for p in paths if p is not None]
            seen["source"] += source in targets
            seen["unreachable"] += len(lengths) < len(paths)
            seen["tie"] += len(lengths) > 1 and lengths.count(min(lengths)) > 1
            seen["blocked"] += expected is None
        assert all(count > 0 for count in seen.values()), seen
