"""Microbenchmarks of the simulation substrate itself.

Not a paper figure — these track the raw cost of the discrete-event
engine, the reservation hot path and the fixed-point solver, so
regressions in the substrate are visible independently of the
experiment-level benches.
"""

from repro.analysis.fixedpoint import ReducedLoadSolver, RouteLoad
from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.routing import RouteTable
from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES, mci_backbone
from repro.sim.engine import Simulator
from repro.sim.simulation import AnycastSimulation


def test_engine_event_throughput(benchmark):
    """Schedule-and-run cost of 10k chained events."""

    def run_chain():
        sim = Simulator()
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        return state["n"]

    assert benchmark(run_chain) == 10_000


def test_path_reservation_throughput(benchmark):
    """Reserve/release cycles on a 4-hop MCI route."""
    network = mci_backbone()
    table = RouteTable(network, 9, MCI_GROUP_MEMBERS)
    route = max(table.routes(), key=lambda r: r.distance)

    def cycle():
        for i in range(100):
            assert network.reserve_path(route.path, i, 64_000.0)
        for i in range(100):
            network.release_path(route.path, i)

    benchmark(cycle)


def test_fixed_point_solve_speed(benchmark):
    """Reduced-load solve on the full MCI route set at heavy load."""
    network = mci_backbone()
    capacities = {
        (l.source, l.target): int(l.capacity_bps // 64_000) for l in network.links()
    }
    routes = []
    for source in MCI_SOURCES:
        table = RouteTable(network, source, MCI_GROUP_MEMBERS)
        for route in table.routes():
            links = tuple(zip(route.path, route.path[1:]))
            routes.append(RouteLoad(links=links, load_erlangs=200.0))

    def solve():
        return ReducedLoadSolver(capacities, routes).solve()

    solution = benchmark(solve)
    assert solution.converged


def test_simulation_end_to_end_speed(benchmark):
    """Wall-clock of a short but complete <WD/D+H,2> run."""
    workload = WorkloadSpec(
        arrival_rate=120.0,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=30.0,
    )

    def run():
        return AnycastSimulation(
            network_factory=mci_backbone,
            system_spec=SystemSpec("WD/D+H", retrials=2),
            workload=workload,
            warmup_s=50.0,
            measure_s=150.0,
            seed=3,
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.requests > 0


def _run_hold_pattern(events=20_000, pending=2_000):
    """Dispatch ``events`` while keeping ``pending`` timers in flight.

    This is the loss-network steady state — a large stable population
    of departure timers, where heap depth sets the push/pop cost.
    """
    import random

    sim = Simulator()
    rng = random.Random(20010405)
    state = {"n": 0}

    def fire():
        state["n"] += 1
        if state["n"] + pending <= events:
            sim.schedule(rng.expovariate(1.0), fire)

    for _ in range(pending):
        sim.schedule(rng.expovariate(1.0), fire)
    sim.run()
    return state["n"]


def test_engine_hold_pattern_heap(benchmark):
    """Heap engine under a constant 2k-pending-event population."""
    assert benchmark(_run_hold_pattern) == 20_000


def test_fixed_point_grid_speed(benchmark):
    """Vectorized solve_grid over a 20-point offered-load sweep."""
    network = mci_backbone()
    capacities = {
        (l.source, l.target): int(l.capacity_bps // 64_000) for l in network.links()
    }
    routes = []
    for source in MCI_SOURCES:
        table = RouteTable(network, source, MCI_GROUP_MEMBERS)
        for route in table.routes():
            links = tuple(zip(route.path, route.path[1:]))
            routes.append(RouteLoad(links=links, load_erlangs=50.0))
    solver = ReducedLoadSolver(capacities, routes)
    scales = [0.25 + 5.75 * i / 19 for i in range(20)]

    solutions = benchmark(solver.solve_grid, scales)
    assert len(solutions) == 20
    assert all(s.converged for s in solutions)


def test_bottleneck_scan_speed(benchmark):
    """WD/D+B's per-request scan: bottleneck of every route in a table."""
    from repro.network.state import LiveBandwidthView

    network = mci_backbone()
    view = LiveBandwidthView(network)
    tables = [
        RouteTable(network, source, MCI_GROUP_MEMBERS) for source in MCI_SOURCES
    ]
    routes = [route for table in tables for route in table.routes()]
    # Put some load on the network so scans read non-trivial state.
    for i, route in enumerate(routes):
        network.reserve_path(route.path, ("bg", i), 64_000.0)

    def scan():
        total = 0.0
        for route in routes:
            total += view.route_available_bps(route)
        return total

    assert benchmark(scan) > 0.0


def test_signaling_overhead_scenario(benchmark):
    """Correctness of the chaos run behind the signaling bench entries."""
    from repro.experiments.chaos import ChaosConfig, ChaosSimulation

    workload = WorkloadSpec(
        arrival_rate=60.0,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=30.0,
    )

    def run():
        return ChaosSimulation(
            network_factory=mci_backbone,
            system_spec=SystemSpec("WD/D+B", retrials=2),
            workload=workload,
            chaos=ChaosConfig(loss_rate=0.05),
            warmup_s=5.0,
            measure_s=10.0,
            seed=3,
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.admitted > 0
    assert result.signaling_messages > 0
    assert result.retransmissions > 0
    assert result.leaked_bps == 0.0
