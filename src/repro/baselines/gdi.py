"""The GDI baseline: global dynamic information, any path.

The paper's idealized comparator assumes the admission controller
knows "the active flows and their usage of bandwidth on each link in
the network" and may route over *any* path, not only the fixed one.
Admission therefore succeeds exactly when some path from the source to
*some* group member has the required bandwidth available on every
link.

That existence question is a reachability problem on the subgraph of
links with ``AB_l >= b``, so the "exhaustive search for all the
available paths" reduces to one multi-target BFS from the source over
that subgraph (:func:`~repro.network.routing.feasible_path`).  It stops
after the first level that holds a member and takes the first member
of that level in group order, so GDI uses a minimum-hop path (which
keeps it frugal with resources) with a deterministic tie-break.

The one search picks the same path as one search per member would.
Both expand nodes in the same FIFO order over the same sorted
neighbours, and the reservation state does not change during a
decision, so each per-member search is a prefix of the one search and
assigns the same parents.  The nearest member first in group order is
the one a per-member loop keeping the first strictly shorter path
would keep.

The paper stresses this system "is not realistic, and it is
difficult, if not impossible, to implement in practice" — it exists
to upper-bound the achievable admission probability.
"""

from __future__ import annotations

from typing import Optional

from repro.core.admission import AdmissionResult
from repro.flows.flow import AdmittedFlow, FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.routing import feasible_path
from repro.network.topology import Network


class GDIController:
    """Centralized admission with perfect global knowledge.

    One instance serves every source (it is the antithesis of the
    distributed mechanism).  The interface mirrors
    :class:`repro.core.admission.ACRouter` so the simulation can drive
    either interchangeably.
    """

    def __init__(self, network: Network, group: AnycastGroup) -> None:
        self.network = network
        self.group = group
        self.requests_seen = 0
        self.requests_admitted = 0
        self.total_attempts = 0

    def admit(self, request: FlowRequest, now: Optional[float] = None) -> AdmissionResult:
        """Admit iff any member is reachable over links with room.

        The minimum-hop feasible path across members is reserved
        (ties: first member in group order).
        """
        if request.group != self.group:
            raise ValueError(
                f"request group {request.group.address!r} does not match "
                f"controller group {self.group.address!r}"
            )
        decided_at = request.arrival_time if now is None else now
        self.requests_seen += 1
        self.total_attempts += 1
        best_path = feasible_path(
            self.network, request.source, self.group.members, request.bandwidth_bps
        )
        if best_path is None:
            return AdmissionResult(
                request=request,
                flow=None,
                attempts=1,
                tried=tuple(self.group.members),
                decided_at=decided_at,
            )
        reserved = self.network.reserve_path(
            best_path, request.flow_id, request.bandwidth_bps
        )
        if not reserved:  # pragma: no cover - feasible_path guarantees room
            raise RuntimeError("feasible path refused reservation")
        self.requests_admitted += 1
        flow = AdmittedFlow(
            request=request,
            destination=best_path[-1],
            path=tuple(best_path),
            admitted_at=decided_at,
            attempts=1,
        )
        return AdmissionResult(
            request=request,
            flow=flow,
            attempts=1,
            tried=(best_path[-1],),
            decided_at=decided_at,
        )

    def release(self, flow: AdmittedFlow) -> None:
        """Tear down an admitted flow's reservations (idempotent)."""
        if flow.released:
            return
        self.network.release_path(flow.path, flow.flow_id)
        flow.released = True

    @property
    def admission_ratio(self) -> float:
        """Fraction of seen requests admitted (0 when none seen)."""
        if self.requests_seen == 0:
            return 0.0
        return self.requests_admitted / self.requests_seen

    @property
    def mean_attempts(self) -> float:
        """Always 1.0 per request once any request has been seen."""
        if self.requests_seen == 0:
            return 0.0
        return self.total_attempts / self.requests_seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GDIController(group={self.group.address!r}, seen={self.requests_seen})"
