"""RSVP-lite signalling (paper Section 4.4).

The paper delegates resource reservation to "the standard RSVP
protocol": PATH messages probe the route hop by hop, RESV messages
reserve on the way back.  Admission *probabilities* do not depend on
the message mechanics (the paper's simulation treats reservation as
atomic), but the mechanics determine the *overhead* of each retrial —
the very trade-off retrial control balances.

This subpackage implements a small message-level model so reservation
latency and message counts can be measured:

* :mod:`repro.signaling.messages` -- PATH / RESV / PATH_ERR / TEAR
  message types.
* :mod:`repro.signaling.rsvp` -- a hop-by-hop signalling session that
  runs on the discrete-event engine with per-link propagation delays,
  and the reservation engine the AC-router
  (:class:`repro.core.admission.ACRouter`) runs its DAC loop over.
"""

from repro.signaling.messages import (
    MessageType,
    PathErrMessage,
    PathMessage,
    ResvMessage,
    SignallingMessage,
    TearMessage,
)
from repro.signaling.rsvp import ReservationOutcome, RsvpSession, SignalledReservationEngine

__all__ = [
    "MessageType",
    "PathErrMessage",
    "PathMessage",
    "ReservationOutcome",
    "ResvMessage",
    "RsvpSession",
    "SignalledReservationEngine",
    "SignallingMessage",
    "TearMessage",
]
