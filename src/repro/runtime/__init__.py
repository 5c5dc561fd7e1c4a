"""The shared discrete-event runtime under every simulated subsystem.

Both the serving layer (:mod:`repro.serve`) and the functional
simulator (:mod:`repro.sim`) are discrete-event simulations: nothing
reads wall time, every timestamp lives on an explicit virtual axis,
and every ordering decision is a pure function of the inputs.  This
package is the common substrate they share:

* :class:`~repro.runtime.clock.VirtualClock` — monotonic simulated
  seconds, hardened to reject NaN and non-finite advances outright,
  since one silently-absorbed ``nan`` corrupts every later timestamp.
* :class:`~repro.runtime.loop.EventLoop` — a deterministic scheduled-
  event heap on a :class:`VirtualClock`.  Events at equal timestamps
  order by an explicit priority and then by insertion sequence, so two
  runs over the same schedule pop identically.  The replicated fleet
  (:mod:`repro.serve.fleet`) runs N servers' arrivals, completions,
  and heartbeats on one such loop.
* :class:`~repro.runtime.loop.SharedCounter` — a monotonic id source
  shared across components.  The trace's logical step axis
  (:class:`repro.sim.trace.Trace`) and the fleet's globally-unique
  batch ids both draw from one; globally-unique batch ids are what
  lets the duplicate-completion tracecheck rule audit a whole fleet
  from a single shared trace.
"""

from repro.runtime.clock import VirtualClock
from repro.runtime.loop import EventLoop, ScheduledEvent, SharedCounter

__all__ = ["VirtualClock", "EventLoop", "ScheduledEvent", "SharedCounter"]
