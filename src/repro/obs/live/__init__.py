"""Live observability plane: streaming events, progress/ETA, stragglers.

Built on the recorded vocabulary of :mod:`repro.obs` (spans + metrics),
this subpackage adds the *in-flight* view the resident query service
needs: an :class:`EventBus` that the engine, shuffle store, SIDR
scheduler, and simulator all publish structured lifecycle events into
as they happen, and that keeps them as the run's record; a
:class:`ProgressTracker` that reads per-phase completion fractions plus
an ETA from the simulator's cost model (:class:`CostModelEta`) off that
record; a :class:`StragglerDetector` reading the same record to flag
in-flight attempts that exceed a robust multiple of the running median
or, given the run's cancel tokens, have passed no checkpoint for the
hang timeout; a crash-durable
:class:`JsonlEventWriter`; and the terminal renderer behind
``repro.cli query --live``.  See ``docs/OBSERVABILITY.md`` for the
event vocabulary and the snapshot JSON schema.
"""

from repro.obs.live.bus import Event, EventBus
from repro.obs.live.progress import CostModelEta, ProgressTracker
from repro.obs.live.stragglers import StragglerDetector
from repro.obs.live.stream import (
    JsonlEventWriter,
    phase_totals,
    read_events,
)
from repro.obs.live.render import LiveRenderer, format_live

__all__ = [
    "CostModelEta",
    "Event",
    "EventBus",
    "JsonlEventWriter",
    "LiveRenderer",
    "ProgressTracker",
    "StragglerDetector",
    "format_live",
    "phase_totals",
    "read_events",
]
