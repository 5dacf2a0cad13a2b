"""Cooperative cancellation, and the checkpoint liveness is read from.

:class:`CancelToken` is the engine's one cancellation primitive: a
latched flag plus a reason, set once by whoever cancels first (the
speculation runtime, the hang mitigator, the deadline watchdog) and
*polled* by the task body at cheap checkpoints — between records in the
record-plane readers, between batches in the columnar loop, per fetch,
at the spill commit, and inside blocking fault injections.
Cancellation is cooperative by design: a task is never killed from
outside, it raises :class:`~repro.errors.TaskCancelledError` out of its
own body at the next checkpoint, which keeps the shuffle store's
attempt accounting and the retry machinery's bookkeeping consistent.

The same checkpoint is the attempt's liveness: :meth:`CancelToken.check`
records when it last ran, and the hang rule
(:meth:`~repro.obs.live.stragglers.StragglerDetector.check`) reads an
in-flight attempt's :attr:`CancelToken.idle` to tell a *hung* attempt
(no checkpoint for ``hang_timeout``) from a merely *slow* one
(checkpoints passing, runtime above the straggler threshold).
"""

from __future__ import annotations

import threading
import time

from repro.errors import TaskCancelledError

#: Canonical cancellation reasons.  The engine dispatches on these:
#: a superseded loser is dropped silently, a hang-mitigation cancel is
#: retried in place, a deadline cancel aborts the job.
REASON_SUPERSEDED = "superseded"
REASON_HANG = "hang-mitigation"
REASON_DEADLINE = "deadline"


class CancelToken:
    """Latched, reason-carrying cancellation flag (thread-safe).

    The first :meth:`cancel` wins; later calls are no-ops returning
    ``False``.  ``check()`` is the checkpoint primitive — a clock read
    and one attribute probe on the fast path, raising
    :class:`TaskCancelledError` once cancelled.

    Every attempt gets a token and almost none is ever cancelled or
    waited on, so a token is two plain fields until someone blocks on
    it: the flag and its reason are latched under :data:`_LATCH`, one
    lock shared by every token, and a ``threading.Event`` is made only
    inside :meth:`wait` (the ``slow`` and ``hang`` faults).
    """

    __slots__ = ("_cancelled", "_reason", "_event", "_last")

    def __init__(self) -> None:
        self._cancelled = False
        self._reason: str = ""
        #: Made by the first :meth:`wait`; set by the winning cancel.
        self._event: threading.Event | None = None
        self._last = time.perf_counter()

    def cancel(self, reason: str) -> bool:
        """Latch the token.  Returns ``True`` iff this call did it."""
        with _LATCH:
            if self._cancelled:
                return False
            self._reason = reason
            self._cancelled = True
            event = self._event
        if event is not None:
            event.set()
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> str:
        """The winning cancel's reason (``""`` until cancelled): written
        before the flag, so a reader that saw the flag sees it."""
        return self._reason

    @property
    def idle(self) -> float:
        """Seconds since the last :meth:`check` (or since the token was
        made, before the first)."""
        return time.perf_counter() - self._last

    def check(self) -> None:
        """The checkpoint: note that the attempt is live, then raise
        :class:`TaskCancelledError` if cancelled."""
        self._last = time.perf_counter()
        if self._cancelled:
            reason = self._reason
            raise TaskCancelledError(
                f"attempt cancelled ({reason})", reason=reason
            )

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (or ``timeout``); returns the flag.  A
        cancelled token returns at once."""
        with _LATCH:
            if self._cancelled:
                return True
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        # A cancel after the latch was released sets ``event``: no
        # wake-up is lost between the check above and this wait.
        event.wait(timeout=timeout)
        return self._cancelled


#: Guards every token's latch and event creation.  Cancels and waits
#: are rare (mitigation, deadlines, the blocking faults), so one lock
#: serves them all and a token costs no lock of its own.
_LATCH = threading.Lock()
