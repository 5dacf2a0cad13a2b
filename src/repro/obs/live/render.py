"""Terminal rendering for ``repro.cli query --live``.

:func:`format_live` turns a :meth:`ProgressTracker.snapshot` document
into a small fixed-shape status block (phase bars, ETA, stragglers).
:class:`LiveRenderer` repaints that block on a daemon thread while the
job runs: on a TTY it rewrites in place with ANSI cursor movement; on a
pipe (CI logs) it prints a fresh block at a slower cadence.  It only
reads: the stragglers it shows are the ``task.straggler`` flags in the
record, published by whichever detector ticks for the run.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, TextIO

from repro.obs.live.progress import ProgressTracker

_BAR_WIDTH = 28


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def _fmt_eta(eta: float | None) -> str:
    if eta is None:
        return "--"
    if eta >= 60.0:
        return f"{int(eta // 60)}m{eta % 60:04.1f}s"
    return f"{eta:.1f}s"


def format_live(snapshot: dict[str, Any]) -> str:
    """Render one snapshot document as a multi-line status block."""
    maps = snapshot["maps"]
    reduces = snapshot["reduces"]
    lines = [
        f"job {snapshot['job']} [{snapshot['state']}]"
        f"  elapsed {snapshot['elapsed']:.1f}s"
        f"  eta {_fmt_eta(snapshot['eta'])}"
        f"  progress {snapshot['progress'] * 100:5.1f}%",
        f"  maps    [{_bar(maps['fraction'])}] "
        f"{maps['done']}/{maps['total']} done, {maps['inflight']} running",
        f"  reduces [{_bar(reduces['fraction'])}] "
        f"{reduces['done']}/{reduces['total']} done, "
        f"{reduces['fired']} fired, {reduces['inflight']} running",
    ]
    stragglers = snapshot.get("stragglers", [])
    if stragglers:
        flagged = ", ".join(
            f"{s['kind']} {s['index']} ({s['elapsed']:.2f}s > {s['threshold']:.2f}s)"
            for s in stragglers
        )
        lines.append(f"  stragglers: {flagged}")
    else:
        lines.append("  stragglers: none")
    lines.append(
        f"  events: {snapshot.get('events', {}).get('published', 0)} published"
    )
    return "\n".join(lines)


class LiveRenderer:
    """Repaints the live status block until the job finishes."""

    def __init__(
        self,
        progress: ProgressTracker,
        *,
        interval: float = 0.25,
        out: TextIO | None = None,
        ansi: bool | None = None,
    ) -> None:
        self._progress = progress
        self._out = out if out is not None else sys.stderr
        if ansi is None:
            ansi = bool(getattr(self._out, "isatty", lambda: False)())
        self._ansi = ansi
        # A pipe gets whole blocks appended, so slow the cadence down to
        # keep CI logs readable.
        self._interval = interval if ansi else max(interval, 1.0)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_lines = 0

    # ------------------------------------------------------------------ #
    def _paint(self) -> None:
        block = format_live(self._progress.snapshot())
        lines = block.split("\n")
        try:
            if self._ansi and self._last_lines:
                # Move up over the previous frame and clear each line.
                self._out.write(f"\x1b[{self._last_lines}A")
                self._out.write(
                    "\n".join(f"\x1b[2K{line}" for line in lines) + "\n"
                )
            else:
                self._out.write(block + "\n")
            self._out.flush()
        except ValueError:
            # Output stream closed under us (pytest capture teardown);
            # rendering is best-effort.
            return
        self._last_lines = len(lines)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._paint()
            if self._progress.done:
                break

    # ------------------------------------------------------------------ #
    def start(self) -> "LiveRenderer":
        self._thread = threading.Thread(
            target=self._loop, name="obs-live-renderer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the repaint loop and paint one final frame."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._paint()

    def __enter__(self) -> "LiveRenderer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
