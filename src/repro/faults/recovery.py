"""Recovery models shared by the real engine and the analytical model.

The paper's §6 future work proposes three designs for surviving a reduce
task failure; :mod:`repro.sim.failure` prices them analytically and
:class:`repro.mapreduce.engine.LocalEngine` now implements them for
real, so the enum lives here — below both layers — and each imports it.

* ``PERSISTED`` — stock Hadoop: map output is persisted until the job
  completes; a failed reduce simply re-fetches.
* ``REEXECUTE_ALL`` — no persistence, no dependency knowledge: map
  output is streamed (consumed by the fetch); a failed reduce must
  re-execute *every* map task to regenerate its input.
* ``REEXECUTE_DEPS`` — SIDR's proposal: no persistence, but the
  dependency map bounds the damage; a failed reduce re-executes only
  its dependency set I_l.
"""

from __future__ import annotations

import enum


class RecoveryModel(enum.Enum):
    PERSISTED = "persisted"
    REEXECUTE_ALL = "reexecute-all"
    REEXECUTE_DEPS = "reexecute-deps"

    @classmethod
    def parse(cls, text: str) -> "RecoveryModel":
        """Accept both ``reexecute-deps`` and ``reexecute_deps`` forms;
        anything else is a ``ValueError`` naming the models."""
        try:
            return cls(str(text).strip().lower().replace("_", "-"))
        except ValueError:
            raise ValueError(
                f"unknown recovery model {text!r}; expected one of "
                f"{tuple(m.value for m in cls)}"
            ) from None
