"""Seeded random case generation for the differential fuzzer.

A :class:`FuzzCase` is a fully self-describing test case — array
geometry, extraction shape (optionally strided), operator, split/reduce
tiling, fault plan, recovery mode — serializable to JSON so a shrunk
failure can be reproduced from its repro file alone.

Data is always **integer-valued float64** drawn from a small range:
sums, sums of squares, and counts are then exact in IEEE double no
matter how the engine associates partial aggregations, so the oracle
comparison can demand byte-identical canonical output instead of
``allclose`` (which would mask real routing bugs behind a tolerance).

Fault plans are drawn so that jobs either definitely succeed under the
runner's retry budget (transient/corrupt-spill faults, bounded
stale-fetch cascades) or definitely fail in every engine (``crash``
faults — :attr:`FuzzCase.expects_failure`); either way the outcome is
deterministic and comparable across engines.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import QueryError, ReproError
from repro.query.language import QueryPlan, StructuralQuery
from repro.query.operators import (
    OPERATOR_NAMES,
    PRUNABLE_OPERATORS,
    THRESHOLD_OPERATORS,
    get_operator,
)
from repro.query.splits import CoordinateSplit, aligned_slice_splits, slice_splits
from repro.scidata.metadata import DatasetMetadata, Dimension, Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.api import QueryRequest

#: Keep fuzz arrays tiny: differential coverage comes from case count,
#: not case size.
MAX_CELLS = 384

#: Hang timeout every speculating fuzz engine runs with: fast, so hung
#: attempts are mitigated within milliseconds, not the production
#: half-second default.
HANG_TIMEOUT = 0.1
#: A ``slow`` stall the detector is sure to flag as a hang.
SLOW_DELAY = 2 * HANG_TIMEOUT


@dataclass(frozen=True)
class FuzzCase:
    """One self-describing differential test case."""

    seed: int
    shape: tuple[int, ...]
    extraction: tuple[int, ...]
    stride: tuple[int, ...] | None
    operator: str
    threshold: float | None
    num_splits: int
    reduces: int
    recovery: str = "persisted"
    #: FaultRule JSON documents (the schema of docs/FAULT_TOLERANCE.md).
    fault_rules: tuple[dict, ...] = ()
    data_low: int = -40
    data_high: int = 40
    max_attempts: int = 6
    #: Run the engines with a :class:`~repro.spec.SpeculationPolicy`
    #: (fast hang timeout, :data:`HANG_TIMEOUT`) — required whenever
    #: ``fault_rules`` contains a ``hang`` rule, since an unmitigated
    #: hang blocks forever.
    speculate: bool = False
    #: Zone-map tile shape for the pruning legs (None = the builder's
    #: default tiling).  Only drawn for prunable operators; varying it
    #: exercises coarse tiles (weak envelopes, little pruning) through
    #: cell-sized tiles (exact envelopes, aggressive pruning).
    tile: tuple[int, ...] | None = None
    #: The engine legs cut splits on extraction-unit boundaries
    #: (:func:`aligned_slice_splits`, what the service always does)
    #: instead of :func:`slice_splits`, whose cut instances are what
    #: exercise combine and the reduce-side merge.
    aligned: bool = False

    # ------------------------------------------------------------------ #
    @property
    def volume(self) -> int:
        n = 1
        for e in self.shape:
            n *= e
        return n

    @property
    def expects_failure(self) -> bool:
        """Crash faults fire on every attempt: the job must fail — in
        every engine configuration alike."""
        return any(r.get("fault") == "crash" for r in self.fault_rules)

    def request(self, plane: str, prune: bool = False) -> "QueryRequest":
        """The case as the request the service leg submits, on data
        plane ``plane`` with pruning ``prune``; the engine legs and the
        explorer run on its :meth:`~QueryRequest.local_engine`, the
        engine a served job runs on.  The case data is registered as
        dataset ``fuzz``, variable ``v``."""
        # Imported here: repro.service imports repro.verify.
        from repro.service import api

        return api.QueryRequest(
            dataset="fuzz",
            variable="v",
            extract=self.extraction,
            operator=self.operator,
            threshold=self.threshold,
            stride=self.stride,
            splits=self.num_splits,
            reduces=self.reduces,
            data_plane=plane,
            engine="threaded",
            prune=prune,
            max_attempts=self.max_attempts,
            recovery=self.recovery,
            fault_rules=self.fault_rules,
            fault_seed=self.seed,
            speculate=self.speculate,
            hang_timeout=HANG_TIMEOUT,
        )

    # ------------------------------------------------------------------ #
    def metadata(self) -> DatasetMetadata:
        dims = tuple(
            Dimension(f"d{i}", n) for i, n in enumerate(self.shape)
        )
        return DatasetMetadata(
            dimensions=dims,
            variables=(
                Variable("v", "double", tuple(d.name for d in dims)),
            ),
        )

    def data(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(
            self.data_low, self.data_high, size=self.shape, endpoint=True
        ).astype(np.float64)

    def compile(self) -> QueryPlan:
        query = StructuralQuery(
            variable="v",
            extraction_shape=self.extraction,
            operator=get_operator(self.operator, threshold=self.threshold),
            stride=self.stride,
        )
        return query.compile(self.metadata())

    def build(self) -> tuple[QueryPlan, np.ndarray]:
        return self.compile(), self.data()

    def splits(self, plan: QueryPlan) -> list[CoordinateSplit]:
        """The engine legs' map splits, by the case's split function."""
        cut = aligned_slice_splits if self.aligned else slice_splits
        return cut(plan, num_splits=self.num_splits)

    # ------------------------------------------------------------------ #
    def to_json(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "shape": list(self.shape),
            "extraction": list(self.extraction),
            "stride": list(self.stride) if self.stride else None,
            "operator": self.operator,
            "threshold": self.threshold,
            "num_splits": self.num_splits,
            "reduces": self.reduces,
            "recovery": self.recovery,
            "fault_rules": [dict(r) for r in self.fault_rules],
            "data_low": self.data_low,
            "data_high": self.data_high,
            "max_attempts": self.max_attempts,
            "speculate": self.speculate,
            "tile": list(self.tile) if self.tile else None,
            "aligned": self.aligned,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any] | str) -> "FuzzCase":
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(
            seed=int(doc["seed"]),
            shape=tuple(int(x) for x in doc["shape"]),
            extraction=tuple(int(x) for x in doc["extraction"]),
            stride=(
                tuple(int(x) for x in doc["stride"])
                if doc.get("stride")
                else None
            ),
            operator=str(doc["operator"]),
            threshold=(
                float(doc["threshold"])
                if doc.get("threshold") is not None
                else None
            ),
            num_splits=int(doc["num_splits"]),
            reduces=int(doc["reduces"]),
            recovery=str(doc.get("recovery", "persisted")),
            fault_rules=tuple(dict(r) for r in doc.get("fault_rules", ())),
            data_low=int(doc.get("data_low", -40)),
            data_high=int(doc.get("data_high", 40)),
            max_attempts=int(doc.get("max_attempts", 6)),
            speculate=bool(doc.get("speculate", False)),
            tile=(
                tuple(int(x) for x in doc["tile"])
                if doc.get("tile")
                else None
            ),
            aligned=bool(doc.get("aligned", False)),
        )

    def describe(self) -> str:
        stride = f" stride={list(self.stride)}" if self.stride else ""
        faults = f" faults={len(self.fault_rules)}" if self.fault_rules else ""
        spec = " speculate" if self.speculate else ""
        tile = f" tile={list(self.tile)}" if self.tile else ""
        aligned = " aligned" if self.aligned else ""
        return (
            f"{self.operator}{list(self.shape)}/ex{list(self.extraction)}"
            f"{stride} splits={self.num_splits} reduces={self.reduces}"
            f" recovery={self.recovery}{faults}{spec}{tile}{aligned}"
        )


# --------------------------------------------------------------------- #
# Generation
# --------------------------------------------------------------------- #
def _random_faults(
    rng: random.Random, num_splits: int, reduces: int
) -> tuple[tuple[dict, ...], str, bool]:
    """(fault rules, recovery mode, speculate) for ~1/3 of cases.

    At most one after-fetch rule with ``times<=2`` and at most two rules
    total, so stale-fetch cascades stay well inside the runner's retry
    budget; ~1 in 5 fault cases draws a ``crash`` (expected failure).
    A small slice draws a single ``hang`` rule — those cases always set
    ``speculate`` (an unmitigated hang never terminates), with
    ``times=1`` so the serial cancel-retry path succeeds on attempt 1.
    Another draws recovery x speculation: a map stalled past the hang
    timeout both in its first run and when a reduce's after-fetch
    failure has it re-executed under a no-persistence recovery mode, so
    the re-run is hedged (or cancelled and retried) in its turn.  The
    stall hits attempts 0 and 2 only: wherever the detector cancels
    instead of hedging (the serial legs), the attempt after a stalled
    one runs clean.
    """
    r = rng.random()
    if r >= 0.34:
        return (), "persisted", False
    if r < 0.07:
        task = rng.choice(("map", "reduce"))
        n = num_splits if task == "map" else reduces
        rule = {
            "task": task,
            "fault": "crash",
            "indices": [rng.randrange(n)],
        }
        return (rule,), "persisted", False
    if r < 0.12:
        task = rng.choice(("map", "map", "reduce"))
        n = num_splits if task == "map" else reduces
        rule = {
            "task": task,
            "fault": "hang",
            "indices": [rng.randrange(n)],
            "times": 1,
        }
        return (rule,), "persisted", True
    if r < 0.15:
        stall = {
            "task": "map",
            "fault": "slow",
            "indices": [rng.randrange(num_splits)],
            "attempts": [0, 2],
            "delay": SLOW_DELAY,
        }
        fail = {
            "task": "reduce",
            "fault": "transient",
            "indices": [rng.randrange(reduces)],
            "when": "after-fetch",
        }
        recovery = rng.choice(("reexecute-deps", "reexecute-all"))
        return (stall, fail), recovery, True

    kinds = [
        ("map", "transient", "start"),
        ("map", "corrupt-spill", "start"),
        ("reduce", "transient", "start"),
        ("reduce", "transient", "after-fetch"),
    ]
    rules: list[dict] = []
    used_after_fetch = False
    for _ in range(rng.randint(1, 2)):
        task, fault, when = rng.choice(kinds)
        if when == "after-fetch":
            if used_after_fetch:
                continue
            used_after_fetch = True
        n = num_splits if task == "map" else reduces
        count = rng.randint(1, min(2, n))
        rule = {
            "task": task,
            "fault": fault,
            "indices": sorted(rng.sample(range(n), count)),
            "times": 1 if fault == "corrupt-spill" else rng.randint(1, 2),
        }
        if when != "start":
            rule["when"] = when
        rules.append(rule)
    recovery = (
        rng.choice(("persisted", "reexecute-deps", "reexecute-all"))
        if used_after_fetch
        else rng.choice(("persisted", "persisted", "reexecute-deps"))
    )
    return tuple(rules), recovery, False


def operator_pool(operators: Iterable[str] | None) -> tuple[str, ...]:
    """The operators to draw from; an unknown name is an error."""
    pool = OPERATOR_NAMES if operators is None else tuple(operators)
    unknown = [name for name in pool if name not in OPERATOR_NAMES]
    if unknown:
        raise QueryError(
            f"unknown operator(s) {unknown}; known: {list(OPERATOR_NAMES)}"
        )
    return pool


def generate_case(
    index: int,
    master_seed: int = 0,
    operators: tuple[str, ...] | None = None,
) -> FuzzCase:
    """Deterministic case ``index`` of the stream seeded by
    ``master_seed`` — resampled until the geometry compiles and clamped
    so the keyblock partition is feasible.  ``operators`` restricts the
    operator pool (e.g. ``("filter_gt",)`` for a pruning-focused run).

    Which split function the engine legs use is a coin of its own
    stream, so drawing it moves no other draw: a case keeps its index
    and its geometry whichever function it got.
    """
    pool = operator_pool(operators)
    aligned = random.Random(f"{master_seed}:{index}:split").random() < 0.5
    for salt in range(64):
        rng = random.Random(f"{master_seed}:{index}:{salt}")
        rank = rng.choice((2, 2, 2, 3))
        shape = tuple(rng.randint(2, 8) for _ in range(rank))
        vol = 1
        for e in shape:
            vol *= e
        if vol > MAX_CELLS:
            continue
        extraction = tuple(rng.randint(1, s) for s in shape)
        stride = None
        if rng.random() < 0.25:
            stride = tuple(e + rng.randint(0, 2) for e in extraction)
        operator = rng.choice(pool)
        threshold = (
            float(rng.randint(-10, 10))
            if operator in THRESHOLD_OPERATORS
            else None
        )
        tile = None
        if operator in PRUNABLE_OPERATORS and rng.random() < 0.6:
            tile = tuple(rng.randint(1, s) for s in shape)
        num_splits = rng.randint(1, 5)
        reduces = rng.randint(1, 4)
        faults, recovery, speculate = _random_faults(rng, num_splits, reduces)
        case = FuzzCase(
            seed=rng.randrange(2**31),
            shape=shape,
            extraction=extraction,
            stride=stride,
            operator=operator,
            threshold=threshold,
            num_splits=num_splits,
            reduces=reduces,
            recovery=recovery,
            fault_rules=faults,
            speculate=speculate,
            tile=tile,
            aligned=aligned,
        )
        try:
            plan = case.compile()
        except ReproError:
            continue
        keys = plan.num_intermediate_keys
        if keys < 1:
            continue
        if case.reduces > keys:
            case = replace(case, reduces=keys)
        num_maps = len(slice_splits(plan, num_splits=case.num_splits))
        if num_maps != case.num_splits:
            case = replace(case, num_splits=num_maps)
        if case.fault_rules:
            # Clamping reduces/splits may have shrunk the task
            # population below a drawn fault index; fold indices back
            # in so every rule still binds (a crash case must fail).
            # Map indices fold into the map count *both* split functions
            # yield: the service leg cuts aligned splits whatever the
            # case's own function is.
            maps = len(aligned_slice_splits(plan, num_splits=num_maps))
            remapped = []
            for rule in case.fault_rules:
                n = maps if rule["task"] == "map" else case.reduces
                rule = dict(rule)
                rule["indices"] = sorted({i % n for i in rule["indices"]})
                remapped.append(rule)
            case = replace(case, fault_rules=tuple(remapped))
        return case
    raise RuntimeError(
        f"could not generate a valid case for index {index} "
        f"(master seed {master_seed})"
    )
