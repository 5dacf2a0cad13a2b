"""SIDR: structure-aware intelligent data routing (the paper's core).

Given a compiled structural query plan and its coordinate input splits,
SIDR derives — *before any task runs* — the complete routing structure
of the job (§3):

* :mod:`repro.sidr.partition_plus` — **partition+**: partitions the exact
  intermediate keyspace K'_T into ``r`` contiguous keyblocks whose sizes
  differ by at most one instance of a unit shape chosen under a skew
  bound (§3.1, Figure 7).
* :mod:`repro.sidr.keyblocks` — the keyblock objects: contiguous
  row-major cell ranges in K'_T with their geometric (slab) form.
* :mod:`repro.sidr.dependencies` — per-keyblock dependency sets I_l
  (which splits produce data for which keyblock) and their inversion,
  plus the network-connection accounting of Table 3 (§3.2, §4.6).
* :mod:`repro.sidr.annotations` — the ⟨k,v⟩-count validation of §3.2.1
  (approach 2): reduce tasks tally annotated source counts against the
  expected cell count of their keyblock before processing.
* :mod:`repro.sidr.early_results` — early-result tracking: which portion
  of the output space is complete and emittable given the set of
  finished tasks (§3.4's computational-steering / burst-buffer use
  cases).
* :mod:`repro.sidr.planner` — :class:`SIDRPlan` ties it all together and
  builds engine-ready jobs.
"""

from repro.sidr.keyblocks import KeyBlock, KeyBlockPartition
from repro.sidr.partition_plus import choose_unit_shape, partition_plus
from repro.sidr.dependencies import DependencyMap, compute_dependencies
from repro.sidr.annotations import CountAnnotationValidator
from repro.sidr.early_results import EarlyResultTracker
from repro.sidr.output import (
    assemble_output,
    commit_sidr_output,
    commit_stock_output,
)
from repro.sidr.pipeline import PipelinedQuery, PipelineResult
from repro.sidr.planner import SIDRPlan, build_plan

__all__ = [
    "KeyBlock",
    "KeyBlockPartition",
    "choose_unit_shape",
    "partition_plus",
    "DependencyMap",
    "compute_dependencies",
    "CountAnnotationValidator",
    "EarlyResultTracker",
    "assemble_output",
    "commit_sidr_output",
    "commit_stock_output",
    "PipelinedQuery",
    "PipelineResult",
    "SIDRPlan",
    "build_plan",
]
