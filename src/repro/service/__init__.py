"""Resident query service: shared engine, plan cache, job queue.

The long-lived decomposition of the per-call CLI pipeline (ROADMAP's
"resident query service" item): datasets stay open in a
:class:`SessionRegistry`, SIDR plans are cached content-keyed in a
:class:`PlanCache`, submissions flow through a :class:`JobQueue` with
admission control / priorities / per-tenant quotas, and results are
served with oracle-grade canonical digests.  See ``docs/SERVICE.md``.
"""

from repro.service.api import (
    AdmissionError,
    QueryRequest,
    ServiceError,
    TenantQuota,
    UnknownDatasetError,
    UnknownJobError,
)
from repro.service.client import HttpServiceClient, InProcessClient
from repro.service.jobs import JobQueue, ServiceJob
from repro.service.plancache import PlanCache
from repro.service.server import ServiceServer, serve
from repro.service.service import QueryService, records_to_json
from repro.service.sessions import DatasetSession, SessionRegistry
from repro.service.testing import (
    StressDriver,
    StressOutcome,
    oracle_for_request,
    run_in_engine,
    service_fixture,
)

__all__ = [
    "AdmissionError",
    "DatasetSession",
    "HttpServiceClient",
    "InProcessClient",
    "JobQueue",
    "PlanCache",
    "QueryRequest",
    "QueryService",
    "ServiceError",
    "ServiceJob",
    "ServiceServer",
    "SessionRegistry",
    "StressDriver",
    "StressOutcome",
    "TenantQuota",
    "UnknownDatasetError",
    "UnknownJobError",
    "oracle_for_request",
    "records_to_json",
    "run_in_engine",
    "serve",
    "service_fixture",
]
