"""The campaign service: a crash-safe local job daemon (DESIGN §14).

``repro serve`` turns the deterministic campaign engine into a durable
queue: submissions become content-addressed ``repro.job-record/v1``
artifacts in a spool, a fair-share scheduler leases them to supervised
runner processes, and every lifecycle step lands in a digest-chained
service journal.  ``kill -9`` at any instant loses no accepted job —
recovery replays the spool and resumes from checkpoints bit-for-bit.
"""

from importlib import import_module as _import_module

#: Public name → the submodule that defines it.  Names resolve on first
#: access (PEP 562), so the ``repro submit/jobs/cancel`` client never
#: imports the daemon, the store or the simulator, and the runner
#: process imports only what ``run_job`` uses.
_EXPORTS = {
    **dict.fromkeys(("RETRYABLE_STATUSES", "ServiceClient",
                     "ServiceClientError", "read_endpoint"), "client"),
    **dict.fromkeys(("FINDING_KINDS", "REPAIR_ACTIONS", "Finding",
                     "FsckReport", "daemon_pid", "fsck_spool"), "fsck"),
    **dict.fromkeys(("GcPlan", "GcReport", "RetentionPolicy",
                     "compact_journal", "plan_gc", "run_gc"), "gc"),
    **dict.fromkeys(("JOB_RECORD_SCHEMA", "JOB_RECORD_SCHEMA_NAME",
                     "JOB_STATES", "MAX_JOB_WAIT_S", "PRIORITY_CLASSES",
                     "TERMINAL_STATES",
                     "CampaignSpec", "DiskPressureError", "DrainingError",
                     "InvalidSubmissionError", "JobRecord", "JobStateError",
                     "Lease", "QueueFullError", "ServiceError", "SpoolError",
                     "UnknownJobError"), "jobs"),
    **dict.fromkeys(("SERVICE_EVENT_KINDS", "SERVICE_JOURNAL_SCHEMA",
                     "SERVICE_JOURNAL_SCHEMA_NAME", "ServiceEventRecord",
                     "ServiceJournal", "read_service_journal",
                     "repair_service_journal_tail", "scan_service_journal"),
                    "journal"),
    "LeaseTable": "leases",
    **dict.fromkeys(("PRESSURE_MODES", "DiskPressureWatchdog"), "pressure"),
    **dict.fromkeys(("FairShareScheduler", "QueueEntry"), "scheduler"),
    **dict.fromkeys(("CampaignService", "serve"), "server"),
    **dict.fromkeys(("JOB_RESULT_SCHEMA", "JOB_RESULT_SCHEMA_NAME",
                     "JobResult", "JobStore"), "store"),
    "Supervisor": "supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
