"""Hosted application state: the server side of checkpoint-as-a-service.

:class:`AppHost` is the :class:`~repro.core.app.Application` a serving node
runs.  It extends the default :class:`~repro.core.app.CounterApp` (so the
message-plane digests the consistency checkers rely on keep working) with a
table of **jobs** — each a staged pipeline (fetch → transform → load) with a
per-stage progress cursor and a running content digest.

Job state is mutated only through :meth:`AppHost.apply`, driven by the
engine's ``AppOp`` event (see :meth:`repro.core.process.CheckpointProcess.
app_op`).  That indirection is the whole trick: because every mutation lands
between engine events, each checkpoint's ``app.snapshot()`` captures the job
table at a well-defined point of the process history, and a rollback or
Section 6 recovery restores it to exactly the recovery line — no committed
stage is ever half-applied, no undone unit survives.  The engine traces each
mutation (``job_submit`` / ``job_unit`` / ``job_stage`` / ``job_done``), so
the merged trace supports an offline job-outcome audit
(:func:`repro.analysis.jobs.audit_jobs`).

Unit content is a *deterministic* function of ``(job, stage, unit index)``:
two hosts that executed the same units hold bit-equal job records, whatever
kernel (simulator, live, sharded) drove them — the property the sim-vs-live
equivalence tests assert.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.app import CounterApp
from repro.core.engine import ProtocolConfig
from repro.core.process import CheckpointProcess
from repro.stable.storage import StableStorage
from repro.tracekinds import K_JOB_DONE, K_JOB_STAGE, K_JOB_SUBMIT, K_JOB_UNIT
from repro.types import ProcessId

_MOD = 2**61 - 1

TraceRecord = Tuple[str, Dict[str, Any]]


def fold_unit(digest: int, job: str, stage: int, unit: int) -> int:
    """Fold one unit's deterministic content into a job digest.

    The same polynomial-hash construction as ``CounterApp``'s message
    digest, over the unit's identity — so the digest names *which* units a
    job record reflects, independent of when or on which kernel they ran.
    """
    h = 0
    for ch in repr((job, stage, unit)):
        h = (h * 1000003 + ord(ch)) % _MOD
    return (digest * 31 + h) % _MOD


def completed_record(job: str, stages: Sequence[int]) -> Dict[str, Any]:
    """The job record a never-interrupted run ends with (pure control).

    Tests compare a killed-and-resumed host's record against this instead
    of paying for a second control run: unit content is deterministic, so
    resume-from-recovery-line must land on the identical record.
    """
    digest = 0
    for stage, units in enumerate(stages):
        for unit in range(units):
            digest = fold_unit(digest, job, stage, unit)
    return {
        "stages": list(stages),
        "stage": len(stages),
        "cursor": 0,
        "digest": digest,
        "done": True,
    }


class AppHost(CounterApp):
    """A ``CounterApp`` that additionally hosts resumable staged jobs."""

    def __init__(self, pid: ProcessId) -> None:
        super().__init__(pid)
        self.jobs: Dict[str, Dict[str, Any]] = {}

    # -- Application protocol (checkpoint/rollback surface) -------------
    def snapshot(self) -> Dict[str, Any]:
        state = super().snapshot()
        state["jobs"] = {job: dict(record) for job, record in self.jobs.items()}
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        super().restore(state)
        self.jobs = {
            job: dict(record) for job, record in state.get("jobs", {}).items()
        }

    # -- tracked mutations (engine AppOp surface) ------------------------
    def apply(self, op: Tuple[Any, ...]) -> List[TraceRecord]:
        """Interpret one job mutation; returns the trace records to emit.

        Ops are plain data (picklable, replayable):

        * ``("submit", job, stages)`` — register a job; idempotent, so a
          driver that outlives a rollback may resubmit harmlessly.
        * ``("unit", job)`` — execute the next unit of the job's current
          stage; completing the stage's last unit advances the stage, and
          the final stage's completion marks the job done.  A no-op for
          unknown or finished jobs (the driver races rollbacks).
        """
        kind = op[0]
        if kind == "submit":
            _, job, stages = op
            if job in self.jobs:
                return []
            self.jobs[job] = {
                "stages": list(stages),
                "stage": 0,
                "cursor": 0,
                "digest": 0,
                "done": False,
            }
            return [(K_JOB_SUBMIT, {"job": job, "stages": list(stages)})]
        if kind == "unit":
            _, job = op
            record = self.jobs.get(job)
            if record is None or record["done"]:
                return []
            stage, unit = record["stage"], record["cursor"]
            record["digest"] = fold_unit(record["digest"], job, stage, unit)
            record["cursor"] = unit + 1
            out: List[TraceRecord] = [
                (K_JOB_UNIT, {"job": job, "stage": stage, "unit": unit})
            ]
            if record["cursor"] >= record["stages"][stage]:
                out.append((K_JOB_STAGE, {"job": job, "stage": stage}))
                record["stage"] += 1
                record["cursor"] = 0
                if record["stage"] >= len(record["stages"]):
                    record["done"] = True
                    out.append((K_JOB_DONE, {"job": job}))
            return out
        raise ValueError(f"unknown app op {op!r}")

    # -- queries ---------------------------------------------------------
    def progress(self, job: str) -> Optional[Tuple[int, int]]:
        """``(stage, cursor)`` of a hosted job, or ``None`` if unknown."""
        record = self.jobs.get(job)
        if record is None:
            return None
        return record["stage"], record["cursor"]

    def units_applied(self, job: str) -> int:
        """Units the *current* state reflects (post-rollback this shrinks)."""
        record = self.jobs.get(job)
        if record is None:
            return 0
        return sum(record["stages"][: record["stage"]]) + record["cursor"]

    def fingerprints(self) -> Dict[str, Tuple[bool, int]]:
        """``job -> (done, digest)`` — the equivalence-test comparison key."""
        return {
            job: (record["done"], record["digest"])
            for job, record in self.jobs.items()
        }


class AppProcess(CheckpointProcess):
    """A protocol process whose hosted application is an :class:`AppHost`.

    Drop-in ``process_cls`` for :func:`repro.testing.build_sim`,
    :class:`~repro.runtime.cluster.Cluster` and the sharded workers — same
    constructor signature, job-hosting app by default.
    """

    def __init__(
        self,
        pid: ProcessId,
        config: Optional[ProtocolConfig] = None,
        app: Optional[AppHost] = None,
        storage: Optional[StableStorage] = None,
    ) -> None:
        super().__init__(pid, config, app=app or AppHost(pid), storage=storage)
