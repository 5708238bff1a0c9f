"""Trace event kinds shared by the pure protocol core and the trace pipeline.

These string constants name every kind of protocol event the tracer records.
They live in a dependency-free module so that :mod:`repro.core.engine` can
trace through its host port without importing :mod:`repro.sim`;
:mod:`repro.sim.trace` and the analysis package import them from here.

The comment after each constant lists the fields recorded with it.
"""

# -- normal-message lifecycle ------------------------------------------------
K_SEND = "send"                    # pid, msg_id, dst, label, payload
K_RECEIVE = "receive"              # pid, msg_id, src, label
K_DISCARD = "discard"              # pid, msg_id, src, label, reason
K_UNDO_SEND = "undo_send"          # pid, msg_id, dst, label
K_UNDO_RECEIVE = "undo_receive"    # pid, msg_id, src, label

# -- control-message lifecycle ----------------------------------------------
K_CTRL_SEND = "ctrl_send"          # pid, dst, msg_type, tree
K_CTRL_RECEIVE = "ctrl_receive"    # pid, src, msg_type, tree

# -- checkpoint state transitions -------------------------------------------
K_CHKPT_TENTATIVE = "chkpt_tentative"   # pid, seq, tree
K_CHKPT_COMMIT = "chkpt_commit"         # pid, seq, tree
K_CHKPT_ABORT = "chkpt_abort"           # pid, seq, tree

# -- rollback state transitions ---------------------------------------------
K_ROLLBACK = "rollback"            # pid, to_seq, tree, target ("newchkpt"/"oldchkpt")
K_RESTART = "restart"              # pid, new_interval

# -- send/receive suspension ------------------------------------------------
K_SUSPEND_SEND = "suspend_send"    # pid
K_RESUME_SEND = "resume_send"      # pid
K_SUSPEND_ALL = "suspend_all"      # pid (send + receive)
K_RESUME_ALL = "resume_all"        # pid

# -- instance outcomes -------------------------------------------------------
K_INSTANCE_START = "instance_start"        # pid, tree, instance ("checkpoint"/"rollback")
K_INSTANCE_COMMIT = "instance_commit"      # pid, tree
K_INSTANCE_ABORT = "instance_abort"        # pid, tree
K_INSTANCE_REJECTED = "instance_rejected"  # pid, tree (baseline algorithms)

# -- application jobs (repro.app) --------------------------------------------
K_JOB_SUBMIT = "job_submit"        # pid, job, stages
K_JOB_UNIT = "job_unit"            # pid, job, stage, unit
K_JOB_STAGE = "job_stage"          # pid, job, stage (stage completed)
K_JOB_DONE = "job_done"            # pid, job

# -- failures and topology ---------------------------------------------------
K_CRASH = "crash"                  # pid
K_RECOVER = "recover"              # pid
K_PARTITION = "partition"          # groups
K_MERGE = "merge"                  # groups

# -- dynamic membership (repro.membership) ------------------------------------
K_JOIN = "join"                    # pid, epoch
K_LEAVE = "leave"                  # pid, epoch, successor
K_HANDOFF = "handoff"              # pid (successor), source, spooled, trees

__all__ = [name for name in dict(vars()) if name.startswith("K_")]
