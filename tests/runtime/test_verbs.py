"""One control vocabulary on both live front doors.

``kill``/``restart``/``join``/``leave(pid, at=None)`` are plain functions
with identical signatures on :class:`Cluster` and :class:`ShardedCluster`,
and a scheduled transition that fails is a timer error on either — not an
exception lost in an un-awaited task on one door and an exit code on the
other.
"""

import asyncio
import inspect
import subprocess
import sys

import pytest

from repro.runtime import Cluster, ShardedCluster
from repro.runtime.shard import ShardWorker

VERBS = ("kill", "restart", "join", "leave")


@pytest.mark.parametrize("verb", VERBS)
def test_verbs_are_spelled_once_and_the_same_on_both_doors(verb):
    on_cluster, on_sharded = getattr(Cluster, verb), getattr(ShardedCluster, verb)
    assert inspect.signature(on_cluster) == inspect.signature(on_sharded)
    assert list(inspect.signature(on_cluster).parameters)[-1] == "at"
    for function in (on_cluster, on_sharded):
        assert not inspect.iscoroutinefunction(function)
    # A worker runs the inherited verb; it does not re-implement it.
    assert verb not in vars(ShardWorker)


def restart_without_a_kill_on_cluster(root):
    cluster = Cluster(n=3, root=root, transport="tcp", time_scale=0.01)
    cluster.restart(1, at=3.0)

    async def scenario():
        await cluster.start()
        await cluster.run_for(6.0)
        await cluster.shutdown(raise_errors=False)

    asyncio.run(asyncio.wait_for(scenario(), 60))
    return cluster.summary()


def restart_without_a_kill_on_sharded(root):
    cluster = ShardedCluster(n=4, root=root, shards=2, time_scale=0.01)
    try:
        cluster.restart(1, at=3.0)
        cluster.start()
        cluster.run_for(6.0)
        cluster.shutdown()
    finally:
        cluster.close()
    return cluster.summary()


@pytest.mark.parametrize(
    "door", [restart_without_a_kill_on_cluster, restart_without_a_kill_on_sharded]
)
def test_a_failing_scheduled_transition_is_one_timer_error_on_either_door(door, tmp_path):
    assert door(str(tmp_path / "run"))["timer_errors"] == 1


@pytest.mark.parametrize("shards", [(), ("--shards", "2")])
def test_cli_exits_nonzero_when_a_scheduled_restart_fails(shards, tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "repro.runtime", "--nodes", "4", "--duration", "6",
         "--time-scale", "0.01", "--restart", "1@3", "--out", str(tmp_path / "run"),
         *shards],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0, done.stdout + done.stderr
    assert "Task exception was never retrieved" not in done.stderr
