"""Property: interval labels n_i are strictly monotone per process.

The Leu-Bhargava correctness arguments (Lemmas 1-2, the true-child test,
the rollback label comparison) all lean on interval labels never running
backwards: every checkpoint or rollback instance advances ``n_i``, and each
tentative checkpoint's sequence number strictly exceeds every label the
process used before it.  Hypothesis drives a kernel-less three-engine
cluster through arbitrary event sequences — sends, deliveries in any
(non-FIFO) order, autonomous checkpoint and rollback initiations — and
checks monotonicity after every single event, reading what each event put
out from the harness's recording host (its trace and in-flight set).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tracekinds as T
from repro.core import events as EV
from repro.errors import ProtocolError
from repro.mc.harness import ClusterHarness
from repro.mc.scenario import Scenario

N = 3

# One op = (kind, pid, arg):  kind 0 — app send from pid (arg picks the
# peer); 1 — initiate checkpoint at pid; 2 — initiate rollback at pid;
# 3 — deliver the arg-th in-flight message (to whichever dst it has).
ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=0, max_value=11),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_interval_labels_strictly_monotone(ops):
    scenario = Scenario(name="prop", n=N, setup=(), actions=())
    harness = ClusterHarness(scenario)
    engines = harness.engines

    last_n = {pid: engines[pid].ledger.n for pid in engines}
    last_tentative = {pid: engines[pid].store.oldchkpt.seq for pid in engines}

    for kind, pid, arg in ops:
        harness.step += 1
        at = float(harness.step)
        if kind == 0:
            dst = (pid + 1 + arg % (N - 1)) % N
            event = EV.AppSend(dst=dst, payload="x", at=at)
        elif kind == 1:
            event = EV.InitiateCheckpoint(at=at)
        elif kind == 2:
            event = EV.InitiateRollback(at=at)
        else:
            keys = sorted(harness.in_flight)
            if not keys:
                continue
            envelope = harness.in_flight.pop(keys[arg % len(keys)])
            pid = envelope.dst
            event = EV.Deliver(envelope=envelope, at=at)

        recorded = len(harness.trace)
        try:
            engines[pid].handle(event)
        except ProtocolError:
            continue  # op illegal in this state; labels must still hold

        # n_i never decreases, at any process, after any event.
        for p, engine in engines.items():
            assert engine.ledger.n >= last_n[p], (
                f"ledger.n ran backwards at P{p}: {engine.ledger.n} < {last_n[p]}"
            )
            last_n[p] = engine.ledger.n

        # Every tentative checkpoint's seq strictly exceeds the previous
        # checkpoint label at that process — even across aborted instances.
        for traced in harness.trace.events[recorded:]:
            if traced.kind == T.K_CHKPT_TENTATIVE:
                assert traced.pid == pid
                seq = traced.fields["seq"]
                assert seq > last_tentative[pid], (
                    f"tentative seq not strictly increasing at P{pid}: "
                    f"{seq} <= {last_tentative[pid]}"
                )
                last_tentative[pid] = seq

    # Committed history is strictly increasing in seq at every process.
    for pid, engine in engines.items():
        seqs = [record.seq for record in engine.committed_history]
        assert seqs == sorted(set(seqs)), f"committed seqs not strictly increasing at P{pid}"
