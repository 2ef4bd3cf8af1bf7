"""Unit tests for MPI-internal structures: mailbox, comm, world, flow."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ANY_SOURCE, ANY_TAG, CommunicatorError, MpiUniverse
from repro.mpi.comm import CollectiveContext, Communicator, Group
from repro.mpi.impls.base import FlowChannel
from repro.mpi.message import Envelope, Mailbox, Protocol
from repro.mpi.runtime import MpiApi
from repro.mpi.status import Request
from repro.sim.kernel import Kernel

from conftest import ScriptProgram, make_universe, run_script


def env(src=0, tag=0, cid=1, nbytes=4, payload=None):
    return Envelope(protocol=Protocol.EAGER, src_rank=src, tag=tag, cid=cid,
                    nbytes=nbytes, payload=payload)


class FakeEndpoint:
    _next = 0

    def __init__(self):
        FakeEndpoint._next += 1
        self.world_rank = FakeEndpoint._next


class TestMailbox:
    def test_posted_recv_matched_on_delivery(self):
        kernel = Kernel()
        box = Mailbox(kernel)
        _, posted = box.match_or_post(0, 5, 1)
        assert posted is not None and box.posted_count == 1
        matched = box.deliver(env(src=0, tag=5))
        assert matched is posted
        assert box.posted_count == 0
        kernel.run()
        assert posted.event.triggered

    def test_unexpected_queue_fifo_per_match(self):
        kernel = Kernel()
        box = Mailbox(kernel)
        box.deliver(env(tag=1, payload="a"))
        box.deliver(env(tag=1, payload="b"))
        first, _ = box.match_or_post(ANY_SOURCE, 1, 1)
        second, _ = box.match_or_post(ANY_SOURCE, 1, 1)
        assert (first.payload, second.payload) == ("a", "b")
        assert box.unexpected_count == 0

    def test_wildcards_and_cid_isolation(self):
        kernel = Kernel()
        box = Mailbox(kernel)
        box.deliver(env(src=3, tag=9, cid=2))
        none, posted = box.match_or_post(3, 9, 1)  # wrong cid
        assert none is None and posted is not None
        hit, _ = box.match_or_post(ANY_SOURCE, ANY_TAG, 2)
        assert hit is not None

    def test_probe_is_nondestructive(self):
        box = Mailbox(Kernel())
        box.deliver(env(tag=4))
        assert box.probe(ANY_SOURCE, 4, 1) is not None
        assert box.unexpected_count == 1
        assert box.probe(ANY_SOURCE, 5, 1) is None

    def test_unexpected_bytes(self):
        box = Mailbox(Kernel())
        box.deliver(env(nbytes=100))
        box.deliver(env(nbytes=28))
        assert box.unexpected_bytes() == 128

    def test_sink_envelopes_absorbed(self):
        kernel = Kernel()
        box = Mailbox(kernel)
        sink = env()
        sink.rma_sink = True
        channel = FlowChannel(kernel, 1000)
        channel.in_flight = 64
        sink.channel = channel
        sink.credit = 64
        assert box.deliver(sink) is None
        assert box.unexpected_count == 0
        assert channel.in_flight == 0


class TestFlowChannel:
    def test_acquire_release_fifo(self):
        kernel = Kernel()
        channel = FlowChannel(kernel, capacity_bytes=100)
        assert channel.acquire(60) is None
        event1 = channel.acquire(60)  # would exceed: queued
        event2 = channel.acquire(50)  # FIFO behind event1
        assert event1 is not None and event2 is not None
        channel.release(60)
        assert event1.triggered  # credit pre-reserved for the head waiter
        assert not event2.triggered  # 60 + 50 would exceed capacity
        channel.release(60)
        assert event2.triggered
        assert channel.in_flight == 50

    def test_release_grants_multiple_waiters_that_fit(self):
        kernel = Kernel()
        channel = FlowChannel(kernel, capacity_bytes=100)
        channel.acquire(100)
        events = [channel.acquire(30) for _ in range(3)]
        channel.release(100)
        assert all(e.triggered for e in events)  # 3 x 30 fits at once
        assert channel.in_flight == 90

    def test_capacity_respected(self):
        channel = FlowChannel(Kernel(), capacity_bytes=100)
        channel.acquire(100)
        assert channel.in_flight == 100
        assert channel.acquire(1) is not None


class TestGroupsAndComms:
    def test_group_rank_lookup(self):
        members = [FakeEndpoint() for _ in range(3)]
        group = Group(members)
        assert group.rank_of(members[2]) == 2
        assert group.contains(members[0])
        with pytest.raises(CommunicatorError):
            group.rank_of(FakeEndpoint())
        with pytest.raises(CommunicatorError):
            group[7]
        with pytest.raises(CommunicatorError):
            Group([])

    def test_intercomm_views(self):
        kernel = Kernel()
        parents = [FakeEndpoint() for _ in range(2)]
        children = [FakeEndpoint() for _ in range(3)]
        comm = Communicator(kernel, 9, Group(parents), remote_group=Group(children))
        assert comm.is_intercomm
        assert comm.remote_size == 3
        assert comm.rank_of(children[1]) == 1
        assert comm.peer_for(parents[0], 2) is children[2]
        assert comm.peer_for(children[0], 1) is parents[1]
        with pytest.raises(CommunicatorError):
            comm.local_group_for(FakeEndpoint())

    def test_intracomm_remote_size_rejected(self):
        comm = Communicator(Kernel(), 1, Group([FakeEndpoint()]))
        with pytest.raises(CommunicatorError):
            _ = comm.remote_size

    def test_collective_context_sequencing(self):
        kernel = Kernel()
        members = [FakeEndpoint() for _ in range(2)]
        comm = Communicator(kernel, 1, Group(members))
        a0 = comm.collective_context(members[0])
        b0 = comm.collective_context(members[1])
        assert a0 is b0  # same (first) collective instance
        a1 = comm.collective_context(members[0])
        assert a1 is not a0  # second call advances the sequence
        assert a0.arrive(members[0]) is False
        assert a0.arrive(members[1]) is True
        with pytest.raises(CommunicatorError):
            a0.arrive(members[0])

    def test_collective_values_ordered_by_world_rank(self):
        kernel = Kernel()
        a, b = FakeEndpoint(), FakeEndpoint()
        ctxt = CollectiveContext(kernel, 2)
        ctxt.arrive(b, "second")
        ctxt.arrive(a, "first")
        assert ctxt.values() == ["first", "second"]

    def test_context_dropped_once_every_member_fetched_it(self):
        members = [FakeEndpoint() for _ in range(3)]
        comm = Communicator(Kernel(), 1, Group(members))
        first = comm.collective_context(members[0])
        comm.collective_context(members[1])
        assert comm._collectives == {0: first}
        assert comm.collective_context(members[2]) is first
        assert comm._collectives == {}

    def test_collective_contexts_released_after_a_run(self):
        windows = []

        def script(mpi):
            yield from mpi.init()
            for _ in range(50):
                yield from mpi.barrier()
            win = yield from mpi.win_create(8)
            yield from mpi.win_fence(win)
            yield from mpi.win_free(win)
            windows.append(win)
            yield from mpi.finalize()

        _, world = run_script(script, 4, impl="lam")
        comms = [world.comm_world, windows[0].internal_comm]
        assert all(comm._collectives == {} for comm in comms)


class TestUniverse:
    def test_cids_are_unique(self):
        universe = make_universe()
        seen = set()
        for _ in range(5):
            comm = universe.new_communicator([FakeEndpoint(), FakeEndpoint()])
            assert comm.cid not in seen
            seen.add(comm.cid)

    def test_comm_hooks_fire(self):
        universe = make_universe()
        created = []
        universe.comm_hooks.append(created.append)

        def script(mpi):
            yield from mpi.init()
            yield from mpi.finalize()

        universe.launch(ScriptProgram(script), 2)
        universe.run()
        assert any(c.name.startswith("MPI_COMM_WORLD") for c in created)

    def test_round_robin_placement_cycles(self):
        universe = make_universe()
        placement = universe.round_robin_placement(8)
        assert len(placement) == 8
        names = [c.name for c in placement]
        assert len(set(names[:6])) == 6  # 3 nodes x 2 cpus before wrapping

    def test_launch_validations(self):
        from repro.mpi import SpawnError

        universe = make_universe()
        with pytest.raises(SpawnError):
            universe.launch(ScriptProgram(lambda mpi: (yield from mpi.init())), 0)
        with pytest.raises(SpawnError):
            universe.lookup_program("missing")


class TestCallBoundary:
    """Wrappers hand the call boundary the generator they delegate to."""

    def test_no_wrapper_is_a_generator_function(self):
        api_methods = [v for v in vars(MpiApi).values() if inspect.isfunction(v)]
        assert len(api_methods) > 40
        assert not any(inspect.isgeneratorfunction(fn) for fn in api_methods)

        def helper(mpi, proc):
            yield from mpi.compute(0.0)

        def script(mpi):
            yield from mpi.init()
            yield from mpi.call("helper")
            yield from mpi.finalize()

        universe = make_universe("mpich")
        world = universe.launch(ScriptProgram(script, functions={"helper": helper}), 1)
        universe.run()
        image = world.endpoints[0].proc.image
        # register's app and main bodies, and _shared_body's (MPICH's weak
        # MPI_Send resolves to the strong PMPI_Send)
        for name in ("helper", "main", "MPI_Send", "PMPI_Barrier"):
            assert not inspect.isgeneratorfunction(image.resolve(name).body), name

    def test_yield_from_gives_the_bodys_value(self):
        out = {}

        def script(mpi):
            yield from mpi.init()
            out[mpi.rank, "barrier"] = yield from mpi.barrier()
            if mpi.rank == 0:
                request = yield from mpi.irecv(source=1, tag=5)
                out[0, "irecv"] = request
                yield from mpi.wait(request)
            else:
                out[1, "send"] = yield from mpi.send(0, tag=5)
            out[mpi.rank, "wtime"] = yield from mpi.wtime()
            yield from mpi.finalize()

        run_script(script, 2)
        assert out[0, "barrier"] is None and out[1, "barrier"] is None
        assert out[1, "send"] is None
        assert isinstance(out[0, "irecv"], Request)
        assert type(out[0, "wtime"]) is float and out[1, "wtime"] > 0.0


@settings(max_examples=25, deadline=None)
@given(
    arrivals=st.permutations(list(range(5))),
)
def test_property_mailbox_matching_is_total(arrivals):
    """Delivering five tagged messages in any order and receiving tags
    0..4 drains the queue exactly."""
    kernel = Kernel()
    box = Mailbox(kernel)
    for tag in arrivals:
        box.deliver(env(tag=tag, payload=tag))
    got = []
    for tag in range(5):
        matched, _ = box.match_or_post(ANY_SOURCE, tag, 1)
        assert matched is not None
        got.append(matched.payload)
    assert got == [0, 1, 2, 3, 4]
    assert box.unexpected_count == 0
