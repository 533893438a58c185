"""Node model: specs, segments, hardware counters, L3 pressure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.work import Work
from repro.platform.presets import default_platform
from repro.simcore.machine import Machine


def test_default_spec_matches_table_iii():
    spec = default_platform()
    assert spec.num_sockets == 2
    assert [socket.cores for socket in spec.sockets] == [10, 10]
    assert spec.total_cores == 20
    assert [socket.freq_ghz for socket in spec.sockets] == [2.5, 2.5]
    assert [socket.l3_bytes for socket in spec.sockets] == [25 * 1024 * 1024] * 2


def test_socket_of():
    spec = default_platform()
    assert spec.socket_of(0) == 0
    assert spec.socket_of(9) == 0
    assert spec.socket_of(10) == 1
    assert spec.socket_of(19) == 1
    with pytest.raises(IndexError):
        spec.socket_of(20)
    with pytest.raises(IndexError):
        spec.socket_of(-1)


def test_cores_constructed(machine):
    assert len(machine.cores) == 20
    assert machine.cores[15].socket == 1


def test_cpu_only_segment_duration(machine):
    ticket = machine.segment_begin(0, Work(cpu_ns=1000))
    assert ticket.duration_ns == 1000
    assert not ticket.uses_memory
    machine.segment_end(ticket, Work(cpu_ns=1000))


def test_memory_segment_adds_time(machine):
    work = Work(cpu_ns=1000, membytes=7500)  # 1 us at 7.5 GB/s
    ticket = machine.segment_begin(0, work)
    assert ticket.duration_ns == 2000
    machine.segment_end(ticket, work)


def test_busy_accounting(machine):
    work = Work(cpu_ns=500)
    t = machine.segment_begin(3, work)
    machine.segment_end(t, work)
    assert machine.cores[3].busy_ns == 500


def test_hw_counters_incremented(machine):
    work = Work(cpu_ns=1000, membytes=6400)  # 100 cache lines
    t = machine.segment_begin(0, work)
    machine.segment_end(t, work)
    hw = machine.cores[0].hw
    assert hw.offcore_total() == 100
    assert hw.offcore_all_data_rd == 70
    assert hw.offcore_demand_rfo == 25
    assert hw.offcore_demand_code_rd == 5
    assert hw.cycles == round(t.duration_ns * 2.5)
    assert hw.instructions == round(1000 * 2.5 * 1.6)


def test_l3_pressure_inflates_traffic(machine):
    big = 30 * 1024 * 1024  # exceeds the 25 MB L3 on its own
    work = Work(cpu_ns=0, membytes=64_000, working_set=big)
    machine.segment_begin(0, work)
    factor = machine.total_offcore_bytes() / work.membytes
    assert factor > 1.0
    assert factor <= machine.platform.l3_max_factor
    assert machine.cores[0].hw.offcore_total() == round(work.membytes * factor) // 64


def test_l3_no_pressure_small_ws(machine):
    work = Work(cpu_ns=0, membytes=1024)
    machine.segment_begin(0, work)
    assert machine.total_offcore_bytes() == work.membytes


def test_working_set_accounting_balanced(machine):
    work = Work(cpu_ns=10, membytes=100, working_set=5000)
    t1 = machine.segment_begin(0, work)
    t2 = machine.segment_begin(1, work)
    machine.segment_end(t1, work)
    machine.segment_end(t2, work)
    assert machine.resources.active_ws[0] == 0


def test_working_set_negative_detected(machine):
    work = Work(cpu_ns=10, membytes=100, working_set=5000)
    t = machine.segment_begin(0, work)
    machine.segment_end(t, work)
    with pytest.raises(RuntimeError):
        machine.segment_end(t, work)


def test_contention_slows_segments(machine):
    work = Work(cpu_ns=0, membytes=1_000_000)
    solo = machine.segment_begin(0, work)
    machine.segment_end(solo, work)
    # Fill socket 0 with active streams.
    tickets = [machine.segment_begin(c, work) for c in range(1, 10)]
    contended = machine.segment_begin(0, work)
    assert contended.duration_ns > solo.duration_ns
    for t in tickets:
        machine.segment_end(t, work)
    machine.segment_end(contended, work)


def test_sockets_have_independent_controllers(machine):
    work = Work(cpu_ns=0, membytes=1_000_000)
    tickets = [machine.segment_begin(c, work) for c in range(10)]  # fill socket 0
    remote = machine.segment_begin(10, work)  # socket 1: uncontended
    solo_time = Machine().segment_begin(0, work).duration_ns
    assert remote.duration_ns == solo_time
    for t in tickets:
        machine.segment_end(t, work)
    machine.segment_end(remote, work)


def test_total_offcore_bytes(machine):
    work = Work(cpu_ns=0, membytes=64_000)
    t = machine.segment_begin(0, work)
    machine.segment_end(t, work)
    assert machine.total_offcore_bytes() == 64_000


@given(st.integers(min_value=0, max_value=19), st.integers(min_value=0, max_value=10**6))
def test_property_segment_duration_nonnegative(core, membytes):
    machine = Machine()
    work = Work(cpu_ns=100, membytes=membytes)
    ticket = machine.segment_begin(core, work)
    assert ticket.duration_ns >= 100
    machine.segment_end(ticket, work)
