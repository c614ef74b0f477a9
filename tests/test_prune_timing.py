"""When a reservation structure is pruned must not change what it grants.

The FB-DIMM channel controller prunes its links and AMB data buses only
once they outgrow a bound, not every tick.  That is safe because
``BusResource``, ``SouthboundLink`` and ``NorthboundLink`` only ever take
reservations at or after the current time, so an expired entry can never
move a grant.  These properties check exactly that: a copy pruned at a
random subset of a rising ``now`` grants the same slots as a copy never
pruned.

``TaggedBusResource`` is different: an expired burst within one switch
gap of ``now`` still pushes a differently-tagged grant, so its prune is
visible.  The DDR2 controller prunes it once per tick that issues, just
before the first grant; the last two tests check that this grants what
pruning every tick grants, and pin the counterexample to pruning later.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channel.frames import NorthboundLink, SouthboundLink
from repro.dram.resources import BusResource, TaggedBusResource

FRAME_PS = 6000

#: A time step in ps: arbitrary, or whole frames so bookings and prunes
#: land exactly on frame boundaries.
_PS = st.one_of(
    st.integers(0, 20_000), st.integers(0, 4).map(lambda k: k * FRAME_PS)
)

#: One step: advance ``now``, then book at ``now + offset`` (never in the
#: past), with a size, a variant selector, and whether the pruned copy
#: prunes at this ``now`` first.
STEPS = st.lists(
    st.tuples(
        _PS,  # now advance
        _PS,  # earliest = now + offset
        st.integers(1, 5),  # duration in frames / frames needed
        st.integers(0, 1),  # variant: command vs write data, etc.
        st.booleans(),  # prune the pruned copy before booking
    ),
    min_size=1,
    max_size=60,
)


def _run_pair(make, book, steps):
    """Grants of an unpruned and a pruned copy over the same bookings."""
    plain, pruned = make(), make()
    now = 0
    grants_plain, grants_pruned = [], []
    for advance, offset, size, variant, prune in steps:
        now += advance
        if prune:
            pruned.prune_before(now)
        grants_plain.append(book(plain, now + offset, size, variant))
        grants_pruned.append(book(pruned, now + offset, size, variant))
    return plain, pruned, grants_plain, grants_pruned


def _book_bus(bus, earliest, size, variant):
    duration = size * FRAME_PS // (2 if variant else 1)
    return bus.next_free(earliest), bus.reserve(earliest, duration)


def _book_south(link, earliest, size, variant):
    if variant:
        return link.reserve_command(earliest)
    return link.reserve_write_data(earliest, size)


def _book_north(link, earliest, size, variant):
    return link.reserve_line(earliest, 2 if variant else size)


@settings(max_examples=200, deadline=None)
@given(steps=STEPS)
def test_bus_resource_grants_ignore_prune_timing(steps):
    plain, pruned, grants, pruned_grants = _run_pair(
        lambda: BusResource("bus"), _book_bus, steps
    )
    assert grants == pruned_grants
    assert plain.busy_ps == pruned.busy_ps


@settings(max_examples=200, deadline=None)
@given(steps=STEPS)
# A write books frame 1 ahead; at now = frame 1's start it is still live.
@example(steps=[(0, FRAME_PS, 1, 0, False), (FRAME_PS, 0, 1, 0, True)])
def test_southbound_grants_ignore_prune_timing(steps):
    plain, pruned, grants, pruned_grants = _run_pair(
        lambda: SouthboundLink("south", FRAME_PS), _book_south, steps
    )
    assert grants == pruned_grants
    assert plain.busy_ps == pruned.busy_ps


@settings(max_examples=200, deadline=None)
@given(steps=STEPS, phase=st.integers(0, FRAME_PS - 1))
def test_northbound_grants_ignore_prune_timing(steps, phase):
    plain, pruned, grants, pruned_grants = _run_pair(
        lambda: NorthboundLink("north", FRAME_PS, phase_ps=phase),
        _book_north, steps,
    )
    assert grants == pruned_grants
    assert plain.busy_ps == pruned.busy_ps


#: Ticks of a tagged bus: advance ``now`` (0 stays in the tick), then
#: book ``(offset, duration, tag)`` bursts at ``now + offset``, none at
#: all on an idle tick.
TICKS = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 12),
                      st.integers(0, 2)),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(ticks=TICKS, gap=st.integers(0, 15))
def test_tagged_bus_prune_before_first_grant_matches_every_tick(ticks, gap):
    every = TaggedBusResource("every", switch_gap_ps=gap)
    issuing = TaggedBusResource("issuing", switch_gap_ps=gap)
    now = 0
    for advance, bursts in ticks:
        now += advance
        every.prune_before(now)
        if bursts:
            issuing.prune_before(now)
        for offset, duration, tag in bursts:
            assert (every.reserve(now + offset, duration, tag)
                    == issuing.reserve(now + offset, duration, tag))
    assert every.busy_ps == issuing.busy_ps


def test_tagged_bus_prune_is_visible_in_grants():
    """An expired burst one switch gap before ``now`` delays a burst of
    another tag only while it is still recorded."""
    plain = TaggedBusResource("ddr2", switch_gap_ps=10)
    pruned = TaggedBusResource("ddr2", switch_gap_ps=10)
    for bus in (plain, pruned):
        bus.reserve(0, 10, "rd")  # [0, 10): expired by now=15
        bus.reserve(100, 10, "rd")  # [100, 110): still live at now=15
    pruned.prune_before(15)
    assert plain.reserve(15, 10, "wr") == 20  # 10 + switch gap
    assert pruned.reserve(15, 10, "wr") == 15
