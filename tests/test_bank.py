"""Bank state-machine tests: Table 2 constraints under both page policies."""


from repro.config import DramTimings, PagePolicy
from repro.dram.bank import Bank, RankTimer
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs

T = TimingPs.from_config(DramTimings(), dram_clock_ps=3000, burst_clocks=4)


def make_bank(policy=PagePolicy.CLOSE_PAGE):
    return Bank(bank_id=0, timing=T, page_policy=policy), BusResource("bus"), RankTimer()


class TestClosePageRead:
    def test_idle_read_timeline(self):
        bank, bus, rank = make_bank()
        result = bank.read(0, row=5, num_lines=1, data_bus=bus, rank=rank)
        # ACT at 0, RD at tRCD, data from tRCD+tCL for one burst.
        assert result.command_start == 0
        assert result.data_starts == [T.tRCD + T.tCL]
        assert result.data_times == [T.tRCD + T.tCL + T.burst]
        assert not result.row_hit

    def test_read_counts_act_and_pre(self):
        bank, bus, rank = make_bank()
        bank.read(0, 5, 1, bus, rank)
        assert bank.stats.activates == 1
        assert bank.stats.precharges == 1
        assert bank.stats.reads == 1

    def test_trc_separates_back_to_back_acts(self):
        bank, bus, rank = make_bank()
        bank.read(0, 5, 1, bus, rank)
        second = bank.read(0, 6, 1, bus, rank)
        assert second.command_start >= T.tRC

    def test_ready_at_honours_precharge(self):
        bank, bus, rank = make_bank()
        bank.read(0, 5, 1, bus, rank)
        # pre at max(tRAS, last RD + tRPD); ready at max(tRC, pre + tRP)
        expected_pre = max(T.tRAS, T.tRCD + T.tRPD)
        assert bank.ready_at == max(T.tRC, expected_pre + T.tRP)

    def test_group_read_pipelines_on_bus(self):
        bank, bus, rank = make_bank()
        result = bank.read(0, 5, num_lines=4, data_bus=bus, rank=rank)
        starts = result.data_starts
        assert len(starts) == 4
        assert starts[0] == T.tRCD + T.tCL
        for a, b in zip(starts, starts[1:]):
            assert b - a == T.burst  # fully pipelined bursts
        assert bank.stats.reads == 4
        assert bank.stats.activates == 1  # one ACT serves the region

    def test_busy_bus_delays_data(self):
        bank, bus, rank = make_bank()
        bus.reserve(0, 100_000)
        result = bank.read(0, 5, 1, bus, rank)
        assert result.data_starts[0] == 100_000

    def test_close_page_never_row_hits(self):
        bank, bus, rank = make_bank()
        bank.read(0, 5, 1, bus, rank)
        result = bank.read(bank.ready_at, 5, 1, bus, rank)
        assert not result.row_hit
        assert bank.stats.row_hits == 0


class TestRankTimer:
    def test_trrd_separates_acts_across_banks(self):
        bank_a, bus, rank = make_bank()
        bank_b = Bank(bank_id=1, timing=T, page_policy=PagePolicy.CLOSE_PAGE)
        bank_a.read(0, 5, 1, bus, rank)
        result = bank_b.read(0, 7, 1, bus, rank)
        assert result.command_start >= T.tRRD

    def test_estimate_matches_gate(self):
        bank, bus, rank = make_bank()
        rank.note_act(0, T.tRRD)
        assert bank.probe(0, 5, rank) == (T.tRRD, False)

    def test_twtr_blocks_read_after_write_data(self):
        bank, bus, rank = make_bank()
        bank.write(0, 5, bus, rank)
        write_data_end = T.tRCD + T.tWL + T.burst
        result = bank.read(bank.ready_at, 6, 1, bus, rank)
        first_rd = result.data_starts[0] - T.tCL
        assert first_rd >= write_data_end + T.tWTR


class TestFourActivateWindow:
    """A fifth ACT inside an open four-ACT window waits for tFAW.

    The channel controllers never reach this stall: they issue only once
    ``Bank.probe`` says the access may start, and the probe already folds
    the window in.  So the stall counters are pinned here, at bank level.
    """

    def test_fifth_act_stalls_for_the_exact_gap(self):
        timing = TimingPs.from_config(
            DramTimings(), dram_clock_ps=3000, burst_clocks=4, tfaw_ns=50.0)
        banks = [Bank(b, timing, PagePolicy.CLOSE_PAGE) for b in range(5)]
        bus, rank = BusResource("bus"), RankTimer()
        for bank in banks[:4]:  # ACTs at 0, tRRD, 2 tRRD, 3 tRRD
            bank.read(0, 5, 1, bus, rank)
        now = 4 * timing.tRRD
        assert now < timing.tFAW
        last = banks[4]
        assert last.probe(now, 5, rank) == (timing.tFAW, False)
        result = last.read(now, 5, 1, bus, rank)
        assert result.command_start == timing.tFAW
        assert last.stats.faw_stalls == 1
        assert last.stats.faw_stall_ps == timing.tFAW - now
        assert [b.stats.faw_stalls for b in banks[:4]] == [0, 0, 0, 0]


class TestClosePageWrite:
    def test_idle_write_timeline(self):
        bank, bus, rank = make_bank()
        result = bank.write(0, 5, data_bus=bus, rank=rank)
        assert result.command_start == 0
        assert result.data_starts == [T.tRCD + T.tWL]
        assert bank.stats.writes == 1
        assert bank.stats.activates == 1

    def test_write_holds_bank_longer_than_read(self):
        bank_r, bus_r, rank_r = make_bank()
        bank_w, bus_w, rank_w = make_bank()
        bank_r.read(0, 5, 1, bus_r, rank_r)
        bank_w.write(0, 5, bus_w, rank_w)
        assert bank_w.ready_at > bank_r.ready_at  # tWPD > tRPD


class TestOpenPage:
    def test_first_access_opens_row(self):
        bank, bus, rank = make_bank(PagePolicy.OPEN_PAGE)
        result = bank.read(0, 5, 1, bus, rank)
        assert not result.row_hit
        assert bank.open_row == 5

    def test_row_hit_skips_act(self):
        bank, bus, rank = make_bank(PagePolicy.OPEN_PAGE)
        bank.read(0, 5, 1, bus, rank)
        t0 = bank.column_ok
        result = bank.read(t0, 5, 1, bus, rank)
        assert result.row_hit
        assert bank.stats.activates == 1  # no second ACT
        assert bank.stats.row_hits == 1
        # Hit data comes after just tCL, no tRCD.
        assert result.data_starts[0] == t0 + T.tCL

    def test_row_conflict_precharges_first(self):
        bank, bus, rank = make_bank(PagePolicy.OPEN_PAGE)
        bank.read(0, 5, 1, bus, rank)
        pre_time = bank.precharge_ok
        result = bank.read(pre_time, 9, 1, bus, rank)
        assert not result.row_hit
        assert bank.stats.precharges == 1
        # Both the cold first access and the conflicting one are misses.
        assert bank.stats.row_misses == 2
        assert bank.open_row == 9
        # PRE -> tRP -> ACT -> tRCD -> RD, data after tCL
        assert result.data_starts[0] == pre_time + T.tRP + T.tRCD + T.tCL

    def test_is_row_hit_probe(self):
        bank, bus, rank = make_bank(PagePolicy.OPEN_PAGE)
        assert not bank.probe(0, 5, rank)[1]
        bank.read(0, 5, 1, bus, rank)
        assert bank.probe(0, 5, rank)[1]
        assert not bank.probe(0, 6, rank)[1]

    def test_estimate_prefers_open_row(self):
        bank, bus, rank = make_bank(PagePolicy.OPEN_PAGE)
        bank.read(0, 5, 1, bus, rank)
        hit_est, _ = bank.probe(bank.column_ok, 5, rank)
        miss_est, _ = bank.probe(bank.column_ok, 9, rank)
        assert hit_est <= miss_est


class TestWireOrderWriteGate:
    """Writes must not backfill so that a committed read command falls
    inside their wire-order tWTR window (WR cmd .. WR data end + tWTR)."""

    def test_write_skips_past_committed_future_read(self):
        bank, bus, rank = make_bank()
        # A read on another bank of this rank already committed its command
        # at a future instant, with its burst reserved on the shared bus.
        rd_cmd = T.tRCD + T.tWL + T.clock  # inside the idle write's window
        bus.reserve(rd_cmd + T.tCL, T.burst)
        rank.note_read_cmd(rd_cmd, now=0)

        result = bank.write(0, 5, data_bus=bus, rank=rank)
        wr_cmd = result.data_starts[0] - T.tWL
        # The write may not wrap the committed read in its tWTR window...
        assert not (wr_cmd <= rd_cmd < result.data_starts[0] + T.burst + T.tWTR)
        # ...which here forces it after the read command entirely.
        assert wr_cmd > rd_cmd

    def test_write_unaffected_without_pending_read(self):
        bank, bus, rank = make_bank()
        result = bank.write(0, 5, data_bus=bus, rank=rank)
        assert result.data_starts == [T.tRCD + T.tWL]

    def test_read_commits_its_command_instant(self):
        bank, bus, rank = make_bank()
        bank.read(0, row=5, num_lines=2, data_bus=bus, rank=rank)
        # One committed instant per line, each tCL before its burst.
        assert rank.pending_rd_cmds == [T.tRCD, T.tRCD + T.burst]

    def test_note_read_cmd_prunes_stale_entries(self):
        rank = RankTimer()
        rank.note_read_cmd(100, now=0)
        rank.note_read_cmd(50, now=0)
        assert rank.pending_rd_cmds == [50, 100]
        rank.note_read_cmd(300, now=200)  # both old entries are in the past
        assert rank.pending_rd_cmds == [300]

    def test_read_in_window_returns_latest_hit(self):
        rank = RankTimer()
        for cmd in (10, 20, 30):
            rank.note_read_cmd(cmd, now=0)
        assert rank.read_in_window(10, 25) == 20  # window is half-open
        assert rank.read_in_window(31, 99) is None
        assert rank.read_in_window(0, 100) == 30
