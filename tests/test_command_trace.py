"""DRAM command-trace tests: ordering and protocol legality."""


from repro.check.trace import bank_commands
from repro.config import DramTimings, PagePolicy
from repro.dram.bank import Bank, RankTimer
from repro.dram.commands import COMMANDS_BY_CODE, CommandType, unpack_record
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs

T = TimingPs.from_config(DramTimings(), 3000, 4)


def traced_bank(policy=PagePolicy.CLOSE_PAGE):
    bank = Bank(0, T, policy)
    bank.enable_trace()
    return bank, BusResource("bus"), RankTimer()


def records(bank):
    """The bank's journal as ``(command, time_ps, row)`` records."""
    return list(bank_commands(bank.command_log))


def kinds(bank):
    return [kind for kind, _, _ in records(bank)]


class TestCloseTrace:
    def test_read_sequence(self):
        bank, bus, rank = traced_bank()
        bank.read(0, 5, 1, bus, rank)
        assert kinds(bank) == [
            CommandType.ACTIVATE, CommandType.READ, CommandType.PRECHARGE,
        ]

    def test_group_read_has_k_reads(self):
        bank, bus, rank = traced_bank()
        bank.read(0, 5, 4, bus, rank)
        assert kinds(bank) == [
            CommandType.ACTIVATE,
            CommandType.READ, CommandType.READ, CommandType.READ, CommandType.READ,
            CommandType.PRECHARGE,
        ]

    def test_write_sequence(self):
        bank, bus, rank = traced_bank()
        bank.write(0, 5, bus, rank)
        assert kinds(bank) == [
            CommandType.ACTIVATE, CommandType.WRITE, CommandType.PRECHARGE,
        ]

    def test_protocol_timing_legal(self):
        """ACT -> RD >= tRCD; RD -> PRE >= tRPD; per Table 2."""
        bank, bus, rank = traced_bank()
        bank.read(0, 5, 1, bus, rank)
        (_, act, _), (_, rd, _), (_, pre, _) = records(bank)
        assert rd - act >= T.tRCD
        assert pre - rd >= T.tRPD
        assert pre - act >= T.tRAS

    def test_trace_disabled_by_default(self):
        bank = Bank(0, T, PagePolicy.CLOSE_PAGE)
        bank.read(0, 5, 1, BusResource("b"), RankTimer())
        assert bank.command_log is None

    def test_trace_matches_stats(self):
        bank, bus, rank = traced_bank()
        bank.read(0, 5, 2, bus, rank)
        bank.write(bank.ready_at, 6, bus, rank)
        log_kinds = kinds(bank)
        assert log_kinds.count(CommandType.ACTIVATE) == bank.stats.activates
        assert log_kinds.count(CommandType.PRECHARGE) == bank.stats.precharges
        assert log_kinds.count(CommandType.READ) == bank.stats.reads
        assert log_kinds.count(CommandType.WRITE) == bank.stats.writes


class TestOpenTrace:
    def test_row_hit_emits_only_column_command(self):
        bank, bus, rank = traced_bank(PagePolicy.OPEN_PAGE)
        bank.read(0, 5, 1, bus, rank)
        del bank.command_log[:]
        bank.read(bank.column_ok, 5, 1, bus, rank)
        assert kinds(bank) == [CommandType.READ]

    def test_row_conflict_emits_pre_then_act(self):
        bank, bus, rank = traced_bank(PagePolicy.OPEN_PAGE)
        bank.read(0, 5, 1, bus, rank)
        del bank.command_log[:]
        bank.read(bank.precharge_ok, 9, 1, bus, rank)
        assert kinds(bank) == [
            CommandType.PRECHARGE, CommandType.ACTIVATE, CommandType.READ,
        ]
        (_, pre, _), (_, act, _), _ = records(bank)
        assert act - pre >= T.tRP

    def test_rows_recorded(self):
        bank, bus, rank = traced_bank(PagePolicy.OPEN_PAGE)
        bank.read(0, 5, 1, bus, rank)
        assert all(row == 5 for _, _, row in records(bank))
        # The journal holds one packed integer per command; the bank id
        # is the journal's key (``bank_journals``), not part of the record.
        assert len(bank.command_log) == len(records(bank))
        assert [unpack_record(record) for record in bank.command_log] == [
            (time_ps, COMMANDS_BY_CODE.index(kind), row)
            for kind, time_ps, row in records(bank)]
        assert bank.bank_id == 0
