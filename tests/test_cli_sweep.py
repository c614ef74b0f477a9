"""Tests for the CLI sweep subcommand and axis parsing."""

import pytest

from repro.__main__ import _parse_axes, main


class TestAxisParsing:
    def test_single_axis(self):
        assert _parse_axes(["k=2,4,8"]) == {"k": [2, 4, 8]}

    def test_multiple_axes(self):
        axes = _parse_axes(["k=2,4", "rate=667,800"])
        assert axes == {"k": [2, 4], "rate": [667, 800]}

    def test_string_axis(self):
        assert _parse_axes(["assoc=direct,full"]) == {"assoc": ["direct", "full"]}

    def test_missing_equals(self):
        with pytest.raises(SystemExit):
            _parse_axes(["k2,4"])

    def test_unknown_axis(self):
        with pytest.raises(SystemExit):
            _parse_axes(["banks=4,8"])

    def test_empty_values(self):
        with pytest.raises(SystemExit):
            _parse_axes(["k="])

    def test_no_axes(self):
        with pytest.raises(SystemExit):
            _parse_axes([])


class TestSweepCommand:
    def test_sweep_runs_and_charts(self, capsys, tmp_path):
        code = main([
            "sweep", "k=2,4", "--workload", "swim", "--insts", "3000",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep over k" in out
        assert "#" in out  # bar chart rendered
        assert "[cache: 2 simulated" in out

    def test_sweep_two_axes(self, capsys):
        code = main([
            "sweep", "k=4", "channels=1,2", "--workload", "vpr",
            "--insts", "3000", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "channels" in out

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        argv = [
            "sweep", "k=2,4", "--workload", "swim", "--insts", "3000",
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[cache: 2 simulated, 0 served" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[cache: 0 simulated, 2 served" in second
        # identical tables either way
        assert first.split("[cache")[0] == second.split("[cache")[0]

    def test_sweep_prints_each_config_warning_once(self, capsys):
        """A point whose config warns says so on stderr, as `repro run`
        does; two points with the same warning print it once, and stdout
        carries only the table."""
        code = main([
            "sweep", "rate=1333", "k=2,4", "--workload", "swim",
            "--insts", "1000", "--no-cache",
        ])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("warning: data_rate_mts: 1333 MT/s ")
        assert "warning" not in captured.out

    def test_sweep_without_warnings_prints_nothing_on_stderr(self, capsys):
        assert main([
            "sweep", "k=2", "--workload", "swim", "--insts", "1000",
            "--no-cache",
        ]) == 0
        assert capsys.readouterr().err == ""
