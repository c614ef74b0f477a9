"""CLI tests (python -m repro ...)."""

import pytest

from repro.__main__ import build_parser, main
from repro.config import SystemConfig
from repro.system import System

#: Every command that builds the config of one run from the run knobs.
SINGLE_RUN_COMMANDS = [
    ["run"], ["compare"], ["faults"], ["bench", "profile"],
    ["timeline", "record"], ["prefetch", "report"],
    ["trace", "record"], ["trace", "export"],
]


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.system == "fbd-ap"
        assert args.workload == "4C-1"
        assert args.insts == 50_000

    def test_compare_accepts_knobs(self):
        args = build_parser().parse_args(
            ["compare", "--workload", "swim", "--k", "8", "--assoc", "2way"]
        )
        assert args.k == 8
        assert args.assoc == "2way"

    def test_bad_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "rambus"])

    @pytest.mark.parametrize("argv", [
        ["compare", "--latency"],
        ["compare", "--utilisation"],
        ["faults", "--latency"],
        ["faults", "--utilisation"],
    ], ids=" ".join)
    def test_run_only_flags_rejected_elsewhere(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class _Built(Exception):
    """Stops a command at its first run, carrying that run's config."""


class TestRunKnobs:
    @pytest.mark.parametrize("command", SINGLE_RUN_COMMANDS, ids=" ".join)
    def test_device_reaches_the_config(self, command, monkeypatch):
        def stop(machine):
            raise _Built(machine.config)

        monkeypatch.setattr(System, "run", stop)
        with pytest.raises(_Built) as built:
            main([*command, "--workload", "swim", "--insts", "1000",
                  "--device", "ddr3-1333"])
        assert built.value.args[0].memory.device == "ddr3-1333"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "2C-1" in out
        assert "wupwise" in out

    def test_run_report(self, capsys):
        code = main(
            ["run", "--workload", "swim", "--insts", "5000", "--latency",
             "--utilisation"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AMB prefetching: K=4" in out
        assert "latency distribution" in out
        assert "link utilisation" in out

    def test_run_ddr2(self, capsys):
        assert main(["run", "--workload", "vpr", "--system", "ddr2",
                     "--insts", "4000"]) == 0
        assert "AMB prefetching: off" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--workload", "vpr", "--insts", "4000"]) == 0
        out = capsys.readouterr().out
        for name in ("ddr2", "fbd", "fbd-ap"):
            assert name in out

    def test_no_sw_prefetch_flag(self, capsys):
        assert main(["run", "--workload", "swim", "--insts", "4000",
                     "--no-sw-prefetch"]) == 0


class TestInputErrors:
    """Bad workloads and config values exit 2 with one ``error:`` line,
    never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--workload", "nope"],
            ["compare", "--workload", "nope"],
            ["sweep", "k=2", "--workload", "nope", "--no-cache"],
            ["faults", "--workload", "nope"],
            ["bench", "profile", "--workload", "nope"],
            ["run", "--k", "0"],
            ["run", "--system", "fbd-ap", "--k", "3"],
            ["run", "--workload", "swim", "--system", "fbd-ap", "--insts",
             "1000", "--k", "8", "--entries", "4"],
            ["sweep", "--workload", "swim", "k=8", "entries=4", "--no-cache"],
            ["run", "--insts", "0"],
            ["compare", "--insts", "0"],
            ["run", "--timeline-ns", "-1"],
            ["sweep", "k=0", "--no-cache"],
            ["sweep", "k=3", "--no-cache"],
            ["sweep", "k=x", "--no-cache"],
            ["sweep", "assoc=bogus", "--no-cache"],
            ["faults", "--rates", "-1"],
            ["faults", "--bitflip", "2"],
            ["run", "--jobs", "0"],
            ["compare", "--jobs", "0"],
            ["sweep", "k=2", "--jobs", "0", "--no-cache"],
            ["faults", "--jobs", "-1"],
            ["sweep", "k=2", "--insts", "0", "--no-cache"],
            ["sweep", "k=2", "--cache-dir", "/dev/null/x"],
            ["cache", "stats", "--cache-dir", "/dev/null/x"],
            ["cache", "purge", "--cache-dir", "/dev/null/x"],
            ["trace", "record", "--max-requests", "-1"],
            ["bench", "profile", "--top", "-1"],
            ["run", "--profile", "-3"],
            ["trace", "summarize", "capture.jsonl", "--top", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_2_with_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestWarnings:
    def test_warning_goes_to_stderr_and_leaves_stdout(self, capsys, monkeypatch):
        argv = ["run", "--workload", "swim", "--insts", "1000",
                "--k", "4", "--entries", "4"]
        assert main(argv) == 0
        warned = capsys.readouterr()
        assert warned.err.splitlines() == [
            "warning: prefetch.cache_entries: only 1 region(s) fit the AMB "
            "cache; two concurrent streams will thrash it"
        ]
        monkeypatch.setattr(SystemConfig, "warnings", lambda self: [])
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == "" and quiet.out == warned.out


class TestCacheDir:
    """``repro cache`` refuses a root no cache can live in and reports an
    empty cache for one it could create."""

    @pytest.mark.parametrize("action", ["stats", "purge"])
    @pytest.mark.parametrize("under", ["", "sub/dir"], ids=["file", "under-file"])
    def test_file_in_the_way_exits_2(self, action, under, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["cache", action, "--cache-dir", str(blocker / under)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cache directory {blocker / under}: {blocker} "
            "is not a directory\n")

    def test_creatable_root_is_an_empty_cache(self, tmp_path, capsys):
        root = tmp_path / "new" / "cache"
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        assert "entries       0" in capsys.readouterr().out
        assert main(["cache", "purge", "--cache-dir", str(root)]) == 0
        assert "removed 0 cache entries" in capsys.readouterr().out
        assert not root.exists()
