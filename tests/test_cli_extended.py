"""Tests for the stats/witness CLI subcommands and the JSON export flag."""

import json

import pytest

from repro.cli import main
from repro.trace.writers import dump_trace
from repro.bench.paper_figures import figure_1a, figure_2b, figure_5

from conftest import random_trace


class TestAnalyzeJsonFlag:
    def test_json_report_written(self, tmp_path, capsys):
        trace_path = dump_trace(random_trace(seed=3, n_events=30), tmp_path / "t.std")
        out_path = tmp_path / "report.json"
        main(["analyze", str(trace_path), "--detector", "wcp", "--json", str(out_path)])
        payload = json.loads(out_path.read_text())
        assert payload["detector"] == "WCP"
        assert "report written" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_output(self, tmp_path, capsys):
        trace_path = dump_trace(random_trace(seed=5, n_events=25), tmp_path / "t.std")
        assert main(["stats", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "events" in output and "threads" in output and "locks" in output


class TestWitnessCommand:
    def test_witness_found_for_figure_2b(self, tmp_path, capsys):
        trace_path = dump_trace(figure_2b(), tmp_path / "fig2b.std")
        code = main(["witness", str(trace_path), "--detector", "wcp"])
        output = capsys.readouterr().out
        assert code == 1
        assert "witness found" in output

    def test_no_race_to_witness(self, tmp_path, capsys):
        trace_path = dump_trace(figure_1a(), tmp_path / "fig1a.std")
        code = main(["witness", str(trace_path), "--detector", "wcp"])
        assert code == 0
        assert "nothing to witness" in capsys.readouterr().out

    def test_unwitnessable_race_reports_deadlock_hint(self, tmp_path, capsys):
        # Figure 5: WCP flags a pair whose only manifestation is a deadlock.
        trace_path = dump_trace(figure_5(), tmp_path / "fig5.std")
        code = main(["witness", str(trace_path), "--detector", "wcp"])
        output = capsys.readouterr().out
        assert code == 0
        assert "deadlock" in output

    def test_budget_exhaustion_path(self, tmp_path, capsys):
        trace_path = dump_trace(figure_2b(), tmp_path / "fig2b.std")
        code = main([
            "witness", str(trace_path), "--detector", "wcp", "--max-states", "1",
        ])
        output = capsys.readouterr().out
        # Either the witness is found immediately or the budget message shows.
        assert code in (1, 2)
        assert "witness" in output or "budget" in output


#: Every subcommand that takes a trace path, with the flags it needs.
_TRACE_COMMANDS = [
    ["analyze"],
    ["analyze", "--stream"],
    ["analyze", "--shards", "2", "--shard-mode", "serial"],
    ["compare"],
    ["stats"],
    ["witness"],
    # Nothing listens on the port: the path check fires before a connect.
    ["push", "--port", "1", "--retries", "0"],
]


class TestUnreadableTracePath:
    @pytest.mark.parametrize("command", _TRACE_COMMANDS,
                             ids=lambda argv: "-".join(argv[:2]))
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_one_error_line_and_exit_2(self, tmp_path, capsys, command, kind):
        path = tmp_path / "missing.std" if kind == "missing" else tmp_path
        argv = [command[0], str(path)] + command[1:]
        code = main(argv)
        captured = capsys.readouterr()
        reason = ("No such file or directory" if kind == "missing"
                  else "Is a directory")
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: cannot read trace file %s: %s" % (path, reason)
        ]


class TestShardModeChoices:
    def _invalid_choice(self, capsys, mode):
        trace_path = "examples/traces/quickstart.std"
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", trace_path, "--shards", "2",
                  "--shard-mode", mode])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if "invalid choice" in line]
        assert len(errors) == 1
        assert errors[0] == (
            "repro-race analyze: error: argument --shard-mode: invalid "
            "choice: %r (choose from 'process', 'serial')" % mode
        )

    def test_removed_ring_mode_is_an_argparse_error(self, capsys):
        self._invalid_choice(capsys, "ring")

    def test_removed_thread_mode_is_an_argparse_error(self, capsys):
        self._invalid_choice(capsys, "thread")


class TestNumericFlagValidation:
    """Out-of-range numbers are usage errors (exit 2, one line), never a
    traceback -- exit 1 would read as "races found"."""

    QUICKSTART = "examples/traces/quickstart.std"

    @pytest.mark.parametrize("command, flag, value", [
        ("analyze", "--shard-heartbeat", "0"),
        ("analyze", "--shard-heartbeat", "-1"),
        ("analyze", "--shard-heartbeat", "nan"),
        ("analyze", "--max-events", "-1"),
        ("analyze", "--max-events", "0"),
        ("analyze", "--window", "-3"),
        ("analyze", "--window", "0"),
        ("serve", "--max-events", "-4"),
        ("serve", "--handshake-timeout", "-1"),
        ("serve", "--idle-evict-after", "-1"),
        ("serve", "--idle-evict-after", "0"),
        ("serve", "--throttle-budget", "-1"),
        ("serve", "--max-events-per-sec", "-1"),
        ("serve", "--max-events-per-sec", "0"),
        ("push", "--backoff", "-1"),
        ("push", "--connect-timeout", "-1"),
        ("push", "--connect-timeout", "inf"),
    ])
    def test_one_error_line_and_exit_2(self, capsys, command, flag, value):
        if command == "analyze":
            argv = ["analyze", self.QUICKSTART]
        elif command == "serve":
            argv = ["serve", "--port", "0"]
        else:
            argv = ["push", self.QUICKSTART, "--port", "1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, value])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(
            "repro-race %s: error: argument %s: " % (command, flag)
        )
        assert value in errors[0]

    def test_infinite_shard_heartbeat_never_stalls(self, capsys):
        code = main(["analyze", self.QUICKSTART, "--shards", "2",
                     "--shard-mode", "process", "--shard-heartbeat", "inf"])
        captured = capsys.readouterr()
        assert code == 1  # quickstart's one WCP race
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--throttle-budget", "0"),
        ("--handshake-timeout", "0"),
    ])
    def test_zero_stays_valid_where_documented(self, flag, value):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--port", "0", flag, value]
        )
        assert getattr(args, flag[2:].replace("-", "_")) == 0.0
