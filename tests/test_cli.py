"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.solve import DEFAULT_PLAN

FIGURE1_SRC = """
shared X = 0
proc main {
  fork {
    proc t1 { post ev @post_left; X := 1 }
    proc t2 { if X == 1 { post ev @post_right } else { wait ev } }
    proc t3 { wait ev @w3 }
  }
  join
}
"""

DEADLOCK_SRC = """
proc a { wait v1; post v2 }
proc b { wait v2; post v1 }
"""

SAT_DIMACS = "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"
UNSAT_DIMACS = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "fig1.rp"
    path.write_text(FIGURE1_SRC)
    return str(path)


@pytest.fixture
def execution_file(tmp_path, program_file):
    out = tmp_path / "fig1.json"
    rc = main(["run", program_file, "--priority", "main,t1,t2,t3",
               "--save", str(out)])
    assert rc == 0
    return str(out)


class TestRun:
    def test_run_prints_trace(self, program_file, capsys):
        assert main(["run", program_file, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "final shared state" in out

    def test_run_saves_json_and_dot(self, tmp_path, program_file):
        json_out = tmp_path / "e.json"
        dot_out = tmp_path / "e.dot"
        rc = main(["run", program_file, "--priority", "main,t1,t2,t3",
                   "--save", str(json_out), "--dot", str(dot_out)])
        assert rc == 0
        assert json_out.exists() and "repro-execution" in json_out.read_text()
        assert dot_out.read_text().startswith("digraph")

    def test_run_reports_deadlock(self, tmp_path, capsys):
        path = tmp_path / "dead.rp"
        path.write_text(DEADLOCK_SRC)
        assert main(["run", str(path)]) == 1
        assert "DEADLOCK" in capsys.readouterr().out


class TestAnalyze:
    def test_summary(self, execution_file, capsys):
        assert main(["analyze", execution_file]) == 0
        out = capsys.readouterr().out
        for name in ("MHB", "CHB", "MCW", "CCW", "MOW", "COW"):
            assert name in out

    def test_pair_query(self, execution_file, capsys):
        rc = main(["analyze", execution_file, "--pair", "post_left", "post_right",
                   "--relation", "mhb"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MHB(post_left, post_right) = TRUE  [" in out
        assert "counterexample" not in out

    def test_pair_all_relations(self, execution_file, capsys):
        main(["analyze", execution_file, "--pair", "post_left", "w3"])
        out = capsys.readouterr().out
        assert "MHB(post_left, w3)" in out and "CCW(post_left, w3)" in out

    def test_ignore_deps_changes_answer(self, execution_file, capsys):
        main(["analyze", execution_file, "--pair", "post_left", "post_right",
              "--relation", "mhb", "--ignore-deps"])
        out = capsys.readouterr().out
        assert "MHB(post_left, post_right) = FALSE  [" in out
        # the refuted MHB comes with the schedule that refutes it
        assert "counterexample schedule:" in out

    def test_witness_printed_for_ccw(self, execution_file, capsys):
        main(["analyze", execution_file, "--pair", "post_left", "w3",
              "--relation", "ccw"])
        out = capsys.readouterr().out
        assert "overlaps" in out

    def test_matrix(self, execution_file, capsys):
        main(["analyze", execution_file, "--matrix", "mhb"])
        assert "X" in capsys.readouterr().out


class TestRaces:
    def test_apparent_only(self, execution_file, capsys):
        assert main(["races", execution_file]) == 0
        assert "apparent races: 1" in capsys.readouterr().out

    def test_feasible_with_witness(self, execution_file, capsys):
        assert main(["races", execution_file, "--feasible", "--witnesses"]) == 0
        out = capsys.readouterr().out
        assert "feasible races: 1" in out and "witness for" in out


class TestBudgetedCli:
    """Budget flags degrade gracefully: three-valued output, a distinct
    exit status for partial answers, and never a traceback."""

    def test_races_expired_deadline_exits_unknown(self, execution_file, capsys):
        rc = main(["races", execution_file, "--feasible", "--timeout", "0"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "unknown" in out
        assert "undecided under the budget" in out

    def test_races_generous_budget_still_succeeds(self, execution_file, capsys):
        rc = main(["races", execution_file, "--feasible", "--timeout", "60",
                   "--per-pair-states", "200000"])
        assert rc == 0
        assert "feasible races: 1" in capsys.readouterr().out

    def test_analyze_budgeted_pair_decided_structurally(self, execution_file, capsys):
        # hopeless search budget, but structure alone decides the pair
        rc = main(["analyze", execution_file, "--pair", "post_left",
                   "post_right", "--relation", "mhb", "--max-states", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MHB(post_left, post_right) = TRUE" in out
        assert "structural" in out

    def test_analyze_budgeted_pair_unknown(self, execution_file, capsys):
        # w3 can never complete before post_left begins (the wait needs
        # a post), but refuting that needs the exact engine: structure
        # says nothing, the observed order is the wrong way round, and
        # HMW is inert on event-style executions.  One state is not
        # enough, so the honest answer is UNKNOWN.
        rc = main(["analyze", execution_file, "--pair", "w3", "post_left",
                   "--relation", "chb", "--max-states", "1"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "UNKNOWN" in out
        assert "undecided under the budget" in out

    def test_analyze_budgeted_pair_decided_by_witness_reuse(
        self, execution_file, capsys
    ):
        # the same hopeless budget, but the portfolio widens the
        # observed schedule into an overlap witness: decided without
        # any exact search
        rc = main(["analyze", execution_file, "--pair", "post_left", "w3",
                   "--relation", "ccw", "--max-states", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CCW(post_left, w3) = TRUE" in out
        assert "witness" in out

    def test_analyze_backends_restricts_the_ladder(self, execution_file, capsys):
        # an explicit cheap-only ladder cannot refute CHB(w3, post_left)
        rc = main(["analyze", execution_file, "--pair", "w3", "post_left",
                   "--relation", "chb", "--backends", "structural,observed"])
        assert rc == 3
        assert "UNKNOWN" in capsys.readouterr().out

    def test_analyze_plan_default_decides(self, execution_file, capsys):
        rc = main(["analyze", execution_file, "--pair", "post_left",
                   "post_right", "--relation", "mhb", "--backends",
                   ",".join(DEFAULT_PLAN)])
        assert rc == 0
        assert "MHB(post_left, post_right) = TRUE" in capsys.readouterr().out

    def test_analyze_unknown_backend_exits_2(self, execution_file, capsys):
        rc = main(["analyze", execution_file, "--pair", "post_left", "w3",
                   "--backends", "structural,nosuch"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown backend" in err and "Traceback" not in err

    def test_races_prints_planner_report(self, execution_file, capsys):
        rc = main(["races", execution_file, "--feasible"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planner:" in out
        assert "answered" in out

    def test_analyze_summary_budget_blown_is_clean(self, execution_file, capsys):
        """The boolean summary path raises internally; main() must turn
        that into a diagnostic plus exit status 3, not a traceback."""
        rc = main(["analyze", execution_file, "--max-states", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "search budget exceeded" in err
        assert "Traceback" not in err

    def test_analyze_summary_budget_blown_prints_no_header(
        self, execution_file, capsys
    ):
        # every count is computed before the table header, so a budget
        # blown mid-summary leaves no header dangling over nothing
        assert main(["analyze", execution_file, "--max-states", "1"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("loaded: ")
        assert "pair counts per relation:" not in out

    def test_explore_races_budget(self, program_file, capsys):
        rc = main(["explore", program_file, "--races", "--timeout", "0"])
        assert rc == 3
        assert "undecided under the budget" in capsys.readouterr().out


class TestCliRobustness:
    """Bad input never tracebacks: one-line diagnostic, exit status 2."""

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.rp"
        path.write_text("proc { this is not a program")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["analyze", missing]) == 2
        assert "cannot access input" in capsys.readouterr().err

    def test_corrupt_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text('{"format": "repro-ex')
        assert main(["races", str(path)]) == 2
        assert "invalid JSON input" in capsys.readouterr().err

    def test_wrong_format_exits_2(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        assert main(["races", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err

    def test_unknown_pair_label_exits_2(self, execution_file, capsys):
        rc = main(["analyze", execution_file, "--pair", "post_left", "nosuch"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'nosuch'" in err and "Traceback" not in err
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("name", ["vc", "taskgraph", "sat"])
    def test_removed_tier_names_exit_2(self, execution_file, capsys, name):
        # the paper's comparison methods are not planner tiers
        assert main(["races", execution_file, "--backends", name]) == 2
        err = capsys.readouterr().err
        assert f"unknown backend {name!r}" in err
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("command", ["analyze", "races", "serve"])
    def test_no_plan_option(self, command, capsys):
        # --backends is the one ladder option
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--backends" in out and "--plan" not in out

    def test_resume_without_checkpoint_exits_2(self, execution_file, capsys):
        assert main(["races", execution_file, "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, execution_file, monkeypatch, capsys):
        def boom(path):
            raise KeyboardInterrupt()

        monkeypatch.setattr("repro.cli.serialize.load", boom)
        assert main(["races", execution_file]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestSupervisedCli:
    def test_races_save_round_trip(self, execution_file, tmp_path):
        from repro.model.serialize import load_report

        report_path = tmp_path / "report.json"
        assert main(["races", execution_file, "--save", str(report_path)]) == 0
        report = load_report(str(report_path))
        assert report.complete
        assert len(report.races) == 1

    def test_checkpoint_then_resume(self, execution_file, tmp_path, capsys):
        journal = str(tmp_path / "scan.jsonl")
        assert main(["races", execution_file, "--checkpoint", journal]) == 0
        first = capsys.readouterr().out
        assert "feasible races: 1" in first
        assert main(["races", execution_file, "--checkpoint", journal,
                     "--resume"]) == 0
        again = capsys.readouterr().out
        assert "resume: reusing 1 journaled pair(s)" in again
        assert "feasible races: 1" in again

    def test_resume_refuses_other_scan(self, execution_file, tmp_path, capsys):
        journal = str(tmp_path / "scan.jsonl")
        assert main(["races", execution_file, "--checkpoint", journal]) == 0
        capsys.readouterr()
        rc = main(["races", execution_file, "--checkpoint", journal,
                   "--resume", "--per-pair-states", "7"])
        assert rc == 2
        assert "different scan" in capsys.readouterr().err


class TestSat:
    def test_sat_formula(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(SAT_DIMACS)
        assert main(["sat", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "SAT" in out and "agree" in out

    def test_unsat_formula_event_style(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(UNSAT_DIMACS)
        assert main(["sat", str(path), "--style", "evt", "--check"]) == 0
        out = capsys.readouterr().out
        assert "UNSAT" in out and "agree" in out


class TestExplore:
    def test_explore_summary(self, program_file, capsys):
        assert main(["explore", program_file]) == 0
        out = capsys.readouterr().out
        assert "runs: 18" in out
        assert "event_signatures: 2" in out

    def test_explore_reports_deadlock(self, tmp_path, capsys):
        path = tmp_path / "dead.rp"
        path.write_text(DEADLOCK_SRC)
        assert main(["explore", str(path)]) == 0
        assert "example deadlock" in capsys.readouterr().out

    def test_explore_program_races(self, program_file, capsys):
        assert main(["explore", program_file, "--races"]) == 0
        out = capsys.readouterr().out
        assert "feasible races across all executions: 1" in out
