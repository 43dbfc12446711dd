"""Command-line interface: exit codes, reports, round trips."""

import json

import pytest

from deontic_mc import rss
from deontic_mc.automaton import save_automaton
from deontic_mc.cli import main
from deontic_mc.tree_model import ExplicitStitModel, load_model, save_model

from conftest import make_t0


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    save_model(rss.fig1_model(), path)
    return str(path)


@pytest.fixture
def t0_file(tmp_path):
    path = tmp_path / "t0.json"
    save_automaton(make_t0(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ======================== validate ========================

class TestValidate:
    def test_valid_model_exits_zero(self, capsys, fig1_file):
        code, out, _ = run(capsys, "validate", fig1_file)
        assert code == 0 and "valid" in out

    def test_broken_partition_exits_one_and_names_axiom(self, capsys,
                                                        tmp_path):
        model = rss.fig1_model()
        data = model.to_json()
        data["choices"][0]["actions"] = [["h1", "h2", "h3", "h4", "h5"],
                                         ["h5", "h6"]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1 and "partition" in out

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{ not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "malformed" in err

    def test_wrong_schema_exits_two(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"stuff": 1}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    def test_unsupported_accumulation_exits_two(self, capsys, tmp_path):
        data = make_t0().to_json()
        data["accumulation"] = "sum"
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and "accumulation" in err and "valid" not in out


# ======================== check ========================

class TestCheck:
    def test_fig1_ought_holds(self, capsys, fig1_file):
        code, out, _ = run(capsys, "check", fig1_file, "--at", "0",
                           "--formula", "O[alpha cstit: A]")
        assert code == 0 and "holds" in out

    def test_fig1_no_obligation_at_later_moment(self, capsys, fig1_file):
        code, out, _ = run(capsys, "check", fig1_file, "--at", "1",
                           "--formula", "O[alpha cstit: A]")
        assert code == 1 and "FAILS" in out

    def test_fig2_bounded_ought(self, capsys, tmp_path):
        path = tmp_path / "fig2.json"
        save_model(rss.fig2_model(), path)
        code, out, _ = run(capsys, "check", str(path), "--at", "5",
                           "--formula", "O[alpha cstit: F[0:2] p]")
        assert code == 0

    def test_unknown_moment_exits_two(self, capsys, fig1_file):
        code, _, err = run(capsys, "check", fig1_file, "--at", "42",
                           "--formula", "O[alpha cstit: A]")
        assert code == 2

    def test_parse_error_exits_two(self, capsys, fig1_file):
        code, _, err = run(capsys, "check", fig1_file, "--at", "0",
                           "--formula", "O[alpha cstit: ]")
        assert code == 2


# ======================== mc ========================

class TestMc:
    def test_t0_gp_holds_with_intervals(self, capsys, t0_file):
        code, out, _ = run(capsys, "--format", "machine", "mc", t0_file,
                           "--agent", "alpha",
                           "--ought", "O[alpha cstit: G p]")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["holds"] is True
        assert report["result"]["intervals"] == [
            {"action": "K1", "lo": "4", "hi": "4"},
            {"action": "K2", "lo": "2", "hi": "2"}]

    def test_failing_ought_exits_one_with_lasso(self, capsys, tmp_path):
        from deontic_mc.automaton import StitAutomaton
        aut = StitAutomaton(
            ["q0", "q1", "q2"], "q0", ["K1", "K2", "stay"], [],
            [("q0", "K1", "q1", 1), ("q1", "stay", "q1", 1),
             ("q0", "K2", "q2", 1), ("q2", "stay", "q2", 1)],
            {"q0": {"p"}, "q1": {"p"}})
        path = tmp_path / "eq.json"
        save_automaton(aut, path)
        code, out, _ = run(capsys, "mc", str(path), "--agent", "alpha",
                           "--ought", "O[alpha cstit: G p]")
        assert code == 1 and "counterexample" in out

    def test_conditional_on_merge(self, capsys, tmp_path):
        path = tmp_path / "merge.json"
        save_automaton(rss.merge_automaton(), path)
        code, out, _ = run(
            capsys, "mc", str(path), "--agent", "alpha", "--ought",
            "O[alpha cstit: ![alpha dstit: !p_alpha BR[2] g_alpha] / w_alpha]")
        assert code == 0 and "holds" in out

    @pytest.mark.parametrize("ought", [
        "O[alpha cstit: X^2000 p]",
        "O[alpha cstit: " + "(" * 3000 + "p" + ")" * 3000 + "]",
    ], ids=["next-2000", "parens-3000"])
    def test_crash_exits_two_not_one(self, capsys, t0_file, ought):
        """Inputs that overflow the recursive walks end as internal errors
        (exit 2), never as a check that fails (exit 1)."""
        code, _, err = run(capsys, "mc", t0_file, "--agent", "alpha",
                           "--ought", ought)
        assert code == 2 and "internal error" in err

    def test_base_exceptions_pass_through(self, capsys, t0_file, monkeypatch):
        """Only Exception is mapped to exit 2; an interrupt or an alarm
        raised as a BaseException still reaches the caller."""
        class Alarm(BaseException):
            pass

        def ring(*_):
            raise Alarm()

        monkeypatch.setattr("deontic_mc.cli.check_ought_statement", ring)
        with pytest.raises(Alarm):
            main(["mc", t0_file, "--agent", "alpha",
                  "--ought", "O[alpha cstit: G p]"])

    def test_successive_calls_share_no_options(self, capsys, t0_file):
        """main builds its parser once; an option given to one call does not
        leak into the next."""
        from deontic_mc import cli
        ought = ("--agent", "alpha", "--ought", "O[alpha cstit: G p]")
        code, first, _ = run(capsys, "--format", "machine", "mc", t0_file,
                             *ought)
        assert code == 0 and json.loads(first)["result"]["holds"] is True
        code, second, _ = run(capsys, "mc", t0_file, *ought)
        assert code == 0 and second.startswith("O[alpha cstit: G p]: holds")
        code, _, err = run(capsys, "mc", t0_file, "--agent", "alpha")
        assert code == 2 and "--ought" in err
        assert cli._parser() is cli._parser()

    def test_machine_report_is_deterministic(self, capsys, t0_file):
        _, first, _ = run(capsys, "--format", "machine", "mc", t0_file,
                          "--agent", "alpha", "--ought", "O[alpha cstit: G p]")
        _, second, _ = run(capsys, "--format", "machine", "mc", t0_file,
                           "--agent", "alpha", "--ought", "O[alpha cstit: G p]")
        a, b = json.loads(first), json.loads(second)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b


# ======================== unroll ========================

class TestUnroll:
    def test_round_trip(self, capsys, t0_file, tmp_path):
        out_path = str(tmp_path / "unrolled.json")
        code, _, _ = run(capsys, "unroll", t0_file, "--depth", "2",
                         "--out", out_path)
        assert code == 0
        model = load_model(out_path)
        assert isinstance(model, ExplicitStitModel)
        assert model.validate() == []
        code, _, _ = run(capsys, "validate", out_path)
        assert code == 0

    def test_depth_zero_is_usage_error(self, capsys, t0_file, tmp_path):
        code, _, err = run(capsys, "unroll", t0_file, "--depth", "0",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2 and "depth" in err


# ======================== rss ========================

class TestRssCommand:
    @pytest.mark.parametrize("name", ["rss1-unavoidable", "force-others",
                                      "fig2-obligations", "fig3-inference"])
    def test_named_demos_pass(self, capsys, name):
        code, out, _ = run(capsys, "rss", name)
        assert code == 0
        assert "FAIL" not in out

    def test_refrain_demo_with_seed(self, capsys):
        code, out, _ = run(capsys, "rss", "refrain-refrain", "--seed", "3")
        assert code == 0 and "PASS" in out

    def test_unknown_name_exits_two(self, capsys):
        code, _, err = run(capsys, "rss", "nope")
        assert code == 2 and "unknown" in err

    def test_export_writes_all_fixtures(self, capsys, tmp_path):
        code, out, _ = run(capsys, "rss", "--export", str(tmp_path / "fx"))
        assert code == 0 and out.count("wrote") == 5
