"""Command-line interface: exit codes, reports, round trips."""

import hashlib
import json

import pytest

from deontic_mc import formula as fm
from deontic_mc import rss
from deontic_mc.automaton import StitAutomaton, save_automaton
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


# Statements over one atom a, nested exactly n levels deep (fm.MAX_DEPTH
# bounds n), one per construct; "until" alternates U with A, so that each
# of its tableaux stays small enough for mc to decide.
NESTED = {
    "conjuncts": lambda n, a: " & ".join([a] * (n + 1)),
    "negations": lambda n, a: "!" * n + a,
    "until": lambda n, a: f"{a} U A " * (n // 2) + (f"{a} U {a}" if n % 2
                                                     else a),
    "parens": lambda n, a: "(" * n + a + ")" * n,
}
TOO_DEEP = f"formula nested deeper than {fm.MAX_DEPTH} levels"


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

    def test_label_entry_matching_no_history_exits_one(self, capsys,
                                                      tmp_path):
        data = rss.fig1_model().to_json()
        data["labels"].append({"moment": 0, "history": "h99", "atoms": ["A"]})
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "[labels] (moment=0) label entry for h99" in out

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{ not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("value", [
        json.loads("[" * 900 + "]" * 900), "9" * 2000 + "x"],
        ids=["nested-900", "long-string"])
    def test_long_bad_value_gives_a_short_error(self, capsys, tmp_path,
                                                value):
        data = rss.fig1_model().to_json()
        data["histories"][0]["value"] = value
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad utility value ")
        assert len(err.splitlines()) == 1 and len(err) < 200, err

    def test_wrong_schema_exits_two(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"stuff": 1}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    @pytest.mark.parametrize("kind,path,value", [
        ("model", ("histories", 0, "value"), "abc"),
        ("model", ("moments", 1, "id"), "x"),
        ("model", ("histories",), 3),
        ("model", ("choices", 0, "moment"), "root"),
        ("model", ("choices", 0, "actions"), 7),
        ("model", ("labels", 0, "atoms"), 7),
        ("automaton", ("states",), 3),
        ("automaton", ("labels", "q1"), 1),
        ("automaton", ("transitions",), 4),
        ("automaton", ("init",), ["q0"]),
        ("model", ("histories", 0, "id"), ["h1"]),
        ("model", ("histories", 5, "id"), 6),
        ("model", ("histories", 0, "moments", 1), "x"),
        ("model", ("moments", 1, "id"), True),
        ("model", ("choices", 0, "agent"), {"name": "alpha"}),
        ("model", ("choices", 0, "actions", 1), "h5"),
        ("model", ("choices", 0, "actions", 1, 0), ["h5"]),
        ("model", ("labels", 0, "history"), ["h1"]),
        ("model", ("agents", 0), 1),
        ("automaton", ("states", 1), ["q1"]),
        ("automaton", ("final",), [{"q": 1}]),
        ("automaton", ("transitions", 0, "from"), ["q0"]),
        ("automaton", ("transitions", 0, "to"), {"q": 1}),
        ("automaton", ("transitions", 0, "action"), 1),
        ("automaton", ("labels", "q1", 0), ["p"]),
    ], ids=["value-abc", "moment-id-x", "histories-number",
            "choice-moment-string", "actions-number", "atoms-number",
            "states-number", "label-number", "transitions-number",
            "init-list", "history-id-list", "history-id-number",
            "history-moment-string", "moment-id-bool", "agent-object",
            "cell-string", "cell-member-list", "label-history-list",
            "agent-number", "state-list", "final-object",
            "transition-from-list", "transition-to-object",
            "transition-action-number", "label-atom-list"])
    def test_malformed_field_exits_two(self, capsys, tmp_path, kind, path,
                                       value):
        data = (rss.fig1_model() if kind == "model" else make_t0()).to_json()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(file))
        assert code == 2 and err.startswith("error: ")
        assert "internal error" not in err and "valid" not in out

    @pytest.mark.parametrize("make", [
        lambda p: p.write_bytes(b"\xff\xfe{}"), lambda p: p.mkdir()],
        ids=["not-utf-8", "directory"])
    def test_unreadable_input_exits_two(self, capsys, tmp_path, make):
        """Bytes that are not UTF-8 are a malformed file, and a path that
        cannot be read is an error of its own; neither is a crash."""
        path = tmp_path / "in.json"
        make(path)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and err.startswith("error: ") and not out
        assert "internal error" not in err
        assert ("malformed file" in err) == path.is_file()

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

    @pytest.mark.parametrize("history", [[], ["--history", "h1"]],
                             ids=["all-histories", "one-history"])
    def test_machine_report_records_the_command(self, capsys, fig1_file,
                                                history):
        """The report's command list carries every argument given to the
        subcommand, the statement and the history included."""
        args = ["check", fig1_file, "--at", "0", *history,
                "--formula", "O[alpha cstit: A]"]
        code, out, _ = run(capsys, "--format", "machine", *args)
        assert code == 0 and json.loads(out)["command"] == args

    def test_vacuous_conditional_ought_holds(self, capsys, fig1_file):
        """A condition no history satisfies leaves no conditionally optimal
        action: the ought holds vacuously, as satisfies says, not an
        error; a satisfiable condition reports vacuous false."""
        args = ["check", fig1_file, "--at", "0", "--formula"]
        code, out, err = run(capsys, *args, "O[alpha cstit: A / false]")
        assert code == 0 and err == ""
        assert out.startswith("O[alpha cstit: A / false] at moment 0: holds "
                              "(vacuously")
        code, out, _ = run(capsys, "--format", "machine", *args,
                           "O[alpha cstit: A / false]")
        result = json.loads(out)["result"]
        assert code == 0 and result["holds"] is True
        assert result["vacuous"] is True
        assert result["optimal"] == [] and result["guarantee_table"] == []
        for text in ("O[alpha cstit: A]", "O[alpha cstit: A / A]"):
            code, out, _ = run(capsys, "--format", "machine", *args, text)
            result = json.loads(out)["result"]
            assert code == 0 and result["vacuous"] is False
            assert result["optimal"]

    def test_unknown_moment_exits_two(self, capsys, fig1_file):
        code, _, err = run(capsys, "check", fig1_file, "--at", "42",
                           "--formula", "O[alpha cstit: A]")
        assert code == 2

    @pytest.mark.parametrize("deep", [
        "(" * 400 + "A" + ")" * 400,
        fm.render(fm.and_all(fm.Atom("A") for _ in range(400))),
    ], ids=["parens-400", "conjuncts-400"])
    def test_deep_nesting_is_checked(self, capsys, fig1_file, deep):
        code, out, err = run(capsys, "check", fig1_file, "--at", "0",
                             "--formula", deep)
        assert code == 1 and err == ""
        assert out.startswith(f"{fm.render(fm.parse(deep))} at moment 0: FAILS")

    @pytest.mark.parametrize("kind", sorted(NESTED))
    def test_nesting_at_the_limit_is_checked(self, capsys, fig1_file, kind):
        code, _, err = run(capsys, "check", fig1_file, "--at", "0",
                           "--formula", NESTED[kind](fm.MAX_DEPTH, "A"))
        assert code in (0, 1) and "error" not in err

    @pytest.mark.parametrize("kind", sorted(NESTED))
    def test_nesting_past_the_limit_is_a_parse_error(self, capsys, fig1_file,
                                                     kind):
        code, _, err = run(capsys, "check", fig1_file, "--at", "0",
                           "--formula", NESTED[kind](fm.MAX_DEPTH + 1, "A"))
        assert code == 2 and TOO_DEEP in err and "internal" not in err

    @pytest.mark.parametrize("text", ["X^\u00b2 p", "F[0:\u00b2] p",
                                      "p BR[\u00b3] q", "X^\u0663 p"])
    def test_non_ascii_digit_is_a_parse_error(self, capsys, fig1_file, text):
        code, _, err = run(capsys, "check", fig1_file, "--at", "0",
                           "--formula", text)
        assert code == 2 and "unexpected character" in err

    def test_ought_at_a_moment_without_histories_exits_two(self, capsys,
                                                           tmp_path):
        data = rss.fig1_model().to_json()
        data["moments"].append({"id": 10, "parent": 0})
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "check", str(path), "--at", "10",
                           "--formula", "O[alpha cstit: A]")
        assert code == 2
        assert err == "error: no history passes through moment 10\n"

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

    @pytest.mark.parametrize("ought,message", [
        ("O[alpha cstit: X^2000 p]",
         "X^2000 unfolds into 2000 next-step obligations; compile unfolds "
         "at most 64"),
        ("O[alpha cstit: " + "(" * 3000 + "p" + ")" * 3000 + "]",
         "1:417: " + TOO_DEEP),
        ("O[alpha cstit: " + "G F " * 12 + "p]",
         "the tableau takes more than 131072 expansion steps, the limit"),
    ], ids=["next-2000", "parens-3000", "gf-12"])
    def test_crash_exits_two_not_one(self, capsys, t0_file, ought, message):
        """A bounded operator past compile's cap is refused as a resource
        limit before it is unfolded, input nested past the parser's limit
        as a parse error, and a formula whose tableau outgrows its work
        limit as a resource limit: all exit 2, never as a check that
        fails (exit 1)."""
        code, _, err = run(capsys, "mc", t0_file, "--agent", "alpha",
                           "--ought", ought)
        assert code == 2 and message in err

    @pytest.mark.parametrize("kind", sorted(NESTED))
    def test_nesting_at_the_limit_is_checked(self, capsys, t0_file, kind):
        code, _, err = run(capsys, "mc", t0_file, "--agent", "alpha",
                           "--ought",
                           f"O[alpha cstit: {NESTED[kind](fm.MAX_DEPTH, 'p')}]")
        assert code in (0, 1) and err == ""

    @pytest.mark.parametrize("kind", sorted(NESTED))
    def test_nesting_past_the_limit_is_a_parse_error(self, capsys, t0_file,
                                                     kind):
        code, _, err = run(capsys, "mc", t0_file, "--agent", "alpha",
                           "--ought",
                           f"O[alpha cstit: {NESTED[kind](fm.MAX_DEPTH + 1, 'p')}]")
        assert code == 2 and TOO_DEEP in err and "internal" not in err

    def test_unreachable_dead_end_gets_a_verdict(self, capsys, tmp_path):
        """validate accepts a dead end no execution reaches, and mc decides
        the ought as if the state were not there."""
        reports = []
        for extra in ([], ["qd"]):
            data = make_t0().to_json()
            data["states"] += extra
            path = tmp_path / f"t0-{len(extra)}.json"
            path.write_text(json.dumps(data))
            code, out, _ = run(capsys, "--format", "machine", "mc", str(path),
                               "--agent", "alpha",
                               "--ought", "O[alpha cstit: G p]")
            assert code == 0
            reports.append(json.loads(out)["result"])
        assert reports[0] == reports[1]

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

    def test_machine_report_records_the_command(self, capsys, t0_file):
        """The report's command list carries the ought statement."""
        args = ["mc", t0_file, "--agent", "alpha",
                "--ought", "O[alpha cstit: G p]"]
        code, out, _ = run(capsys, "--format", "machine", *args)
        assert code == 0 and json.loads(out)["command"] == args

    def test_machine_report_is_one_line_with_the_input_digest(self, capsys,
                                                              t0_file):
        code, out, _ = run(capsys, "--format", "machine", "mc", t0_file,
                           "--agent", "alpha", "--ought", "O[alpha cstit: G p]")
        assert code == 0 and out.count("\n") == 1 and out.endswith("\n")
        with open(t0_file, "rb") as fp:
            digest = hashlib.sha256(fp.read()).hexdigest()
        assert json.loads(out)["inputs"] == {t0_file: digest}

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

    def test_depth_past_the_moment_cap_is_a_limit(self, capsys, tmp_path):
        """Both states step to both states, so depth 40 would build 2^41 - 1
        moments: refused before any is built, and no file is written."""
        path, out_path = tmp_path / "branching.json", tmp_path / "x.json"
        save_automaton(StitAutomaton(
            ["q0", "q1"], "q0", ["x", "y"], [],
            [(s, a, d, 1) for s in ("q0", "q1")
             for a, d in (("x", "q0"), ("y", "q1"))], {}), path)
        code, _, err = run(capsys, "unroll", str(path), "--depth", "40",
                           "--out", str(out_path))
        assert code == 2 and "65536 moments" in err
        assert not out_path.exists()


# ======================== malformed files ========================

class TestNestedFiles:
    COMMANDS = {
        "validate": [],
        "check": ["--at", "0", "--formula", "p"],
        "mc": ["--agent", "alpha", "--ought", "O[alpha cstit: p]"],
        "unroll": ["--depth", "2", "--out", "OUT"],
    }

    @pytest.mark.parametrize("opener", ["[", '{"a":'],
                             ids=["lists", "objects"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_deeply_nested_file_is_malformed(self, capsys, tmp_path, command,
                                             opener):
        """100,000 nested lists or objects pass the JSON parser's recursion
        limit: a malformed file (exit 2), not an internal error."""
        path, out_path = tmp_path / "deep.json", tmp_path / "out.json"
        path.write_text(opener * 100_000)
        args = [str(out_path) if a == "OUT" else a
                for a in self.COMMANDS[command]]
        code, out, err = run(capsys, command, str(path), *args)
        assert code == 2 and not out and not out_path.exists()
        assert err.startswith("error: malformed file: ")
        assert "nested too deeply" in err and "internal error" not in err


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

    def test_machine_export_is_a_report(self, capsys, tmp_path):
        directory = str(tmp_path / "fx")
        code, out, _ = run(capsys, "--format", "machine", "rss", "--export",
                           directory)
        report = json.loads(out)
        assert code == 0 and out.count("\n") == 1
        assert report["command"] == ["rss", "--export", directory]
        assert report["result"] == {"exported": rss.export_fixtures(directory)}
