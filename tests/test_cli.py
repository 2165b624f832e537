import errno
import gc
import io
import json
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner

from alglab.cli import main
from conftest import FIXTURES, sweep_action_doc


@pytest.fixture
def runner():
    return CliRunner()


def fixture(name):
    return str(FIXTURES / name)


class TestCheck:
    def test_pass(self, runner):
        result = runner.invoke(main, ["check", fixture("heisenberg_f5.json")])
        assert result.exit_code == 0
        assert "identity: pass" in result.output

    def test_json_mode(self, runner):
        result = runner.invoke(main, ["check", "--json", fixture("leibniz2_f3.json")])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert {d["check"] for d in doc} == {"identity", "grading"}

    def test_missing_file_exit_2(self, runner):
        result = runner.invoke(main, ["check", "nope.json"])
        assert result.exit_code == 2

    def test_invalid_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 6, "dim": 0, "alpha": 1, "beta": 0, "table": []}')
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2
        assert "p" in result.output

    def test_identity_violation_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "p": 3, "dim": 2, "alpha": 1, "beta": 2,
            "table": [[1, 1, 2, 1], [1, 2, 1, 1]],
        }))
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("name, triples, pairs", [
        ("heisenberg_f5.json", 27, 9), ("abelian2_f7_action.json", 8, 4),
    ])
    def test_runs_only_the_identity_and_grading_checks(self, runner, monkeypatch,
                                                       name, triples, pairs):
        import alglab.verify

        def refuse(*args):
            raise AssertionError("check must not run this")

        for fn in ("derived_length", "nilpotency_class", "d_set", "element_of_order",
                   "index_split_check"):
            monkeypatch.setattr(alglab.verify, fn, refuse)
        identity = ("product identity holds with (alpha, beta) = (1, 1) "
                    f"on all {triples} basis triples")
        grading = f"multiplication respects the grading on all {pairs} basis pairs"
        result = runner.invoke(main, ["check", fixture(name)])
        assert result.exit_code == 0
        assert result.output == f"identity: pass - {identity}\ngrading: pass - {grading}\n"
        result = runner.invoke(main, ["check", "--json", fixture(name)])
        assert result.exit_code == 0
        assert result.output == json.dumps([
            {"check": "identity", "status": "pass", "message": identity, "details": {}},
            {"check": "grading", "status": "pass", "message": grading, "details": {}},
        ], indent=2) + "\n"


class TestSeries:
    def test_derived(self, runner):
        result = runner.invoke(main, ["series", fixture("heisenberg_f5.json"),
                                      "--kind", "derived"])
        assert result.exit_code == 0
        assert "3 > 1 > 0" in result.output
        assert "derived_length: 2" in result.output

    def test_lcs_json(self, runner):
        result = runner.invoke(main, ["series", fixture("leibniz2_f3.json"),
                                      "--kind", "lcs", "--json"])
        doc = json.loads(result.output)
        assert doc["nilpotency_class"] == 2
        assert doc["ranks"] == [2, 1, 0]

    def test_non_solvable(self, runner):
        result = runner.invoke(main, ["series", fixture("mat2x2_f2.json")])
        assert result.exit_code == 0
        assert "none" in result.output


class TestGrade:
    def test_report(self, runner):
        result = runner.invoke(main, ["grade", fixture("leibniz2_f3.json")])
        assert result.exit_code == 0
        assert "d = 2" in result.output

    def test_no_grading_block(self, runner, tmp_path):
        f = tmp_path / "plain.json"
        f.write_text('{"p": 3, "dim": 1, "alpha": 1, "beta": 1, "table": []}')
        result = runner.invoke(main, ["grade", str(f)])
        assert result.exit_code == 2

    @pytest.fixture
    def off_grade(self, tmp_path):
        """leibniz2_f3.json with [e1, e2] = e2 added: degree 2 where 1 + 2 = 0 mod 3."""
        doc = json.loads((FIXTURES / "leibniz2_f3.json").read_text())
        doc["table"].append([1, 2, 2, 1])
        path = tmp_path / "off_grade.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_a_table_off_its_grading_is_a_violation(self, runner, off_grade):
        result = runner.invoke(main, ["verify", "grading", off_grade])
        assert (result.exit_code, result.stderr) == (1, "")
        assert result.stdout == (
            "grading: violation - 1 violating pairs; first at (0, 1) (expected degree 0)\n")

    def test_json_of_a_table_off_its_grading(self, runner, off_grade):
        result = runner.invoke(main, ["grade", "--json", off_grade])
        assert (result.exit_code, result.stderr) == (1, "")
        assert result.stdout == json.dumps({"n": 3, "degrees": [1, 2], "nontrivial": [1, 2],
                                            "d": 2, "law_ok": False, "violations": 1},
                                           indent=2) + "\n"


class TestFrobenius:
    def test_validate_ok(self, runner):
        result = runner.invoke(main, ["frobenius", "validate",
                                      "--n", "7", "--q", "3", "--r", "2"])
        assert result.exit_code == 0
        assert "valid" in result.output

    def test_validate_invalid_exit_1(self, runner):
        result = runner.invoke(main, ["frobenius", "validate",
                                      "--n", "6", "--q", "2", "--r", "5"])
        assert result.exit_code == 1
        assert "divisor" in result.output or "mod 2" in result.output

    @pytest.mark.parametrize("q, code, line", [
        (3, 0, '{"n": 7, "q": 3, "r": 2, "valid": true, "witness": null}\n'),
        (2, 1, '{"n": 7, "q": 2, "r": 2, "valid": false, "witness": 7}\n'),
    ])
    def test_validate_json(self, runner, q, code, line):
        result = runner.invoke(main, ["frobenius", "validate", "--n", "7", "--q", str(q),
                                      "--r", "2", "--json"])
        assert (result.exit_code, result.stdout, result.stderr) == (code, line, "")

    def test_validate_bad_range_exit_2(self, runner):
        result = runner.invoke(main, ["frobenius", "validate",
                                      "--n", "7", "--q", "3", "--r", "9"])
        assert result.exit_code == 2

    def test_grade_action_fixture(self, runner):
        result = runner.invoke(main, ["frobenius", "grade",
                                      fixture("abelian2_f7_action.json")])
        assert result.exit_code == 0
        assert "omega = 2" in result.output

    @pytest.mark.parametrize("args", [["verify", "frobenius"], ["frobenius", "grade"]])
    def test_an_h_that_breaks_the_conjugation_law_is_refused_at_load(self, runner, tmp_path,
                                                                     args):
        # h = diag(1, -1) has order 2 and fixes both eigenspaces of phi = diag(2, 4),
        # where r = 2 asks it to swap them
        path = tmp_path / "untwisted.json"
        path.write_text(json.dumps({
            "p": 7, "dim": 2, "alpha": 1, "beta": 1, "table": [],
            "action": {"n": 3, "q": 2, "r": 2, "phi": [[2, 0], [0, 4]], "h": [[1, 0], [0, 6]]},
        }))
        result = runner.invoke(main, args + [str(path)])
        assert result.exit_code == 2
        assert result.output == "error: action: conjugation law h^-1 phi h = phi^r fails\n"

    def test_grade_json(self, runner):
        result = runner.invoke(main, ["frobenius", "grade", "--json",
                                      fixture("abelian2_f7_action.json")])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == json.dumps({
            "check": "frobenius", "status": "pass",
            "message": "eigen-grading with omega = 2; fixed space rank 0; "
                       "h permutes components by i -> 2*i mod 3",
            "details": {"omega": 2, "fixed_rank": 0},
        }, indent=2) + "\n"

    def test_grade_without_action(self, runner):
        result = runner.invoke(main, ["frobenius", "grade",
                                      fixture("heisenberg_f5.json")])
        assert result.exit_code == 2


class TestRdep:
    def test_dep_dependent(self, runner):
        result = runner.invoke(main, ["rdep", "dep", "--n", "7", "--q", "3",
                                      "--r", "2", "--seq", "1,2"])
        assert result.exit_code == 0
        assert "dependent" in result.output
        assert "[1, 2]" in result.output

    def test_dep_independent_json(self, runner):
        result = runner.invoke(main, ["rdep", "dep", "--n", "7", "--q", "3",
                                      "--r", "2", "--seq", "1,1", "--json"])
        doc = json.loads(result.output)
        assert doc == {"dependent": False, "witness": None}

    def test_dep_independent_text(self, runner):
        result = runner.invoke(main, ["rdep", "dep", "--n", "7", "--q", "3",
                                      "--r", "2", "--seq", "1"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "independent\n", "")

    def test_dep_zero_entry_exit_2(self, runner):
        result = runner.invoke(main, ["rdep", "dep", "--n", "7", "--q", "3",
                                      "--r", "2", "--seq", "1,7"])
        assert result.exit_code == 2

    def test_dep_invalid_triple_exit_2(self, runner):
        result = runner.invoke(main, ["rdep", "dep", "--n", "6", "--q", "2",
                                      "--r", "5", "--seq", "1"])
        assert result.exit_code == 2

    def test_dep_has_no_length_cap(self, runner):
        # the dependence test and its witness are charged to the work budget,
        # so no sequence length is refused on its own
        result = runner.invoke(main, ["rdep", "dep", "--n", "7", "--q", "3",
                                      "--r", "2", "--seq", "1,2,3,4,5,6,1"])
        assert result.exit_code == 0
        assert result.output == "dependent  witness exponents [0, 0, 0, 0, 0, 1, 1]\n"

    def test_dset(self, runner):
        result = runner.invoke(main, ["rdep", "dset", "--n", "7", "--q", "3",
                                      "--r", "2", "--prefix", "1"])
        assert result.exit_code == 0
        assert "[2, 4, 6]" in result.output

    def test_dset_dependent_prefix_exit_2(self, runner):
        result = runner.invoke(main, ["rdep", "dset", "--n", "7", "--q", "3",
                                      "--r", "2", "--prefix", "1,2"])
        assert result.exit_code == 2

    def test_rigid(self, runner):
        seq = ",".join(str(x) for x in range(1, 28))
        result = runner.invoke(main, ["rdep", "rigid", "--n", "31", "--q", "5",
                                      "--r", "2", "--seq", seq, "--m", "2"])
        assert result.exit_code == 0
        assert result.output.strip().startswith("1,")

    @pytest.mark.parametrize("seq, line", [
        ("1,2,3", '{"found": true, "subsequence": [1, 3]}\n'),
        ("1,2,4", '{"found": false, "subsequence": null}\n'),
    ])
    def test_rigid_json(self, runner, seq, line):
        result = runner.invoke(main, ["rdep", "rigid", "--n", "7", "--q", "3", "--r", "2",
                                      "--seq", seq, "--m", "2", "--json"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, line, "")

    def test_rigid_none(self, runner):
        result = runner.invoke(main, ["rdep", "rigid", "--n", "7", "--q", "3",
                                      "--r", "2", "--seq", "1,2,4", "--m", "2"])
        assert result.exit_code == 0
        assert result.output.strip() == "none"

    def test_q_above_the_cap_exit_2(self, runner):
        # (2^31 - 1, 2^31 - 2, 7) is valid, but its q twists are too many to list
        validate = runner.invoke(main, ["frobenius", "validate", "--n", "2147483647",
                                        "--q", "2147483646", "--r", "7"])
        assert validate.exit_code == 0 and "is valid" in validate.output
        for verb, flag in (("dep", "--seq"), ("dset", "--prefix"), ("rigid", "--seq")):
            args = ["rdep", verb, "--n", "2147483647", "--q", "2147483646", "--r", "7",
                    flag, "1,2"] + (["--m", "2"] if verb == "rigid" else [])
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert "q = 2147483646" in result.output

    def test_rigid_deeper_than_the_recursion_limit(self, runner):
        # at q = 1 nothing is dependent, so the search takes the first m values
        # without backtracking; its charges refuse m = 1008 (about 1008^2 steps)
        seq = ",".join(str(x) for x in range(1, 1009))
        args = ["rdep", "rigid", "--n", "1009", "--q", "1", "--r", "1", "--seq", seq, "--m"]
        result = runner.invoke(main, args + ["990"])
        assert result.exit_code == 0
        assert result.output == ",".join(str(x) for x in range(1, 991)) + "\n"
        result = runner.invoke(main, args + ["1008"])
        assert result.exit_code == 2
        assert "rigid search over 1008 distinct values for m = 1008 at q = 1 is too large" in result.output

    def test_rigid_over_budget_exit_2(self, runner):
        seq = ",".join(str(x) for x in range(1, 211))
        result = runner.invoke(main, ["rdep", "rigid", "--n", "211", "--q", "5",
                                      "--r", "55", "--seq", seq, "--m", "6"])
        assert result.exit_code == 2
        assert "rigid search over 210 distinct values for m = 6 at q = 5 is too large" in result.output


class TestRewrite:
    def test_normalize_text(self, runner):
        result = runner.invoke(main, ["rewrite", "normalize", "[a,[b,c]]",
                                      "--alpha", "1", "--beta", "1", "--p", "5"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["1*[a,b,c]", "4*[a,c,b]"]

    def test_normalize_json(self, runner):
        result = runner.invoke(main, ["rewrite", "normalize", "[a,[b,c]]",
                                      "--alpha", "1", "--beta", "0", "--p", "3",
                                      "--json"])
        doc = json.loads(result.output)
        assert doc["terms"] == [{"word": ["a", "b", "c"], "coeff": 1}]

    def test_normalize_parse_error_exit_2(self, runner):
        result = runner.invoke(main, ["rewrite", "normalize", "[a,b",
                                      "--alpha", "1", "--beta", "1", "--p", "5"])
        assert result.exit_code == 2

    def test_normalize_alpha_zero_exit_2(self, runner):
        result = runner.invoke(main, ["rewrite", "normalize", "[a,[b,c]]",
                                      "--alpha", "0", "--beta", "1", "--p", "5"])
        assert result.exit_code == 2


class TestVerify:
    def test_all_on_fixture(self, runner):
        result = runner.invoke(main, ["verify", "all", fixture("leibniz2_f3.json")])
        assert result.exit_code == 0
        assert "kreknin: pass" in result.output

    def test_kreknin_hypothesis_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "kreknin", fixture("heisenberg_f5.json")])
        assert result.exit_code == 2

    def test_selective_with_c(self, runner):
        result = runner.invoke(main, ["verify", "selective-nilpotency",
                                      fixture("abelian2_f7_action.json"), "--c", "1"])
        assert result.exit_code == 0

    def test_unknown_id_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "nonsense", fixture("leibniz2_f3.json")])
        assert result.exit_code == 2

    def test_json_output(self, runner):
        result = runner.invoke(main, ["verify", "all", "--json",
                                      fixture("abelian2_f7_action.json")])
        docs = json.loads(result.output)
        assert all(d["status"] != "violation" for d in docs)


class TestSearch:
    def test_search_stream_and_summary(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "p": 2, "n": 3, "component_dims": [0, 1, 1],
        }))
        result = runner.invoke(main, ["search", "--spec", str(spec)])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        # three survivor lines, one count line, one bucket line
        assert sum(1 for ln in lines if ln.startswith("{")) == 3
        assert any("survivors: 3" in ln for ln in lines)
        assert any("max_nilpotency_class=2" in ln for ln in lines)

    def test_search_json_deterministic(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "p": 3, "n": 3, "component_dims": [0, 1, 1],
            "mode": "random", "seed": 5, "samples": 100,
        }))
        out1 = runner.invoke(main, ["search", "--spec", str(spec), "--json"])
        out2 = runner.invoke(main, ["search", "--spec", str(spec), "--json"])
        assert out1.exit_code == 0
        assert out1.output == out2.output

    def test_search_seed_override(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "p": 3, "n": 3, "component_dims": [0, 1, 1],
            "mode": "random", "seed": 5, "samples": 50,
        }))
        a = runner.invoke(main, ["search", "--spec", str(spec), "--json"])
        b = runner.invoke(main, ["search", "--spec", str(spec), "--seed", "6", "--json"])
        assert a.exit_code == b.exit_code == 0

    def test_search_invalid_spec_exit_2(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"p": 6, "n": 2, "component_dims": [0, 1]}))
        result = runner.invoke(main, ["search", "--spec", str(spec)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("field, value, message", [
        ("filters", None, "filters: expected "),
        ("p", 2.9, "p: expected "),
        ("p", "2", "p: expected "),
        ("n", True, "n: expected "),
        ("filters", {"identity": "false"}, "filters.identity: expected "),
        ("sed", 4, "sed: unknown field\n"),
        ("filters", {"identiy": False}, "filters.identiy: unknown field\n"),
        ("filters", {"selective": {"c": 1, "q": 2, "r": 2, "s": 0}},
         "filters.selective.s: unknown field\n"),
        ("filters", {"grading": False}, "filters.grading: unknown field\n"),
    ])
    def test_search_spec_fields_are_typed_json(self, runner, tmp_path, field, value, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"p": 2, "n": 3, "component_dims": [0, 1, 1], field: value}))
        result = runner.invoke(main, ["search", "--spec", str(spec)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {message}")
        assert result.stderr.count("\n") == 1

    def test_search_over_f5_exits_0(self, runner, tmp_path):
        # exhaustive mode has no p limit: 5^2 candidates, 9 of them survive
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"p": 5, "n": 3, "component_dims": [0, 1, 1]}))
        result = runner.invoke(main, ["search", "--spec", str(spec)])
        assert result.exit_code == 0
        assert result.output.splitlines()[-2] == "candidates: 25  survivors: 9"


def test_a_misspelled_expected_key_is_an_input_error_not_a_violation(runner, tmp_path):
    doc = json.loads((FIXTURES / "heisenberg_f5.json").read_text())
    doc["meta"]["expected"] = {"derived_lenght": 2, "nilpotency_class": 2}
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", "expected", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: meta.expected.derived_lenght: unknown field\n"


def _raise_invariant(*args, **kwargs):
    from alglab.errors import InternalInvariantError

    raise InternalInvariantError("bound failed on purpose")


@pytest.fixture
def action_file(tmp_path):
    path = tmp_path / "action.json"
    path.write_text(json.dumps(sweep_action_doc()))
    return str(path)


class TestExitContract:
    """A failed certified bound exits 1 from every verb; unreadable input exits 2."""

    def test_a_failed_bound_is_a_violation_line_under_verify(self, runner, monkeypatch,
                                                             action_file):
        import alglab.verify

        assert runner.invoke(main, ["verify", "dset-bound", action_file]).exit_code == 0
        monkeypatch.setattr(alglab.verify, "d_set", _raise_invariant)
        line = "dset-bound: violation - bound failed on purpose\n"
        result = runner.invoke(main, ["verify", "dset-bound", action_file])
        assert result.exit_code == 1
        assert result.output == line
        result = runner.invoke(main, ["verify", "all", action_file])
        assert result.exit_code == 1
        assert line in result.output
        assert [ln.split(":")[0] for ln in result.output.splitlines()] == list(
            alglab.verify.ALL_CHECKS)

    def test_a_failed_selective_bound_exits_1(self, runner, monkeypatch, action_file):
        import alglab.rdep

        args = ["verify", "selective-nilpotency", action_file, "--c", "1"]
        assert runner.invoke(main, args).exit_code == 0
        monkeypatch.setattr(alglab.rdep, "selective_check", _raise_invariant)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output == "selective-nilpotency: violation - bound failed on purpose\n"

    def test_a_failed_bound_in_a_query_verb_exits_1(self, runner, monkeypatch):
        import alglab.cli

        monkeypatch.setattr(alglab.cli, "d_set", _raise_invariant)
        result = runner.invoke(main, ["rdep", "dset", "--n", "7", "--q", "3", "--r", "2",
                                      "--prefix", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stdout == ""
        assert result.stderr == "error: bound failed on purpose\n"

    @pytest.mark.parametrize("kind", ["directory", "non-utf-8"])
    @pytest.mark.parametrize("verb", [["check"], ["verify", "all"], ["search", "--spec"]])
    def test_an_unreadable_file_exits_2(self, runner, tmp_path, kind, verb):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"p": 3, "dim": 1, \xff}')
        result = runner.invoke(main, verb + [str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_a_closed_stdout_is_not_an_input_error(self):
        # `alglab ... | head`: click's own exit 1, with no error line
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        err = io.StringIO()
        with redirect_stdout(Closed()), redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main.main(args=["check", fixture("heisenberg_f5.json")], prog_name="alglab")
        assert exc.value.code == 1
        assert err.getvalue() == ""


@pytest.mark.parametrize("args, code", [
    (["check", fixture("heisenberg_f5.json")], 0),
    (["check", "nope.json"], 2),
])
def test_in_process_runs_release_their_output_streams(args, code):
    """Running the CLI in-process under redirected output keeps no reference
    to the streams once the run is over, so repeated runs do not pile up
    their output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main.main(args=args, prog_name="alglab", standalone_mode=False)
    assert exc.value.code == code
    assert (out if code == 0 else err).getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err, exc
    gc.collect()
    assert [r() for r in refs] == [None, None]
