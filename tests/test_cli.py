"""Command-line front end: type files, subcommands, exit codes, goldens."""

from pathlib import Path

import pytest

from hahnsat.cli import load_type_file, main
from hahnsat.engine import Budgets, realize_type
from hahnsat.errors import (BudgetExhausted, NotFinitelySatisfiable,
                            ParseError)
from hahnsat.formulas import eval_formula, format_formula
from hahnsat.series import parse_series
from test_acceptance import _generated_type

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestTypeFiles:
    def test_params_and_formulas(self):
        tau, params = load_type_file(str(FIXTURES / "contradictory.type"), 2)
        assert tau.var == "x"
        assert tau.params == ("g1",)
        assert format_formula(tau.emit(0)) == "g1 < x"
        assert format_formula(tau.emit(1)) == "x < g1"
        assert tau.emit(2) is None

    def test_generator_emissions_follow_formulas(self, tmp_path):
        p = tmp_path / "mixed.type"
        p.write_text("param g1 = t\n"
                     "formula 0 < x\n"
                     "generator beta g1 g1\n")
        tau, _ = load_type_file(str(p), 2)
        assert format_formula(tau.emit(0)) == "0 < x"
        assert format_formula(tau.emit(1)) == "g1 < x"
        assert format_formula(tau.emit(2)) == "x < g1"

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.type"
        p.write_text("# header\n\nparam g1 = t\n  # indented\nformula g1 < x\n")
        tau, params = load_type_file(str(p), 2)
        assert set(params) == {"g1"}
        assert tau.emit(1) is None

    def test_unknown_construct_names_line(self, tmp_path):
        p = tmp_path / "bad.type"
        p.write_text("param g1 = t\nemit g1 < x\n")
        with pytest.raises(ParseError, match="bad.type:2"):
            load_type_file(str(p), 2)

    def test_parse_error_keeps_inner_column(self, tmp_path):
        # the body's column 6, shifted past "formula ": column 14 of the line
        p = tmp_path / "bad.type"
        p.write_text("formula x < 1\nformula g1 < < x\n")
        with pytest.raises(ParseError) as ei:
            load_type_file(str(p), 2)
        assert str(ei.value).endswith(
            "bad.type:2: unexpected '<' in term (column 14)")
        assert ei.value.column == 14

    @pytest.mark.parametrize("text, column", [
        ("param g1 = t\n  formula g1 < < x\n", 16),  # indentation counts
        ("param g1 = t\nparam g2 =  t^(\n", 15),     # inside a param body
        ("param g1 = t\nparam g2 = 2*t^(1) + t^(x)\n", 25),  # the bad token
        ("param g1 = t\nparam g2 = alg[-2,0,1;x,2]*t^(1)\n", 23),
        ("param g1 = t\nparam g2 t\n", 7),           # the param lacking '='
        ("param g1 = t\ngenerator zeta\n", 11),      # the generator's name
        ("param g1 = t\ngenerator beta g1\n", 11),
        ("param g1 = t\ngenerator beta g1 g2\n", 19),  # the unknown param
        ("param g1 = t\ngenerator scalar_cut 1/0 g1\n", 22),  # the literal
        ("param g1 = t\ngenerator immediate-tail g1\n", 26),  # the extra arg
        ("generator immediate-tail\n generator immediate-tail\n", 2),
        ("param g1 = t\n  formula g1 < x + g2\n", 20),  # undeclared symbol
        ("param g1 = t\ngenerator scalar_cut 1/3\n", 11),  # missing param
        ("param g1 = t\ngenerator scalar_cut 1/3 g9\n", 26),
        ("param g1 = t\nformula x t\n", 11),  # expected a relation
        ("param g1 = t\nformula x^y < t\n", 11),  # expected an integer power
        ("param g1 = t\nformula x < t^(1 2)\n", 18),  # expected ',' or ')'
        ("param g1 = t\nformula x < t^(-)\n", 17),  # a missing coordinate
        ("param g1 = t\nformula x < t )\n", 15),  # unexpected ')'
    ])
    def test_error_column_points_into_the_line(self, tmp_path, text, column):
        p = tmp_path / "bad.type"
        p.write_text(text)
        with pytest.raises(ParseError, match="bad.type:2") as ei:
            load_type_file(str(p), 2)
        assert ei.value.column == column

    @pytest.mark.parametrize("line, message, column", [
        ("param x = t", "param name 'x' is reserved", 7),
        ("param t = t", "param name 't' is reserved", 7),
        ("param and = t", "param name 'and' is reserved", 7),
        ("param  = t", "bad param name ''", 8),
        ("param g-1 = t", "bad param name 'g-1'", 7),
        ("param 2g = t", "bad param name '2g'", 7),
        ("  param   g 1 = t", "bad param name 'g 1'", 11),
        ("param g1 = t^2", "param 'g1' is declared twice", 7),
        ("param 1$ = t", "bad param name '1$'", 7),
    ])
    def test_bad_param_name_points_at_it(self, tmp_path, line, message,
                                         column):
        p = tmp_path / "bad.type"
        p.write_text(f"param g1 = t\n{line}\nformula g1 < x\n")
        with pytest.raises(ParseError) as ei:
            load_type_file(str(p), 2)
        assert str(ei.value).endswith(
            f"bad.type:2: {message} (column {column})")
        assert ei.value.column == column

    def test_param_may_follow_its_formula(self, tmp_path):
        p = tmp_path / "late.type"
        p.write_text("formula exists y (y < x and g1 < y)\nparam g1 = t\n")
        tau, params = load_type_file(str(p), 2)
        assert set(params) == {"g1"}

    def test_unknown_generator(self, tmp_path):
        p = tmp_path / "bad.type"
        p.write_text("generator zeta\n")
        with pytest.raises(ParseError, match="unknown generator"):
            load_type_file(str(p), 2)

    def test_generator_arity_checked(self, tmp_path):
        p = tmp_path / "bad.type"
        p.write_text("param g1 = t\ngenerator beta g1\n")
        with pytest.raises(ParseError, match="beta needs"):
            load_type_file(str(p), 2)

    def test_generator_param_must_exist(self, tmp_path):
        p = tmp_path / "bad.type"
        p.write_text("generator beta g1 g2\n")
        with pytest.raises(ParseError, match="unknown param"):
            load_type_file(str(p), 2)

    def test_second_generator_rejected(self, tmp_path):
        p = tmp_path / "bad.type"
        p.write_text("generator immediate-tail\ngenerator immediate-tail\n")
        with pytest.raises(ParseError, match="only one generator"):
            load_type_file(str(p), 2)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.type"
        p.write_text("# nothing\n")
        with pytest.raises(ParseError, match="no formulas"):
            load_type_file(str(p), 2)

    def test_scalar_cut_bounds_stay_consistent(self, tmp_path):
        # Every emission holds at sqrt(2)*t exactly -- even at indices where
        # the approximation floor is weak -- so no two prefixes contradict.
        p = tmp_path / "s.type"
        p.write_text("param g1 = t\ngenerator scalar_cut alg[-2,0,1;1,2] g1\n")
        tau, params = load_type_file(str(p), 2)
        env = dict(params)
        env["x"] = parse_series("alg[-2,0,1;1,2]*t^(1)", 2)
        for i in range(48):
            assert eval_formula(tau.emit(i), env, 2)


class TestPinnedOutputs:
    def test_tree_interval(self, capsys):
        rc, out, _ = run(capsys, "tree", "interval", "101")
        assert rc == 0 and out == "[5/8, 3/4)\n"

    def test_tree_interval_root(self, capsys):
        rc, out, _ = run(capsys, "tree", "interval", "")
        assert rc == 0 and out == "[0, 1)\n"

    def test_qe_existential(self, capsys):
        rc, out, _ = run(capsys, "qe", "exists x (a < x and x < b)")
        assert rc == 0 and out == "a < b\n"

    def test_basis(self, capsys):
        rc, out, _ = run(capsys, "basis", "t + t^2, t")
        assert rc == 0 and out == "t^(2), t^(1)\n"

    def test_pseudo_limit(self, capsys):
        rc, out, _ = run(capsys, "pseudo-limit",
                         "1, 1 + t^(1/2), 1 + t^(1/2) + t^(2/3)")
        assert rc == 0 and out == "1 + t^(1/2) + t^(2/3)\n"

    @pytest.mark.parametrize("argv, expected", [
        (("basis", "t^(0,1), t"), "t^(1), t^(0,1)\n"),
        (("basis", "alg[-2,0,1;1,2]*t, t"),
         "t^(1), alg[-2,0,1;1,2]*t^(1)\n"),
        (("pseudo-limit", "1, 1 + t^(1,1), 1 + t^(1,1) + t^(2)"),
         "1 + t^(1,1) + t^(2)\n"),
    ], ids=["basis-coordinates", "basis-algebraic", "pseudo-limit"])
    def test_lists_split_at_top_level_commas(self, capsys, argv, expected):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and out == expected

    def test_tree_path(self, capsys):
        rc, out, _ = run(capsys, "tree", "path", "full", "1/3", "4")
        assert rc == 0 and out == "0\n01\n010\n0101\n"

    def test_tree_search_single_branch(self, capsys):
        rc, out, _ = run(capsys, "tree", "search", "single:1011", "3")
        assert rc == 0 and out == "101\n"

    def test_tree_search_exhausted(self, capsys):
        rc, out, _ = run(capsys, "tree", "search", "0\n01", "3")
        assert rc == 0 and out == "none\n"


class TestExitCodes:
    @pytest.mark.parametrize("formula, mode", [
        ("x < 0", "group"), ("x < 0", "field"), ("0 < x", "group")],
        ids=["below-group", "below-field", "above-group"])
    def test_store_bound_at_zero(self, capsys, tmp_path, formula, mode):
        p = tmp_path / "zero.type"
        p.write_text(f"formula {formula}\n")
        rc, out, _ = run(capsys, "realize", str(p), "--mode", mode)
        assert rc == 0
        verification = out.split("== VERIFICATION ==\n")[1]
        assert verification.splitlines()[0] == f"PASS  {formula}"

    def test_realized_type_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "realize",
                         str(FIXTURES / "residue_sqrt2.type"))
        assert rc == 0
        assert "alg[-2,0,1;1,2]*t^(1)" in out

    def test_contradictory_exits_two_naming_pair(self, capsys):
        rc, out, _ = run(capsys, "realize",
                         str(FIXTURES / "contradictory.type"))
        assert rc == 2
        assert out == "== NOT FINITELY SATISFIABLE ==\ng1 < x\nx < g1\n"

    def test_tiny_budget_exits_three(self, capsys):
        rc, out, _ = run(capsys, "realize",
                         str(FIXTURES / "immediate_tail.type"),
                         "--mode", "field", "--height", "1")
        assert rc == 3
        assert "inconclusive" in out
        assert "stage: realize" in out

    def test_group_mode_decides_the_whole_small_fragment(self, capsys):
        # the group fragment over {x} has 5 formulas, fewer than the
        # default prefix budget of 48
        rc, out, _ = run(capsys, "realize",
                         str(FIXTURES / "immediate_tail.type"))
        assert rc == 3
        assert "stage: classify" in out

    def test_budget_detail_prints_levels_as_exponents(self, capsys,
                                                       tmp_path):
        p = tmp_path / "level.type"
        p.write_text("param g1 = t\nformula t^(3) < x\nformula x < t^(2)\n")
        rc, out, _ = run(capsys, "realize", str(p))
        assert rc == 3
        assert "detail: stable cut with unresolved grid level (1)\n" in out

    @pytest.fixture
    def dim3_type(self, tmp_path):
        p = tmp_path / "dim3.type"
        p.write_text("formula t^(1,0,1) < x\nformula x < t^(1)\n")
        return str(p)

    def test_dim_reaches_a_parameter_free_group_type(self, capsys,
                                                     dim3_type):
        rc, out, err = run(capsys, "realize", dim3_type, "--dim", "3")
        assert rc == 3, err
        assert "detail: stable cut with unresolved grid level (0)\n" in out

    def test_dim_reaches_a_parameter_free_field_type(self, capsys,
                                                     dim3_type):
        rc, out, err = run(capsys, "realize", dim3_type, "--dim", "3",
                           "--mode", "field")
        assert rc == 0, err
        verification = out.split("== VERIFICATION ==\n")[1] \
            .split("== BUDGETS ==")[0].splitlines()
        assert len(verification) == 2
        assert all(line.startswith("PASS  ") for line in verification)

    def test_dim_keeps_the_bytes_of_two_coordinate_literals(self, capsys,
                                                            tmp_path):
        p = tmp_path / "dim2.type"
        p.write_text("formula t^(1) < x\nformula x < t^(1/2)\n")
        outs = [run(capsys, "realize", str(p), "--mode", "field", "--dim", d)
                for d in ("2", "3")]
        assert outs[0][0] == 0
        assert outs[0] == outs[1]

    def test_residue_at_finer_precision_exits_with_a_documented_code(
            self, capsys):
        rc, _, err = run(capsys, "realize",
                         str(FIXTURES / "residue_sqrt2.type"),
                         "--prefix", "100", "--precision", "24")
        assert rc in (0, 2, 3), err

    @pytest.fixture
    def literal_outside_span(self, tmp_path):
        """A type whose literal -1 lies at level 0, outside the span of its
        one parameter."""
        p = tmp_path / "outside.type"
        p.write_text("param g1 = t^(3/2)\nformula -1 < x\n")
        return str(p)

    def test_group_mode_realizes_a_literal_outside_the_span(
            self, capsys, literal_outside_span):
        rc, out, err = run(capsys, "realize", literal_outside_span)
        assert rc == 0, err
        verification = out.split("== VERIFICATION ==\n")[1] \
            .split("== BUDGETS ==")[0].splitlines()
        assert verification
        assert all(line.startswith("PASS  ") for line in verification)

    def test_field_mode_realizes_a_literal_outside_the_span(
            self, capsys, literal_outside_span):
        rc, out, err = run(capsys, "realize", literal_outside_span,
                           "--mode", "field")
        assert rc == 0, err
        verification = out.split("== VERIFICATION ==\n")[1] \
            .split("== BUDGETS ==")[0].splitlines()
        assert verification == ["PASS  0 < x + 1"]

    def test_missing_file_exits_one(self, capsys):
        rc, _, err = run(capsys, "realize", "/nonexistent/x.type")
        assert rc == 1 and "error:" in err

    def test_bad_formula_exits_one(self, capsys):
        rc, _, err = run(capsys, "qe", "a <")
        assert rc == 1 and "error:" in err

    def test_bad_usage_exits_one(self, capsys):
        rc, _, _ = run(capsys, "tree")
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        rc, _, _ = run(capsys, "--help")
        assert rc == 0

    def test_pseudo_limit_rejects_non_pseudo_cauchy(self, capsys):
        rc, _, err = run(capsys, "pseudo-limit", "1, 2, 3")
        assert rc == 1 and "pseudo-Cauchy" in err

    @pytest.mark.parametrize("argv", [
        ("realize",), ("eval", "--at", "t")])
    def test_undeclared_symbol_exits_one(self, capsys, tmp_path, argv):
        p = tmp_path / "bad.type"
        p.write_text("param g1 = t\nformula g2 < x\n")
        rc, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert rc == 1 and out == ""
        assert "bad.type:2: unknown symbol 'g2' (column 9)" in err

    @pytest.mark.parametrize("formula, message", [
        ("x*x < g1", "atom is not linear in x: x^2 (column 9)"),
        ("g1*x < 1", "atom is not linear in x: g1*x (column 9)"),
        ("x < g1 and 1 < 2*x^2", "atom is not linear in x: x^2 (column 24)"),
        ("0 < x + x*g1*3", "atom is not linear in x: g1*x (column 17)"),
    ])
    @pytest.mark.parametrize("argv", [
        ("realize",), ("eval", "--at", "t")])
    def test_nonlinear_formula_exits_one_with_its_place(
            self, capsys, tmp_path, argv, formula, message):
        p = tmp_path / "bad.type"
        p.write_text(f"param g1 = t\nformula {formula}\n")
        rc, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert rc == 1 and out == ""
        assert f"bad.type:2: {message}" in err

    @pytest.mark.parametrize("formula, message", [
        ("exists y (y*y < x)", "atom is not linear in y: y^2 (column 19)"),
        ("forall y (x < y or g1*y < 1)",
         "atom is not linear in y: g1*y (column 28)"),
        ("exists y (y < x and exists z (z < y or z*z < g1))",
         "atom is not linear in z: z^2 (column 48)"),
        # the parameter's own product, outside the binder, is no place
        ("g1*g1 < x or exists g1 (g1*g1 < x)",
         "atom is not linear in g1: g1^2 (column 33)"),
    ])
    @pytest.mark.parametrize("argv", [
        ("realize",), ("eval", "--at", "t")])
    def test_formula_nonlinear_in_a_bound_variable_exits_one_with_its_place(
            self, capsys, tmp_path, argv, formula, message):
        # quantifier elimination solves each atom of the scope for its
        # variable, so the file is refused before the type is realized
        p = tmp_path / "bad.type"
        p.write_text(f"param g1 = t\nformula {formula}\n")
        rc, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert rc == 1 and out == ""
        assert f"bad.type:2: {message}" in err

    @pytest.mark.parametrize("argv", [
        ("path", "full", "1/3", "-2"), ("search", "full", "-1"),
        ("search", "single:1011", "-1"), ("search", "seeded:3", "-1")])
    def test_negative_tree_depth_exits_one(self, capsys, argv):
        rc, out, err = run(capsys, "tree", *argv)
        assert rc == 1 and out == ""
        assert "error: depth must be at least 0" in err

    @pytest.mark.parametrize("argv", [
        ("realize",), ("eval", "--at", "t")])
    def test_reserved_param_name_exits_one_with_its_place(self, capsys,
                                                          tmp_path, argv):
        p = tmp_path / "bad.type"
        p.write_text("param t = t\nformula t < x\n")
        rc, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert rc == 1 and out == ""
        assert "bad.type:1: param name 't' is reserved (column 7)" in err

    @pytest.mark.parametrize("prefix", ["0", "-2"])
    def test_eval_rejects_a_prefix_below_one(self, capsys, prefix):
        rc, out, err = run(capsys, "eval",
                           str(FIXTURES / "residue_sqrt2.type"),
                           "--at", "t", "--prefix", prefix)
        assert rc == 1 and out == ""
        assert "error: formula_prefix_budget must be positive" in err

    @pytest.mark.parametrize("dim", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ("realize", str(FIXTURES / "beta.type")),
        ("basis", "t"),
        ("pseudo-limit", "1,1+t,1+t+t^2"),
        ("eval", str(FIXTURES / "beta.type"), "--at", "t"),
    ], ids=["realize", "basis", "pseudo-limit", "eval"])
    def test_dim_below_one_exits_one(self, capsys, argv, dim):
        rc, out, err = run(capsys, *argv, "--dim", dim)
        assert rc == 1 and out == ""
        assert err == "error: --dim must be positive\n"

    @pytest.mark.parametrize("argv", [
        ("search", "seeded:x", "3"), ("path", "seeded:x", "1/3", "3")])
    def test_non_integer_tree_seed_exits_one(self, capsys, argv):
        rc, out, err = run(capsys, "tree", *argv)
        assert rc == 1 and out == ""
        assert err == "error: not a tree seed: 'x'\n"

    @pytest.mark.parametrize("mode", ["group", "field"])
    @pytest.mark.parametrize("text", [
        "param g1 = 0\nformula g1 < x\nformula x < 1\n",
        "param g1 = t\nparam g2 = t - t\nformula g1 < x\nformula x < 2*g1\n",
        "param g1 = 0\nparam g2 = t\ngenerator beta g2 g1\n",
    ], ids=["only-zero", "zero-beside-t", "beta-over-zero"])
    def test_zero_param_spans_nothing(self, capsys, tmp_path, text, mode):
        p = tmp_path / "zero.type"
        p.write_text(text)
        rc, out, err = run(capsys, "realize", str(p), "--mode", mode)
        assert (rc, err) == (0, "")
        assert "PASS  " in out and "FAIL  " not in out

    def test_tree_path_off_tree_exits_one(self, capsys):
        rc, _, err = run(capsys, "tree", "path", "single:000", "3/4", "2")
        assert rc == 1 and "error:" in err

    @pytest.mark.parametrize("real", ["1", "2", "5/4"])
    def test_tree_path_outside_unit_interval_exits_one(self, capsys, real):
        rc, out, err = run(capsys, "tree", "path", "full", real, "4")
        assert rc == 1 and out == ""
        assert "error: tree path needs a real in [0, 1)" in err


class TestGoldens:
    CASES = (
        ("residue_sqrt2.report",
         ("realize", str(FIXTURES / "residue_sqrt2.type"))),
        ("beta.report",
         ("realize", str(FIXTURES / "beta.type"))),
        ("immediate_tail_field.report",
         ("realize", str(FIXTURES / "immediate_tail.type"),
          "--mode", "field")),
    )

    @pytest.mark.parametrize("golden,argv", CASES,
                             ids=[c[0] for c in CASES])
    def test_byte_identical_to_golden(self, capsys, golden, argv):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert out == (GOLDENS / golden).read_text(encoding="utf-8")

    def test_two_runs_byte_identical(self, capsys):
        _, first, _ = run(capsys, "realize",
                          str(FIXTURES / "beta.type"))
        _, second, _ = run(capsys, "realize",
                           str(FIXTURES / "beta.type"))
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "realize",
                         str(FIXTURES / "residue_sqrt2.type"))
        target = tmp_path / "r.txt"
        rc2 = main(["realize", str(FIXTURES / "residue_sqrt2.type"),
                    "--out", str(target)])
        capsys.readouterr()
        assert rc == rc2 == 0
        assert target.read_text(encoding="utf-8") == out


class TestEval:
    def test_witness_round_trip(self, capsys):
        rc, out, _ = run(capsys, "realize",
                         str(FIXTURES / "residue_sqrt2.type"))
        assert rc == 0
        witness = out.split("== WITNESS ==\n")[1].splitlines()[0]
        rc, out, _ = run(capsys, "eval",
                         str(FIXTURES / "residue_sqrt2.type"),
                         "--at", witness, "--prefix", "48")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 48
        assert all(line.startswith("PASS") for line in lines)

    def test_wrong_witness_shows_fail(self, capsys):
        rc, out, _ = run(capsys, "eval",
                         str(FIXTURES / "residue_sqrt2.type"),
                         "--at", "3*t^(1)", "--prefix", "4")
        assert rc == 0
        assert "FAIL  x < 2*g1" in out

    def test_none_emissions_skipped(self, capsys):
        rc, out, _ = run(capsys, "eval",
                         str(FIXTURES / "contradictory.type"),
                         "--at", "2*t^(1)", "--prefix", "10")
        assert rc == 0
        assert out == "PASS  g1 < x\nFAIL  x < g1\n"


class TestInputErrors:
    def test_tree_path_bad_rational_exits_one(self, capsys):
        rc, out, err = run(capsys, "tree", "path", "full", "1/0", "3")
        assert rc == 1 and out == ""
        assert "error: bad rational '1/0' (column 1)" in err

    @pytest.mark.parametrize("formula, column", [
        ("1/0 < x", 1), ("x < t^(1/0)", 8)])
    def test_qe_zero_denominator_exits_one(self, capsys, formula, column):
        rc, out, err = run(capsys, "qe", formula)
        assert rc == 1 and out == ""
        assert f"error: bad rational '1/0' (column {column})" in err

    def test_qe_non_decimal_digit_is_located(self, capsys):
        # '²' is a digit to str.isdigit but not to int()
        rc, out, err = run(capsys, "qe", "exists x (x < a^2²)")
        assert rc == 1 and out == ""
        assert err == "error: unexpected character '²' (column 18)\n"

    def test_qe_oversized_power_is_located(self, capsys):
        rc, out, err = run(capsys, "qe",
                           "exists x (x < a^" + "9" * 5000 + ")")
        assert rc == 1 and out == ""
        assert err.startswith("error: bad rational '999")
        assert err.endswith("' (column 17)\n")
        assert "Exceeds the limit" not in err

    @pytest.mark.parametrize("formula, message", [
        ("exists y (y*y < a)", "y: y^2 (column 11)"),
        ("forall y (y*a < 1)", "y: a*y (column 11)"),
        # the variable elimination failed on, not the first binder that
        # holds a nonlinear product: z's elimination drops y*y
        ("exists y (exists z (z < y*y)) and exists w (w*w < a)",
         "w: w^2 (column 45)"),
        # the same with one name for both binders: the first w eliminates
        # (z's elimination drops w*w), the second does not
        ("exists w (exists z (z < w*w)) and exists w (w*w < a)",
         "w: w^2 (column 45)"),
        # a free y is not solved for: the place is inside y's binder
        ("y*y < 1 and exists y (y*y < a)", "y: y^2 (column 23)"),
    ])
    def test_qe_nonlinear_bound_variable_is_located(self, capsys, formula,
                                                    message):
        rc, out, err = run(capsys, "qe", formula)
        assert rc == 1 and out == ""
        assert err == f"error: atom is not linear in {message}\n"

    def test_qe_nonlinear_atom_that_elimination_drops_stays_accepted(
            self, capsys):
        rc, out, _ = run(capsys, "qe", "exists y (exists z (z < y*y))")
        assert (rc, out) == (0, "true\n")

    @pytest.mark.parametrize("argv", [
        ("realize",), ("eval", "--at", "t")])
    def test_type_file_zero_denominator_exits_one(self, capsys, tmp_path,
                                                  argv):
        p = tmp_path / "bad.type"
        p.write_text("param g1 = t\nformula g1 < 1/0*x\n")
        rc, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert rc == 1 and out == ""
        assert "bad.type:2: bad rational '1/0' (column 14)" in err

    def test_unbalanced_list_reports_its_column_in_the_argument(self, capsys):
        rc, out, err = run(capsys, "basis", "t, t^(1")
        assert rc == 1 and out == ""
        assert "error: unbalanced brackets (column 7)" in err

    @pytest.mark.parametrize("argv, message", [
        # columns count from the start of the argument, not of the element
        (("basis", "t^(1), 2*t^(1) + q*t"), "bad rational 'q' (column 18)"),
        (("pseudo-limit", "t^(1), 2*t^(1) + q*t"),
         "bad rational 'q' (column 18)"),
        (("basis", "t, t^(1, x)"), "bad exponent coordinate 'x' (column 10)"),
        (("pseudo-limit", "t,  , t"), "empty series literal (column 3)"),
        # exponent and alg[...] errors point at the bad token
        (("basis", "t^(x)"), "bad exponent coordinate 'x' (column 4)"),
        (("basis", "alg[-2,0,1;x,2]*t^(1)"), "bad rational 'x' (column 12)"),
        (("basis", "alg[-2,0,1;1, y]*t^(1)"), "bad rational 'y' (column 15)"),
        (("basis", "alg[-2,x,1;1,2]*t"), "bad alg coefficient 'x' (column 8)"),
    ])
    def test_series_argument_error_columns(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("text, column", [
        ("formula exists y (y < x) and y < 1\n", 30),
        ("formula forall y (y < x or 0 < y) and y < 1\n", 39),
        ("formula exists y (exists z (y < z and z < x)) and 0 < z\n", 55),
        ("param g1 = t\n  formula g1 < x + g2\n", 20),
    ])
    def test_unknown_symbol_column_skips_bound_occurrences(
            self, tmp_path, text, column):
        p = tmp_path / "bad.type"
        p.write_text(text)
        with pytest.raises(ParseError, match="unknown symbol") as ei:
            load_type_file(str(p), 2)
        assert ei.value.column == column


class TestBudgetSweep:
    """Within its budgets every fixture realizes with all checks PASS or
    exits with a documented code, and prints the same bytes twice.  The
    residue fixture at --prefix 100 --precision 24 has its own test in
    TestExitCodes; the grid stays off precision 24."""

    GRID = [(height, precision, prefix) for height in (1, 4)
            for precision in (8, 16) for prefix in (8, 48)]

    @pytest.mark.parametrize("mode", ["group", "field"])
    @pytest.mark.parametrize("fixture", ["beta", "contradictory",
                                         "immediate_tail", "residue_sqrt2"])
    def test_documented_exit_and_same_bytes(self, capsys, fixture, mode):
        cases = {}  # (height, prefix) -> cases decided without free decisions
        for height, precision, prefix in self.GRID:
            argv = ("realize", str(FIXTURES / f"{fixture}.type"),
                    "--mode", mode, "--height", str(height),
                    "--precision", str(precision), "--prefix", str(prefix))
            first = run(capsys, *argv)
            rc, out, err = first
            assert rc in (0, 2, 3), (argv, err)
            assert "FAIL  " not in out, argv
            assert run(capsys, *argv) == first, argv
            if rc == 0 and "free decisions: 0\n" in out:
                lines = out.splitlines()
                case = lines[lines.index("== CASE ==") + 1]
                cases.setdefault((height, prefix), set()).add(case)
        # every query answered by the store's bounds: the case is the
        # store's, so the precision does not move it
        for key, found in cases.items():
            assert len(found) == 1, (key, found)

    C8_SEEDS = (1001, 1025, 1040)

    @pytest.mark.parametrize("mode", ["group", "field"])
    @pytest.mark.parametrize("seed", C8_SEEDS)
    def test_c8_slice_documented_outcome_and_same_bytes(self, seed, mode):
        """Gate c8's types in process over the same grid: every run passes
        its verification or raises a documented exception, a second run
        gives the same report, and the case agrees across precisions when
        no query was a free decision."""
        tau, env = _generated_type(seed)
        cases = {}
        for height, precision, prefix in self.GRID:
            budgets = Budgets(height_budget=height, precision_budget=precision,
                              formula_prefix_budget=prefix)
            outcomes = []
            for _ in range(2):
                try:
                    res = realize_type(tau, env, mode=mode, budgets=budgets)
                except (NotFinitelySatisfiable, BudgetExhausted) as e:
                    outcomes.append(type(e).__name__)
                    continue
                assert all(ok for _, ok in res.verification), budgets
                outcomes.append(res.report)
            assert outcomes[0] == outcomes[1], budgets
            out = outcomes[0]
            if "free decisions: 0\n" in out:
                lines = out.splitlines()
                case = lines[lines.index("== CASE ==") + 1]
                cases.setdefault((height, prefix), set()).add(case)
        for key, found in cases.items():
            assert len(found) == 1, (key, found)
