"""CLI subcommands, exit codes, and JSON determinism."""

import json

import pytest

from polyminors.cli import (
    EXIT_ERROR,
    EXIT_FALSE,
    EXIT_INCONCLUSIVE,
    EXIT_TRUE,
    main,
)
from tests.conftest import SEC51_GENERATORS


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.pm"
    path.write_text(
        "ring: 0; x\n"
        "matrix: [[1*x^2, 3*x^2, 5/8*x^2, 7/10*x^2],"
        " [3/4*x^2, 2*x^2, 7/4*x^2, 9*x^2],"
        " [1*x^2, 2/9*x^2, 1/2*x^2, 4/3*x^2]]\n"
    )
    return str(path)


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.pm"
    text = "ring: 101; " + ", ".join(f"x{i}" for i in range(1, 8)) + "\n"
    text += "ideal: " + "; ".join(SEC51_GENERATORS) + "\n"
    path.write_text(text)
    return str(path)


@pytest.fixture
def koszul_file(tmp_path):
    path = tmp_path / "koszul.pm"
    path.write_text("ring: 0; x, y\ncomplex: d1=[[x, y]]; d2=[[-1*y], [x]]\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestMinors:
    def test_engines_agree(self, capsys, matrix_file):
        reports = {}
        for engine in ("bareiss", "cofactor", "recursive"):
            code, rep = run_json(
                capsys,
                ["--seed", "1", "--format", "json", "minors", matrix_file,
                 "--size", "3", "--det", engine])
            assert code == EXIT_TRUE
            reports[engine] = rep["generators"]
        assert reports["bareiss"] == reports["cofactor"] == reports["recursive"]
        assert len(reports["bareiss"]) == 4

    def test_size_out_of_range(self, capsys, matrix_file):
        code = main(["--format", "json", "minors", matrix_file, "--size", "9"])
        assert code == EXIT_ERROR


class TestChooseMinors:
    def test_basic(self, capsys, matrix_file):
        code, rep = run_json(
            capsys,
            ["--seed", "3", "--format", "json", "choose-minors", matrix_file,
             "--size", "2", "--count", "5", "--strategy", "StrategyRandom"])
        assert code == EXIT_TRUE
        assert rep["considered"] == 5
        assert rep["computed"] <= 5

    def test_unknown_strategy(self, matrix_file):
        code = main(["choose-minors", matrix_file, "--size", "2", "--count", "1",
                     "--strategy", "StrategyEel"])
        assert code == EXIT_ERROR


class TestRankCommands:
    def test_rank_at_least_true(self, capsys, matrix_file):
        code, rep = run_json(
            capsys,
            ["--seed", "1", "--format", "json", "rank-at-least", matrix_file,
             "--rank", "1"])
        assert code == EXIT_TRUE
        assert rep["result"] is True

    def test_rank_at_least_false(self, capsys, matrix_file):
        # Every entry is a multiple of x^2, so the matrix has rank 1... not
        # quite: rows are not proportional, rank is actually full. Ask beyond
        # the shape instead.
        code, rep = run_json(
            capsys,
            ["--seed", "1", "--format", "json", "rank-at-least", matrix_file,
             "--rank", "99"])
        assert code == EXIT_FALSE
        assert rep["result"] is False

    def test_submatrix_of_rank(self, capsys, matrix_file):
        code, rep = run_json(
            capsys,
            ["--seed", "1", "--format", "json", "submatrix-of-rank", matrix_file,
             "--rank", "2"])
        assert code == EXIT_TRUE
        rows, cols = rep["result"]
        assert len(rows) == len(cols) == 2

    def test_submatrix_of_rank_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "low.pm"
        path.write_text("ring: 0; x, y\nmatrix: [[x, y], [x, y]]\n")
        code = main(["--seed", "1", "--format", "json", "submatrix-of-rank",
                     str(path), "--rank", "2", "--max-minors", "4"])
        assert code == EXIT_INCONCLUSIVE


class TestRegularInCodim:
    def test_curve_true(self, capsys, curve_file):
        code, rep = run_json(
            capsys,
            ["--seed", "0", "--format", "json", "regular-in-codim", curve_file,
             "--n", "1"])
        assert code == EXIT_TRUE
        assert rep["result"] is True
        assert rep["considered"] >= 7

    def test_node_false(self, capsys, tmp_path):
        path = tmp_path / "node.pm"
        path.write_text("ring: 101; x, y\nideal: x*y\n")
        code, rep = run_json(
            capsys,
            ["--seed", "0", "--format", "json", "regular-in-codim", str(path),
             "--n", "1"])
        assert code == EXIT_FALSE

    def test_negative_codimension_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "node.pm"
        path.write_text("ring: 101; x, y\nideal: y^2 - x^3 - x^2\n")
        code = main(["--seed", "3", "--format", "json", "regular-in-codim", str(path),
                     "--n", "-3"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_no_ideal_block_means_the_zero_ideal(self, capsys, tmp_path):
        # The parser fills a missing ideal block with the zero ideal, so the
        # quotient is the whole (regular) polynomial ring.
        path = tmp_path / "noideal.pm"
        path.write_text("ring: 101; x, y\nmatrix: [[x, y], [y, x]]\n")
        code, rep = run_json(
            capsys,
            ["--seed", "1", "--format", "json", "regular-in-codim", str(path),
             "--n", "1"])
        assert code == EXIT_TRUE
        rep.pop("time")
        assert rep == {"command": "regular-in-codim", "seed": 1, "result": True,
                       "considered": 0, "computed": 0, "dimension": -1,
                       "generators": []}

    def test_verbose_goes_to_stderr(self, capsys, curve_file):
        code = main(["--seed", "0", "--format", "json", "regular-in-codim",
                     curve_file, "--n", "1", "--verbose"])
        captured = capsys.readouterr()
        assert code == EXIT_TRUE
        json.loads(captured.out)  # stdout stayed pure JSON
        assert "regularInCodimension: ring dimension = 3" in captured.err


class TestProjDimAndGbDim:
    def test_proj_dim(self, capsys, koszul_file):
        code, rep = run_json(
            capsys,
            ["--seed", "1", "--format", "json", "proj-dim", koszul_file])
        assert code == EXIT_TRUE
        assert rep["result"] == 2

    def test_gb_dim(self, capsys, curve_file):
        code, rep = run_json(
            capsys, ["--format", "json", "gb-dim", curve_file])
        assert code == EXIT_TRUE
        assert rep["dimension"] == 3


class TestReportContract:
    def test_json_deterministic_minus_time(self, capsys, curve_file):
        reports = []
        for _ in range(2):
            _, rep = run_json(
                capsys,
                ["--seed", "7", "--format", "json", "regular-in-codim",
                 curve_file, "--n", "1"])
            rep.pop("time")
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_seed_echoed(self, capsys, matrix_file):
        _, rep = run_json(
            capsys,
            ["--seed", "123", "--format", "json", "gb-dim", matrix_file])
        assert rep["seed"] == 123

    def test_entropy_seed_printed(self, capsys, matrix_file):
        _, rep = run_json(capsys, ["--format", "json", "gb-dim", matrix_file])
        assert isinstance(rep["seed"], int)

    def test_schema_fields(self, capsys, matrix_file):
        _, rep = run_json(
            capsys,
            ["--seed", "1", "--format", "json", "minors", matrix_file,
             "--size", "3"])
        assert set(rep) == {"command", "seed", "result", "considered",
                            "computed", "dimension", "generators", "time"}

    def test_generators_reparse(self, capsys, matrix_file):
        from polyminors import QQ, PolyRing
        _, rep = run_json(
            capsys,
            ["--seed", "1", "--format", "json", "minors", matrix_file,
             "--size", "3"])
        ring = PolyRing(QQ, ["x"])
        for text in rep["generators"]:
            ring.parse(text)

    def test_text_format(self, capsys, curve_file):
        code = main(["--format", "text", "gb-dim", curve_file])
        out = capsys.readouterr().out
        assert code == EXIT_TRUE
        assert "dimension: 3" in out


class TestErrors:
    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["minors"])  # argparse error -> SystemExit(EXIT_ERROR)

    def test_unreadable_file(self):
        assert main(["gb-dim", "/nonexistent/file.pm"]) == EXIT_ERROR

    def test_missing_block(self, tmp_path):
        path = tmp_path / "noideal.pm"
        path.write_text("ring: 0; x\n")
        code = main(["minors", str(path), "--size", "1"])
        assert code == EXIT_ERROR

    def test_bad_flag_value(self, matrix_file):
        with pytest.raises(SystemExit) as info:
            main(["minors", matrix_file, "--size", "eel"])
        assert info.value.code == EXIT_ERROR
