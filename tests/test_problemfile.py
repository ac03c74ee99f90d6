"""The problem-file grammar: blocks, comments, continuations, error reporting."""

import pytest

from polyminors import parse_problem_text
from polyminors.problemfile import ProblemFileError
from tests.conftest import SEC51_GENERATORS


def test_curve_file_parses():
    text = "ring: 101; " + ", ".join(f"x{i}" for i in range(1, 8)) + "\n"
    text += "ideal: " + "; ".join(SEC51_GENERATORS) + "\n"
    problem = parse_problem_text(text)
    assert problem.ring.num_vars == 7
    assert len(problem.ideal.generators) == 12


def test_empty_ideal_block():
    problem = parse_problem_text("ring: 0; x, y\nideal:\n")
    assert problem.ideal.generators == []


def test_matrix_block_and_comments():
    problem = parse_problem_text(
        """
        # a demo file
        ring: 0; x, y
        matrix: [[x, y],   # trailing comment
                 [y, x]]
        """
    )
    assert problem.matrix.shape == (2, 2)
    assert problem.matrix[0, 1] == problem.ring.parse("y")


def test_complex_block():
    problem = parse_problem_text(
        "ring: 0; x, y\ncomplex: d1=[[x, y]]; d2=[[-1*y], [x]]\n"
    )
    assert problem.complex.length == 2


def test_ragged_matrix_rejected():
    with pytest.raises(ProblemFileError):
        parse_problem_text("ring: 0; x\nmatrix: [[x], [x, x]]\n")


def test_missing_ring_header():
    with pytest.raises(ProblemFileError):
        parse_problem_text("ideal: x\n")


def test_error_carries_line_number():
    try:
        parse_problem_text("ring: 0; x\nideal: x + w\n")
    except ProblemFileError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected a parse error")


def test_bad_characteristic():
    with pytest.raises(ProblemFileError):
        parse_problem_text("ring: 6; x\n")


DUPLICATE_BLOCKS = {
    "ring": "ring: 0; x",
    "ideal": "ideal: x",
    "matrix": "matrix: [[x]]",
    "complex": "complex: d1=[[x]]",
}


@pytest.mark.parametrize("key", DUPLICATE_BLOCKS)
def test_duplicate_ring_rejected(key):
    block = DUPLICATE_BLOCKS[key]
    what = "ring header" if key == "ring" else f"{key} block"
    with pytest.raises(ProblemFileError, match=f"duplicate {what}"):
        parse_problem_text(f"ring: 0; x\n{block}\n{block}\n")


def test_broken_complex_rejected():
    with pytest.raises(ProblemFileError):
        parse_problem_text("ring: 0; x, y\ncomplex: d1=[[x, y]]; d2=[[x], [y]]\n")
