"""The problem-file grammar: blocks, comments, continuations, error reporting."""

import pickle

import pytest

from polyminors import det_bareiss, parse_problem_text, recursive_minors
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


@pytest.mark.parametrize("characteristic", [0, 101])
def test_parsed_problem_survives_pickling(characteristic):
    # The benchmark runner unpickles a copy of the parsed problems every round.
    problem = parse_problem_text(
        f"ring: {characteristic}; x, y, z\n"
        "ideal: x^2 - y*z; 1/2*x*y + z^3\n"
        "matrix: [[x, 1/3*y^2, z], [y*z, x + 1, 2/5*x*z], [z^2, 3, x*y - z]]\n"
        "complex: d1=[[x, y]]; d2=[[-1*y], [x]]\n"
    )
    copy = pickle.loads(pickle.dumps(problem))
    assert copy.ring == problem.ring
    assert copy.ideal.generators == problem.ideal.generators
    assert copy.matrix == problem.matrix
    assert copy.complex.maps == problem.complex.maps
    M, C = problem.matrix, copy.matrix
    assert det_bareiss(C) == det_bareiss(M)
    for k in (1, 2, 3):
        assert recursive_minors(k, C) == recursive_minors(k, M)
    assert C * C.transpose() == M * M.transpose()
    assert C[1, 1] * C[2, 2] == M[1, 1] * M[2, 2]
    (d1, d2), (e1, e2) = problem.complex.maps, copy.complex.maps
    assert e1 * e2 == d1 * d2


@pytest.mark.parametrize(
    "literal, message",
    [
        ("[[x, , y], [1, 2]]", "empty entry 2 in matrix row 1"),
        ("[[x, y], [1, 2, ]]", "empty entry 3 in matrix row 2"),
        ("[[], []]", "empty matrix row 1"),
        ("[[x], [ ]]", "empty matrix row 2"),
        ("[]", "empty matrix$"),
    ],
)
def test_empty_matrix_entries_and_rows_rejected(literal, message):
    # An empty slot used to be dropped, shifting later entries left.
    with pytest.raises(ProblemFileError, match=message):
        parse_problem_text(f"ring: 0; x, y\nmatrix: {literal}\n")


@pytest.mark.parametrize(
    "body, got",
    [
        ("d2=[[x, y]]; d1=[[y], [-x]]", "'d2'"),
        ("d1=[[x, y]]; d3=[[y], [-x]]", "'d3'"),
        ("e1=[[x, y]]", "'e1'"),
    ],
)
def test_complex_labels_must_run_d1_to_dq(body, got):
    with pytest.raises(ProblemFileError, match=f"got {got} where"):
        parse_problem_text(f"ring: 0; x, y\ncomplex: {body}\n")


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


@pytest.mark.parametrize(
    "ring, body, accepted",
    [
        ("0; x, y", "d1=[[1/2*x, 1/3*y]]; d2=[[2/3*y], [-x]]", True),
        ("0; x, y", "d1=[[1/2*x, 1/3*y]]; d2=[[2/3*y], [-1/2*x]]", False),
        ("101; x, y", "d1=[[x, y]]; d2=[[y], [100*x]]", True),
        ("0; x, y", "d1=[[x, y]]; d2=[[y], [100*x]]", False),
        ("0; x", "d1=[[x^40000]]; d2=[[x^40000 - x^40000]]", True),
    ],
)
def test_complex_check_is_exact(ring, body, accepted):
    # d_i * d_{i+1} is formed exactly: over QQ with denominators, and with
    # coefficients reduced mod p, so 101*x*y vanishes over GF(101) only.
    text = f"ring: {ring}\ncomplex: {body}\n"
    if accepted:
        assert parse_problem_text(text).complex.length == 2
    else:
        with pytest.raises(ProblemFileError, match="d1 \\* d2 is not zero"):
            parse_problem_text(text)


def test_complex_check_overflows_before_terms_cancel():
    # x^40000 * x^40000 - x^40000 * x^40000 is zero, but each product
    # overflows the exponent range before the sum is formed.
    with pytest.raises(ProblemFileError, match="invalid complex: exponent "):
        parse_problem_text("ring: 0; x\ncomplex: d1=[[x^40000, x^40000]]; d2=[[x^40000], [-x^40000]]\n")
