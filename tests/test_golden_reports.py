"""Seeded CLI reports pinned to stored values: the standing behaviour check.

Each run writes its problem file to tmp_path, calls `cli.main` in process and
compares the JSON report without `time`, the stderr text and the exit code
with `golden_reports.json`.  A change that keeps behaviour keeps all three.
"""

import json
from pathlib import Path

import pytest

from polyminors.cli import main
from tests.conftest import SEC51_GENERATORS

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())

FILES = {
    "curve": "ring: 101; " + ", ".join(f"x{i}" for i in range(1, 8)) + "\n"
             "ideal: " + "; ".join(SEC51_GENERATORS) + "\n",
    "parabola": "ring: 101; x, y\nideal: y - x^2\n",
    "node": "ring: 101; x, y\nideal: y^2 - x^3 - x^2\n",
    # Rank 3: the last row is r1 + x*r2 + 5*r3.
    "fp_matrix": (
        "ring: 101; x, y, z\n"
        "ideal: x*y - z\n"
        "matrix: [[x, y, z, 1],"
        " [y + 1, x*z, 2, x],"
        " [z^2, 3, x + y, y],"
        " [x*y + 5*z^2 + 2*x, x^2*z + y + 15, 7*x + 5*y + z, x^2 + 5*y + 1]]\n"
    ),
    # Rank 3: the last row is r1 - 2*r2 + y*r3.
    "qq_matrix": (
        "ring: 0; x, y\n"
        "matrix: [[x, 1/2*y, 1, 0],"
        " [y, x^2, 3/4, x],"
        " [1, x*y, y, 2/3],"
        " [x - y, x*y^2 - 2*x^2 + 1/2*y, y^2 - 1/2, 2/3*y - 2*x]]\n"
    ),
    "koszul": "ring: 0; x, y\ncomplex: d1=[[x, y]]; d2=[[-1*y], [x]]\n",
}

RUNS = {
    "curve-n1-default": ("curve", ["--seed", "42", "regular-in-codim", "{file}", "--n", "1",
                                   "--strategy", "StrategyDefault", "--verbose"]),
    "parabola-n0": ("parabola", ["--seed", "3", "regular-in-codim", "{file}", "--n", "0",
                                 "--verbose"]),
    "node-n1": ("node", ["--seed", "3", "regular-in-codim", "{file}", "--n", "1", "--verbose"]),
    **{
        f"{command}-{name}-r{r}": (name, ["--seed", "5", command, "{file}", "--rank", str(r)])
        for command in ("rank-at-least", "submatrix-of-rank")
        for name in ("fp_matrix", "qq_matrix")
        for r in (2, 3, 4)
    },
    **{
        f"minors-{engine}": ("qq_matrix", ["--seed", "1", "minors", "{file}", "--size", "3",
                                           "--det", engine])
        for engine in ("bareiss", "cofactor", "recursive")
    },
    **{
        f"choose-minors-{label}": ("fp_matrix", ["--seed", "11", "choose-minors", "{file}",
                                                 "--size", "2", "--count", "4",
                                                 "--strategy", strategy])
        for label, strategy in (
            ("default", "StrategyDefault"),
            ("random", "StrategyRandom"),
            ("lex-smallest", "StrategyLexSmallest"),
            ("custom", "{GRevLexLargest: 1, Points: 1, RandomNonzero: 2}"),
        )
    },
    "proj-dim-koszul": ("koszul", ["--seed", "1", "proj-dim", "{file}"]),
    "gb-dim-curve": ("curve", ["--seed", "1", "gb-dim", "{file}"]),
}


def run_report(tmp_path, capsys, name):
    file_key, argv = RUNS[name]
    path = tmp_path / f"{file_key}.pm"
    path.write_text(FILES[file_key])
    argv = ["--format", "json"] + [str(path) if a == "{file}" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    report.pop("time")
    return {"report": report, "stderr": captured.err, "exit": code}


def test_runs_match_stored_names():
    assert sorted(RUNS) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(tmp_path, capsys, name):
    assert run_report(tmp_path, capsys, name) == GOLDEN[name]
