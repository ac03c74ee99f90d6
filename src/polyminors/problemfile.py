"""Line-oriented problem files: ring header plus ideal/matrix/complex blocks.

Format ('#' starts a comment, blocks may continue over lines until the next
block keyword):

    ring: 101; x, y, z
    ideal: x*y - z^2; x^3 + y
    matrix: [[x, y], [z, 0]]
    complex: d1=[[x, y]]; d2=[[y], [-1*x]]
"""

from __future__ import annotations

from dataclasses import dataclass

from .gbasis import Ideal
from .polylinalg import ChainComplexInput, PolyMatrix
from .polyring import CoefficientField, PolyError, PolyRing, parse_polynomial


class ProblemFileError(PolyError):
    def __init__(self, message, line=None):
        where = f"line {line}: " if line else ""
        super().__init__(f"{where}{message}")
        self.line = line


@dataclass
class ProblemFile:
    ring: PolyRing
    ideal: Ideal = None
    matrix: PolyMatrix = None
    complex: ChainComplexInput = None


_BLOCK_KEYS = ("ring", "ideal", "matrix", "complex")


def _split_blocks(text: str):
    """Group lines into (key, body, first_line_number) blocks."""
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.split(":", 1)
        key = head[0].strip()
        if len(head) == 2 and key in _BLOCK_KEYS:
            current = [key, head[1], lineno]
            blocks.append(current)
        elif current is None:
            raise ProblemFileError(f"expected a block keyword, got {line.strip()!r}", lineno)
        else:
            current[1] += "\n" + line
    return blocks


def _split_top_level(text: str, sep: str):
    """Split on sep outside any bracket nesting."""
    parts = []
    depth = 0
    buf = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_ring(body: str, lineno: int) -> PolyRing:
    pieces = body.split(";")
    if len(pieces) != 2:
        raise ProblemFileError("ring header must be 'ring: <char>; <v1>, <v2>, ...'", lineno)
    try:
        characteristic = int(pieces[0].strip())
    except ValueError:
        raise ProblemFileError(f"bad characteristic {pieces[0].strip()!r}", lineno) from None
    names = [v.strip() for v in pieces[1].split(",") if v.strip()]
    if not names:
        raise ProblemFileError("ring header declares no variables", lineno)
    try:
        return PolyRing(CoefficientField(characteristic), names)
    except PolyError as exc:
        raise ProblemFileError(str(exc), lineno) from None


def _parse_poly(text: str, ring: PolyRing, lineno: int):
    try:
        return parse_polynomial(text, ring)
    except PolyError as exc:
        raise ProblemFileError(f"bad polynomial {text.strip()!r}: {exc}", lineno) from None


def _parse_matrix_literal(text: str, ring: PolyRing, lineno: int) -> PolyMatrix:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ProblemFileError("matrix must be [[...],[...]]", lineno)
    inner = text[1:-1].strip()
    rows = []
    for row_text in _split_top_level(inner, ","):
        row_text = row_text.strip()
        if not row_text:
            continue
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ProblemFileError(f"matrix row must be bracketed: {row_text!r}", lineno)
        entries = [
            _parse_poly(e, ring, lineno)
            for e in _split_top_level(row_text[1:-1], ",")
            if e.strip()
        ]
        rows.append(entries)
    if not rows:
        raise ProblemFileError("empty matrix", lineno)
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ProblemFileError("matrix has ragged rows", lineno)
    return PolyMatrix(ring, rows)


def parse_problem_text(text: str) -> ProblemFile:
    blocks = _split_blocks(text)
    if not blocks or blocks[0][0] != "ring":
        raise ProblemFileError("file must start with a ring header", blocks[0][2] if blocks else 1)
    ring = _parse_ring(blocks[0][1], blocks[0][2])
    problem = ProblemFile(ring=ring)
    for key, body, lineno in blocks[1:]:
        if getattr(problem, key) is not None:
            what = "ring header" if key == "ring" else f"{key} block"
            raise ProblemFileError(f"duplicate {what}", lineno)
        if key == "ideal":
            gens = [
                _parse_poly(g, ring, lineno)
                for g in _split_top_level(body, ";")
                if g.strip()
            ]
            problem.ideal = Ideal(gens, ring)
        elif key == "matrix":
            problem.matrix = _parse_matrix_literal(body, ring, lineno)
        elif key == "complex":
            maps = []
            for item in _split_top_level(body, ";"):
                item = item.strip()
                if not item:
                    continue
                if "=" not in item:
                    raise ProblemFileError(f"complex entry must be dN=[[...]]: {item!r}", lineno)
                _, literal = item.split("=", 1)
                maps.append(_parse_matrix_literal(literal, ring, lineno))
            try:
                problem.complex = ChainComplexInput(maps)
            except PolyError as exc:
                raise ProblemFileError(f"invalid complex: {exc}", lineno) from None
    if problem.ideal is None:
        problem.ideal = Ideal([], ring)
    return problem


def parse_problem_file(path: str) -> ProblemFile:
    with open(path, encoding="utf-8") as fh:
        return parse_problem_text(fh.read())
