"""Parsed terms, in insertion order, and parse errors, pinned to stored values.

`parse_golden.json` holds its own inputs: every problem text and polynomial
string found in the test modules, seeded random expressions (signs, a/b
coefficients, powers, nested parentheses, products of sums) over GF(101),
GF(2) and QQ, and malformed strings.  For each input it stores
`list(terms.items())` of every parsed polynomial, or the exception's type and
position (a ParseError's `position`, a ProblemFileError's line and quoted
position).  Parses run in a fresh thread, so the Python stack depth at which
deep nesting gives up does not depend on the caller.

Regenerate (only for a deliberate change of the parser's output):

    PYTHONPATH=src python -m tests.test_parse_golden
"""

import ast
import json
import random
import re
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from polyminors import parse_problem_text
from polyminors.polyring import GF, QQ, PolyRing, parse_polynomial

HERE = Path(__file__).parent
GOLDEN_PATH = HERE / "parse_golden.json"

FIELDS = {"0": QQ, "2": GF(2), "101": GF(101)}
VARIABLE_SETS = [["x"], ["x", "y"], ["x", "y", "z"], ["a", "b"], [f"x{i}" for i in range(1, 8)]]


def ring_of(spec):
    """PolyRing from "<characteristic>; <v1>, <v2>, ..."."""
    char, names = spec.split(";")
    return PolyRing(FIELDS[char.strip()], [v.strip() for v in names.split(",")])


def encode_terms(poly):
    return [[list(m), f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else c]
            for m, c in poly.terms.items()]


def encode_error(exc):
    position = getattr(exc, "position", None)
    if position is None:
        found = re.search(r"at position (\d+)", str(exc))
        position = int(found.group(1)) if found else None
    return {"error": type(exc).__name__, "position": position, "line": getattr(exc, "line", None)}


def outcome(case):
    """The stored form of one case's parse: its terms or its error."""
    try:
        if case["kind"] == "problem":
            problem = parse_problem_text(case["text"])
            out = {"ideal": [encode_terms(g) for g in problem.ideal.generators]}
            if problem.matrix is not None:
                out["matrix"] = [[encode_terms(e) for e in row] for row in problem.matrix.entries]
            if problem.complex is not None:
                out["complex"] = [[[encode_terms(e) for e in row] for row in d.entries]
                                  for d in problem.complex.maps]
            return out
        return {"terms": encode_terms(parse_polynomial(case["text"], ring_of(case["ring"])))}
    except Exception as exc:  # every error is part of the pinned behaviour
        return encode_error(exc)


def in_fresh_thread(fn):
    box = []
    thread = threading.Thread(target=lambda: box.append(fn()))
    thread.start()
    thread.join()
    return box[0]


def outcomes(cases):
    return in_fresh_thread(lambda: [outcome(case) for case in cases])


# --- inputs, used only to (re)generate the golden file -------------------------


def strings_in_tests():
    """Every string constant in the test modules, in file and source order."""
    found = []
    for path in sorted(HERE.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.strip():
                found.append(node.value)
    return list(dict.fromkeys(found))


def string_cases():
    """Problem texts as they are; polynomial strings in each field over the
    smallest listed variable set naming all their identifiers, kept if they
    parse in at least one field."""
    cases = []
    for text in strings_in_tests():
        if "ring:" in text:
            cases.append({"kind": "problem", "text": text})
            continue
        names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text))
        variables = next((vs for vs in VARIABLE_SETS if names <= set(vs)), None)
        if variables is None:
            continue
        group = [{"kind": "poly", "ring": f"{char}; {', '.join(variables)}", "text": text}
                 for char in FIELDS]
        if any("terms" in out for out in outcomes(group)):
            cases += group
    return cases


def random_expression(rng, names, depth):
    """A sum of signed products of coefficients, powers and parenthesised sums."""
    parts = []
    for k in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.3:
                num = rng.choice([0, 1, 2, 3, 50, 100, 101, 202, 12345678901234567890])
                den = rng.choice([None, None, 1, 2, 3, 7, 101, 202])
                factors.append(str(num) if den is None else f"{num}/{den}")
            elif roll < 0.8 or depth == 0:
                name = rng.choice(names)
                power = rng.choice([None, None, 0, 1, 2, 3, 5, 17])
                factors.append(name if power is None else f"{name}^{power}")
            else:
                factors.append("(" + random_expression(rng, names, depth - 1) + ")")
        sign = rng.choice(["", "", "-", "+"]) if k == 0 else rng.choice([" + ", " - ", "-", "+"])
        parts.append(sign + rng.choice(["*", " * "]).join(factors))
    return "".join(parts)


def random_cases():
    rng = random.Random(15)
    cases = []
    for char in FIELDS:
        for variables in (["x", "y"], ["x", "y", "z"]):
            spec = f"{char}; {', '.join(variables)}"
            for _ in range(60):
                text = random_expression(rng, variables, rng.randint(0, 3))
                cases.append({"kind": "poly", "ring": spec, "text": text})
    return cases


MALFORMED = [
    ("101; x, y", "--x"),
    ("101; x, y", "x*-1"),
    ("101; x, y", "(x+1)^2"),
    ("0; x, y", "1/-2*x"),
    ("101; x, y", "x + 1/101"),
    ("101; x, y", "x + 2/202"),
    ("0; x, y", "x^65536"),
    ("0; x, y", "x^65535*y^65535"),
    ("0; x, y", "x^40000*x^30000"),
    ("0; x, y", "x^40000*x^40000*y^70000"),
    ("0; x, y", "x^40000*0*x^40000"),
    ("101; x, y", "x^40000*101*x^40000"),
    ("0; x, y", "x^40000*(y - y)*x^40000"),
    ("0; x, y", "x^40000*(x - x + y)*x^40000"),
    ("0; x, y", "(x^30000 + y)*(x^30000 - 1)*x^5536"),
    ("0; x, y", "(x^30000 + y)*(x^30000 - 1)*x^5535"),
    ("0; x, y", "x y"),
    ("0; x, y", "x + w"),
    ("0; x, y", "2*w^2"),
    ("0; x, y", "x^"),
    ("0; x, y", "x^y"),
    ("0; x, y", "1/0*x"),
    ("0; x, y", "1/x"),
    ("0; x, y", "x/2"),
    ("0; x, y", "2/3/4"),
    ("0; x, y", "x^2^3"),
    ("0; x, y", "()"),
    ("0; x, y", "(x"),
    ("0; x, y", "x)"),
    ("0; x, y", ""),
    ("0; x, y", "x +"),
    ("0; x, y", "x $ y"),
    ("0; x, y", "*x"),
    ("0; x, y", "9" * 5000 + "*x"),
    ("101; x, y", "(" * 300 + "x" + ")" * 300),
    ("101; x, y", "(" * 400 + "x" + ")" * 400),
    ("101; x, y", "-(" * 300 + "x" + ")" * 300),
    ("101; x, y", "-(" * 400 + "x" + ")" * 400),
]


# Sums in which a term cancels and then comes back, which moves it to the end.
CANCELLING = [
    ("0; x, y", "x + y - x + x"),
    ("0; x, y", "x*y + 1 - x*y + 2*x*y - 1 + 3"),
    ("101; x, y", "(x + 1)*(x + 100) - x^2 + 1 + x^2"),
    ("2; x, y", "x + y + x + 1 + x"),
    ("0; x, y", "-(x - y)*(x + y) + x^2 - y^2 + (x + y)*x"),
    ("0; x, y", "1/2*x - 1*x + 1/2*x + y + 1/3*x"),
]


def malformed_cases():
    return [{"kind": "poly", "ring": ring, "text": text} for ring, text in MALFORMED + CANCELLING]


def generate():
    cases = string_cases() + random_cases() + malformed_cases()
    return [dict(case, out=out) for case, out in zip(cases, outcomes(cases))]


# --- the tests -----------------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_kind_of_input(golden):
    texts = {case["text"] for case in golden}
    assert all(text in texts for _, text in MALFORMED)
    assert sum(case["kind"] == "problem" for case in golden) >= 20
    assert sum("error" in case["out"] for case in golden) >= len(MALFORMED)


@pytest.mark.parametrize("kind", ["problem", "poly"])
def test_parse_matches_golden(golden, kind):
    cases = [case for case in golden if case["kind"] == kind]
    stored = [case["out"] for case in cases]
    got = outcomes(cases)
    mismatched = [case["text"][:80] for case, a, b in zip(cases, got, stored) if a != b]
    assert not mismatched


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), separators=(",", ":")) + "\n", encoding="utf-8")
