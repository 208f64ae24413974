"""What the parser makes of each sample program and of seeded token
mutations of it.

For every `programs/*.ph` the test parses the file itself and then 300
mutations of its token list, each made by deleting, inserting, swapping
or replacing one token (the random generator is seeded with the file
name). A result is the `repr` of the parsed program, or the `ParseError`
text with its `expected` set. The golden file has one line per program
with the number of parses and of errors and a SHA-256 over the ordered
results, so it pins both the trees the parser builds and the position
and wording of every error it reports.
To regenerate the golden file after an announced change of the syntax:

    PYTHONPATH=src python tests/test_parse_corpus.py > tests/golden/parse-corpus.txt
"""

import glob
import hashlib
import os
import random
import zlib

import pytest

from polyheap.parser import ParseError, parse_program, tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "parse-corpus.txt")
PROGRAMS = sorted(glob.glob(os.path.join(HERE, "..", "programs", "*.ph")))
MUTATIONS = 300
# tokens worth inserting beyond a file's own: every operator and the
# keywords that open a sub-language
EXTRA = ("(", ")", "[", "]", ",", ";", ":", ".", ":=", "=>", "\\/", "*", "+", "-", "/",
         "<", "<=", "=", "and", "or", "not", "in", "Val", "Nat", "exists", "emp", "True",
         "#z", "1q", "1/2q", "nil", '"s"', "if", "else", "return", "fold", "unfold")


def result(text: str) -> str:
    try:
        return repr(parse_program(text))
    except ParseError as exc:
        return f"ParseError {exc} expected={exc.expected}"


def mutants(text: str, seed: int, count: int) -> list:
    toks = [t.text for t in tokenize(text) if t.kind != "eof"]
    vocab = sorted(set(toks) | set(EXTRA))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = list(toks)
        kind = rng.choice(("delete", "insert", "swap", "replace"))
        i = rng.randrange(len(t))
        if kind == "delete":
            del t[i]
        elif kind == "insert":
            t.insert(i, rng.choice(vocab))
        elif kind == "swap":
            j = min(i + 1, len(t) - 1)
            t[i], t[j] = t[j], t[i]
        else:
            t[i] = rng.choice(vocab)
        out.append(" ".join(t))
    return out


def line(path: str) -> str:
    name = os.path.basename(path)
    text = open(path, encoding="utf-8").read()
    results = [result(text)] + [result(m) for m in mutants(text, zlib.crc32(name.encode()), MUTATIONS)]
    errors = sum(r.startswith("ParseError ") for r in results)
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
    return f"{name} parses={len(results) - errors} errors={errors} sha256={digest}"


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return {ln.split()[0]: ln.rstrip("\n") for ln in f if ln.strip()}


@pytest.mark.parametrize("path", PROGRAMS, ids=os.path.basename)
def test_parse_corpus_matches_golden(path):
    assert line(path) == _golden()[os.path.basename(path)]


def test_golden_covers_every_program():
    assert sorted(_golden()) == [os.path.basename(p) for p in PROGRAMS]


if __name__ == "__main__":
    for p in PROGRAMS:
        print(line(p))
