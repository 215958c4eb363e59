"""Checks on the package source itself."""

import ast
from pathlib import Path

import ffzeta

SOURCES = sorted(Path(ffzeta.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements; soundness checks must raise
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(SOURCES) > 1
    assert found == []


def test_only_fq_reads_the_digit_encoding():
    # the plane codec and the fold through the modulus live in fq
    found = []
    for path in SOURCES:
        if path.name == "fq.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("reduction", "_bpow")):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(SOURCES) > 1
    assert found == []
