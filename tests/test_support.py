"""The tests/support.py oracles, and the rule that keeps them independent."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import support
from support import brute_force_admissible, nonzero_pairs, prime_reciprocal_product


def test_support_imports_nothing_from_primeshift():
    tree = ast.parse(Path(support.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "primeshift"]


class TestBruteForce:
    def test_examples(self):
        assert brute_force_admissible([0, 2], 5)
        assert not brute_force_admissible([0, 1], 5)
        assert brute_force_admissible([0, 4, 6], 7)

    def test_bound_too_small_rejected(self):
        with pytest.raises(ValueError):
            brute_force_admissible([0, 1, 2], 2)


def test_exact_product_small():
    assert prime_reciprocal_product(10) == Fraction(35, 16)
    assert prime_reciprocal_product(2) == Fraction(1)


def test_nonzero_pairs_skips_zeros_across_chunks():
    chunks = [
        (-2, np.array([0, 2, 1], np.uint8)),
        (1, np.array([0, 0], np.uint8)),
        (3, np.array([3], np.uint16)),
    ]
    assert nonzero_pairs(chunks) == [(-1, 2), (0, 1), (3, 3)]
