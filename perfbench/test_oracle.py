"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import _union_ns  # noqa: E402
from oracle import ideal_bootstrap_winner  # noqa: E402


def _enumerate(pool1, pool2, n1, n2):
    """P(max1 > max2) over every equally likely pair of index tuples."""
    wins = total = 0
    for i1 in itertools.product(range(len(pool1)), repeat=n1):
        m1 = max(pool1[i] for i in i1)
        for i2 in itertools.product(range(len(pool2)), repeat=n2):
            wins += m1 > max(pool2[i] for i in i2)
            total += 1
    return wins / total


@pytest.mark.parametrize(
    "pool1, pool2, n1, n2",
    [
        ([0.1, 0.5, 0.9], [0.3, 0.7], 2, 2),
        ([0.1, 0.5, 0.5, 0.9], [0.3, 0.5, 1.0], 2, 3),  # ties inside and across pools
        ([-1.0, 2.0], [0.0, 2.0, 2.0, 3.0], 3, 1),
        ([1.0, 1.0], [1.0], 2, 2),  # all equal: strict comparison never wins
    ],
)
def test_oracle_matches_enumeration(pool1, pool2, n1, n2):
    assert ideal_bootstrap_winner(pool1, pool2, n1, n2) == pytest.approx(
        _enumerate(pool1, pool2, n1, n2), abs=1e-14
    )


def test_oracle_handles_large_n_in_log_space():
    # pool-1 max beats every pool-2 value; with n1 huge the max of pool 1 is drawn surely
    p = ideal_bootstrap_winner([0.0, 1.0, 5.0], [2.0, 3.0], 1e9, 10)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_union_counts_overlapping_children_once():
    assert _union_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert _union_ns([]) == 0
