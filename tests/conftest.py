"""Fixtures shared across test modules."""

import itertools

import pytest

from rowiso.pair import (
    PairPresentation,
    check_joint_isometry,
    check_theta_commute,
)
from rowiso.search import _edge_maps
from rowiso.words import Theta


@pytest.fixture(scope="session")
def pair_space():
    """All pair candidates with |base| <= 2, m,n <= 2, every twist.

    Each entry is (pair, commuting, injective); "injective" means
    commuting and jointly isometric, as decided by the base-vector rule
    of ``check_joint_isometry``.  Built once per session, because
    building and checking 11,465 pairs is its main cost.
    """
    out = []
    for m in (1, 2):
        for n in (1, 2):
            grid = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
            thetas = [Theta(m, n, dict(zip(grid, perm)))
                      for perm in itertools.permutations(grid)]
            for k in (1, 2):
                nodes = tuple("ab"[:k])
                smaps = list(_edge_maps(nodes, m))
                tmaps = list(_edge_maps(nodes, n))
                for theta in thetas:
                    for se in smaps:
                        for te in tmaps:
                            pp = PairPresentation(theta, nodes,
                                                  dict(se), dict(te))
                            commuting = check_theta_commute(pp).ok
                            injective = (commuting
                                         and check_joint_isometry(pp).ok)
                            out.append((pp, commuting, injective))
    assert len(out) == 11465
    return out
