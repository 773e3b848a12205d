"""Golden label vectors of the repulsive and exact strategies on fixed realizations.

Each case pins the exact pilot labels that ``assign`` returns for one
(M, K, tau_p, seed, realization index), seeded the same way the experiment
runner seeds it. Any change to the distance arithmetic, the swap order, the
restart loop, the enumeration order or the tie-breaking that moves a single
label fails here. The exact-tie cases pin which of several equal maxima the
exact searches return.
"""

from dataclasses import replace

import pytest

from cfpilot.assignment import assign, exhaustive_sum_rate, optimal_repulsive
from cfpilot.config import SimConfig
from cfpilot.harness import strategy_seed
from cfpilot.topology import generate_realization

GOLDEN = [
    ("repulsive", 100, 40, 10, 2022, 0,
     [2, 4, 7, 6, 0, 2, 8, 3, 8, 7, 9, 7, 8, 6, 3, 3, 4, 2, 0, 5,
      5, 0, 1, 7, 6, 9, 1, 2, 8, 6, 9, 4, 3, 9, 5, 1, 1, 5, 0, 4]),
    ("repulsive", 100, 40, 10, 2022, 7,
     [1, 4, 0, 6, 1, 4, 7, 9, 2, 3, 5, 5, 5, 7, 6, 3, 6, 7, 0, 7,
      2, 9, 8, 6, 8, 3, 4, 1, 0, 5, 9, 4, 1, 8, 2, 3, 0, 9, 2, 8]),
    ("repulsive", 100, 40, 10, 11, 3,
     [0, 6, 2, 1, 5, 3, 5, 7, 4, 4, 4, 3, 8, 9, 1, 6, 7, 8, 2, 1,
      2, 3, 9, 6, 5, 5, 7, 6, 8, 8, 9, 0, 7, 2, 3, 1, 9, 4, 0, 0]),
    # Ten members per cluster: numpy sums rows of 8 or more pairwise.
    ("repulsive", 100, 40, 4, 2022, 0,
     [0, 2, 1, 2, 3, 2, 0, 1, 3, 1, 0, 1, 3, 2, 3, 0, 3, 0, 3, 3,
      3, 0, 1, 1, 0, 2, 3, 2, 2, 0, 0, 3, 1, 1, 2, 2, 2, 1, 0, 1]),
    # Unequal clusters: one cluster holds a member more, the rest an empty slot.
    ("repulsive", 100, 41, 10, 2022, 0,
     [0, 7, 3, 8, 8, 4, 6, 5, 1, 3, 2, 6, 1, 8, 5, 5, 7, 4, 1, 3,
      4, 0, 2, 9, 8, 0, 5, 4, 0, 9, 2, 7, 9, 3, 6, 0, 2, 1, 6, 7, 9]),
    ("repulsive", 50, 12, 3, 2022, 0, [0, 2, 1, 0, 2, 1, 0, 2, 1, 2, 1, 0]),
    ("repulsive", 50, 13, 3, 2022, 0, [2, 2, 1, 1, 0, 1, 2, 0, 1, 0, 0, 0, 2]),
    ("repulsive", 50, 12, 3, 5, 9, [2, 2, 1, 2, 1, 0, 2, 1, 0, 1, 0, 0]),
    ("repulsive", 200, 100, 20, 2022, 1,
     [13, 12, 2, 17, 15, 6, 13, 1, 14, 2, 10, 8, 16, 15, 13, 19, 3, 4, 2, 1,
      16, 10, 8, 12, 3, 4, 5, 2, 12, 0, 9, 14, 18, 18, 0, 0, 0, 9, 6, 8,
      8, 7, 0, 1, 2, 14, 4, 15, 9, 3, 15, 4, 16, 1, 3, 11, 7, 11, 5, 5,
      10, 17, 18, 18, 13, 9, 17, 19, 14, 16, 11, 10, 1, 7, 12, 18, 6, 17, 8, 7,
      11, 17, 11, 10, 19, 7, 3, 14, 6, 9, 6, 19, 5, 16, 15, 4, 19, 13, 5, 12]),
    ("optimal-repulsive", 50, 12, 3, 2022, 0, [0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2, 0]),
    ("optimal-repulsive", 50, 12, 3, 5, 9, [0, 0, 1, 0, 1, 2, 0, 1, 2, 1, 2, 2]),
    ("optimal-repulsive", 30, 10, 4, 7, 2, [0, 1, 2, 3, 2, 0, 0, 3, 2, 1]),
    # 138,600 balanced partitions: spans several scoring chunks.
    ("optimal-repulsive", 60, 12, 5, 2022, 0, [0, 1, 2, 1, 0, 1, 3, 0, 2, 3, 4, 4]),
    ("exhaustive", 50, 12, 3, 2022, 0, [0, 2, 2, 2, 1, 0, 1, 1, 0, 2, 1, 2]),
    ("exhaustive", 50, 12, 3, 5, 9, [0, 1, 2, 2, 0, 1, 0, 0, 2, 1, 1, 2]),
    ("exhaustive", 30, 8, 4, 7, 2, [0, 1, 0, 2, 2, 3, 1, 0]),
    # 3^13 = 1,594,323 assignments: spans several blocks, odd number of UEs.
    ("exhaustive", 20, 13, 3, 2022, 1, [0, 1, 2, 0, 0, 1, 0, 2, 0, 1, 1, 0, 1]),
]


@pytest.mark.parametrize("strategy,m,k,tp,seed,index,labels", GOLDEN,
                         ids=[f"{c[0]}-M{c[1]}-K{c[2]}-tp{c[3]}-s{c[4]}-r{c[5]}" for c in GOLDEN])
def test_golden_labels(strategy, m, k, tp, seed, index, labels):
    cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=seed)
    realization = generate_realization(cfg, index)
    out = assign(strategy, realization, cfg, seed=strategy_seed(seed, index, strategy))
    assert out.p.tolist() == labels


def test_golden_exhaustive_exact_tie():
    # UEs 6..11 copy the gains of UEs 0..5, so 40 assignments share the
    # maximal sum rate exactly; the lexicographically smallest one wins.
    cfg = SimConfig(num_aps=50, num_ues=12, num_pilots=3, seed=2022)
    realization = generate_realization(cfg, 3)
    beta = realization.beta.copy()
    beta[:, 6:] = beta[:, :6]
    out = exhaustive_sum_rate(replace(realization, beta=beta), cfg)
    assert out.p.tolist() == [0, 0, 2, 1, 1, 1, 2, 1, 2, 2, 0, 0]


@pytest.mark.parametrize("num_pilots,labels", [
    (3, [0, 1, 0, 2, 2, 2, 1, 1, 1, 0, 2, 0]),
    (4, [0, 1, 2, 3, 2, 0, 3, 1, 3, 1, 2, 0]),
])
def test_golden_optimal_repulsive_lattice_tie(num_pilots, labels):
    # Integer points of a 3x4 lattice: two canonical partitions share the
    # maximal objective exactly; the lexicographically smallest one wins.
    lattice = [(x, y) for x in range(3) for y in range(4)]
    assert optimal_repulsive(lattice, num_pilots).p.tolist() == labels
