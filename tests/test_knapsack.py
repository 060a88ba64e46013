import random

import pytest

from oltsp_lab.algorithms import KnapsackItem, knapsack_select

FIG_ITEMS = [
    KnapsackItem(0, 0.2, 0.1),
    KnapsackItem(1, 0.15, 0.0),
    KnapsackItem(2, 0.2, 0.15),
    KnapsackItem(3, 0.1, 0.02),
    KnapsackItem(4, 0.2, 0.1),
    KnapsackItem(5, 0.15, 0.05),
]


def test_six_ray_snapshot_exact():
    res = knapsack_select(FIG_ITEMS, 0.5, "exact")
    assert res.value == pytest.approx(0.27)
    assert set(res.indices) in ({0, 2, 3}, {2, 3, 4})
    assert sum(FIG_ITEMS[i].weight for i in res.indices) <= 0.5 + 1e-9


def test_empty_items():
    assert knapsack_select([], 1.0, "exact").indices == ()
    assert knapsack_select([], 1.0, "fptas").value == 0.0


def test_fptas_guarantee_on_snapshot():
    res = knapsack_select(FIG_ITEMS, 0.5, "fptas", eps=0.1)
    assert res.value >= 0.9 * 0.27 - 1e-12
    assert sum(FIG_ITEMS[i].weight for i in res.indices) <= 0.5 + 1e-9


def test_fptas_guarantee_random_item_sets():
    rng = random.Random(42)
    for trial in range(200):
        k = rng.randint(1, 10)
        items = []
        for i in range(k):
            w = rng.uniform(0.01, 1.0)
            items.append(KnapsackItem(i, w, rng.uniform(0.0, w)))
        cap = rng.uniform(0.0, sum(it.weight for it in items))
        exact = knapsack_select(items, cap, "exact")
        for eps in (0.5, 0.1, 0.01):
            approx = knapsack_select(items, cap, "fptas", eps=eps)
            assert approx.value <= exact.value + 1e-9
            assert approx.value >= (1 - eps) * exact.value - 1e-9
            assert sum(items[i].weight for i in approx.indices) <= cap + 1e-9


def test_value_never_exceeds_weight_items_ok():
    items = [KnapsackItem(0, 1.0, 1.0), KnapsackItem(1, 0.5, 0.5)]
    res = knapsack_select(items, 1.5, "exact")
    assert res.value == pytest.approx(1.5)
    assert set(res.indices) == {0, 1}
    tight = knapsack_select(items, 1.2, "exact")
    assert tight.value == pytest.approx(1.0)
    assert set(tight.indices) == {0}


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        knapsack_select([KnapsackItem(0, -1.0, 0.1)], 1.0, "exact")
    with pytest.raises(ValueError):
        knapsack_select([KnapsackItem(0, 1.0, -0.1)], 1.0, "fptas")
    with pytest.raises(ValueError):
        knapsack_select([], -1.0, "exact")


def test_tiny_negative_capacity_selects_nothing():
    # a capacity in [-EPS, 0) passes the check; the empty subset is still feasible
    for weight in (1.0, 0.0):
        for mode in ("exact", "fptas"):
            assert knapsack_select([KnapsackItem(0, weight, 1.0)], -5e-10, mode).indices == ()


def test_exact_item_cap():
    items = [KnapsackItem(i, 0.1, 0.05) for i in range(21)]
    with pytest.raises(ValueError, match="fptas"):
        knapsack_select(items, 1.0, "exact")
    res = knapsack_select(items, 1.0, "fptas", eps=0.05)
    assert res.value >= (1 - 0.05) * 0.5 - 1e-9  # ten items fit
