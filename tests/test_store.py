"""Store strategies: Table-formula cost trajectories and the replace policy."""

import numpy as np
import pytest

from streamsift import (
    ConfigError,
    DataStore,
    LabelledExample,
    apply_strategy,
    random_selector,
    replace_policy,
)
from streamsift.streams import StreamSchedule


def constant_schedule(n=20, steps=100, dim=2):
    rng = np.random.default_rng(0)
    batches = []
    for t in range(steps):
        batches.append(
            [LabelledExample(rng.normal(size=dim), int(rng.integers(0, 4)))
             for _ in range(n)]
        )
    return StreamSchedule(batches, kind="stationary", seed=0)


class TestCostTrajectories:
    """Per-step ledger readings must match the strategies' symbolic formulas
    under unit cost functions, for t = 1..100."""

    N, M, TAU = 20, 10, 2

    def run(self, strategy):
        sched = constant_schedule(n=self.N, steps=100)
        _, ledger = apply_strategy(
            strategy, sched, random_selector(5), m=self.M, tau=self.TAU
        )
        return ledger

    def test_strategy_a(self):
        ledger = self.run("A")
        assert ledger.storage_units == [0.0] * 100
        assert ledger.selection_units == [0.0] * 100
        assert ledger.training_units == [float(self.N)] * 100

    def test_strategy_b(self):
        ledger = self.run("B")
        for t in range(1, 101):
            assert ledger.storage_units[t - 1] == self.N * t
            assert ledger.selection_units[t - 1] == 0.0
            assert ledger.training_units[t - 1] == self.N * t / self.TAU

    def test_strategy_c(self):
        ledger = self.run("C")
        for t in range(1, 101):
            assert ledger.storage_units[t - 1] == self.N * t
            assert ledger.selection_units[t - 1] == self.N * t / self.TAU
            assert ledger.training_units[t - 1] == self.M / self.TAU

    def test_strategy_d(self):
        ledger = self.run("D")
        for t in range(1, 101):
            assert ledger.storage_units[t - 1] == self.M * t
            assert ledger.selection_units[t - 1] == float(self.N)
            assert ledger.training_units[t - 1] == self.M * t / self.TAU

    def test_strategy_e(self):
        ledger = self.run("E")
        # example from the strategy table: constant readings at every step
        assert ledger.storage_units == [float(self.M)] * 100
        assert ledger.selection_units == [float(self.N)] * 100
        assert ledger.training_units == [self.M / self.TAU] * 100

    def test_constant_vs_linear_growth(self):
        readings = {s: self.run(s) for s in "ABCDE"}
        for s in ("A", "E"):
            assert len(set(readings[s].storage_units)) == 1
            assert len(set(readings[s].training_units)) == 1
        for s in ("B", "C", "D"):
            diffs = np.diff(readings[s].storage_units)
            assert np.allclose(diffs, diffs[0]) and diffs[0] > 0

    def test_cumulative_monotone(self):
        for s in "ABCDE":
            for series in self.run(s).as_dict().values():
                series = np.cumsum(series)
                assert all(b >= a for a, b in zip(series, series[1:]))

    def test_store_contents_from_schedule_only(self):
        sched = constant_schedule(n=20, steps=10)
        all_examples = {id(e) for b in sched.steps for e in b}
        for s in "BCDE":
            snaps, _ = apply_strategy(s, sched, random_selector(3), m=10, tau=1)
            for snap in snaps:
                assert all(id(e) in all_examples for e in snap.examples)

    def test_deterministic(self):
        sched = constant_schedule(n=20, steps=10)
        a, _ = apply_strategy("E", sched, random_selector(3), m=10, eviction_seed=4)
        b, _ = apply_strategy("E", sched, random_selector(3), m=10, eviction_seed=4)
        for sa, sb in zip(a, b):
            assert all(x == y for x, y in zip(sa.examples, sb.examples))

    def test_m_exceeding_batch_rejected(self):
        sched = constant_schedule(n=5, steps=3)
        with pytest.raises(ConfigError):
            apply_strategy("D", sched, random_selector(0), m=10)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            apply_strategy("F", constant_schedule(steps=2), None, m=5)


class TestReplacePolicy:
    def make(self, labels, capacity):
        s = DataStore(capacity)
        s.examples = [LabelledExample([float(i)], c) for i, c in enumerate(labels)]
        return s

    def test_append_below_capacity(self):
        s = self.make([0, 1], capacity=5)
        incoming = [LabelledExample([9.0], 1)]
        out = replace_policy(s, incoming, seed=0)
        assert len(out) == 3
        assert out.examples[-1] == incoming[0]

    def test_eviction_is_seeded(self):
        s = self.make([0, 1], capacity=2)
        incoming = [LabelledExample([9.0], 1)]
        a = replace_policy(s, incoming, seed=3)
        b = replace_policy(s, incoming, seed=3)
        assert all(x == y for x, y in zip(a.examples, b.examples))
        assert len(a) == 2
        assert incoming[0] in a.examples

    def test_incoming_never_evicted(self):
        s = self.make([0, 1, 0, 1], capacity=4)
        incoming = [LabelledExample([9.0 + i], 1) for i in range(3)]
        out = replace_policy(s, incoming, seed=1)
        assert len(out) == 4
        assert all(e in out.examples for e in incoming)

    def test_over_capacity_incoming_rejected(self):
        s = self.make([0], capacity=2)
        with pytest.raises(ConfigError):
            replace_policy(s, [LabelledExample([float(i)], 0) for i in range(3)], seed=0)

    def test_fuzz_never_exceeds_capacity(self):
        rng = np.random.default_rng(77)
        store = DataStore(10)
        for step in range(1000):
            k = int(rng.integers(1, 11))
            incoming = [LabelledExample([float(step), float(i)], int(rng.integers(0, 3)))
                        for i in range(k)]
            store = replace_policy(store, incoming, seed=int(rng.integers(0, 2 ** 31)))
            assert len(store) <= 10
        assert len(store) == 10
