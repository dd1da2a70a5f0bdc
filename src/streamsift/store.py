"""The five stream-learning strategies as executable store policies.

Strategy semantics, per step with n incoming examples, store budget m and
offline period tau:

  A  train online on the n incoming examples; nothing stored or selected
  B  append all n; train offline on the whole store
  C  append all n; select m <= n*t offline, train offline on the selection
  D  select m <= n online, append; train offline on the whole store
  E  select m <= n online, replace into a capacity-m store; train offline
     on the store

Costs are charged in units: storing N examples costs N, selecting from N
costs N, and training on N costs N; offline actions are amortized by 1/tau.
The ledger records a per-step reading of each counter so growth rates can be
checked against the strategies' symbolic cost formulas.
"""

from .errors import ConfigError
from .rng import rng_from

STRATEGIES = ("A", "B", "C", "D", "E")


class DataStore:
    """Ordered collection of retained examples with an optional capacity."""

    def __init__(self, capacity=None):
        self.examples = []
        self.capacity = capacity

    def __len__(self):
        return len(self.examples)

    def append(self, example):
        if self.capacity is not None and len(self.examples) >= self.capacity:
            raise ConfigError(f"store is at capacity {self.capacity}")
        self.examples.append(example)

    def snapshot(self):
        s = DataStore(self.capacity)
        s.examples = list(self.examples)
        return s


class CostLedger:
    """Per-step readings of storage, selection and training cost units."""

    def __init__(self):
        self.storage_units = []
        self.selection_units = []
        self.training_units = []
        self._pending = [0.0, 0.0, 0.0]

    def charge_storage(self, stored_count):
        self._pending[0] += float(stored_count)

    def charge_selection(self, candidate_count, tau=1):
        self._pending[1] += float(candidate_count) / tau

    def charge_training(self, trained_count, tau=1):
        self._pending[2] += float(trained_count) / tau

    def end_step(self):
        self.storage_units.append(self._pending[0])
        self.selection_units.append(self._pending[1])
        self.training_units.append(self._pending[2])
        self._pending = [0.0, 0.0, 0.0]

    def as_dict(self):
        return {
            "storage": list(self.storage_units),
            "selection": list(self.selection_units),
            "training": list(self.training_units),
        }


def replace_policy(store, incoming, seed=0):
    """Insert selected examples, evicting seeded-uniform-random residents
    while the store exceeds its capacity. Residents are the examples present
    before this call; incoming examples are never evicted."""
    capacity = store.capacity
    if capacity is not None and len(incoming) > capacity:
        raise ConfigError(
            f"incoming batch of {len(incoming)} exceeds store capacity {capacity}"
        )
    residents = list(store.examples)
    if capacity is not None:
        overflow = len(residents) + len(incoming) - capacity
        if overflow > 0:
            rng = rng_from(*seed) if isinstance(seed, (list, tuple)) else rng_from(seed)
            evict = set(rng.choice(len(residents), size=overflow, replace=False).tolist())
            residents = [ex for i, ex in enumerate(residents) if i not in evict]
    out = DataStore(capacity)
    out.examples = residents + list(incoming)
    return out


def random_selector(seed):
    """Seeded uniform-random selector usable with :func:`apply_strategy`."""
    rng = rng_from(seed)

    def select(examples, k, step, store):
        return sorted(rng.choice(len(examples), size=k, replace=False).tolist())

    return select


def strategy_steps(strategy, schedule, selector, m, ledger, tau=1, eviction_seed=0):
    """Run one Table-style strategy over a schedule, yielding the live store
    after each step once that step's costs are charged to ``ledger``.

    ``selector(examples, k, step, store) -> indices`` picks k of the given
    examples (unused by strategies A and B); ``store`` is the store before
    this step's additions. No model is trained here; training is an abstract
    charged event.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if tau < 1:
        raise ConfigError("tau must be >= 1")
    if strategy in ("C", "D", "E") and m < 1:
        raise ConfigError(f"strategy {strategy} needs a positive store budget m")

    store = DataStore(capacity=m if strategy == "E" else None)
    for t, batch in enumerate(schedule.steps, start=1):
        n = len(batch)
        if strategy in ("D", "E") and m > n:
            raise ConfigError(
                f"strategy {strategy} requires m <= n; got m={m}, n={n} at step {t}"
            )
        if strategy == "A":
            ledger.charge_training(n)
        elif strategy == "B":
            for ex in batch:
                store.append(ex)
            ledger.charge_storage(len(store))
            ledger.charge_training(len(store), tau=tau)
        elif strategy == "C":
            for ex in batch:
                store.append(ex)
            if m > len(store):
                raise ConfigError(
                    f"strategy C requires m <= n*t; got m={m}, store={len(store)}"
                )
            selector(store.examples, m, t - 1, store)
            ledger.charge_storage(len(store))
            ledger.charge_selection(len(store), tau=tau)
            ledger.charge_training(m, tau=tau)
        else:  # D appends the picks; E replaces them into a capacity-m store
            incoming = [batch[i] for i in selector(batch, m, t - 1, store)]
            if strategy == "D":
                for ex in incoming:
                    store.append(ex)
            else:
                store = replace_policy(store, incoming, seed=[eviction_seed, t])
            ledger.charge_storage(len(store))
            ledger.charge_selection(n)
            ledger.charge_training(len(store), tau=tau)
        ledger.end_step()
        yield store


def apply_strategy(strategy, schedule, selector, m, tau=1, eviction_seed=0):
    """Run :func:`strategy_steps` to the end with a fresh ledger; returns the
    per-step store snapshots and the cost ledger."""
    ledger = CostLedger()
    steps = strategy_steps(strategy, schedule, selector, m, ledger, tau, eviction_seed)
    return [store.snapshot() for store in steps], ledger
