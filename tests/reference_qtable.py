"""The sparse reference Q-table for the dense table's differential suite.

``DictQTable`` is Algorithm 1's table written the obvious way: one dict
entry per touched ``(state, action)`` pair, each drawn from the
``qtable-init`` stream on its own first touch, and ``max_value`` /
``best_action`` as plain loops over per-entry ``value()`` calls.
``repro.rl.qtable.QTable`` reaches the same floats through interned ids,
a dense array, a lazy-init mask, a per-tuple slice memo and batched
first touches; this table shares none of that, so comparing the two
checks the dense layout against an independently written one.

It has what the learning code calls on a table — ``value``, ``set``,
``add``, ``max_value``, ``best_action``, ``items``, ``to_json`` and the
``_rng`` init stream — so a ``ReassignScheduler`` can learn on it.
"""

import json

from repro.util.rng import RngService
from repro.util.validate import ValidationError


def _encode(key):
    return list(key) if isinstance(key, tuple) else key


class DictQTable:
    """Sparse Q(s, a) with per-entry random lazy initialization."""

    def __init__(self, init_scale=1e-3, seed=0):
        self._init_scale = float(init_scale)
        self._rng = RngService(seed).stream("qtable-init")
        self._values = {}

    def value(self, state, action):
        key = (state, action)
        v = self._values.get(key)
        if v is None:
            v = float(self._rng.uniform(0.0, self._init_scale))
            self._values[key] = v
        return v

    def set(self, state, action, value):
        self._values[(state, action)] = float(value)

    def add(self, state, action, delta):
        new = self.value(state, action) + float(delta)
        self._values[(state, action)] = new
        return new

    def max_value(self, state, actions):
        best = None
        for action in actions:
            v = self.value(state, action)
            if best is None or v > best:
                best = v
        return best if best is not None else 0.0

    def best_action(self, state, actions, rng=None):
        actions = list(actions)
        if not actions:
            raise ValidationError("best_action needs a non-empty action set")
        values = [self.value(state, a) for a in actions]
        top = max(values)
        ties = [a for a, v in zip(actions, values) if v >= top - 1e-15]
        if len(ties) == 1 or rng is None:
            return ties[0]
        return ties[int(rng.integers(len(ties)))]

    def items(self):
        return sorted(
            ((s, a, v) for (s, a), v in self._values.items()),
            key=lambda t: (repr(t[0]), repr(t[1])),
        )

    def to_json(self):
        entries = [[_encode(s), _encode(a), v] for s, a, v in self.items()]
        return json.dumps(
            {"init_scale": self._init_scale, "entries": entries},
            sort_keys=True,
        )
