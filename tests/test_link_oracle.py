"""The columnar NetworkLink against the per-message tuple link.

``link_oracle.TupleNetworkLink`` is the implementation the columnar
link replaced.  Both are driven through the same seeded sequences of
``due``, ``transfer``, ``grow``, ``compact``, ``fail_nodes`` and
``get_state`` → ``set_state`` round trips, across uplinks, capacities,
latencies and loss/burst settings; every output, counter and state tree
must match exactly: positions, ``due`` groups (order, ids, values),
``in_flight``, and state keys, dtypes and bytes.
"""

import itertools

import numpy as np
import pytest

from link_oracle import TupleNetworkLink
from repro.scenarios import LinkConfig, NetworkLink

UPLINKS = (0, 1, 3, 8)
CAPACITIES = (1, 2, 5, 100)
LATENCIES = (0, 1, 3)
#: (i.i.d. loss, burst enter probability)
ADVERSITY = ((0.0, 0.0), (0.2, 0.0), (0.0, 0.3), (0.2, 0.3))

CASES = [
    case for case in itertools.product(
        UPLINKS, CAPACITIES, LATENCIES, ADVERSITY
    )
    # Capacity only matters on shared uplinks.
    if case[0] or case[1] == CAPACITIES[0]
]


def assert_same(a, b, path="state"):
    """Strict equality: dict keys, list lengths, array dtypes, shapes
    and bytes (so signed zeros count), and scalar types."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype, (path, a.dtype, b.dtype)
        assert a.shape == b.shape, (path, a.shape, b.shape)
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), path
        for key in a:
            assert_same(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{index}]")
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


def assert_links_agree(columnar, oracle):
    assert columnar.num_nodes == oracle.num_nodes
    assert columnar.counters() == oracle.counters()
    assert columnar.in_flight == oracle.in_flight
    assert columnar.is_conserved and oracle.is_conserved
    assert_same(columnar.get_state(), oracle.get_state())


def drive(case, seed, slots=40):
    uplinks, capacity, latency, (loss, burst) = case
    config = LinkConfig(
        loss=loss, burst_enter=burst, burst_exit=0.4, burst_loss=0.8,
        latency=latency, uplinks=uplinks, uplink_capacity=capacity,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(1, 30))
    dim = int(rng.integers(1, 3))
    columnar, oracle = NetworkLink(nodes, config), TupleNetworkLink(
        nodes, config
    )
    for slot in range(slots):
        assert_same(columnar.due(slot), oracle.due(slot), f"due({slot})")
        event = rng.random()
        if event < 0.08:
            count = int(rng.integers(1, 5))
            columnar.grow(count)
            oracle.grow(count)
        elif event < 0.16 and columnar.num_nodes > 1:
            keep = np.flatnonzero(rng.random(columnar.num_nodes) < 0.7)
            if keep.size:
                columnar.compact(keep)
                oracle.compact(keep)
        elif event < 0.24:
            failed = rng.choice(
                columnar.num_nodes, size=int(rng.integers(0, 4)),
                replace=False,
            ) if columnar.num_nodes >= 3 else np.empty(0, dtype=np.int64)
            columnar.fail_nodes(failed)
            oracle.fail_nodes(failed)
        elif event < 0.32:
            # Each link resumes from the other's state: the layout is
            # the same both ways.
            columnar_state = columnar.get_state()
            oracle_state = oracle.get_state()
            columnar = NetworkLink(columnar.num_nodes, config)
            oracle = TupleNetworkLink(oracle.num_nodes, config)
            columnar.set_state(oracle_state)
            oracle.set_state(columnar_state)
        senders = rng.permutation(columnar.num_nodes)[
            : int(rng.integers(0, columnar.num_nodes + 1))
        ]
        payload = rng.normal(size=(senders.size, dim))
        if rng.random() < 0.2:
            payload = payload.astype(np.float32)
        if rng.random() < 0.1:
            payload[::2] = -0.0
        delivered = columnar.transfer(slot, senders, payload)
        assert_same(delivered, oracle.transfer(slot, senders, payload),
                    f"transfer({slot})")
        assert_links_agree(columnar, oracle)
    for slot in range(slots, slots + latency + 2):
        assert_same(columnar.due(slot), oracle.due(slot), f"due({slot})")
    assert_links_agree(columnar, oracle)


@pytest.mark.parametrize(
    "case", CASES, ids=lambda case: "u{}-c{}-l{}-loss{}-burst{}".format(
        case[0], case[1], case[2], *case[3]
    ),
)
def test_columnar_link_matches_tuple_link(case):
    for seed in range(2):
        drive(case, 1000 * CASES.index(case) + seed)


def test_empty_slots_drain_the_backlog_identically():
    config = LinkConfig(uplinks=2, uplink_capacity=1, latency=0, seed=3)
    columnar, oracle = NetworkLink(6, config), TupleNetworkLink(6, config)
    payload = np.arange(6, dtype=float)[:, np.newaxis]
    assert_same(
        columnar.transfer(0, np.arange(6), payload),
        oracle.transfer(0, np.arange(6), payload),
    )
    for slot in range(1, 6):
        nothing = np.empty(0, dtype=np.int64)
        assert_same(
            columnar.transfer(slot, nothing, np.empty((0, 1))),
            oracle.transfer(slot, nothing, np.empty((0, 1))),
        )
        assert_same(columnar.due(slot + 1), oracle.due(slot + 1))
        assert_links_agree(columnar, oracle)
    assert columnar.in_flight == 0
