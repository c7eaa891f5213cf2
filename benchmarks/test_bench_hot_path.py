"""Fleet-scale hot-path scaling benchmark.

Times the per-slot kernels against the implementations kept in
`repro.reference_impl` — the per-node loops, and K-means in its
``(N, K, d)`` broadcast form — and asserts every output bit-identical.

At growing fleet sizes N ∈ {100, 500, 1000} (d = 1, K = 10):

* `kmeans` — the Sec. V-B clustering of one slot;
* `estimate_offsets` — the Eq. 12 α-clipped offsets;
* similarity re-indexing — the Eq. 10 contingency for the Hungarian
  matching;
* `forecast_membership` — the majority-vote membership forecast;
* the collection stage — `CollectionSimulation`'s batched fast path vs
  its per-node object loop (fewer slots, it is the slowest reference).

At the two perfbench serving shapes — N = 4,000, d = 1, K = 3
(serve_scalar) and N = 10,000, d = 2, K = 5 (batch_joint), M' = 5 — it
times `kmeans`, `estimate_offsets` and `forecast_membership` again, so
bit-identity is checked where the fleet actually runs.  The
`kmeans-degenerate` row clusters the batch_joint shape with only 3
distinct points, fewer than K, so k-means++ draws its last seeds
uniformly from the points not chosen yet; labels, centroids, inertia,
iterations and the generator state must match the reference.

The `offsets-memo` rows slide a window of M' + 1 = 6 slots over
`MEMO_SLIDES` new slots at the longlived_churn shape (N = 500, d = 1,
K = 3) and the two serving shapes.  Each slot is computed twice: by the
stateless `estimate_offsets` (the "reference" column) and with a memo
reused across slots, as the pipeline calls it, which computes only the
newest slot's terms and gathers the rest.  The two must be
bit-identical on every slot; the columns are mean seconds per slot.

The `centroid-series` rows fill a K = 3, d = 1 tracker's centroid
series with t ∈ {1,000, 10,000, 100,000} rows, appended directly rather
than through t K-means runs, and time its `get_state` and `set_state`
in milliseconds against what a list of t ``(K, d)`` rows costs: an
``np.stack`` out and a split back in.  The state's centroids must be
byte-equal to ``np.stack`` of the same rows, before and after the
round trip.  These rows have no wall-clock bar.

The `checkpoint-cycle` row serves perfbench serve_scalar's durability
probe shape (N = 4,000, d = 2, 55 slots, the same pipeline config) and
then runs 30 cycles of save -> resume -> drop the previous resumed
session, reporting the median milliseconds of each step.  Every resume
must be `state_equal` to the saved session, and once the last session
is dropped no descriptor of a replaced archive may stay open (checked
where ``/proc/self/fd`` exists).  No wall-clock bar either.

The `npy-header` row parses the npy header of every array member of
that archive twice: with numpy's parser (`read_magic` plus
`read_array_header_1_0` / `_2_0`, which evaluates the header with
``ast.literal_eval``) and with the checkpoint loader's strict parser,
which must return numpy's shape, order, dtype and data offset for every
member.  It reports the median microseconds per header of each, with
no wall-clock bar.

The `ses-fit` rows fit the SES weight of every series of batch_joint's
SES bank (K = 5, d = 2: 10 series) with `fit_ses_alpha`, the library's
port of scipy's bounded Brent method, and with scipy's
`minimize_scalar(..., method="bounded")` on the same objective: at the
bank's first fit (T = 10 slots) and at a 288-slot retrain.  Every alpha
must be bit-identical to scipy's; the columns are best-of-N
milliseconds per fit of all 10 series, scipy imported beforehand, with
no wall-clock bar.

Asserts the paper's fleet-scale claim is actually realized: at
N = 1000 the vectorized `estimate_offsets` + re-indexing combo must be
at least 10× faster than the reference loops.  Rows are also recorded
as structured data in `benchmarks/results/hot_path.json`.
"""

import gc
import io
import os
import statistics
import time
import timeit
import zipfile

import numpy as np
import pytest
from scipy import optimize

from repro.api import Engine
from repro.checkpoint import _npy_header, state_equal
from repro.clustering.dynamic import DynamicClusterTracker
from repro.clustering.kmeans import kmeans
from repro.clustering.similarity import similarity_matrix_from_labels
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.forecasting.exponential import (
    SimpleExponentialSmoothing,
    fit_ses_alpha,
)
from repro.forecasting.membership import forecast_membership
from repro.forecasting.offsets import estimate_offsets
from repro.reference_impl import (
    estimate_offsets_reference,
    forecast_membership_reference,
    kmeans_reference,
    reindex_weights_reference,
)
from repro.simulation.collection import CollectionSimulation
from repro.transmission.adaptive import AdaptiveTransmissionPolicy

FLEET_SIZES = (100, 500, 1000)
NUM_CLUSTERS = 10
WINDOW = 4  # offsets lookback M' + 1
HISTORY_DEPTH = 3  # similarity look-back M
COLLECTION_STEPS = 120
#: (N, d, K) of the serve_scalar and batch_joint perfbench workloads.
WORKLOAD_SHAPES = ((4000, 1, 3), (10000, 2, 5))
WORKLOAD_WINDOW = 6  # their M' = 5
#: (N, d, K, distinct points) of the kmeans-degenerate row.
DEGENERATE_SHAPE = (10000, 2, 5, 3)
#: (N, d, K) of longlived_churn and the serving shapes, for the memo rows.
MEMO_SHAPES = ((500, 1, 3),) + WORKLOAD_SHAPES
MEMO_SLIDES = 12  # slots each memo row slides its window over
#: Lengths t of the centroid-series rows (K = 3, d = 1).
SERIES_SLOTS = (1_000, 10_000, 100_000)
#: (N, d, slots served) of serve_scalar's durability probe, and the
#: save -> resume -> drop cycles the checkpoint-cycle row runs on it.
CYCLE_SHAPE = (4000, 2, 55)
CYCLES = 30
#: (series, slots) of the ses-fit rows: batch_joint's SES bank at its
#: first fit (initial_collection = 10) and at a 288-slot retrain.
SES_FIT_SHAPES = ((10, 10), (10, 288))
#: serve_scalar's pipeline config (perfbench/workloads.py).
CYCLE_CONFIG = PipelineConfig(
    transmission=TransmissionConfig(budget=0.3),
    clustering=ClusteringConfig(
        num_clusters=3, history_depth=1, scalar_per_resource=True,
        kmeans_restarts=3, seed=0,
    ),
    forecasting=ForecastingConfig(
        model="ar", membership_lookback=5, max_horizon=5,
        initial_collection=50, retrain_interval=288,
    ),
)


def _timeit(fn, *, repeats=3):
    """Best-of-N wall time of ``fn()`` (first call included in timing)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _fleet_case(num_nodes, rng, *, dim=1, num_clusters=NUM_CLUSTERS,
                window=WINDOW):
    """Clustered measurements + centroid/label history for one fleet."""
    base = rng.uniform(0.1, 0.9, size=(num_clusters, dim))
    labels = rng.integers(0, num_clusters, size=num_nodes)
    stored, cents, label_history = [], [], []
    for _ in range(max(window, HISTORY_DEPTH)):
        stored.append(
            base[labels] + rng.normal(0, 0.08, (num_nodes, dim))
        )
        cents.append(base + rng.normal(0, 0.01, base.shape))
        churn = rng.random(num_nodes) < 0.05
        labels = np.where(
            churn, rng.integers(0, num_clusters, size=num_nodes), labels
        )
        label_history.append(labels.copy())
    new_labels = np.where(
        rng.random(num_nodes) < 0.05,
        rng.integers(0, num_clusters, size=num_nodes),
        labels,
    )
    return stored, cents, label_history, new_labels


def _deleted_files(directory):
    """Descriptors of this process on replaced files in ``directory``;
    none where ``/proc/self/fd`` does not exist."""
    if not os.path.isdir("/proc/self/fd"):
        return []
    prefix = f"{os.path.realpath(directory)}/"
    found = []
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            continue  # closed since the listing
        if target.startswith(prefix) and target.endswith(" (deleted)"):
            found.append(target)
    return found


def _checkpoint_cycles(directory):
    """Median ms of save, resume and drop over :data:`CYCLES` cycles
    of the serve_scalar probe, and the archive's size in MB."""
    num_nodes, dim, slots = CYCLE_SHAPE
    rng = np.random.default_rng(5)
    trace = np.clip(
        0.5 + np.cumsum(rng.normal(0, 0.02, (slots, num_nodes, dim)), axis=0),
        0, 1,
    )
    engine = Engine(CYCLE_CONFIG)
    session = engine.session(num_nodes, dim)
    for row in trace:
        session.ingest(row)
    expected = session.snapshot().state
    path = directory / "cycle.ckpt"
    steps = {"save": [], "resume": [], "drop": []}
    for _ in range(CYCLES):
        started = time.perf_counter()
        session.save(path)
        steps["save"].append(time.perf_counter() - started)
        started = time.perf_counter()
        fresh = engine.resume(path)
        steps["resume"].append(time.perf_counter() - started)
        assert state_equal(fresh.snapshot().state, expected)
        started = time.perf_counter()
        resumed = fresh  # drops the previous resumed session
        steps["drop"].append(time.perf_counter() - started)
    archive_mb = path.stat().st_size / 1e6
    del resumed, fresh
    gc.collect()
    deadline = time.monotonic() + 30
    while _deleted_files(directory) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _deleted_files(directory), _deleted_files(directory)
    medians = {
        f"{step}_ms": 1e3 * statistics.median(seconds)
        for step, seconds in steps.items()
    }
    return {
        "kernel": "checkpoint-cycle", "nodes": num_nodes, "dim": dim,
        "slots": slots, "cycles": CYCLES, "archive_mb": archive_mb,
        **medians,
    }


#: numpy's npy header readers, by format version.
NPY_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _numpy_npy_header(data):
    """numpy's ``(shape, fortran_order, dtype, data offset)``."""
    stream = io.BytesIO(data)
    header = NPY_READERS[np.lib.format.read_magic(stream)](stream)
    return (*header, stream.tell())


def _us_per_call(fn, number=200):
    """Best-of-5 mean microseconds of one ``fn()`` over ``number`` calls."""
    return 1e6 * min(timeit.repeat(fn, number=number, repeat=5)) / number


def _npy_headers(path):
    """Median µs per npy header of the archive at ``path`` for numpy's
    parser and the strict one, which must agree on every member."""
    with zipfile.ZipFile(path) as archive:
        members = [
            archive.read(info) for info in archive.infolist()
            if info.filename.endswith(".npy")
        ]
    numpy_us, strict_us = [], []
    for data in members:
        assert _npy_header(data, 0, len(data)) == _numpy_npy_header(data)
        numpy_us.append(_us_per_call(lambda: _numpy_npy_header(data)))
        strict_us.append(
            _us_per_call(lambda: _npy_header(data, 0, len(data)))
        )
    return {
        "kernel": "npy-header", "members": len(members),
        "numpy_us": statistics.median(numpy_us),
        "strict_us": statistics.median(strict_us),
    }


def _scipy_ses_alpha(series):
    """The oracle: scipy's bounded minimizer on the SES objective."""
    result = optimize.minimize_scalar(
        lambda a: SimpleExponentialSmoothing._sse(a, series),
        bounds=(1e-4, 1.0),
        method="bounded",
    )
    return float(result.x)


def _ses_fits():
    """Best-of-N ms per fit of a bank's series by scipy and by
    `fit_ses_alpha`, which must agree bit for bit, at each shape of
    :data:`SES_FIT_SHAPES`."""
    rng = np.random.default_rng(2)
    found = []
    for num_series, slots in SES_FIT_SHAPES:
        matrix = np.clip(
            0.5 + np.cumsum(
                rng.normal(0, 0.02, (slots, num_series)), axis=0
            ),
            0, 1,
        )
        columns = [matrix[:, s] for s in range(num_series)]
        scipy_s, expected = _timeit(
            lambda: [_scipy_ses_alpha(c) for c in columns], repeats=10
        )
        port_s, alphas = _timeit(
            lambda: [fit_ses_alpha(c) for c in columns], repeats=10
        )
        assert [a.hex() for a in alphas] == [a.hex() for a in expected]
        found.append({
            "kernel": "ses-fit", "series": num_series, "slots": slots,
            "scipy_ms": 1e3 * scipy_s, "port_ms": 1e3 * port_s,
        })
    return found


def _assert_same_kmeans(expected, result):
    np.testing.assert_array_equal(expected.labels, result.labels)
    assert expected.labels.dtype == result.labels.dtype
    assert expected.centroids.tobytes() == result.centroids.tobytes()
    assert expected.inertia == result.inertia
    assert expected.iterations == result.iterations


@pytest.mark.slow
def test_bench_hot_path(record_result, tmp_path):
    rng = np.random.default_rng(0)
    lines = [
        f"{'kernel':<17} {'N':>5} {'d':>2} {'K':>3}  {'reference s':>11}  "
        f"{'vectorized s':>12}  {'speedup':>8}",
        f"{'-' * 17} {'-' * 5} {'-' * 2} {'-' * 3}  {'-' * 11}  "
        f"{'-' * 12}  {'-' * 8}",
    ]
    rows = []

    def row(kernel, num_nodes, dim, num_clusters, ref_s, vec_s):
        rows.append({
            "kernel": kernel, "nodes": num_nodes, "dim": dim,
            "clusters": num_clusters, "reference_s": ref_s,
            "vectorized_s": vec_s, "speedup": ref_s / vec_s,
        })
        clusters = "-" if num_clusters is None else num_clusters
        lines.append(
            f"{kernel:<17} {num_nodes:>5} {dim:>2} {clusters:>3}  "
            f"{ref_s:>11.4f}  {vec_s:>12.4f}  {ref_s / vec_s:>7.1f}x"
        )

    combined = {}
    for num_nodes in FLEET_SIZES:
        stored, cents, label_history, new_labels = _fleet_case(
            num_nodes, rng
        )
        memberships = label_history[-1]

        kmeans_ref_s, ref_k = _timeit(lambda: kmeans_reference(
            stored[-1], NUM_CLUSTERS, rng=np.random.default_rng(0)
        ))
        kmeans_vec_s, vec_k = _timeit(lambda: kmeans(
            stored[-1], NUM_CLUSTERS, rng=np.random.default_rng(0)
        ))
        _assert_same_kmeans(ref_k, vec_k)
        row("kmeans", num_nodes, 1, NUM_CLUSTERS, kmeans_ref_s, kmeans_vec_s)

        ref_s, ref_out = _timeit(lambda: estimate_offsets_reference(
            stored[-WINDOW:], cents[-WINDOW:], memberships, WINDOW - 1
        ), repeats=1 if num_nodes >= 500 else 2)
        vec_s, vec_out = _timeit(lambda: estimate_offsets(
            stored[-WINDOW:], cents[-WINDOW:], memberships, WINDOW - 1
        ))
        np.testing.assert_array_equal(ref_out, vec_out)
        row("offsets", num_nodes, 1, NUM_CLUSTERS, ref_s, vec_s)

        history = label_history[-HISTORY_DEPTH:]
        reindex_ref_s, ref_w = _timeit(lambda: reindex_weights_reference(
            "intersection", new_labels, history, NUM_CLUSTERS
        ))
        reindex_vec_s, vec_w = _timeit(lambda: similarity_matrix_from_labels(
            "intersection", new_labels, history, NUM_CLUSTERS
        ))
        np.testing.assert_array_equal(ref_w, vec_w)
        row(
            "reindex", num_nodes, 1, NUM_CLUSTERS, reindex_ref_s,
            reindex_vec_s,
        )

        member_ref_s, ref_m = _timeit(lambda: forecast_membership_reference(
            label_history, WINDOW - 1
        ))
        member_vec_s, vec_m = _timeit(lambda: forecast_membership(
            label_history, WINDOW - 1
        ))
        np.testing.assert_array_equal(ref_m, vec_m)
        row(
            "membership", num_nodes, 1, NUM_CLUSTERS, member_ref_s,
            member_vec_s,
        )

        trace = np.clip(
            0.5 + np.cumsum(
                rng.normal(0, 0.02, (COLLECTION_STEPS, num_nodes)), axis=0
            ),
            0,
            1,
        )
        config = TransmissionConfig(budget=0.3)

        def run_object_loop():
            sim = CollectionSimulation(
                num_nodes, lambda i: AdaptiveTransmissionPolicy(config)
            )
            return sim._run_object_loop(trace[:, :, np.newaxis].copy())

        def run_fast_path():
            sim = CollectionSimulation(
                num_nodes, lambda i: AdaptiveTransmissionPolicy(config)
            )
            assert sim._batchable()
            return sim.run(trace)

        collect_ref_s, ref_c = _timeit(run_object_loop, repeats=1)
        collect_vec_s, vec_c = _timeit(run_fast_path)
        np.testing.assert_array_equal(ref_c.decisions, vec_c.decisions)
        np.testing.assert_array_equal(ref_c.stored, vec_c.stored)
        row("collection", num_nodes, 1, None, collect_ref_s, collect_vec_s)

        combined[num_nodes] = (
            (ref_s + reindex_ref_s) / (vec_s + reindex_vec_s)
        )

    lines.append("")
    lines.append("serving shapes (perfbench serve_scalar, batch_joint):")
    for num_nodes, dim, num_clusters in WORKLOAD_SHAPES:
        stored, cents, label_history, _ = _fleet_case(
            num_nodes, rng, dim=dim, num_clusters=num_clusters,
            window=WORKLOAD_WINDOW,
        )
        memberships = label_history[-1]
        lookback = WORKLOAD_WINDOW - 1

        ref_s, ref_k = _timeit(lambda: kmeans_reference(
            stored[-1], num_clusters, rng=np.random.default_rng(0)
        ), repeats=2)
        vec_s, vec_k = _timeit(lambda: kmeans(
            stored[-1], num_clusters, rng=np.random.default_rng(0)
        ), repeats=2)
        _assert_same_kmeans(ref_k, vec_k)
        row("kmeans", num_nodes, dim, num_clusters, ref_s, vec_s)

        ref_s, ref_out = _timeit(lambda: estimate_offsets_reference(
            stored, cents, memberships, lookback
        ), repeats=1)
        vec_s, vec_out = _timeit(lambda: estimate_offsets(
            stored, cents, memberships, lookback
        ))
        np.testing.assert_array_equal(ref_out, vec_out)
        row("offsets", num_nodes, dim, num_clusters, ref_s, vec_s)

        ref_s, ref_m = _timeit(lambda: forecast_membership_reference(
            label_history, lookback
        ), repeats=1)
        vec_s, vec_m = _timeit(lambda: forecast_membership(
            label_history, lookback
        ))
        np.testing.assert_array_equal(ref_m, vec_m)
        row("membership", num_nodes, dim, num_clusters, ref_s, vec_s)

    num_nodes, dim, num_clusters, distinct = DEGENERATE_SHAPE
    own = np.random.default_rng(1)  # keeps the later rows' inputs
    values = own.normal(size=(distinct, dim))
    points = values[own.integers(0, distinct, num_nodes)]
    states = {}

    def degenerate(name, fn):
        generator = np.random.default_rng(0)
        result = fn(points, num_clusters, rng=generator)
        states[name] = generator.bit_generator.state
        return result

    ref_s, ref_k = _timeit(
        lambda: degenerate("reference", kmeans_reference), repeats=2
    )
    vec_s, vec_k = _timeit(lambda: degenerate("vectorized", kmeans))
    _assert_same_kmeans(ref_k, vec_k)
    assert states["reference"] == states["vectorized"]
    row("kmeans-degenerate", num_nodes, dim, num_clusters, ref_s, vec_s)

    lines.append("")
    lines.append(
        "offset memo, mean s per slot over a sliding window "
        "(reference = stateless call):"
    )
    for num_nodes, dim, num_clusters in MEMO_SHAPES:
        stored, cents, label_history, _ = _fleet_case(
            num_nodes, rng, dim=dim, num_clusters=num_clusters,
            window=WORKLOAD_WINDOW + MEMO_SLIDES,
        )
        lookback = WORKLOAD_WINDOW - 1
        memo = []
        stateless_s = memo_s = 0.0
        for stop in range(1, len(stored) + 1):
            memo.append(None)
            del memo[:-WORKLOAD_WINDOW]
            window = slice(max(0, stop - WORKLOAD_WINDOW), stop)
            args = (stored[window], cents[window], label_history[stop - 1])
            started = time.perf_counter()
            memo_out = estimate_offsets(*args, lookback, memo=memo)
            elapsed = time.perf_counter() - started
            if stop <= WORKLOAD_WINDOW:
                continue  # filling the window
            memo_s += elapsed
            started = time.perf_counter()
            stateless_out = estimate_offsets(*args, lookback)
            stateless_s += time.perf_counter() - started
            assert memo_out.tobytes() == stateless_out.tobytes()
        row(
            "offsets-memo", num_nodes, dim, num_clusters,
            stateless_s / MEMO_SLIDES, memo_s / MEMO_SLIDES,
        )

    lines.append("")
    lines.append(
        "centroid series, K = 3, d = 1, ms per call at t slots "
        "(reference = a list of t rows):"
    )
    lines.append(
        f"{'kernel':<15} {'t':>7}  {'np.stack':>9}  {'get_state':>9}  "
        f"{'split':>9}  {'set_state':>9}"
    )
    series_rows = []
    for slots in SERIES_SLOTS:
        listed = list(rng.uniform(0.1, 0.9, (slots, 3, 1)))
        tracker = DynamicClusterTracker(3, seed=0)
        for centroids in listed:
            tracker._centroids.append(centroids)
        stacked = np.stack(listed)
        stack_s, _ = _timeit(lambda: np.stack(listed), repeats=5)
        get_s, state = _timeit(tracker.get_state, repeats=5)
        assert state["centroids"].tobytes() == stacked.tobytes()
        split_s, _ = _timeit(lambda: list(stacked), repeats=5)
        restored = DynamicClusterTracker(3, seed=1)
        set_s, _ = _timeit(lambda: restored.set_state(state), repeats=5)
        assert restored.get_state()["centroids"].tobytes() == (
            stacked.tobytes()
        )
        series_rows.append({
            "kernel": "centroid-series", "slots": slots, "dim": 1,
            "clusters": 3, "stack_ms": 1e3 * stack_s,
            "get_state_ms": 1e3 * get_s, "split_ms": 1e3 * split_s,
            "set_state_ms": 1e3 * set_s,
        })
        lines.append(
            f"{'centroid-series':<15} {slots:>7}  {1e3 * stack_s:>9.3f}  "
            f"{1e3 * get_s:>9.3f}  {1e3 * split_s:>9.3f}  "
            f"{1e3 * set_s:>9.3f}"
        )

    lines.append("")
    cycle = _checkpoint_cycles(tmp_path)
    lines.append(
        f"checkpoint cycle, serve_scalar probe (N = {cycle['nodes']:,}, "
        f"d = {cycle['dim']}, {cycle['slots']} slots, "
        f"{cycle['archive_mb']:.2f} MB), median ms over "
        f"{cycle['cycles']} cycles:"
    )
    lines.append(
        f"{'kernel':<16} {'save':>7}  {'resume':>7}  {'drop':>7}"
    )
    lines.append(
        f"{'checkpoint-cycle':<16} {cycle['save_ms']:>7.3f}  "
        f"{cycle['resume_ms']:>7.3f}  {cycle['drop_ms']:>7.3f}"
    )

    lines.append("")
    headers = _npy_headers(tmp_path / "cycle.ckpt")
    lines.append(
        f"npy headers of that archive ({headers['members']} members), "
        "median µs per header:"
    )
    lines.append(f"{'kernel':<16} {'numpy':>7}  {'strict':>7}")
    lines.append(
        f"{'npy-header':<16} {headers['numpy_us']:>7.2f}  "
        f"{headers['strict_us']:>7.2f}"
    )

    lines.append("")
    ses_rows = _ses_fits()
    lines.append(
        "SES weights of a bank (batch_joint: 10 series), ms per fit of "
        "all series:"
    )
    lines.append(f"{'kernel':<16} {'T':>4}  {'scipy':>7}  {'port':>7}")
    for ses in ses_rows:
        lines.append(
            f"{'ses-fit':<16} {ses['slots']:>4}  {ses['scipy_ms']:>7.3f}  "
            f"{ses['port_ms']:>7.3f}"
        )

    lines.append("")
    lines.append(
        "combined offsets+reindex speedup: "
        + ", ".join(
            f"N={n}: {ratio:.1f}x" for n, ratio in combined.items()
        )
    )
    record_result(
        "hot_path",
        "\n".join(lines),
        data={
            "rows": rows,
            "centroid_series": series_rows,
            "checkpoint_cycle": cycle,
            "npy_header": headers,
            "ses_fit": ses_rows,
            "combined_offsets_reindex_speedup": {
                str(n): ratio for n, ratio in combined.items()
            },
        },
    )

    # The acceptance bar: >= 10x at fleet scale.
    assert combined[1000] >= 10.0, (
        f"expected >= 10x offsets+reindex speedup at N=1000, got "
        f"{combined[1000]:.1f}x"
    )
