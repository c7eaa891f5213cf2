#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md (and per-entry JSON) from result files.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/update_experiments_md.py

Each entry pairs the paper's claim with the measured rows from
``benchmarks/results/<name>.txt`` and a short commentary on how well the
shape reproduces (including honest deviations).  Alongside the
markdown, every entry is also (re)written as machine-readable
``benchmarks/results/<name>.json`` — title, paper claim, assessment,
the measured text, and any structured ``data`` rows the benchmark
recorded — so the bench trajectory can be consumed programmatically.
"""

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")

PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (Sec. VI), regenerated
by the benchmark harness on **synthetic stand-in traces** (the real
Alibaba/Bitbrains/Google/Intel-lab data is not redistributable; see
DESIGN.md §3 for each substitution and why it preserves the property
being tested).  The reproduction target is the *shape* of each result —
who wins, by roughly what factor, where curves flatten — not absolute
values, which depend on trace statistics and hardware.

Regenerate everything with:

```bash
pytest benchmarks/ --benchmark-only -s
python benchmarks/update_experiments_md.py
```

Scaled-down configurations are recorded per entry; every benchmark also
*asserts* its claim, so a regression that breaks a paper property fails
CI, not just the documentation.
"""

#: (result-file stem, title, paper claim, our commentary)
ENTRIES = [
    (
        "fig1_correlation",
        "Fig. 1 — CDF of long-term spatial correlation",
        "Sensor-network data (temperature/humidity) is strongly "
        "spatially correlated — most pairwise correlations above 0.5 — "
        "while compute-cluster CPU/memory correlations mostly lie in "
        "(−0.5, 0.5). This motivates abandoning Gaussian/covariance "
        "methods for cluster monitoring.",
        "Reproduced. The sensor-field generator puts ~100% of pairs "
        "above 0.5; the Google-like cluster trace puts the large "
        "majority below it (CDF(0.5) ≈ 0.7–0.97 depending on resource). "
        "Config: 54 sensors / 80 machines, 1500 steps.",
    ),
    (
        "fig3_transmission",
        "Fig. 3 — requested vs actual transmission frequency",
        "The adaptive algorithm's empirical transmission frequency "
        "matches the requested budget B across datasets (log-log "
        "diagonal).",
        "Reproduced with the calibrated V0 = 1.0 (see DESIGN.md §3 on "
        "why the paper's literal V0 = 1e-12 degenerates on normalized "
        "data): actual/requested ratio within ~1% for B ≥ 0.05 on all "
        "three datasets; small-B points sit slightly above the diagonal "
        "at finite T, matching the paper's plot. Config: 60 nodes, "
        "2000 steps.",
    ),
    (
        "fig4_adaptive_vs_uniform",
        "Fig. 4 — RMSE(h=0) of adaptive vs uniform sampling",
        "Adaptive transmission gives lower staleness RMSE than uniform "
        "sampling at every requested frequency, for all datasets and "
        "both resources; both reach zero at B = 1.",
        "Reproduced: adaptive wins at 100% of sweep points (six "
        "dataset-resource panels × six budgets), with the biggest "
        "margins on the bursty Bitbrains-like trace — the same panel "
        "the paper highlights. Config: 60 nodes, 1500 steps.",
    ),
    (
        "fig5_temporal_window",
        "Fig. 5 — intermediate RMSE vs temporal clustering window",
        "Clustering on a single time step (window = 1) beats extended "
        "temporal-feature windows on these highly dynamic traces.",
        "Reproduced: window 1 is best for every dataset and resource; "
        "RMSE grows monotonically with the window. Config: 60 nodes, "
        "800 steps, windows {1, 5, 10, 20, 30}.",
    ),
    (
        "table1_scalar_vs_vector",
        "Table I — clustering independent scalars vs full vectors",
        "Clustering each resource type independently on scalar values "
        "gives lower intermediate RMSE than jointly clustering "
        "(CPU, memory) vectors, on all three datasets — cross-resource "
        "correlation is weak.",
        "Reproduced: scalar wins all 6 cells, by factors of ~1.1–2×, "
        "comparable to the paper's margins. Config: 60 nodes, 800 "
        "steps.",
    ),
    (
        "fig6_rmse_vs_b",
        "Fig. 6 — intermediate RMSE vs transmission frequency",
        "Proposed dynamic clustering beats the minimum-distance "
        "(random-representative) baseline at every B and is competitive "
        "with the offline static baseline; the curves flatten around "
        "B ≈ 0.3, justifying the default budget.",
        "Reproduced: proposed < minimum-distance at 100% of points, "
        "proposed < static on every dataset here (our static baseline "
        "suffers more because synthetic membership churn accumulates "
        "over the full horizon it clusters on); improvements beyond "
        "B = 0.3 are marginal. Config: 60 nodes, 700 steps.",
    ),
    (
        "fig7_rmse_vs_k",
        "Fig. 7 — intermediate RMSE vs number of clusters K",
        "A small number of clusters already achieves close to the "
        "minimum RMSE; even K = N retains error because stored "
        "measurements are stale at B = 0.3.",
        "Reproduced: monotone decrease with diminishing returns, "
        "proposed dominating minimum-distance at every K, and a "
        "non-zero floor at K = N. On the synthetic traces the knee is "
        "softer than the paper's (profiles keep sub-structure), so "
        "K = 3 is 'near-optimal' rather than indistinguishable. "
        "Config: 60 nodes, 600 steps, K ∈ {1 … 40}.",
    ),
    (
        "fig8_centroid_tracking",
        "Fig. 8 — instantaneous true vs forecasted centroids (h = 5)",
        "Forecasted centroid trajectories (ARIMA, LSTM, sample-and-"
        "hold) follow the true centroid curves closely on the Alibaba "
        "CPU data.",
        "Reproduced: per-cluster tracking MAE is small relative to the "
        "centroid spread for all three models (see table; the result "
        "file also contains trajectory excerpts). Config: 60 nodes, "
        "900 steps, forecasts from t = 300.",
    ),
    (
        "fig9_forecast_models",
        "Fig. 9 — time-averaged RMSE vs horizon per forecasting model",
        "Cluster-level (K = 3) forecasting beats per-node (K = N) "
        "sample-and-hold; every model beats the standard-deviation "
        "bound of a long-term-statistics forecaster for h ≤ 50; LSTM "
        "is best overall.",
        "Mostly reproduced: K = 3 ≤ K = N at h ≥ 5 (noisy per-node "
        "series penalize holding a single node's value), and all "
        "models sit below the std-dev bound through h = 25–50. "
        "Deviation: our LSTM (small net, few epochs, single run) does "
        "not beat ARIMA/S&H as it does in the paper — with 10-run "
        "averaging and full-scale training data the paper's LSTM edge "
        "is plausible but expensive to reproduce here. Config: 40 "
        "nodes, 600 steps.",
    ),
    (
        "fig10_clustering_methods",
        "Fig. 10 — RMSE vs horizon per clustering method (S&H model)",
        "With the forecaster fixed to sample-and-hold, the proposed "
        "dynamic clustering is best in almost all cases; the offline "
        "static baseline approaches it at large h.",
        "Reproduced in shape: proposed beats minimum-distance "
        "everywhere and is the best online method at short horizons on "
        "most dataset panels; static (using oracle knowledge of the "
        "full series) closes the gap — and on the burst-dominated "
        "Bitbrains-like panel overtakes, slightly stronger than in the "
        "paper. Config: 100 nodes, 600 steps.",
    ),
    (
        "table2_training_time",
        "Table II — aggregated model-training time per centroid",
        "Training ARIMA on one centroid over the full trace costs tens "
        "of seconds; LSTM costs ~10× more; both are negligible against "
        "the monitoring duration (days).",
        "Reproduced as an ordering: LSTM is several times slower than "
        "the ARIMA grid search on every dataset (exact ratio depends "
        "on grid size and epochs; absolute seconds are hardware-"
        "dependent). Both remain a tiny fraction of the simulated "
        "monitoring duration. Config: 40 nodes, 900 steps, 3 "
        "retrainings.",
    ),
    (
        "table3_m_mprime",
        "Table III — RMSE across the (M, M') look-back grid",
        "M = 1 is a good similarity look-back everywhere; the optimal "
        "membership/offset look-back M' grows with the forecast "
        "horizon (rely on longer history when forecasting farther).",
        "Partially reproduced: M = 1 is within noise of the best at "
        "every horizon (matching). For M', the paper's trend appears "
        "in weakened form — the relative penalty of larger M' shrinks "
        "monotonically as h grows (5.5% → 0% from h=1 to h=10) but "
        "never becomes an outright win, because synthetic membership "
        "churn is permanent migration rather than the oscillation that "
        "makes long look-backs pay off in the real traces. Config: 60 "
        "nodes, 700 steps, google-like CPU.",
    ),
    (
        "fig11_similarity",
        "Fig. 11 — proposed similarity measure vs Jaccard index",
        "The unnormalized multi-step-intersection measure (Eq. 10) "
        "performs better than or similar to the Jaccard index in all "
        "cases.",
        "Reproduced: intersection ≤ Jaccard + 0.01 at ≥ 90% of points "
        "(they coincide on most panels, as in the paper, since both "
        "usually find the same matching). Config: 60 nodes, 700 "
        "steps.",
    ),
    (
        "fig12_gaussian_comparison",
        "Fig. 12 — comparison with the Gaussian-based method of [3]",
        "In the train/test monitor-selection setting, the proposed "
        "clustering-based scheme has the smallest RMSE; the Gaussian "
        "schemes (Top-W, Top-W-Update, Batch Selection) are far worse — "
        "their log-scale RMSE explodes to 1e3–1e5 on several panels.",
        "Reproduced for the Top-W family: near-collinear replica "
        "machines make the raw sample covariance ill-conditioned and "
        "Top-W (which selects exactly those machines) degrades to ~2–3× "
        "the proposed scheme's RMSE; proposed also beats the random "
        "minimum-distance baseline. Honest deviation: our Batch "
        "Selection implementation (greedy variance deflation) avoids "
        "the collinearity trap and remains competitive with — often "
        "slightly better than — proposed, i.e. a stronger baseline "
        "than whatever produced the paper's 1e5 blow-ups. Config: 100 "
        "nodes, 500/500 train/test steps.",
    ),
    (
        "table4_computation_time",
        "Table IV — computation time per scheme (100 nodes)",
        "Proposed runs in ~0.14 s; minimum-distance is cheapest "
        "(~0.02 s); Top-W-Update is ~200× the proposed cost; Batch "
        "Selection ~20×.",
        "Reproduced as an ordering: minimum-distance < proposed ≈ "
        "Top-W ≈ Batch Selection ≪ Top-W-Update (which re-estimates "
        "the covariance and re-selects monitors every test step). "
        "Our Top-W-Update/proposed ratio is ~10–30× rather than 200× — "
        "numpy's covariance estimation is comparatively faster than "
        "the paper's implementation. Config: 100 nodes, K = 25.",
    ),
    (
        "ablation_reindexing",
        "Ablation — Hungarian re-indexing (extension)",
        "(Not in the paper; validates Sec. V-B's design.) Without "
        "re-indexing, K-means label permutations should scramble the "
        "centroid series and break forecasting.",
        "Confirmed: raw K-means label order roughly doubles forecast "
        "RMSE at every horizon versus matched clusters.",
    ),
    (
        "ablation_offsets",
        "Ablation — per-node offsets and α-clipping (extension)",
        "(Not in the paper; validates Eq. 12.) Offsets should beat "
        "pure-centroid estimation; clipping should keep reconstructed "
        "values inside their cluster.",
        "Offsets help at every horizon. Clipped and raw offsets are "
        "nearly identical on this data (raw marginally better): the "
        "clipping rule matters for safety on boundary nodes, not for "
        "aggregate RMSE here.",
    ),
    (
        "ablation_warm_start",
        "Ablation — warm-started per-step K-means (extension)",
        "(Not in the paper.) Seeding each slot's K-means with the "
        "previous centroids should preserve quality at lower cost.",
        "Confirmed: identical intermediate RMSE (gap < 0.01) at ~3× "
        "less clustering wall-clock.",
    ),
    (
        "fleet_scale",
        "Scaling — columnar FleetState vs object-per-node (extension)",
        "(Not in the paper; realizes its 'large-scale distributed "
        "systems' premise.) The collection stage should scale to "
        "million-node fleets when per-node Python objects are "
        "replaced by one structure-of-arrays fleet state, and neither "
        "partitioning the fleet into contiguous node shards nor "
        "working those shards on several threads may change a single "
        "bit of the result.",
        "Confirmed: the columnar path is two orders of magnitude "
        "faster than the object-per-node loop (hundreds of times at "
        "N = 1k–10k, far above the 5x acceptance bar) and handles "
        "N = 1M in under two seconds where the object loop would take "
        "hours; the 4-way sharded run and the worker threads are both "
        "asserted bit-identical to single-shard at every N.  On the "
        "recorded 2-CPU run the threads beat single-process columnar "
        "from N = 100k up, and at N = 1M (1.48 s vs 2.10 s), which is "
        "the multi-core acceptance bar; below that, starting the "
        "helper thread costs more than the overlap saves, and the "
        "serial sharded path or plain columnar is faster.  Timings "
        "are best-of-3 (best-of-2 at N = 1M) on a shared VM whose "
        "speed drifts between runs.",
    ),
    (
        "model_bank",
        "Scaling — columnar ForecasterBank vs object-per-cluster "
        "(extension)",
        "(Not in the paper; model-layer counterpart of the FleetState "
        "refactor.) Training one forecaster per cluster centroid and "
        "re-forecasting every slot should not cost K·d Python calls: "
        "batching every (cluster, dim) series of a resource group into "
        "one structure-of-arrays bank must leave the numbers untouched "
        "while removing the per-object loop from the train+forecast "
        "stage.",
        "Confirmed: the vectorized Yule–Walker bank (one batched "
        "lag-matrix solve, one array op per forecast slot) is roughly "
        "two orders of magnitude faster than the object path at the "
        "largest configurations (~100x at K = 128, d = 4 on the "
        "recorded run, far above the 5x acceptance bar), with "
        "forecasts asserted bit-identical at every swept "
        "configuration.",
    ),
    (
        "scenarios",
        "Scenarios — link models and fleet churn overhead (extension)",
        "(Not in the paper; realizes its *large-scale distributed "
        "system* premise as testable adversity.) The paper's protocol "
        "must keep working when the network between nodes and "
        "controller loses, delays and serializes messages and when "
        "the fleet itself churns; the controller keeps the last "
        "received value for silent nodes (the staleness rule).",
        "Confirmed: interposing a link model costs little over the "
        "bare streaming session — the pass-through IdealLink is "
        "asserted bit-identical to no link at all before timing, and "
        "a NetworkLink with i.i.d.+burst loss, shared uplinks and one "
        "slot of latency (every delivery re-ingested through the "
        "late-arrival contract) stays well under the 4x overhead bar, "
        "with message conservation (sent = delivered + dropped + in "
        "flight) asserted after every run.",
    ),
    (
        "ablation_deadband",
        "Ablation — deadband (send-on-delta) vs Lyapunov (extension)",
        "(Validates Sec. II's argument.) Threshold-based adaptive "
        "sampling ties frequency to data volatility, so a δ calibrated "
        "on one dataset misses the bandwidth budget elsewhere; the "
        "Lyapunov policy hits the budget everywhere by construction.",
        "Confirmed: the calibrated deadband misses the target "
        "frequency by up to ~40% on the other datasets while the "
        "adaptive policy stays within 1%.",
    ),
]


def main() -> None:
    sections = [PREAMBLE]
    for stem, title, paper, ours in ENTRIES:
        path = os.path.join(RESULTS_DIR, f"{stem}.txt")
        if os.path.exists(path):
            with open(path) as handle:
                measured = handle.read().rstrip()
        else:
            measured = "(run `pytest benchmarks/ --benchmark-only` first)"
        sections.append(
            f"\n## {title}\n\n"
            f"**Paper:** {paper}\n\n"
            f"**Measured** (`benchmarks/results/{stem}.txt`):\n\n"
            f"```\n{measured}\n```\n\n"
            f"**Assessment:** {ours}\n"
        )
        # Enrich (or create) the machine-readable twin: keep any
        # structured `data` rows the benchmark run recorded, add the
        # curated metadata that lives only in this script.
        json_path = os.path.join(RESULTS_DIR, f"{stem}.json")
        data = None
        if os.path.exists(json_path):
            try:
                with open(json_path) as handle:
                    data = json.load(handle).get("data")
            except (OSError, ValueError):
                data = None
        with open(json_path, "w") as handle:
            json.dump(
                {
                    "name": stem,
                    "title": title,
                    "paper_claim": paper,
                    "assessment": ours,
                    "text": measured,
                    "data": data,
                },
                handle,
                indent=2,
            )
            handle.write("\n")
    with open(OUTPUT, "w") as handle:
        handle.write("\n".join(sections))
    print(
        f"wrote {os.path.abspath(OUTPUT)} and {len(ENTRIES)} "
        f"results/*.json entries"
    )


if __name__ == "__main__":
    main()
