"""Clustering substrate: K-means, matching, and dynamic cluster tracking.

Implements Sec. V-B of the paper plus the clustering baselines used in
the evaluation (static offline clustering and random minimum-distance
clustering).
"""

from repro.clustering.dynamic import DynamicClusterTracker
from repro.clustering.kmeans import KMeansResult, kmeans, kmeans_plus_plus_init
from repro.clustering.matching import (
    maximum_weight_assignment,
    minimum_cost_assignment,
)
from repro.clustering.minimum_distance import MinimumDistanceClustering
from repro.clustering.similarity import (
    intersection_similarity_from_labels,
    jaccard_similarity_from_labels,
    similarity_matrix_from_labels,
)
from repro.clustering.static import StaticClustering
from repro.clustering.windowing import WindowedFeatureBuilder

__all__ = [
    "DynamicClusterTracker",
    "KMeansResult",
    "kmeans",
    "kmeans_plus_plus_init",
    "maximum_weight_assignment",
    "minimum_cost_assignment",
    "MinimumDistanceClustering",
    "intersection_similarity_from_labels",
    "jaccard_similarity_from_labels",
    "similarity_matrix_from_labels",
    "StaticClustering",
    "WindowedFeatureBuilder",
]
