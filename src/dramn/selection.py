"""Channel ranking by cumulative multi-layer node strength.

A node's strength is the sum of its incident edge weights, taken over every
adjacency tensor in a time range and over all five layers. Absolute weights
are summed because four of the five layers are signed and cancellation
would hide strongly coupled channels. Per-layer strengths are min-max
normalized before they are combined so no single layer's scale dominates
the composite ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .store import write_table


@dataclass(eq=False)
class NodeStrengthReport:
    per_layer: np.ndarray        # (d, n) raw strengths
    per_layer_norm: np.ndarray   # (d, n) min-max normalized
    composite: np.ndarray        # (n,)
    ranking: list                # channel indices, strongest first
    time_range: tuple            # (t_from, t_to) ms
    channel_names: tuple = ()


def node_strength(adjacency_series, t_from: int, t_to: int) -> np.ndarray:
    """Raw per-layer strengths (d x n) summed over tensors in [t_from, t_to].

    A tensor is included when its window offset lies inside the range.
    """
    included = [t for t in adjacency_series if t_from <= t.source_window <= t_to]
    if not included:
        raise DataError(
            f"no adjacency tensors with window offsets in [{t_from}, {t_to}] ms"
        )
    n = included[0].n
    d = included[0].layers.shape[2]
    raw = np.zeros((d, n))
    for tensor in included:
        raw += np.abs(tensor.layers).sum(axis=1).T
    return raw


def minmax_normalize(raw: np.ndarray) -> np.ndarray:
    """Scale each layer's strengths to [0, 1]; a constant layer maps to zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    out = np.zeros_like(raw)
    for l in range(raw.shape[0]):
        lo, hi = raw[l].min(), raw[l].max()
        if hi > lo:
            out[l] = (raw[l] - lo) / (hi - lo)
    return out


def composite_strength(norm: np.ndarray) -> np.ndarray:
    """Sum the normalized layer strengths per channel."""
    return np.asarray(norm).sum(axis=0)


def build_report(adjacency_series, t_from: int, t_to: int,
                 channel_names=()) -> NodeStrengthReport:
    """Full strength analysis over a tensor series: raw, normalized, ranked."""
    raw = node_strength(adjacency_series, t_from, t_to)
    norm = minmax_normalize(raw)
    comp = composite_strength(norm)
    ranking = sorted(range(comp.size), key=lambda i: (-comp[i], i))
    return NodeStrengthReport(
        per_layer=raw, per_layer_norm=norm, composite=comp,
        ranking=ranking, time_range=(t_from, t_to),
        channel_names=tuple(channel_names),
    )


def top_k(report: NodeStrengthReport, k: int):
    """The k strongest channels; ties break toward the lower index."""
    n = report.composite.size
    if not 1 <= k <= n:
        raise DataError(f"k must be in [1, {n}], got {k}")
    idx = report.ranking[:k]
    if report.channel_names:
        return [report.channel_names[i] for i in idx]
    return list(idx)


def overlap(top_a, top_b):
    """Intersection size and Jaccard index of two channel selections."""
    a, b = set(top_a), set(top_b)
    if not a or not b:
        raise DataError("cannot compare empty channel selections")
    inter = len(a & b)
    return inter, inter / len(a | b)


def aggregate_edges(adjacency_series, t_from: int, t_to: int) -> np.ndarray:
    """Symmetric edge-weight sum over layers and tensors in the range."""
    included = [t for t in adjacency_series if t_from <= t.source_window <= t_to]
    if not included:
        raise DataError(
            f"no adjacency tensors with window offsets in [{t_from}, {t_to}] ms"
        )
    agg = np.zeros((included[0].n, included[0].n))
    for tensor in included:
        agg += np.abs(tensor.layers).sum(axis=2)
    return agg


def write_strength_report(report: NodeStrengthReport, path, meta: dict = None) -> None:
    """Tab-separated table: channel, per-layer strengths, composite, rank."""
    n = report.composite.size
    names = report.channel_names or tuple(str(i) for i in range(n))
    rank_of = {ch: r for r, ch in enumerate(report.ranking)}
    columns = ["channel"] + [f"layer{l + 1}" for l in range(report.per_layer.shape[0])]
    columns += ["composite", "rank"]
    rows = [
        [names[i], *(float(v) for v in report.per_layer[:, i]),
         float(report.composite[i]), rank_of[i]]
        for i in range(n)
    ]
    meta = {**(meta or {}), "time_range_ms": "%d..%d" % report.time_range}
    write_table(path, columns, rows, meta=meta)


def write_edge_list(agg: np.ndarray, path, channel_names=(), top_fraction: float = 0.5,
                    meta: dict = None) -> None:
    """Upper-triangle edges sorted by weight, keeping the top fraction."""
    if not 0.0 < top_fraction <= 1.0:
        raise DataError(f"top_fraction must be in (0, 1], got {top_fraction}")
    n = agg.shape[0]
    names = channel_names or tuple(str(i) for i in range(n))
    edges = [(agg[i, j], i, j) for i in range(n) for j in range(i + 1, n)]
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))
    keep = max(1, int(round(len(edges) * top_fraction)))
    rows = [(names[i], names[j], float(weight)) for weight, i, j in edges[:keep]]
    write_table(path, ("source", "target", "weight"), rows,
                meta={**(meta or {}), "top_fraction": top_fraction})
