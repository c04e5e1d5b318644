"""Multi-view connectivity construction from ROI time series.

Builds the Pearson functional-connectivity matrix for the Euclidean branch
and the three nested trace-correlation (RV coefficient) graphs for the graph
branch: a whole-brain network over functional systems, a mid-level graph
over sub-network groups, and a region-level graph. The two lower levels are
assembled block-diagonally so each subgraph stays topologically isolated.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WAN = "wan"
MAN = "man"
LAN = "lan"
LEVELS = (WAN, MAN, LAN)

# the threshold grid that gamma selection and retained-fraction lookup scan
GAMMA_GRID = np.linspace(0.0, 1.0, 101)


class ConnectivityError(ValueError):
    """Invalid time series, hierarchy, or threshold input."""


@dataclass
class RoiTimeSeries:
    """Per-subject ROI signal matrix, timepoints by regions."""

    subject_id: str
    samples: np.ndarray
    roi_names: list[str]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ConnectivityError(f"time series must be 2-D, got shape {self.samples.shape}")
        n, r = self.samples.shape
        if n < 2 or r < 2:
            raise ConnectivityError(f"need at least 2 timepoints and 2 ROIs, got {n}x{r}")
        if len(self.roi_names) != r:
            raise ConnectivityError(f"{len(self.roi_names)} ROI names for {r} columns")
        if len(set(self.roi_names)) != r:
            raise ConnectivityError("ROI names must be unique")
        if not np.all(np.isfinite(self.samples)):
            raise ConnectivityError(f"subject {self.subject_id}: non-finite sample values")
        spans = np.ptp(self.samples, axis=0)
        flat = np.where(spans == 0.0)[0]
        if flat.size:
            raise ConnectivityError(
                f"subject {self.subject_id}: ROI {self.roi_names[flat[0]]!r} has zero variance"
            )

    @property
    def n_rois(self) -> int:
        return self.samples.shape[1]


@dataclass
class AtlasHierarchy:
    """Nested three-level parcellation: ROI -> group -> network.

    Node orders are canonicalized so that members of one parent are
    contiguous; all composite matrices follow these orders.
    """

    rois: list[str]
    man_partition: dict[str, str]
    wan_partition: dict[str, str]

    networks: list[str] = field(init=False)
    groups: list[str] = field(init=False)
    ordered_rois: list[str] = field(init=False)

    def __post_init__(self):
        if len(set(self.rois)) != len(self.rois):
            raise ConnectivityError("hierarchy ROI ids must be unique")
        for roi in self.rois:
            if roi not in self.man_partition:
                raise ConnectivityError(f"hierarchy: ROI {roi!r} has no group assignment")
        extra = set(self.man_partition) - set(self.rois)
        if extra:
            raise ConnectivityError(f"hierarchy: group map names unknown ROI {sorted(extra)[0]!r}")

        groups_seen = list(dict.fromkeys(self.man_partition[r] for r in self.rois))
        for group in groups_seen:
            if group not in self.wan_partition:
                raise ConnectivityError(f"hierarchy: group {group!r} has no network assignment")
        empty = set(self.wan_partition) - set(groups_seen)
        if empty:
            raise ConnectivityError(f"hierarchy: network map names empty group {sorted(empty)[0]!r}")

        self.networks = list(dict.fromkeys(self.wan_partition[g] for g in groups_seen))
        self.groups = [g for net in self.networks for g in groups_seen if self.wan_partition[g] == net]
        self.ordered_rois = [r for g in self.groups for r in self.rois if self.man_partition[r] == g]

    def level_nodes(self, level: str) -> list[str]:
        if level == WAN:
            return self.networks
        if level == MAN:
            return self.groups
        if level == LAN:
            return self.ordered_rois
        raise ConnectivityError(f"unknown level {level!r}; expected one of {LEVELS}")

    def group_columns(self, level: str, roi_names: list[str]) -> list[np.ndarray]:
        """Column indices into ``roi_names`` for each node at ``level``."""
        pos = {name: i for i, name in enumerate(roi_names)}
        missing = [r for r in self.rois if r not in pos]
        if missing:
            raise ConnectivityError(f"time series is missing hierarchy ROI {missing[0]!r}")
        if level == LAN:
            return [np.array([pos[r]]) for r in self.ordered_rois]
        if level == MAN:
            return [
                np.array([pos[r] for r in self.ordered_rois if self.man_partition[r] == g])
                for g in self.groups
            ]
        if level == WAN:
            return [
                np.array(
                    [
                        pos[r]
                        for r in self.ordered_rois
                        if self.wan_partition[self.man_partition[r]] == net
                    ]
                )
                for net in self.networks
            ]
        raise ConnectivityError(f"unknown level {level!r}; expected one of {LEVELS}")

    def level_blocks(self, level: str) -> list[np.ndarray]:
        """Row-index blocks of the composite node order at ``level``.

        The top level forms a single block; lower levels group their nodes
        by parent, which is the block structure of the composite matrices.
        """
        if level == WAN:
            return [np.arange(len(self.networks))]
        if level == MAN:
            parents = [self.wan_partition[g] for g in self.groups]
        elif level == LAN:
            parents = [self.man_partition[r] for r in self.ordered_rois]
        else:
            raise ConnectivityError(f"unknown level {level!r}; expected one of {LEVELS}")
        blocks = []
        start = 0
        for i in range(1, len(parents) + 1):
            if i == len(parents) or parents[i] != parents[start]:
                blocks.append(np.arange(start, i))
                start = i
        return blocks


@dataclass
class ConnectivityMatrix:
    """Symmetric association matrix with unit diagonal."""

    level: str
    values: np.ndarray
    kind: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ConnectivityError(f"connectivity matrix must be square, got {v.shape}")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise ConnectivityError("connectivity matrix is not symmetric within 1e-12")
        if np.max(np.abs(np.diag(v) - 1.0)) > 0:
            raise ConnectivityError("connectivity matrix diagonal must be exactly 1")
        if self.kind == "rv":
            if v.min() < 0.0 or v.max() > 1.0:
                raise ConnectivityError("rv entries must lie in [0, 1]")
        elif self.kind == "pearson":
            if v.min() < -1.0 or v.max() > 1.0:
                raise ConnectivityError("pearson entries must lie in [-1, 1]")
        else:
            raise ConnectivityError(f"unknown connectivity kind {self.kind!r}")
        self.values = v

    @property
    def n(self) -> int:
        return self.values.shape[0]


def pearson_fc(ts: RoiTimeSeries) -> ConnectivityMatrix:
    """Pearson correlation between every pair of ROI columns."""
    x = ts.samples - ts.samples.mean(axis=0)
    norms = np.sqrt((x * x).sum(axis=0))
    corr = (x.T @ x) / np.outer(norms, norms)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return ConnectivityMatrix(level="fc", values=corr, kind="pearson")


def rv_coefficient(a: np.ndarray, b: np.ndarray) -> float:
    """Trace correlation between two column blocks sharing the time axis.

    Computed as ||A'B||_F^2 / (||A'A||_F ||B'B||_F), which is algebraically
    Tr(AA'BB') over the geometric mean of Tr[(AA')^2] and Tr[(BB')^2] but
    keeps the numerator exactly zero for blocks with disjoint support.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a[:, None] if a.ndim == 1 else a
    b = b[:, None] if b.ndim == 1 else b
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] < 1 or b.shape[1] < 1:
        raise ConnectivityError(f"rv_coefficient: blocks must be 2-D, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0]:
        raise ConnectivityError(
            f"rv_coefficient: sample counts differ ({a.shape[0]} vs {b.shape[0]})"
        )
    denom_a = np.linalg.norm(a.T @ a)
    denom_b = np.linalg.norm(b.T @ b)
    if denom_a == 0.0 or denom_b == 0.0:
        raise ConnectivityError("rv_coefficient: all-zero block, coefficient undefined")
    num = np.linalg.norm(a.T @ b) ** 2
    return min(num / (denom_a * denom_b), 1.0)


def level_connectivity(ts: RoiTimeSeries, hierarchy: AtlasHierarchy, level: str) -> ConnectivityMatrix:
    """RV coefficient between every pair of same-level column blocks.

    With X the level's columns in composite order and C = X'X, block (i, j)
    of C is A_i'A_j, so ||A_i'A_j||_F^2 is the sum of C*C over that block:
    N = P'(C*C)P for the 0/1 block-membership matrix P, and
    RV_ij = N_ij / sqrt(N_ii N_jj), the ``rv_coefficient`` of every pair
    from one cross-product. Blocks with disjoint support have exactly zero
    entries in C and so an RV of exactly 0.0.
    """
    columns = hierarchy.group_columns(level, ts.roi_names)
    x = ts.samples[:, np.concatenate(columns)]
    membership = np.repeat(np.eye(len(columns)), [len(cols) for cols in columns], axis=0)
    cross = x.T @ x
    sums = membership.T @ (cross * cross) @ membership
    sums = (sums + sums.T) / 2.0  # the products round asymmetrically
    norms = np.sqrt(np.diag(sums))
    if np.any(norms == 0.0):
        raise ConnectivityError("rv_coefficient: all-zero block, coefficient undefined")
    values = np.minimum(sums / np.outer(norms, norms), 1.0)
    np.fill_diagonal(values, 1.0)
    return ConnectivityMatrix(level=level, values=values, kind="rv")


def retained_edge_curve(cm: ConnectivityMatrix, gammas) -> list[tuple[float, float]]:
    """Fraction of off-diagonal entries strictly above each threshold."""
    gammas = np.asarray(list(gammas), dtype=np.float64)
    if gammas.size == 0:
        raise ConnectivityError("retained_edge_curve: threshold grid is empty")
    if np.any(np.diff(gammas) <= 0) or gammas[0] < 0.0 or gammas[-1] > 1.0:
        raise ConnectivityError("threshold grid must be strictly increasing within [0, 1]")
    m = cm.n
    off = cm.values[~np.eye(m, dtype=bool)]
    total = m * (m - 1)
    return [(float(g), float(np.count_nonzero(off > g) / total)) for g in gammas]


def select_cutoff(curve: list[tuple[float, float]]) -> float:
    """Threshold at the curve's inflection: the largest curvature magnitude.

    Curvature is the discrete second difference of the retained fraction on
    the grid (divided differences, so uneven grids are handled); ties go to
    the smaller threshold.
    """
    if len(curve) < 5:
        raise ConnectivityError(f"select_cutoff needs at least 5 curve points, got {len(curve)}")
    g = np.array([p[0] for p in curve])
    f = np.array([p[1] for p in curve])
    left = (f[1:-1] - f[:-2]) / (g[1:-1] - g[:-2])
    right = (f[2:] - f[1:-1]) / (g[2:] - g[1:-1])
    curvature = np.abs(2.0 * (right - left) / (g[2:] - g[:-2]))
    if np.max(curvature) == 0.0:
        raise ConnectivityError("select_cutoff: no inflection (curve has no curvature)")
    return float(g[1 + int(np.argmax(curvature))])


def gamma_for_retained_fraction(cm: ConnectivityMatrix, fraction: float) -> float:
    """Smallest grid threshold whose retained fraction drops to ``fraction``."""
    if not 0.0 <= fraction <= 1.0:
        raise ConnectivityError(f"retained fraction must be in [0, 1], got {fraction}")
    curve = retained_edge_curve(cm, GAMMA_GRID)
    for g, kept in curve:
        if kept <= fraction:
            return g
    return curve[-1][0]


def build_adjacency(cm: ConnectivityMatrix, gamma: float, mode: str = "binary") -> np.ndarray:
    """Sparsify by threshold: keep entries strictly above gamma, unit diagonal."""
    if not 0.0 <= gamma <= 1.0:
        raise ConnectivityError(f"gamma must be in [0, 1], got {gamma}")
    if mode not in ("binary", "weighted"):
        raise ConnectivityError(f"adjacency mode must be 'binary' or 'weighted', got {mode!r}")
    keep = cm.values > gamma
    if mode == "binary":
        adj = keep.astype(np.float64)
    else:
        adj = np.where(keep, cm.values, 0.0)
    np.fill_diagonal(adj, 1.0)
    return adj


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """Stack square blocks along the diagonal, exact zeros elsewhere."""
    if not blocks:
        raise ConnectivityError("block_diagonal needs at least one block")
    mats = [np.asarray(b, dtype=np.float64) for b in blocks]
    for b in mats:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ConnectivityError(f"block_diagonal: non-square block of shape {b.shape}")
    total = sum(b.shape[0] for b in mats)
    out = np.zeros((total, total))
    offset = 0
    for b in mats:
        k = b.shape[0]
        out[offset : offset + k, offset : offset + k] = b
        offset += k
    return out


def node_features(cm: ConnectivityMatrix) -> np.ndarray:
    """Connectivity-profile features: row i is node i's feature vector."""
    return cm.values.copy()


@dataclass
class HierarchicalGraphSet:
    """Adjacency and node features for the three graph views of one subject."""

    adjacency: dict[str, np.ndarray]
    features: dict[str, np.ndarray]
    gammas: dict[str, float]
    mode: str

    def __post_init__(self):
        for level in LEVELS:
            adj = self.adjacency[level]
            if np.max(np.abs(np.diag(adj) - 1.0)) > 0:
                raise ConnectivityError(f"{level} adjacency diagonal must be exactly 1")


def _block_mask(blocks: list[np.ndarray], m: int) -> np.ndarray:
    mask = np.zeros((m, m), dtype=bool)
    for idx in blocks:
        mask[np.ix_(idx, idx)] = True
    return mask


def composite_connectivity(
    ts: RoiTimeSeries, hierarchy: AtlasHierarchy, level: str
) -> ConnectivityMatrix:
    """Level connectivity with entries outside the parent blocks zeroed.

    The top level is a single graph, so it passes through unmasked; the two
    lower levels keep only within-parent associations, matching the
    block-diagonal assembly of their adjacency.
    """
    cm = level_connectivity(ts, hierarchy, level)
    if level == WAN:
        return cm
    mask = _block_mask(hierarchy.level_blocks(level), cm.n)
    return ConnectivityMatrix(level=level, values=np.where(mask, cm.values, 0.0), kind="rv")


def build_graph_set(
    ts: RoiTimeSeries,
    hierarchy: AtlasHierarchy,
    gammas: dict[str, float] | float,
    mode: str = "binary",
) -> HierarchicalGraphSet:
    """Assemble the three-level graph inputs for one subject.

    ``gammas`` is a per-level dict or one shared threshold. The two lower
    levels are masked to their parent blocks before thresholding, which
    makes both adjacency and features exactly block-diagonal (features are
    zero-padded to the composite width).
    """
    adjacency: dict[str, np.ndarray] = {}
    features: dict[str, np.ndarray] = {}
    chosen: dict[str, float] = {}
    for level in LEVELS:
        cm = composite_connectivity(ts, hierarchy, level)
        if isinstance(gammas, dict):
            gamma = gammas[level]
        else:
            gamma = float(gammas)
        adjacency[level] = build_adjacency(cm, gamma, mode)
        features[level] = node_features(cm)
        chosen[level] = gamma
    return HierarchicalGraphSet(adjacency=adjacency, features=features, gammas=chosen, mode=mode)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def read_timeseries_csv(path: str | Path, subject_id: str | None = None) -> RoiTimeSeries:
    """CSV with a header row of ROI names and one row per timepoint."""
    path = Path(path)
    subject_id = subject_id or path.stem
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConnectivityError(f"{path}: empty time-series file") from None
        rows = []
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} values for {len(header)} ROI names")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConnectivityError(
                    f"{path}: row {reader.line_num}: subject {subject_id!r}: {exc}"
                ) from None
    try:
        return RoiTimeSeries(
            subject_id=subject_id,
            samples=np.array(rows, dtype=np.float64),
            roi_names=[h.strip() for h in header],
        )
    except ConnectivityError as exc:
        raise ConnectivityError(f"{path}: {exc}") from None


def write_timeseries_csv(path: str | Path, ts: RoiTimeSeries) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ts.roi_names)
        for row in ts.samples:
            writer.writerow([repr(float(v)) for v in row])


def read_hierarchy_json(path: str | Path) -> AtlasHierarchy:
    """JSON with keys ``lan`` (ROI list), ``man`` (ROI->group), ``wan`` (group->network)."""
    with Path(path).open() as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConnectivityError(f"{path}: not valid JSON ({exc})") from None
    for key in ("lan", "man", "wan"):
        if key not in payload:
            raise ConnectivityError(f"{path}: hierarchy file is missing key {key!r}")
    return AtlasHierarchy(
        rois=list(payload["lan"]),
        man_partition=dict(payload["man"]),
        wan_partition=dict(payload["wan"]),
    )


def write_hierarchy_json(path: str | Path, hierarchy: AtlasHierarchy) -> None:
    payload = {
        "lan": hierarchy.rois,
        "man": hierarchy.man_partition,
        "wan": hierarchy.wan_partition,
    }
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def graph_set_to_json(graphs: HierarchicalGraphSet) -> list[dict]:
    """Dense row-major export of each level's adjacency and features."""
    records = []
    for level in LEVELS:
        adj = graphs.adjacency[level]
        feats = graphs.features[level]
        records.append(
            {
                "level": level,
                "gamma": graphs.gammas[level],
                "mode": graphs.mode,
                "shape": list(adj.shape),
                "adjacency": adj.reshape(-1).tolist(),
                "features_shape": list(feats.shape),
                "features": feats.reshape(-1).tolist(),
            }
        )
    return records
