"""Multi-view connectivity construction from ROI time series.

Builds the Pearson functional-connectivity matrix for the Euclidean branch
and the three nested trace-correlation (RV coefficient) graphs for the graph
branch: a whole-brain network over functional systems, a mid-level graph
over sub-network groups, and a region-level graph. The two lower levels are
assembled block-diagonally so each subgraph stays topologically isolated.

Subjects are prepared as stacks: each subject's ROI columns give one Gram
matrix, and every level's matrices for a stack of subjects derive from the
``[N, R, R]`` stack of those. Matrix functions take one subject's ``[m, m]``
matrix or a stack ``[N, m, m]``; a single subject is a stack of one.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .autodiff import RowBlocks, chunk_slices

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
        if not self.rois:
            raise ConnectivityError("hierarchy has no ROIs")
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

    def ordered_columns(self, ts: RoiTimeSeries) -> np.ndarray:
        """Column indices of ``ts`` in ``ordered_rois`` order.

        Every level concatenates its nodes' column groups to this order, so
        one cross-product of these columns holds every level's blocks.
        """
        pos = {name: i for i, name in enumerate(ts.roi_names)}
        missing = [r for r in self.rois if r not in pos]
        if missing:
            raise ConnectivityError(
                f"subject {ts.subject_id!r}: time series is missing hierarchy ROI {missing[0]!r}"
            )
        return np.array([pos[r] for r in self.ordered_rois])

    def layout(self, level: str) -> LevelLayout:
        """The level's hierarchy-only constants, built once per hierarchy."""
        if level not in LEVELS:
            raise ConnectivityError(f"unknown level {level!r}; expected one of {LEVELS}")
        return self._layouts[level]

    @cached_property
    def _layouts(self) -> dict[str, LevelLayout]:
        group_of = {r: self.groups.index(self.man_partition[r]) for r in self.ordered_rois}
        network_of = {g: self.networks.index(self.wan_partition[g]) for g in self.groups}
        nodes = {  # per level: the node each ordered ROI belongs to, and each node's parent
            WAN: (
                [network_of[self.man_partition[r]] for r in self.ordered_rois],
                [0] * len(self.networks),
            ),
            MAN: ([group_of[r] for r in self.ordered_rois], [network_of[g] for g in self.groups]),
            LAN: (list(range(len(self.ordered_rois))), [group_of[r] for r in self.ordered_rois]),
        }
        return {level: LevelLayout.build(*nodes[level]) for level in LEVELS}


@dataclass(frozen=True)
class LevelLayout:
    """What one level's matrices need from the hierarchy alone.

    ``membership`` is the 0/1 ``[R, m]`` map from each ROI in
    ``ordered_rois`` order to its node, or None when every node is one ROI
    (always at ``lan``) and the map is the identity; ``blocks`` are the runs
    of nodes that share a parent, and ``mask`` the ``[m, m]`` within-parent
    pattern.
    """

    membership: np.ndarray | None
    blocks: RowBlocks
    mask: np.ndarray

    @classmethod
    def build(cls, node_of: list[int], parent_of: list[int]) -> LevelLayout:
        parents = np.array(parent_of)
        membership = (np.array(node_of)[:, None] == np.arange(len(parents))).astype(np.float64)
        return cls(
            membership=None if len(node_of) == len(parents) else membership,
            blocks=RowBlocks(np.bincount(parents)),
            mask=parents[:, None] == parents[None, :],
        )


def _refuse_non_finite(values: np.ndarray, subject_ids: Sequence[str], level: str) -> np.ndarray:
    """``values`` (``[N, m, m]``), refused if a matrix holds NaN or Inf,
    which an overflow in the Gram products leaves; the refusal names the
    first such subject and the level. Nothing else needs a check, as
    construction makes every matrix symmetric bit for bit (Pearson writes
    ``cross + cross.T``, RV ``sums + sums.T`` over the commutative
    ``norms_i * norms_j``, and the block masks are symmetric), writes the
    unit diagonal last (``_set_diagonal``) and bounds the range
    (``np.clip(..., -1, 1)``, or ``np.minimum(..., 1)`` of non-negative sums
    over positive norms; a NaN passes both). The adjacencies thresholded
    from these values are therefore symmetric and non-negative too.
    """
    flat = values.reshape(len(values), -1)
    bad = ~(np.isfinite(flat.min(axis=1)) & np.isfinite(flat.max(axis=1)))  # NaN propagates into both
    if bad.any():
        who = subject_ids[int(np.argmax(bad))]
        raise ConnectivityError(f"subject {who!r}: {level} connectivity matrix has NaN or Inf entries")
    return values


def _set_diagonal(values: np.ndarray, value: float) -> None:
    idx = np.arange(values.shape[-1])
    values[..., idx, idx] = value


def subject_chunks(n: int, hierarchy: AtlasHierarchy) -> Iterator[slice]:
    """Row slices of ``n`` subjects in order, each chunk's ``[n, R, R]``
    stack fitting in ``autodiff.CHUNK_BYTES``."""
    r = len(hierarchy.ordered_rois)
    return chunk_slices(n, 8 * r * r)


def fc_columns(series: Sequence[RoiTimeSeries]) -> int:
    """The ROI column count of every subject of ``series``; a subject with
    another count than the first is refused."""
    r = series[0].samples.shape[1]
    for ts in series:
        if ts.samples.shape[1] != r:
            raise ConnectivityError(
                f"subject {ts.subject_id!r}: {ts.samples.shape[1]} ROI columns, "
                f"but subject {series[0].subject_id!r} has {r}"
            )
    return r


def pearson_fc(series: Sequence[RoiTimeSeries]) -> np.ndarray:
    """Pearson correlation between every pair of ROI columns, per subject.

    Each subject keeps its own column order; the result is ``[N, R, R]``.
    """
    r = fc_columns(series)
    corr = np.empty((len(series), r, r))
    with np.errstate(all="ignore"):  # an overflow leaves NaN or Inf, refused below
        for out, ts in zip(corr, series):
            x = ts.samples - ts.samples.mean(axis=0)
            norms = np.sqrt((x * x).sum(axis=0))
            cross = (x.T @ x) / np.outer(norms, norms)
            np.add(cross, cross.T, out=out)
        corr /= 2.0
        np.clip(corr, -1.0, 1.0, out=corr)
    _set_diagonal(corr, 1.0)
    return _refuse_non_finite(corr, [ts.subject_id for ts in series], "fc")


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


@dataclass
class GramStack:
    """Squared entries C*C of the Gram matrices C = x'x of a stack of
    subjects, ``[N, R, R]``, each over the subject's columns in
    ``hierarchy.ordered_rois`` order: all that any level reads of C."""

    subject_ids: list[str]
    squares: np.ndarray


def gram_stack(series: Sequence[RoiTimeSeries], hierarchy: AtlasHierarchy) -> GramStack:
    """One Gram matrix per subject, one BLAS call each.

    The series are never stacked themselves, so subjects may differ in
    timepoint count and in column order.
    """
    r = len(hierarchy.ordered_rois)
    squares = np.empty((len(series), r, r))
    with np.errstate(all="ignore"):  # an overflow leaves Inf, refused with its level
        for out, ts in zip(squares, series):
            x = ts.samples[:, hierarchy.ordered_columns(ts)]
            np.matmul(x.T, x, out=out)
        squares *= squares
    return GramStack(subject_ids=[ts.subject_id for ts in series], squares=squares)


def level_connectivity(grams: GramStack, hierarchy: AtlasHierarchy, level: str) -> np.ndarray:
    """RV coefficient between every pair of same-level column blocks.

    With C = X'X the subject's Gram matrix, block (i, j) of C is A_i'A_j,
    so ||A_i'A_j||_F^2 is the sum of C*C over that block:
    N = P'(C*C)P for the level's 0/1 block-membership matrix P, and
    RV_ij = N_ij / sqrt(N_ii N_jj), the ``rv_coefficient`` of every pair.
    Where P is the identity (one ROI per node), N is C*C itself: the
    product would only add exact zeros. Blocks with disjoint support have
    exactly zero entries in C and so an RV of exactly 0.0. The result is
    ``[N, m, m]``, one matrix per subject.
    """
    membership = hierarchy.layout(level).membership
    squares = grams.squares
    with np.errstate(all="ignore"):  # an overflow leaves NaN or Inf, refused below
        sums = squares if membership is None else membership.T @ squares @ membership
        sums = sums + sums.transpose(0, 2, 1)  # the products round asymmetrically
        sums /= 2.0
        norms = np.sqrt(np.diagonal(sums, axis1=1, axis2=2))
        empty = (norms == 0.0).any(axis=1)
        if empty.any():
            raise ConnectivityError(
                f"subject {grams.subject_ids[int(np.argmax(empty))]!r}: {level}: "
                "rv_coefficient: all-zero block, coefficient undefined"
            )
        sums /= norms[:, :, None] * norms[:, None, :]
        np.minimum(sums, 1.0, out=sums)
    _set_diagonal(sums, 1.0)
    return _refuse_non_finite(sums, grams.subject_ids, level)


def retained_fractions(values: np.ndarray, blocks: RowBlocks, gammas) -> np.ndarray:
    """Fraction of each matrix's off-diagonal entries strictly above each
    threshold: ``[..., m, m]`` matrices give ``[..., len(gammas)]``.

    Only the diagonal blocks of ``blocks`` (a level's parent blocks; the
    top level is one block) are read: every entry outside them must be
    exactly 0.0, as ``composite_connectivity`` leaves them. Such an entry,
    like the padding of unequal blocks, lies above no threshold and counts
    in the denominator m(m-1) alone. Each entry read is placed on the grid
    once; the count above threshold j is the number of entries with more
    than j grid points below them. The counts are integers, so the
    fractions are exact quotients; a one-node matrix has no off-diagonal
    entries and retains none.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.size == 0:
        raise ConnectivityError("retained_fractions: threshold grid is empty")
    if np.any(np.diff(gammas) <= 0) or gammas[0] < 0.0 or gammas[-1] > 1.0:
        raise ConnectivityError("threshold grid must be strictly increasing within [0, 1]")
    m, g, s = values.shape[-1], gammas.size, blocks.shape[1]
    inner = blocks.gather(values.reshape(-1, m, m))
    off = inner[..., ~np.eye(s, dtype=bool)].reshape(len(inner), blocks.shape[0] * s * (s - 1))
    below = np.searchsorted(gammas, off, side="left")  # grid points strictly below each entry
    below += (g + 1) * np.arange(len(off))[:, None]
    hist = np.bincount(below.ravel(), minlength=len(off) * (g + 1)).reshape(len(off), g + 1)
    above = off.shape[1] - np.cumsum(hist, axis=1)[:, :g]
    return (above / max(m * (m - 1), 1)).reshape(*values.shape[:-2], g)


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


def build_adjacency(values: np.ndarray, gamma: float, mode: str = "binary") -> np.ndarray:
    """Sparsify connectivity values (one ``[m, m]`` matrix, or a stack) by
    threshold: keep entries strictly above gamma, unit diagonal."""
    if not 0.0 <= gamma <= 1.0:
        raise ConnectivityError(f"gamma must be in [0, 1], got {gamma}")
    if mode not in ("binary", "weighted"):
        raise ConnectivityError(f"adjacency mode must be 'binary' or 'weighted', got {mode!r}")
    keep = values > gamma
    if mode == "binary":
        adj = keep.astype(np.float64)
    else:
        adj = np.where(keep, values, 0.0)
    _set_diagonal(adj, 1.0)
    return adj


def composite_connectivity(grams: GramStack, hierarchy: AtlasHierarchy, level: str) -> np.ndarray:
    """Level connectivity with entries outside the parent blocks zeroed.

    The top level is a single graph, so it passes through unmasked; the two
    lower levels keep only within-parent associations, matching the
    block-diagonal assembly of their adjacency.
    """
    values = level_connectivity(grams, hierarchy, level)
    if level != WAN:  # zeroing a symmetric mask of off-diagonal blocks keeps symmetry and range
        np.copyto(values, 0.0, where=~hierarchy.layout(level).mask)
    return values


def build_graph_set(
    levels: dict[str, np.ndarray],
    gammas: dict[str, float] | float,
    mode: str = "binary",
) -> dict[str, np.ndarray]:
    """Threshold each level's composite connectivity into its adjacency.

    ``levels`` holds each level's composite connectivity of one subject, or
    a stack of them; ``gammas`` is a per-level dict or one shared
    threshold. The values themselves are the node features: row
    i is node i's connectivity profile. The two lower levels were masked to
    their parent blocks, which makes both adjacency and features exactly
    block-diagonal (features are zero-padded to the composite width).
    """
    chosen = gammas if isinstance(gammas, dict) else dict.fromkeys(LEVELS, float(gammas))
    return {level: build_adjacency(levels[level], chosen[level], mode) for level in LEVELS}


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

# the JSON kind a value must be, by Python type, as its name and the Python
# types it may hold: a config field holds that of its default's type, and a
# null default (``batch_size``) an integer or null
_KINDS = {int: ("integer", int), float: ("number", (int, float)), str: ("string", str),
          tuple: ("array", (list, tuple)), type(None): ("integer or null", (int, type(None))),
          dict: ("object", dict), list: ("array", list)}


def check_json(value, kind: type, where: str, error: type[ValueError], entry: type | None = None) -> None:
    """Refuse ``value`` with ``error`` unless it is of the JSON kind of
    ``kind``, and, given ``entry``, each entry of that object or array of
    that of ``entry``; ``where`` is its key path. A boolean is of no kind."""
    name, types = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise error(f"{where} must be a JSON {name}")
    if entry is not None:
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            check_json(item, entry, f"{where}[{key!r}]", error)


def read_json_object(path: str | Path, what: str, error: type[ValueError]) -> dict:
    """The JSON object in the UTF-8 file at ``path``, after any byte-order
    mark; ``what`` names the file in a refusal."""
    with Path(path).open(encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSON or UTF-8 decoding
            raise error(f"{path}: not valid JSON ({exc})") from None
    check_json(payload, dict, f"{path}: {what}", error)
    return payload


@contextmanager
def open_csv(path: str | Path, error: type[ValueError]) -> Iterator[TextIO]:
    """The UTF-8 file at ``path`` opened for the csv module, past any
    byte-order mark; a byte that does not decode, wherever it is read, is
    refused with ``error``."""
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not valid CSV ({exc})") from None


def read_timeseries_csv(path: str | Path, subject_id: str | None = None) -> RoiTimeSeries:
    """CSV with a header row of ROI names and one row per timepoint."""
    path = Path(path)
    subject_id = subject_id or path.stem
    with open_csv(path, ConnectivityError) as fh:
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
                values = [float(v) for v in row]
                for v, x, name in zip(row, values, header):
                    if not math.isfinite(x):
                        raise ValueError(f"non-finite value {v!r} for ROI {name.strip()!r}")
                rows.append(values)
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
    payload = read_json_object(path, "hierarchy file", ConnectivityError)
    for key, kind in (("lan", list), ("man", dict), ("wan", dict)):
        if key not in payload:
            raise ConnectivityError(f"{path}: hierarchy file is missing key {key!r}")
        check_json(payload[key], kind, f"{path}: {key}", ConnectivityError, entry=str)
    try:
        return AtlasHierarchy(rois=payload["lan"], man_partition=payload["man"], wan_partition=payload["wan"])
    except ConnectivityError as exc:
        raise ConnectivityError(f"{path}: {exc}") from None


def read_covering_hierarchy(path: str | Path, ts: RoiTimeSeries, ts_path: str | Path) -> AtlasHierarchy:
    """The hierarchy in the JSON file at ``path``, refused unless the time
    series ``ts``, read from ``ts_path``, has every one of its ROIs."""
    hierarchy = read_hierarchy_json(path)
    try:
        hierarchy.ordered_columns(ts)
    except ConnectivityError as exc:
        raise ConnectivityError(f"{ts_path}: {exc} of {path}") from None
    return hierarchy


def write_hierarchy_json(path: str | Path, hierarchy: AtlasHierarchy) -> None:
    payload = {
        "lan": hierarchy.rois,
        "man": hierarchy.man_partition,
        "wan": hierarchy.wan_partition,
    }
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
