"""Histogram-based regression trees on gradient/hessian statistics.

This module is the shared engine of all tree ensembles in the library.  A
tree is grown on *binned* features (quantile histogram, as in LightGBM) and
minimises the second-order boosting objective (as in XGBoost):

    gain = 1/2 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma
    leaf value = -G / (H + lambda)

Plain regression trees (and hence random forests) are the special case
``g = -y, h = 1, lambda = 0``, for which the leaf value reduces to the mean
target and the gain to variance reduction.

Every tree grows through one histogram-native engine, the single-grower
shape of sklearn's ``_hist_gradient_boosting``:

- one ``row_indices`` array per tree, partitioned in place at every split
  so a node's rows are always a contiguous slice;
- a CSR bin layout: each feature owns exactly ``num_bins(j)`` slots of one
  flat bin axis, so a one-hot feature costs 2 bins instead of a padded
  ``max_bins`` row;
- fused single-pass kernels that accumulate count/gradient/hessian
  histograms for every feature (and, depth-wise, for every node of a tree
  level) in one ``bincount`` over offset codes.

Two choices inside the engine depend only on the input, never on an
option: the histogram kernel of each pass (fused flat ``bincount`` below
``_BINCOUNT_MIN_ROWS`` staged rows, one ``bincount`` per feature column at
or above it), and whether count histograms are derived by subtraction
(parent - sibling, skipped when every feature is binary).  Neither changes
a grown tree: per (node, feature, bin) the float addends arrive in
increasing row order in both kernels, counts are exact in int64, and
argmax tie-breaking scans candidate splits in (feature draw order, bin
ascending) sequence.  ``tests/surrogates/tree_oracle.py`` holds the
per-node reference grower the engine is checked against byte for byte.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.surrogates.base import Regressor

_NO_FEATURE = -1
# Cursor cells per walk block: 93 rows of a 700-tree ensemble keep a block's
# temporaries cache-sized; a one-tree walk of a few thousand rows is one block.
_CELLS = 1 << 16
_ONE_ROOT = np.zeros(1, dtype=np.int64)


def _route(X, roots, feature, threshold, left, width=None):
    """Leaf index of every (row, tree) pair, shape ``(n, len(roots))``.

    The module's one tree walk.  Per block of ``_CELLS // n_trees`` rows, a
    cursor matrix starts at ``roots`` and moves one level per step until
    every cursor rests on a leaf: ``x <= threshold`` goes to ``left``, else
    (NaN included) to the sibling ``left + 1``.  :func:`_check_structure`
    enforces that adjacency and that children follow their parent inside
    its tree, so no walk outlasts its tree.  ``width`` (one past the largest
    stored feature) is checked against ``X``'s columns first, so the flat
    gather of ``X`` never reads a neighbouring row.
    """
    n, d = X.shape
    width = int(feature.max()) + 1 if width is None else width
    if width > d:
        raise IndexError(f"tree feature {width - 1} is out of bounds ({d} columns)")
    flat = X.ravel()
    out = np.empty((n, len(roots)), dtype=np.int64)
    step = max(1, _CELLS // len(roots))
    for start in range(0, n, step):
        idx = out[start:start + step]
        idx[:] = roots
        row_start = np.arange(start, start + len(idx), dtype=np.int64)[:, None] * d
        while True:
            feat = feature[idx]
            internal = feat != _NO_FEATURE
            if not internal.any():
                break
            # Leaf cursors (feature -1) read some in-bounds cell and stay put.
            go_right = ~(flat[row_start + feat] <= threshold[idx])
            np.copyto(idx, left[idx] + go_right, where=internal)
    return out


def _check_structure(roots, feature, threshold, left, right, value) -> int:
    """Validate predictor-layout node arrays; return their feature width.

    ``roots`` must start at 0 and strictly increase below the node count;
    every internal node needs ``feature >= 0``, both children inside its
    own tree at a larger index and ``right == left + 1``; every leaf needs
    ``-1`` children.  Fitted ensembles always pass (the grower creates a
    split's two children back to back, after their parent), and the rules
    bound every :func:`_route` walk.  Raises ``ValueError``.
    """
    m = len(feature)
    if {len(threshold), len(left), len(right), len(value)} != {m}:
        raise ValueError("tree node arrays differ in length")
    bounds = np.append(roots, m)
    sizes = np.diff(bounds)
    if len(roots) == 0 or roots[0] != 0 or (sizes <= 0).any():
        raise ValueError(f"tree roots must start at 0 and strictly increase below {m}")
    tree_end = np.repeat(bounds[1:], sizes)
    node = np.arange(m)
    internal = feature != _NO_FEATURE
    bad = internal & ((feature < 0) | (right != left + 1))
    for child in (left, right):
        bad |= np.where(internal, (child <= node) | (child >= tree_end), child != -1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"malformed tree node {i}: feature {feature[i]}, children "
            f"({left[i]}, {right[i]}), tree ends at {tree_end[i]}"
        )
    return int(feature.max()) + 1


class HistogramBinner:
    """Quantile binning of continuous features into small integer codes."""

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 256:
            raise ValueError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        self.thresholds_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "HistogramBinner":
        """Compute per-feature candidate split thresholds from quantiles."""
        X = np.asarray(X, dtype=np.float64)
        thresholds = []
        for j in range(X.shape[1]):
            col = X[:, j]
            uniq = np.unique(col)
            if len(uniq) <= 1:
                thresholds.append(np.empty(0))
                continue
            if len(uniq) <= self.max_bins:
                cuts = (uniq[:-1] + uniq[1:]) / 2.0
            else:
                qs = np.quantile(col, np.linspace(0, 1, self.max_bins + 1)[1:-1])
                cuts = np.unique(qs)
            thresholds.append(cuts)
        self.thresholds_ = thresholds
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map features to bin codes; shape (n, d), dtype int16."""
        if self.thresholds_ is None:
            raise RuntimeError("binner is not fitted")
        X = np.asarray(X, dtype=np.float64)
        codes = np.empty(X.shape, dtype=np.int16)
        for j, cuts in enumerate(self.thresholds_):
            codes[:, j] = np.searchsorted(cuts, X[:, j], side="left")
        return codes

    def num_bins(self, feature: int) -> int:
        """Number of bins for ``feature`` (thresholds + 1)."""
        if self.thresholds_ is None:
            raise RuntimeError("binner is not fitted")
        return len(self.thresholds_[feature]) + 1


@dataclass
class FittedTree:
    """Flat array representation of a fitted tree (fast vectorised predict)."""

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    threshold: np.ndarray = field(default_factory=lambda: np.empty(0))
    left: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    right: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    value: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def num_nodes(self) -> int:
        return len(self.feature)

    @property
    def num_leaves(self) -> int:
        return int(np.sum(self.feature == _NO_FEATURE))

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0).

        Level-synchronous frontier walk: O(max_depth) vectorised steps
        instead of a Python loop over every node.
        """
        if self.num_nodes == 0:
            return 0
        depth = 0
        frontier = np.zeros(1, dtype=np.int64)
        while True:
            internal = frontier[self.feature[frontier] != _NO_FEATURE]
            if internal.size == 0:
                return depth
            frontier = np.concatenate(
                (self.left[internal], self.right[internal])
            )
            depth += 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row of ``X`` to its leaf value."""
        return self._walk(np.asarray(X, dtype=np.float64), self.threshold)

    def _walk(self, X: np.ndarray, threshold: np.ndarray) -> np.ndarray:
        leaves = _route(X, _ONE_ROOT, self.feature, threshold, self.left)
        return self.value[leaves[:, 0]]

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FittedTree":
        """Inverse of :meth:`to_dict`."""
        return cls(
            feature=np.asarray(data["feature"], dtype=np.int32),
            threshold=np.asarray(data["threshold"], dtype=np.float64),
            left=np.asarray(data["left"], dtype=np.int32),
            right=np.asarray(data["right"], dtype=np.int32),
            value=np.asarray(data["value"], dtype=np.float64),
        )


@dataclass
class GrownTree:
    """A fitted tree plus the routing byproducts of growing it.

    Growing a tree routes every training row to its leaf anyway, so the
    builder returns that information instead of throwing it away:

    - ``train_prediction`` — the leaf value of every build row, free at the
      end of growth (no re-traversal of the tree over the training matrix).
    - ``bins`` — the per-node *bin* split point (``-1`` at leaves), which
      lets callers route already-binned rows through the tree with integer
      compares.  Because codes come from ``searchsorted(cuts, x, "left")``,
      ``code <= b`` holds exactly when ``x <= cuts[b]``, so
      :meth:`predict_codes` is bit-identical to ``tree.predict`` on the raw
      feature matrix — the boosting loop can keep one binned copy of the
      data and never touch floats again.
    """

    tree: FittedTree
    bins: np.ndarray
    train_prediction: np.ndarray

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        """Route binned rows to leaf values (bins stand in for thresholds)."""
        return self.tree._walk(codes, self.bins)


class TreeEnsemblePredictor:
    """Traverse many trees simultaneously.

    Concatenates all member trees into flat arrays with global node offsets
    that pass :func:`_check_structure`, whether the trees were fitted, read
    from JSON or mapped from a store.  Prediction is one :func:`_route`
    walk over ``(rows, n_trees)`` cursor blocks, so the per-call Python
    overhead is O(max_depth) per block instead of O(n_trees).  Returns the
    *sum* of tree outputs (callers apply averaging/shrinkage).
    """

    def __init__(self, trees: list[FittedTree]) -> None:
        if not trees:
            raise ValueError("need at least one tree")
        sizes = [tree.num_nodes for tree in trees]
        roots = np.cumsum([0] + sizes[:-1])

        def cat(key):
            return np.concatenate([getattr(tree, key) for tree in trees])

        feature = cat("feature")
        internal = feature != _NO_FEATURE
        # Internal child pointers shift by their tree's offset; leaves keep -1.
        offset = np.repeat(roots, sizes)
        self._adopt(
            roots, feature, cat("threshold"),
            np.where(internal, cat("left") + offset, -1),
            np.where(internal, cat("right") + offset, -1), cat("value"),
        )

    @classmethod
    def from_arrays(
        cls, roots, feature, threshold, left, right, value
    ) -> "TreeEnsemblePredictor":
        """Construct directly from predictor-layout flat arrays (zero-copy).

        The arrays are exactly what :meth:`as_arrays` returns — children
        already shifted to global node offsets, leaves at ``-1``.  When
        they are read-only memmaps of a columnar artifact store, the
        predictor walks the mapped pages and N processes share one cache.
        """
        self = cls.__new__(cls)
        self._adopt(roots, feature, threshold, left, right, value)
        return self

    def _adopt(self, roots, feature, threshold, left, right, value) -> None:
        # Damaged node arrays raise here, before any walk can cycle.
        self._roots = np.asarray(roots, dtype=np.int64)
        self._feature = np.asarray(feature, dtype=np.int32)
        self._threshold = np.asarray(threshold, dtype=np.float64)
        self._left = np.asarray(left, dtype=np.int64)
        self._right = np.asarray(right, dtype=np.int64)
        self._value = np.asarray(value, dtype=np.float64)
        self._width = _check_structure(**self.as_arrays())
        self.num_trees = len(self._roots)

    def as_arrays(self) -> dict[str, np.ndarray]:
        """The concatenated flat arrays in predictor layout.

        Keys: ``roots`` (int64, per-tree node offsets), ``feature`` (int32),
        ``threshold``/``value`` (float64) and ``left``/``right`` (int64,
        global child indices, ``-1`` at leaves).  This is the columnar
        artifact store's on-disk layout for tree ensembles.
        """
        return {
            "roots": self._roots,
            "feature": self._feature,
            "threshold": self._threshold,
            "left": self._left,
            "right": self._right,
            "value": self._value,
        }

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        return _route(
            np.asarray(X, dtype=np.float64), self._roots, self._feature,
            self._threshold, self._left, self._width,
        )

    def predict_sum(self, X: np.ndarray) -> np.ndarray:
        """Sum of all tree predictions per row of ``X``."""
        return self._value[self._leaves(X)].sum(axis=1)

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Every tree's prediction per row, shape ``(num_trees, n)``.

        One level-synchronous traversal instead of ``num_trees`` separate
        ones.  The result is C-contiguous and tree-major, so reductions over
        ``axis=0`` (e.g. the forest's across-tree std) accumulate in exactly
        the same order as ``np.stack([t.predict(X) for t in trees])`` —
        bit-identical, not merely close.
        """
        return np.ascontiguousarray(self._value[self._leaves(X)].T)


class FlatTreeSequence(Sequence):
    """Lazy per-tree view of an ensemble stored as predictor-layout arrays.

    Ensembles loaded from the columnar artifact store keep only the flat
    concatenated arrays (typically read-only memmaps).  This sequence makes
    them quack like the ``list[FittedTree]`` the models carry after a fit:
    ``len`` is free, and member :class:`FittedTree` s are materialised on
    first access as slices of the flat arrays — the only copies are the
    small per-tree localised child-index arrays.  Round-tripping through
    :meth:`FittedTree.to_dict` therefore needs no eager reconstruction.
    """

    def __init__(
        self,
        roots: np.ndarray,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
    ) -> None:
        self._roots = np.asarray(roots, dtype=np.int64)
        self._feature = feature
        self._threshold = threshold
        self._left = left
        self._right = right
        self._value = value
        self._cache: dict[int, FittedTree] = {}

    def __len__(self) -> int:
        return len(self._roots)

    def __getitem__(self, i: int) -> FittedTree:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        if i not in self._cache:
            start = int(self._roots[i])
            stop = int(self._roots[i + 1]) if i + 1 < len(self) else len(self._feature)
            feature = np.asarray(self._feature[start:stop], dtype=np.int32)
            internal = feature != _NO_FEATURE
            self._cache[i] = FittedTree(
                feature=feature,
                threshold=np.asarray(self._threshold[start:stop], dtype=np.float64),
                left=np.where(
                    internal, self._left[start:stop] - start, -1
                ).astype(np.int32),
                right=np.where(
                    internal, self._right[start:stop] - start, -1
                ).astype(np.int32),
                value=np.asarray(self._value[start:stop], dtype=np.float64),
            )
        return self._cache[i]


# Kernel crossover, resolved per histogram pass on the staged row total:
# below it the fused flat kernel wins (few big ``bincount`` calls, tiny
# temporaries); at or above it, one ``bincount`` per feature column wins on
# memory traffic, because the fused kernel's ``np.repeat`` weight temporary
# grows with the staged rows.  Both kernels sum per-bin addends in the same
# row order, so the crossover never changes a grown tree.  The CSR bin axis
# is narrow (one-hot features own 2 bins), which keeps the fused pass ahead
# on the Table-1 shapes until a pass stages several thousand rows.
_BINCOUNT_MIN_ROWS = 4096

# Offset codes (bin code + feature's CSR start) are stored at the narrowest
# width that holds the flat bin axis; the staging buffer is always int64.
_INT16_MAX = np.iinfo(np.int16).max


class _PNode:
    """One node of a partition-engine build: a contiguous row slice.

    ``start``/``stop`` index the builder's in-place partitioned row array;
    ``g_sum``/``h_sum`` are the node's gradient/hessian totals (computed
    once at creation, reused by both the leaf value and the split search).
    ``cnt`` caches the node's CSR count histogram once computed;
    ``parent_cnt``/``sibling`` describe the subtraction plan — this node's
    counts are ``parent_cnt - sibling.cnt`` (exact in int64).
    """

    __slots__ = (
        "node_id", "start", "stop", "depth",
        "g_sum", "h_sum", "cnt", "parent_cnt", "sibling",
    )

    def __init__(
        self,
        node_id: int,
        start: int,
        stop: int,
        depth: int,
        g_sum: float,
        h_sum: float,
    ) -> None:
        self.node_id = node_id
        self.start = start
        self.stop = stop
        self.depth = depth
        self.g_sum = g_sum
        self.h_sum = h_sum
        self.cnt: np.ndarray | None = None
        self.parent_cnt: np.ndarray | None = None
        self.sibling: "_PNode | None" = None


class GradientTreeBuilder:
    """Grow one tree on binned features and (grad, hess) statistics.

    Args:
        binner: Fitted :class:`HistogramBinner` (provides thresholds).
        max_depth: Depth cap (root = 0); ignored if None.
        num_leaves: Leaf-count cap for leaf-wise growth; ignored if None.
        growth: ``"depthwise"`` (XGBoost-style level order) or ``"leafwise"``
            (LightGBM-style best-first).
        min_child_samples: Minimum samples on each side of a split.
        min_child_weight: Minimum hessian sum on each side.
        reg_lambda: L2 regularisation on leaf values.
        gamma: Minimum gain required to make a split.
        colsample_bynode: Fraction of features examined per node.
        rng: Randomness source for feature subsampling.

    Trees grow through the module's partition engine.  Its histogram
    kernel and count-subtraction plan follow the input alone (see the
    module docstring), so the constructor carries only model parameters.
    Feature draws consume ``rng`` once per eligible node, in the order
    nodes are evaluated; count histograms always cover every feature, so
    subtraction stays exact under ``colsample_bynode < 1`` too.
    """

    def __init__(
        self,
        binner: HistogramBinner,
        max_depth: int | None = 6,
        num_leaves: int | None = None,
        growth: str = "depthwise",
        min_child_samples: int = 5,
        min_child_weight: float = 1e-3,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        colsample_bynode: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if growth not in ("depthwise", "leafwise"):
            raise ValueError(f"unknown growth policy {growth!r}")
        if not 0.0 < colsample_bynode <= 1.0:
            raise ValueError("colsample_bynode must be in (0, 1]")
        self.binner = binner
        self.max_depth = max_depth
        self.num_leaves = num_leaves
        self.growth = growth
        self.min_child_samples = min_child_samples
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.colsample_bynode = colsample_bynode
        # Seeded fallback: feature subsampling must replay identically when
        # no generator is injected (all in-repo callers pass one).
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def _leaf_value(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.reg_lambda)

    def _score(self, g_sum: float | np.ndarray, h_sum: float | np.ndarray):
        denom = h_sum + self.reg_lambda
        if np.isscalar(denom):
            return g_sum**2 / max(denom, 1e-12)
        return g_sum**2 / np.maximum(denom, 1e-12)

    def _feature_subset(self, num_features: int) -> np.ndarray:
        if self.colsample_bynode >= 1.0:
            return np.arange(num_features)
        k = max(1, int(round(self.colsample_bynode * num_features)))
        return self.rng.choice(num_features, size=k, replace=False)

    def build(self, codes: np.ndarray, g: np.ndarray, h: np.ndarray) -> FittedTree:
        """Grow and return a fitted tree.

        Args:
            codes: Binned features, shape (n, d).
            g: Gradient per sample.
            h: Hessian per sample (all positive).
        """
        return self.grow(codes, g, h).tree

    def grow(self, codes: np.ndarray, g: np.ndarray, h: np.ndarray) -> GrownTree:
        """Grow a tree and return it with its training-row routing.

        Same contract as :meth:`build`, but the returned :class:`GrownTree`
        also carries every build row's leaf value (free at the end of
        growth) and the per-node bin split points, so boosting loops can
        skip re-predicting the training matrix.
        """
        n = codes.shape[0]
        if n == 0:
            raise ValueError("cannot build a tree on zero samples")
        # Exact compare is intentional: squared-loss hessians are the float
        # constant 1.0 by construction, and the fast path must not trigger
        # for merely-near-unit hessians.
        self._unit_hessian = bool(np.all(h == 1.0))  # anb: noqa[ANB003]
        # Per-feature bin counts, looked up once per build instead of once
        # per node (the values never change while growing one tree).
        self._num_bins = np.asarray(
            [self.binner.num_bins(j) for j in range(codes.shape[1])],
            dtype=np.int64,
        )
        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []
        bins: list[int] = []

        leaf_rows = self._grow_nodes(
            codes, g, h, features, thresholds, lefts, rights, values, bins
        )

        tree = FittedTree(
            feature=np.asarray(features, dtype=np.int32),
            threshold=np.asarray(thresholds, dtype=np.float64),
            left=np.asarray(lefts, dtype=np.int32),
            right=np.asarray(rights, dtype=np.int32),
            value=np.asarray(values, dtype=np.float64),
        )
        train_prediction = np.empty(n, dtype=np.float64)
        for node_id, rows in leaf_rows:
            train_prediction[rows] = tree.value[node_id]
        return GrownTree(
            tree=tree,
            bins=np.asarray(bins, dtype=np.int32),
            train_prediction=train_prediction,
        )

    def _eligible(self, m: int, depth: int) -> bool:
        """Whether a node of ``m`` rows at ``depth`` can be split."""
        if self.max_depth is not None and depth >= self.max_depth:
            return False
        return m >= 2 * self.min_child_samples

    def _setup_partition(self, codes: np.ndarray, g: np.ndarray, h: np.ndarray) -> None:
        n, k = codes.shape
        nb = self._num_bins
        starts = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(nb, out=starts[1:])
        self._starts = starts
        self._total_bins = int(starts[-1])
        # CSR offset codes: column j's codes shifted by its bin offset, so
        # one flat ``bincount`` accumulates every feature at once over a
        # bin axis sized sum(num_bins) instead of k * max(num_bins).
        # The matrix is partitioned alongside the row index array, so
        # every node's codes are a contiguous block and no histogram pass
        # ever fancy-gathers rows again.  The layout follows the growth
        # mode: depthwise works on whole compacted levels, where
        # *feature-major* (k, n) storage makes the level-wide column
        # sums, per-feature bincount columns and split-column reads walk
        # contiguous memory; leafwise splits one small node at a time,
        # where *row-major* (n, k) keeps each node's block a single
        # contiguous chunk (a small feature-major slice is k scattered
        # stripes) and its compress moves plain row memcpys.
        self._fmajor = self.growth == "depthwise"
        off_dt = np.int16 if self._total_bins <= _INT16_MAX else np.int32
        if self._fmajor:
            off = codes.T.astype(off_dt)
            off += starts[:-1].astype(off_dt)[:, None]
            buf_shape = (k, n)
        else:
            off = codes.astype(off_dt)
            off += starts[:-1].astype(off_dt)[None, :]
            buf_shape = (n, k)
        self._off_p = off
        # Shared int64 staging block (same layout as the codes):
        # histogram passes upcast node blocks (plus their slot offsets)
        # here so ``bincount`` never re-casts.
        self._buf = np.empty(buf_shape, dtype=np.int64)
        pos_feature = np.repeat(np.arange(k, dtype=np.int64), nb)
        pos_bin = np.arange(self._total_bins, dtype=np.int64) - starts[pos_feature]
        self._pos_feature = pos_feature
        self._pos_bin = pos_bin
        # Split point b on feature j is only meaningful for b < num_bins(j)-1.
        self._split_ok = pos_bin < (nb[pos_feature] - 1)
        # Contiguous runs of equal-width features: prefix sums reshape each
        # run to (features, width) and cumsum the last axis, so every
        # feature's prefix sums accumulate left to right on their own.
        runs = []
        j = 0
        while j < k:
            w = int(nb[j])
            j2 = j + 1
            while j2 < k and int(nb[j2]) == w:
                j2 += 1
            runs.append((int(starts[j]), int(starts[j2]), j2 - j, w))
            j = j2
        self._runs = runs
        self._rows = np.arange(n, dtype=np.int32)
        # Gradients/hessians travel with the partition (same stable
        # order-preserving moves), so node sums and weight vectors are
        # contiguous slices too; the originals are never mutated.
        self._g_p = np.array(g, copy=True)
        if self._unit_hessian:
            self._h_p = None
        else:
            self._h_p = np.array(h, copy=True)
        self._feat_positions: list[np.ndarray] | None = None
        # Uniform bin widths (one run) let candidate positions be computed
        # arithmetically instead of gathered per feature.
        if len(runs) == 1:
            self._uniform_width: int | None = runs[0][3]
            self._wrange = np.arange(self._uniform_width, dtype=np.int64)
        else:
            self._uniform_width = None
        # All-binary features (the one-hot arch encoding): every count
        # histogram is a column sum, no bincount pass needed at all.
        self._binary = self._uniform_width == 2
        self._stats = {
            "fused_nodes": 0,
            "bincount_nodes": 0,
            "direct_hists": 0,
            "subtracted_hists": 0,
            "partition_bytes": 0,
        }

    def _grow_nodes(
        self, codes, g, h, features, thresholds, lefts, rights, values, bins
    ) -> list[tuple[int, np.ndarray]]:
        """Grow the tree into the node lists.

        Appends one entry per node to ``features`` … ``bins`` (leaves keep
        ``_NO_FEATURE``) and returns ``(node_id, training rows)`` for every
        leaf.  It is the only step the per-node reference grower in
        ``tests/surrogates/tree_oracle.py`` overrides, so the split
        mathematics, feature draws and tree assembly are shared with it.
        """
        n = codes.shape[0]
        self._setup_partition(codes, g, h)
        spans: list[tuple[int, int]] = []

        def new_node(start: int, stop: int, g_sum: float, h_sum: float) -> int:
            node_id = len(features)
            features.append(_NO_FEATURE)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            bins.append(-1)
            values.append(self._leaf_value(g_sum, h_sum))
            spans.append((start, stop))
            return node_id

        g_root = float(self._g_p.sum())
        h_root = float(n) if self._unit_hessian else float(self._h_p.sum())
        root = _PNode(new_node(0, n, g_root, h_root), 0, n, 0, g_root, h_root)

        if self.growth == "depthwise":
            # The depthwise grower compacts levels through double buffers,
            # so node spans go stale as buffers swap; it hands back every
            # leaf's rows eagerly instead.
            leaf_rows = self._grow_depthwise_part(
                root, features, thresholds, lefts, rights, bins, new_node
            )
        else:
            self._grow_leafwise_part(
                root, features, thresholds, lefts, rights, bins, new_node
            )
            leaf_rows = [
                (node_id, self._rows[spans[node_id][0] : spans[node_id][1]])
                for node_id in range(len(features))
                if features[node_id] == _NO_FEATURE
            ]

        self._flush_grow_stats()
        return leaf_rows

    def _make_child(
        self, start: int, stop: int, depth: int, new_node
    ) -> _PNode:
        # The partitioned gradient slice holds the node's values in
        # ascending row order, the order of a ``g[idx]`` gather, so the
        # pairwise sum is the same bits.
        g_sum = float(self._g_p[start:stop].sum())
        # Unit-hessian sums are exact integers under any summation order,
        # so float(m) equals ``h[idx].sum()`` bit for bit.
        h_sum = (
            float(stop - start)
            if self._unit_hessian
            else float(self._h_p[start:stop].sum())
        )
        node_id = new_node(start, stop, g_sum, h_sum)
        return _PNode(node_id, start, stop, depth, g_sum, h_sum)

    def _partition_range(
        self, start: int, stop: int, feat: int, local_bin: int, left_count: int
    ) -> None:
        """Stable in-place partition of one node's slice of every array.

        Row indices, offset codes and gradients (hessians too when they
        are not all ones) are compressed into reusable scratch buffers —
        left side then right side, preserving relative row order exactly
        like ``idx[mask]`` / ``idx[~mask]`` gathers — and
        copied back, so every node's data stays a contiguous block.
        """
        off = self._off_p
        block = off[start:stop]
        thr = off.dtype.type(self._starts[feat] + local_bin)
        mask = off[start:stop, feat] <= thr
        m = stop - start
        scratch = self._scratch
        part = self._rows[start:stop]
        gpart = self._g_p[start:stop]
        # ``take`` with precomputed ascending indices is a stable
        # partition (exactly the ``idx[mask]`` / ``idx[~mask]`` order)
        # and resolves ``nonzero`` once per side instead of once
        # per compressed array.
        left = np.nonzero(mask)[0]
        np.invert(mask, out=mask)
        right = np.nonzero(mask)[0]
        part.take(left, out=scratch[:left_count])
        part.take(right, out=scratch[left_count:m])
        block.take(left, axis=0, out=self._scratch2d[:left_count])
        block.take(right, axis=0, out=self._scratch2d[left_count:m])
        gpart.take(left, out=self._gscr[:left_count])
        gpart.take(right, out=self._gscr[left_count:m])
        part[:] = scratch[:m]
        block[:] = self._scratch2d[:m]
        gpart[:] = self._gscr[:m]
        moved = part.itemsize + block.shape[1] * block.itemsize + 8
        if self._h_p is not None:
            hpart = self._h_p[start:stop]
            hpart.take(left, out=self._hscr[:left_count])
            hpart.take(right, out=self._hscr[left_count:m])
            hpart[:] = self._hscr[:m]
            moved += 8
        self._stats["partition_bytes"] += 2 * m * moved

    def _part_pass(
        self, recs: list[_PNode], want_counts: bool, want_grad: bool
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """One histogram pass over the row slices of ``recs``.

        Returns ``(counts, grads, hessians)`` of shape ``(S, total_bins)``
        (``None`` where not requested / unit hessians).  Small nodes take
        the fused kernel — a single ``bincount`` over CSR offset codes
        accumulates every feature of every node at once; large nodes take
        one ``bincount`` per contiguous feature column.  Per (node,
        feature, bin) the addends arrive in increasing row order in both,
        so every float sum is bit-identical across kernels.
        """
        S = len(recs)
        T = self._total_bins
        buf = self._buf
        off = self._off_p
        fm = self._fmajor
        g_cat = h_cat = None
        if S == 1:
            rec = recs[0]
            tm = rec.stop - rec.start
            if fm:
                np.copyto(buf[:, :tm], off[:, rec.start : rec.stop])
            else:
                np.copyto(buf[:tm], off[rec.start : rec.stop])
            if want_grad:
                g_cat = self._g_p[rec.start : rec.stop]
                if self._h_p is not None:
                    h_cat = self._h_p[rec.start : rec.stop]
        elif all(recs[i].stop == recs[i + 1].start for i in range(S - 1)):
            # Adjacent slices (a compacted depthwise level, or leafwise
            # sibling pairs): one whole-block add stages every node at
            # once, and the gradient vectors are plain slices.
            lo, hi = recs[0].start, recs[-1].stop
            tm = hi - lo
            m_vec = np.asarray(
                [rec.stop - rec.start for rec in recs], dtype=np.int64
            )
            addvec = np.repeat(np.arange(S, dtype=np.int64) * T, m_vec)
            if fm:
                np.add(off[:, lo:hi], addvec, out=buf[:, :tm])
            else:
                np.add(off[lo:hi], addvec[:, None], out=buf[:tm])
            if want_grad:
                g_cat = self._g_p[lo:hi]
                if self._h_p is not None:
                    h_cat = self._h_p[lo:hi]
        else:
            tm = 0
            for slot, rec in enumerate(recs):
                mi = rec.stop - rec.start
                if fm:
                    np.add(
                        off[:, rec.start : rec.stop],
                        np.int64(slot * T),
                        out=buf[:, tm : tm + mi],
                    )
                else:
                    np.add(
                        off[rec.start : rec.stop],
                        np.int64(slot * T),
                        out=buf[tm : tm + mi],
                    )
                tm += mi
            if want_grad:
                g_cat = np.concatenate(
                    [self._g_p[rec.start : rec.stop] for rec in recs]
                )
                if self._h_p is not None:
                    h_cat = np.concatenate(
                        [self._h_p[rec.start : rec.stop] for rec in recs]
                    )
        counts_direct = None
        if want_counts and self._binary and tm > 0:
            # Binary features: count histograms fall out of the staged
            # buffer with one native-int64 segmented reduction — staged
            # value sums per (feature, slot) segment are
            # ``ones + m * (start_j + slot * T)``.  Integer sums are exact
            # under any order, so this is bit-identical to the bincount
            # kernels' counts.
            m_vec = np.asarray(
                [rec.stop - rec.start for rec in recs], dtype=np.int64
            )
            if int(m_vec.min()) > 0:
                idx = np.zeros(S, dtype=np.intp)
                np.cumsum(m_vec[:-1], out=idx[1:])
                if fm:
                    sums = np.add.reduceat(buf[:, :tm], idx, axis=1).T
                else:
                    sums = np.add.reduceat(buf[:tm], idx, axis=0)
                base = self._starts[:-1]
                ones = (
                    sums
                    - m_vec[:, None] * base[None, :]
                    - (m_vec * (np.arange(S, dtype=np.int64) * T))[:, None]
                )
                counts_direct = np.empty((S, self._total_bins), dtype=np.int64)
                counts_direct[:, 1::2] = ones
                counts_direct[:, 0::2] = m_vec[:, None] - ones
                want_counts = False
                self._stats["direct_hists"] += S
        # The fused kernel's ``np.repeat`` weight temporary scales with the
        # *total* staged rows of the pass, so the crossover is resolved on
        # ``tm`` rather than the per-node mean.
        columns = tm >= _BINCOUNT_MIN_ROWS
        if columns:
            result = self._pass_columns(tm, S, want_counts, g_cat, h_cat)
        else:
            result = self._pass_fused(tm, S, want_counts, g_cat, h_cat)
        if counts_direct is not None:
            result = (counts_direct, result[1], result[2])
        if want_grad:
            key = "bincount_nodes" if columns else "fused_nodes"
            self._stats[key] += S
        return result

    def _pass_fused(self, tm, S, want_counts, g_cat, h_cat):
        # Feature-major staging flattens feature blocks back to back, so
        # weights tile; row-major staging interleaves features per row, so
        # weights repeat.  Either way, within each (node, feature, bin)
        # the addends arrive in ascending row order, which is all the
        # bit-identity contract requires (every flat bin belongs to
        # exactly one feature).
        k = len(self._num_bins)
        T = self._total_bins
        if self._fmajor:
            flat = self._buf[:, :tm].ravel()
            expand = np.tile
        else:
            flat = self._buf[:tm].ravel()
            expand = np.repeat
        total = S * T
        n_hist = g_hist = h_hist = None
        if want_counts:
            n_hist = np.bincount(flat, minlength=total).reshape(S, T)
        if g_cat is not None:
            g_hist = np.bincount(
                flat, weights=expand(g_cat, k), minlength=total
            ).reshape(S, T)
            if h_cat is not None:
                h_hist = np.bincount(
                    flat, weights=expand(h_cat, k), minlength=total
                ).reshape(S, T)
        return n_hist, g_hist, h_hist

    def _pass_columns(self, tm, S, want_counts, g_cat, h_cat):
        # One ``bincount`` per feature column of the staged block, with
        # the node weights used directly (no per-entry repeat) — cheaper
        # than the fused kernel once nodes are several thousand rows.
        # Column j's staged values already live in its own CSR band of
        # each slot, so the band slice of the full-length count vector is
        # exactly that feature's histogram.
        T = self._total_bins
        starts = self._starts
        buf = self._buf
        total = S * T
        n_hist = np.empty((S, T), dtype=np.int64) if want_counts else None
        g_hist = (
            np.empty((S, T), dtype=np.float64) if g_cat is not None else None
        )
        h_hist = (
            np.empty((S, T), dtype=np.float64) if h_cat is not None else None
        )
        for j in range(len(self._num_bins)):
            a, b = int(starts[j]), int(starts[j + 1])
            col = buf[j, :tm] if self._fmajor else buf[:tm, j]
            if n_hist is not None:
                n_hist[:, a:b] = np.bincount(col, minlength=total).reshape(
                    S, T
                )[:, a:b]
            if g_hist is not None:
                g_hist[:, a:b] = np.bincount(
                    col, weights=g_cat, minlength=total
                ).reshape(S, T)[:, a:b]
            if h_hist is not None:
                h_hist[:, a:b] = np.bincount(
                    col, weights=h_cat, minlength=total
                ).reshape(S, T)[:, a:b]
        return n_hist, g_hist, h_hist

    def _run_cumsum(self, hist: np.ndarray) -> np.ndarray:
        """Per-feature prefix sums along the CSR bin axis.

        Each run of equal-width features is reshaped to ``(..., nf, w)``
        and cumsummed over its last axis, so every feature's prefix sums
        accumulate left to right exactly like a per-feature cumsum —
        never across a feature boundary.
        """
        out = np.empty_like(hist)
        lead = hist.shape[:-1]
        for a, b, nf, w in self._runs:
            shape = lead + (nf, w)
            np.cumsum(
                hist[..., a:b].reshape(shape),
                axis=-1,
                out=out[..., a:b].reshape(shape),
            )
        return out

    def _part_gains(self, counts, g_hist, h_hist, m_arr, g_tot, h_tot):
        """Vectorised split gains for a batch of nodes, ``(S, total_bins)``.

        Invalid positions (last bin of a feature, child-size or
        child-weight floors) are ``-inf``.  Also returns the left-count
        prefix sums — the winning position's entry is the exact left-child
        size, so partitioning needs no second mask count.
        """
        nl = self._run_cumsum(counts)
        gl = self._run_cumsum(g_hist)
        hl = nl.astype(np.float64) if h_hist is None else self._run_cumsum(h_hist)
        m_col = np.asarray(m_arr, dtype=np.int64)[:, None]
        g_col = np.asarray(g_tot, dtype=np.float64)[:, None]
        h_col = np.asarray(h_tot, dtype=np.float64)[:, None]
        nr = m_col - nl
        gr = g_col - gl
        hr = h_col - hl
        valid = (
            self._split_ok[None, :]
            & (nl >= self.min_child_samples)
            & (nr >= self.min_child_samples)
            & (hl >= self.min_child_weight)
            & (hr >= self.min_child_weight)
        )
        parent = np.asarray(
            [self._score(gt, ht) for gt, ht in zip(g_tot, h_tot)],
            dtype=np.float64,
        )
        gains = (
            0.5 * (self._score(gl, hl) + self._score(gr, hr) - parent[:, None])
            - self.gamma
        )
        return np.where(valid, gains, -np.inf), nl

    def _pick_winner(
        self, gains_row: np.ndarray, feats: np.ndarray | None
    ) -> tuple[int, float]:
        """Best split position of one node's gain row.

        With all features in play, the CSR row scans (feature asc, bin
        asc) — the lexicographic order of an argmax over a padded
        ``(feature, bin)`` gain matrix, so tied gains resolve to the same
        split.  With a feature draw, the candidate positions are gathered
        in rng draw order first, exactly like a gain matrix whose rows are
        the drawn features.
        """
        if feats is None:
            pos = int(np.argmax(gains_row))
            return pos, float(gains_row[pos])
        if self._uniform_width is not None:
            w = self._uniform_width
            cand = (feats.astype(np.int64)[:, None] * w + self._wrange).ravel()
        else:
            if self._feat_positions is None:
                starts = self._starts
                self._feat_positions = [
                    np.arange(starts[j], starts[j + 1])
                    for j in range(len(self._num_bins))
                ]
            cand = np.concatenate([self._feat_positions[j] for j in feats])
        local = int(np.argmax(gains_row[cand]))
        pos = int(cand[local])
        return pos, float(gains_row[pos])

    def _pick_winners(
        self, gains: np.ndarray, draws: list[np.ndarray] | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`_pick_winner` over a level's gain matrix.

        One ``argmax`` (or one ``take_along_axis`` + ``argmax`` under a
        uniform-width feature draw) replaces the per-node Python loop.
        Candidate order per row matches the scalar picker exactly, so
        tied gains resolve to the same split.
        """
        S = gains.shape[0]
        if draws is None:
            pos = np.argmax(gains, axis=1)
        elif self._uniform_width is not None:
            w = self._uniform_width
            cand = np.asarray(draws, dtype=np.int64)
            cand = (cand[:, :, None] * w + self._wrange).reshape(S, -1)
            local = np.argmax(np.take_along_axis(gains, cand, axis=1), axis=1)
            pos = cand[np.arange(S), local]
        else:
            pairs = [self._pick_winner(gains[i], draws[i]) for i in range(S)]
            pos = np.asarray([p for p, _ in pairs], dtype=np.int64)
            return pos, np.asarray([gn for _, gn in pairs], dtype=np.float64)
        return pos, gains[np.arange(S), pos]

    def _level_counts(self, elig: list[_PNode]) -> np.ndarray:
        """CSR count histograms of every eligible node, ``(S, total_bins)``.

        Nodes with a subtraction plan derive counts as parent − smaller
        sibling (exact in int64); everything else — including ineligible
        smaller siblings whose counts an eligible larger sibling needs —
        is accumulated directly in one shared pass.  Because these are
        full-feature histograms, subtraction stays exact under
        ``colsample_bynode`` too.
        """
        direct: list[_PNode] = []
        seen: set[int] = set()
        for rec in elig:
            target = rec if rec.parent_cnt is None else rec.sibling
            if id(target) not in seen:
                seen.add(id(target))
                direct.append(target)
        n_direct, _, _ = self._part_pass(direct, True, False)
        for slot, target in enumerate(direct):
            target.cnt = n_direct[slot]
        self._stats["direct_hists"] += len(direct)
        counts = np.empty((len(elig), self._total_bins), dtype=np.int64)
        for i, rec in enumerate(elig):
            if rec.parent_cnt is None:
                counts[i] = rec.cnt
            else:
                np.subtract(rec.parent_cnt, rec.sibling.cnt, out=counts[i])
                self._stats["subtracted_hists"] += 1
        return counts

    def _grow_depthwise_part(
        self, root, features, thresholds, lefts, rights, bins, new_node
    ) -> list[tuple[int, np.ndarray]]:
        assert self.binner.thresholds_ is not None
        num_features = len(self._num_bins)
        k = self._off_p.shape[0]
        if not self._eligible(root.stop - root.start, root.depth):
            return [(root.node_id, self._rows[root.start : root.stop])]
        leaves: list[tuple[int, np.ndarray]] = []
        # Level compaction through double buffers: every level's surviving
        # (eligible) children are taken once, compactly, into the spare
        # buffer set and the sets swapped — no copy-back, and each level's
        # nodes form one contiguous block from offset 0, so histogram
        # staging and column sums run as single whole-level kernels.
        # Rows that reach a leaf are extracted as copies on the spot:
        # their buffer is recycled two levels later.
        off_nxt = np.empty_like(self._off_p)
        rows_nxt = np.empty_like(self._rows)
        g_nxt = np.empty_like(self._g_p)
        h_nxt = None if self._h_p is None else np.empty_like(self._h_p)
        unit = self._unit_hessian
        stats = self._stats
        level = [root]
        while level:
            # Feature draws consume the rng once per eligible node in BFS
            # order — a node-at-a-time queue's consumption sequence
            # (``level`` holds eligible nodes only).
            draws = None
            if self.colsample_bynode < 1.0:
                draws = [self._feature_subset(num_features) for _ in level]
            if not self._binary:
                counts = self._level_counts(level)
                _, g_hist, h_hist = self._part_pass(level, False, True)
            else:
                counts, g_hist, h_hist = self._part_pass(level, True, True)
            gains, nl = self._part_gains(
                counts,
                g_hist,
                h_hist,
                [rec.stop - rec.start for rec in level],
                [rec.g_sum for rec in level],
                [rec.h_sum for rec in level],
            )
            pos_arr, gain_arr = self._pick_winners(gains, draws)
            # Hot loop: thousands of splits per deep tree, so invariants
            # are hoisted and sums call the ufunc directly
            # (``np.add.reduce`` is the same pairwise kernel as
            # ``ndarray.sum``, bit for bit, minus the Python wrapper).
            radd = np.add.reduce
            off_p, rows_p, g_p, h_p = (
                self._off_p, self._rows, self._g_p, self._h_p
            )
            pos_feature, pos_bin = self._pos_feature, self._pos_bin
            thr_lists = self.binner.thresholds_
            starts = self._starts
            off_t = off_p.dtype.type
            max_d = self.max_depth
            mcs2 = 2 * self.min_child_samples
            want_plan = not self._binary
            code_bytes = k * off_p.itemsize
            gh_bytes = 8 if unit else 16
            moved = 0
            nxt: list[_PNode] = []
            write = 0  # compaction offset into the spare buffers
            for i, rec in enumerate(level):
                if gain_arr[i] <= 0:
                    leaves.append(
                        (rec.node_id, rows_p[rec.start : rec.stop].copy())
                    )
                    continue
                pos = int(pos_arr[i])
                feat = int(pos_feature[pos])
                local_bin = int(pos_bin[pos])
                m = rec.stop - rec.start
                left_count = int(nl[i, pos])
                node_id = rec.node_id
                features[node_id] = feat
                thresholds[node_id] = float(thr_lists[feat][local_bin])
                bins[node_id] = local_bin
                seg = slice(rec.start, rec.stop)
                mask = off_p[feat, seg] <= off_t(starts[feat] + local_bin)
                # ``take`` with ascending nonzero indices is a stable
                # partition — the ``idx[mask]`` / ``idx[~mask]`` order
                # exactly.
                left_idx = np.nonzero(mask)[0]
                np.invert(mask, out=mask)
                right_idx = np.nonzero(mask)[0]
                part = rows_p[seg]
                gpart = g_p[seg]
                hpart = None if h_p is None else h_p[seg]
                depth = rec.depth + 1
                elig_depth = max_d is None or depth < max_d
                children: list[_PNode] = []
                grew = True
                for idx, m_child in (
                    (left_idx, left_count),
                    (right_idx, m - left_count),
                ):
                    if elig_depth and m_child >= mcs2:
                        lo, hi = write, write + m_child
                        part.take(idx, out=rows_nxt[lo:hi])
                        gpart.take(idx, out=g_nxt[lo:hi])
                        # The taken slice holds the child's gradients in
                        # ascending row order, the order of a ``g[idx]``
                        # gather, so the pairwise sum is the same bits;
                        # unit-hessian sums are exact integers under any
                        # order.
                        g_sum = float(radd(g_nxt[lo:hi]))
                        if unit:
                            h_sum = float(m_child)
                        else:
                            hpart.take(idx, out=h_nxt[lo:hi])
                            h_sum = float(radd(h_nxt[lo:hi]))
                        off_p[:, seg].take(idx, axis=1, out=off_nxt[:, lo:hi])
                        child = _PNode(
                            new_node(lo, hi, g_sum, h_sum),
                            lo, hi, depth, g_sum, h_sum,
                        )
                        nxt.append(child)
                        write = hi
                        moved += m_child * (4 + code_bytes + gh_bytes)
                    else:
                        # Leaf child: only its row ids (the returned leaf
                        # array) and gradients (for the leaf value) move;
                        # its codes never enter the next buffer.
                        rows_leaf = part.take(idx)
                        g_sum = float(radd(gpart.take(idx)))
                        h_sum = (
                            float(m_child)
                            if unit
                            else float(radd(hpart.take(idx)))
                        )
                        child = _PNode(
                            new_node(0, 0, g_sum, h_sum),
                            0, 0, depth, g_sum, h_sum,
                        )
                        leaves.append((child.node_id, rows_leaf))
                        moved += m_child * (4 + gh_bytes)
                        grew = False
                    children.append(child)
                left, right = children
                lefts[node_id], rights[node_id] = left.node_id, right.node_id
                # Count subtraction needs the smaller sibling's codes in
                # the next buffer; when one child leafs out, the surviving
                # sibling just takes a direct count pass (integer counts
                # are exact either way, so the tree is unaffected).
                if want_plan and grew:
                    small, large = (
                        (left, right)
                        if left_count <= m - left_count
                        else (right, left)
                    )
                    large.parent_cnt = counts[i]
                    large.sibling = small
            stats["partition_bytes"] += moved
            # Swap the buffer sets: the spare just became the live level.
            self._off_p, off_nxt = off_nxt, self._off_p
            self._rows, rows_nxt = rows_nxt, self._rows
            self._g_p, g_nxt = g_nxt, self._g_p
            if h_nxt is not None:
                self._h_p, h_nxt = h_nxt, self._h_p
            level = nxt
        return leaves

    def _grow_leafwise_part(
        self, root, features, thresholds, lefts, rights, bins, new_node
    ) -> None:
        assert self.binner.thresholds_ is not None
        leaf_cap = self.num_leaves if self.num_leaves is not None else 31
        num_features = len(self._num_bins)
        # Leafwise splits pop in gain order, so rows stay partitioned in
        # place (:meth:`_partition_range`) with these compress scratches;
        # only the depthwise grower uses level-compacted double buffers.
        self._scratch = np.empty(self._rows.shape[0], dtype=np.int32)
        self._scratch2d = np.empty_like(self._off_p)
        self._gscr = np.empty_like(self._g_p)
        self._hscr = None if self._h_p is None else np.empty_like(self._h_p)
        heap: list[tuple[float, int, _PNode, int, int]] = []
        counter = 0  # tie-breaker: heapq cannot compare node records

        def push_batch(cands: list[_PNode]) -> None:
            # Sibling pairs are evaluated in one fused pass: the feature
            # draws still consume the rng once per eligible node in push
            # order (left before right), and per (node, feature, bin) the
            # addends arrive in the same row order as separate passes, so
            # the batch is bit-identical to pushing one node at a time.
            nonlocal counter
            recs = [
                rec
                for rec in cands
                if self._eligible(rec.stop - rec.start, rec.depth)
            ]
            if not recs:
                return
            drawn = None
            if self.colsample_bynode < 1.0:
                drawn = [self._feature_subset(num_features) for _ in recs]
            if self._binary:
                counts, g_hist, h_hist = self._part_pass(recs, True, True)
            else:
                need = [rec for rec in recs if rec.cnt is None]
                if need:
                    n_hist, _, _ = self._part_pass(need, True, False)
                    for slot, rec in enumerate(need):
                        rec.cnt = n_hist[slot]
                counts = (
                    recs[0].cnt[None, :]
                    if len(recs) == 1
                    else np.stack([rec.cnt for rec in recs])
                )
                _, g_hist, h_hist = self._part_pass(recs, False, True)
            gains, nl = self._part_gains(
                counts,
                g_hist,
                h_hist,
                [rec.stop - rec.start for rec in recs],
                [rec.g_sum for rec in recs],
                [rec.h_sum for rec in recs],
            )
            for i, rec in enumerate(recs):
                pos, gain = self._pick_winner(
                    gains[i], drawn[i] if drawn is not None else None
                )
                if gain > 0:
                    heapq.heappush(
                        heap, (-gain, counter, rec, pos, int(nl[i, pos]))
                    )
                    counter += 1

        push_batch([root])
        num_leaves = 1
        while heap and num_leaves < leaf_cap:
            _, _, rec, pos, left_count = heapq.heappop(heap)
            feat = int(self._pos_feature[pos])
            local_bin = int(self._pos_bin[pos])
            self._partition_range(
                rec.start, rec.stop, feat, local_bin, left_count
            )
            node_id = rec.node_id
            features[node_id] = feat
            thresholds[node_id] = float(self.binner.thresholds_[feat][local_bin])
            bins[node_id] = local_bin
            mid = rec.start + left_count
            left = self._make_child(rec.start, mid, rec.depth + 1, new_node)
            right = self._make_child(mid, rec.stop, rec.depth + 1, new_node)
            lefts[node_id], rights[node_id] = left.node_id, right.node_id
            num_leaves += 1
            if not self._binary:
                left_ok = self._eligible(mid - rec.start, rec.depth + 1)
                right_ok = self._eligible(rec.stop - mid, rec.depth + 1)
                if left_ok or right_ok:
                    small, large = (
                        (left, right)
                        if mid - rec.start <= rec.stop - mid
                        else (right, left)
                    )
                    small_n, _, _ = self._part_pass([small], True, False)
                    small.cnt = small_n[0]
                    large.cnt = rec.cnt - small.cnt
                    self._stats["direct_hists"] += 1
                    self._stats["subtracted_hists"] += 1
            push_batch([left, right])

    def _flush_grow_stats(self) -> None:
        """Out-of-band kernel counters for one grown tree (gated)."""
        if not obs.telemetry_active():
            return
        registry = obs.metrics()
        stats = self._stats
        registry.inc("surrogate.hist.fused_nodes", stats["fused_nodes"])
        registry.inc("surrogate.hist.bincount_nodes", stats["bincount_nodes"])
        registry.inc("surrogate.hist.direct", stats["direct_hists"])
        registry.inc("surrogate.hist.subtracted", stats["subtracted_hists"])
        registry.inc("surrogate.partition.bytes", stats["partition_bytes"])


class DecisionTreeRegressor(Regressor):
    """Plain CART regression tree (mean leaf values, variance-gain splits).

    Args:
        max_depth: Depth cap.
        min_samples_leaf: Minimum samples per leaf.
        max_bins: Histogram resolution.
        colsample_bynode: Feature fraction examined per split (used by
            random forests).
        seed: Feature-subsampling seed.
    """

    _PARAM_NAMES = ("max_depth", "min_samples_leaf", "max_bins", "colsample_bynode", "seed")

    def __init__(
        self,
        max_depth: int = 10,
        min_samples_leaf: int = 2,
        max_bins: int = 64,
        colsample_bynode: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        self.colsample_bynode = colsample_bynode
        self.seed = seed
        self._tree: FittedTree | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = self._validate_xy(X, y)
        binner = HistogramBinner(self.max_bins).fit(X)
        builder = GradientTreeBuilder(
            binner,
            max_depth=self.max_depth,
            min_child_samples=self.min_samples_leaf,
            min_child_weight=0.0,
            reg_lambda=0.0,
            gamma=0.0,
            colsample_bynode=self.colsample_bynode,
            rng=np.random.default_rng(self.seed),
        )
        codes = binner.transform(X)
        self._tree = builder.build(codes, g=-y, h=np.ones_like(y))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._tree is None:
            raise RuntimeError("model is not fitted")
        return self._tree.predict(np.asarray(X, dtype=np.float64))

    @property
    def tree_(self) -> FittedTree:
        """The fitted tree (raises if unfitted)."""
        if self._tree is None:
            raise RuntimeError("model is not fitted")
        return self._tree
