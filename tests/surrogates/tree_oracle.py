"""Reference tree grower the partition engine is checked against.

:class:`OracleTreeBuilder` grows trees the direct way, one node at a time:
each node gathers its rows (``idx``), draws its candidate features and
builds count/gradient/hessian histograms with one flatten + ``bincount``
pass over a padded ``(features, max_bins)`` grid.  There is no row
partitioning, no CSR bin axis, no kernel choice and no count subtraction.

It subclasses :class:`GradientTreeBuilder` and overrides only the growth
step, so it shares the split mathematics (``_score``, ``_leaf_value``,
``_feature_subset``, ``_eligible``) and the tree assembly of ``grow``.  Any
difference between the two is therefore a difference in how the engine
stages, accumulates or partitions rows — which the byte-identity tests in
``test_tree_engine.py`` rule out.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.surrogates.tree import _NO_FEATURE, GradientTreeBuilder


class OracleTreeBuilder(GradientTreeBuilder):
    """Per-node histogram grower with the engine's constructor and outputs."""

    def _best_split(self, codes, g, h, idx):
        """``(gain, feature, bin)`` of the best split of ``idx``, or None."""
        m = len(idx)
        feats = self._feature_subset(codes.shape[1])
        nbins = self._num_bins[feats]
        bmax = int(nbins.max())
        if bmax < 2:
            return None
        k = len(feats)
        flat = (
            codes[np.ix_(idx, feats)].astype(np.int64)
            + np.arange(k, dtype=np.int64)[None, :] * bmax
        ).ravel()
        total = k * bmax
        g_node = g[idx]
        n_hist = np.bincount(flat, minlength=total).reshape(k, bmax)
        g_hist = np.bincount(
            flat, weights=np.repeat(g_node, k), minlength=total
        ).reshape(k, bmax)
        g_total = float(g_node.sum())
        nl = np.cumsum(n_hist, axis=1)[:, :-1]
        gl = np.cumsum(g_hist, axis=1)[:, :-1]
        if self._unit_hessian:
            h_total = float(m)
            hl = nl.astype(np.float64)
        else:
            h_node = h[idx]
            h_total = float(h_node.sum())
            h_hist = np.bincount(
                flat, weights=np.repeat(h_node, k), minlength=total
            ).reshape(k, bmax)
            hl = np.cumsum(h_hist, axis=1)[:, :-1]
        nr, gr, hr = m - nl, g_total - gl, h_total - hl
        valid = (
            (np.arange(bmax - 1)[None, :] < (nbins - 1)[:, None])
            & (nl >= self.min_child_samples)
            & (nr >= self.min_child_samples)
            & (hl >= self.min_child_weight)
            & (hr >= self.min_child_weight)
        )
        if not valid.any():
            return None
        gains = (
            0.5
            * (
                self._score(gl, hl)
                + self._score(gr, hr)
                - self._score(g_total, h_total)
            )
            - self.gamma
        )
        gains = np.where(valid, gains, -np.inf)
        row, b = divmod(int(np.argmax(gains)), bmax - 1)
        if gains[row, b] <= 0:
            return None
        return float(gains[row, b]), int(feats[row]), b

    def _grow_nodes(
        self, codes, g, h, features, thresholds, lefts, rights, values, bins
    ):
        rows_of: dict[int, np.ndarray] = {}

        def new_node(idx):
            node_id = len(features)
            features.append(_NO_FEATURE)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            bins.append(-1)
            values.append(
                self._leaf_value(float(g[idx].sum()), float(h[idx].sum()))
            )
            rows_of[node_id] = idx
            return node_id

        def split(node_id, idx, feature, b):
            features[node_id] = feature
            thresholds[node_id] = float(self.binner.thresholds_[feature][b])
            bins[node_id] = b
            mask = codes[idx, feature] <= b
            left_idx, right_idx = idx[mask], idx[~mask]
            lefts[node_id] = new_node(left_idx)
            rights[node_id] = new_node(right_idx)
            return (lefts[node_id], left_idx), (rights[node_id], right_idx)

        root_idx = np.arange(codes.shape[0])
        root = new_node(root_idx)
        if self.growth == "depthwise":
            queue = deque([(root, root_idx, 0)])
            while queue:
                node_id, idx, depth = queue.popleft()
                if not self._eligible(len(idx), depth):
                    continue
                best = self._best_split(codes, g, h, idx)
                if best is None:
                    continue
                for child in split(node_id, idx, best[1], best[2]):
                    queue.append((*child, depth + 1))
        else:
            heap = []

            def push(node_id, idx, depth):
                if not self._eligible(len(idx), depth):
                    return
                best = self._best_split(codes, g, h, idx)
                if best is not None:
                    gain, feature, b = best
                    # node ids are unique, so the heap never compares arrays
                    heapq.heappush(
                        heap, (-gain, node_id, idx, feature, b, depth)
                    )

            push(root, root_idx, 0)
            leaf_cap = self.num_leaves if self.num_leaves is not None else 31
            num_leaves = 1
            while heap and num_leaves < leaf_cap:
                _, node_id, idx, feature, b, depth = heapq.heappop(heap)
                num_leaves += 1
                for child in split(node_id, idx, feature, b):
                    push(*child, depth + 1)
        return [
            (node_id, rows)
            for node_id, rows in rows_of.items()
            if features[node_id] == _NO_FEATURE
        ]
