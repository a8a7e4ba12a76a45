"""Binary decision trees grown depth-first on numpy arrays.

One implementation serves two roles: Gini classification (forest base
learner) and least-squares regression with Newton leaf values (boosting
base learner). Nodes live in flat parallel lists so trees serialize to
JSON directly. Splits use midpoint thresholds between consecutive
distinct values; ties prefer the lowest feature index then the lowest
threshold, which keeps growth deterministic for a fixed candidate set.

A forest's trees grow in lockstep: each step scores the next node of
every unfinished tree in one batched Gini pass, and every tree still
builds exactly the nodes it would build alone.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_LEAF = -1

# Cells (rows x candidate columns) of one padded block of nodes scored
# together: about the fixed cost of a pass in per-cell work, so padding
# never costs more than a pass, and small enough that the kernel's
# temporaries stay under 1 MiB.
_MAX_BLOCK = 4096


@dataclass
class Tree:
    feature: list = field(default_factory=list)    # _LEAF marks a leaf
    threshold: list = field(default_factory=list)  # x[f] <= thr goes left
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)      # leaf payload (score/step)

    def _add_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _split(self, node: int, feature: int, threshold: float):
        """Make a leaf an inner node with two new leaves; returns their indices."""
        li = len(self.feature)
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = li
        self.right[node] = li + 1
        self.feature += (_LEAF, _LEAF)
        self.threshold += (0.0, 0.0)
        self.left += (_LEAF, _LEAF)
        self.right += (_LEAF, _LEAF)
        self.value += (0.0, 0.0)
        return li, li + 1

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(len(x), dtype=np.float64)
        for r in range(len(x)):
            node = 0
            while self.feature[node] != _LEAF:
                if x[r, self.feature[node]] <= self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            out[r] = self.value[node]
        return out

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "threshold": [repr(float(t)) for t in self.threshold],
            "left": list(self.left),
            "right": list(self.right),
            "value": [repr(float(v)) for v in self.value],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(
            feature=[int(v) for v in d["feature"]],
            threshold=[float(v) for v in d["threshold"]],
            left=[int(v) for v in d["left"]],
            right=[int(v) for v in d["right"]],
            value=[float(v) for v in d["value"]],
        )


def _first_min_split(cost: np.ndarray, xs: np.ndarray, n: int):
    """First strict minimum over (column, sorted position) of a cost block.

    cost is (n-1, F) with np.inf at unusable positions. Transposing before
    the flat argmin makes the scan column-major, so ties resolve to the
    lowest column and then the lowest threshold.
    """
    by_col = cost.T
    flat = int(np.argmin(by_col))
    f, i = divmod(flat, n - 1)
    if not np.isfinite(by_col[f, i]):
        return None
    thr = (xs[i, f] + xs[i + 1, f]) / 2.0
    return int(f), float(thr)


def _gini_best_split(xb: np.ndarray, y: np.ndarray):
    """Best (column, midpoint threshold) in a feature block by weighted Gini.

    All columns are scored in one pass: sort each, take cumulative
    positive counts, and price a split after every position. Returns None
    when no column has two distinct values.
    """
    n = len(y)
    order = np.argsort(xb, axis=0, kind="stable")
    xs = np.take_along_axis(xb, order, axis=0)
    valid = xs[1:] != xs[:-1]
    if not valid.any():
        return None
    pos = np.cumsum(y[order], axis=0)
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    left_pos = pos[:-1]
    right_pos = float(y.sum()) - left_pos
    # Gini impurity of each side, weighted by side size (common n factor dropped)
    pl = left_pos / left_n
    pr = right_pos / right_n
    cost = left_n * (2 * pl * (1 - pl)) + right_n * (2 * pr * (1 - pr))
    return _first_min_split(np.where(valid, cost, np.inf), xs, n)


def _sse_best_split(xb: np.ndarray, target: np.ndarray):
    """Best (column, midpoint threshold) minimizing summed squared error
    of side means, scored for all columns of the block at once."""
    n, n_cols = xb.shape
    order = np.argsort(xb, axis=0, kind="stable")
    xs = xb.take(order * n_cols + np.arange(n_cols))
    valid = xs[1:] != xs[:-1]
    if not valid.any():
        return None
    ts = target[order]
    csum = np.cumsum(ts, axis=0)
    csq = np.cumsum(np.square(ts, out=ts), axis=0)
    k = np.arange(1, n, dtype=np.float64)[:, None]
    # cost = (left_sq - left_sum**2 / k) + (right_sq - right_sum**2 / (n - k)),
    # evaluated in place
    left = np.square(csum[:-1])
    left /= k
    np.subtract(csq[:-1], left, out=left)
    right = csum[-1] - csum[:-1]
    np.square(right, out=right)
    right /= n - k
    np.subtract(csq[-1] - csq[:-1], right, out=right)
    left += right
    return _first_min_split(np.where(valid, left, np.inf), xs, n)


def _size_groups(sizes: list, n_cols: int):
    """Indices of a batch of node sizes grouped for padded scoring,
    largest nodes first. A group pads every node to its first, largest
    node, and takes nodes while its block stays within _MAX_BLOCK cells."""
    groups, width = [], 0
    for b in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        if groups and width * (len(groups[-1]) + 1) * n_cols <= _MAX_BLOCK:
            groups[-1].append(b)
        else:
            groups.append([b])
            width = sizes[b]
    return groups


def _pad(row_lists, sizes: list, fill: int):
    """(B, W) block holding node b's rows in its first sizes[b] slots and
    fill after them, with the mask of the real slots."""
    real = np.arange(max(sizes)) < np.array(sizes)[:, None]
    rows = np.full(real.shape, fill, dtype=np.intp)
    rows[real] = np.concatenate(row_lists)
    return rows, real


def _gini_best_splits(xp: np.ndarray, yp: np.ndarray, rows: np.ndarray,
                      real: np.ndarray, cand: np.ndarray):
    """_gini_best_split of every node of a padded block in one pass.

    xp and yp are x and y with one extra last row of +inf features and
    label 0, which the padding slots of rows (from _pad) point at; cand
    is (B, C) candidate columns per node. Padding sorts after every real
    value and adds no positives, and only positions between two distinct
    real values can win. Costs use _gini_best_split's float expressions
    and the first minimum in (column, position) order wins, so columns,
    thresholds and tie-breaks equal it. Returns the chosen columns of x,
    the thresholds and whether each node has a split at all.
    """
    nb, width = rows.shape
    b = np.arange(nb)
    xb = xp.take(rows[:, None, :] * xp.shape[1] + cand[:, :, None])  # (B, C, W)
    # Sorted values and the positive count below each position between two
    # distinct values do not depend on how ties are ordered, so the faster
    # unstable sort gives the same costs.
    order = np.argsort(xb, axis=2)
    xs = xb.take(order + np.arange(0, xb.size, width).reshape(nb, -1, 1))
    pos = np.cumsum(yp.take(rows).take(order + (b * width)[:, None, None]), axis=2)
    valid = (xs[:, :, 1:] != xs[:, :, :-1]) & real[:, None, 1:]
    left_n = np.arange(1, width, dtype=np.float64)
    right_n = real.sum(axis=1)[:, None, None] - left_n
    left_pos = pos[:, :, :-1]
    right_pos = pos[:, :, -1:] - left_pos
    with np.errstate(divide="ignore", invalid="ignore"):  # padding only
        pl = left_pos / left_n
        pr = right_pos / right_n
        cost = left_n * (2 * pl * (1 - pl)) + right_n * (2 * pr * (1 - pr))
    cost = np.where(valid, cost, np.inf).reshape(nb, -1)
    first = np.argmin(cost, axis=1)
    f, i = np.divmod(first, width - 1)
    thr = (xs[b, f, i] + xs[b, f, i + 1]) / 2.0
    return cand[b, f], thr, np.isfinite(cost[b, first])


def grow_classification_forest(x: np.ndarray, y: np.ndarray, samples,
                               max_depth: Optional[int],
                               max_features: Optional[int], rngs) -> list:
    """Gini trees over 0/1 labels, one per (samples[t], rngs[t]), grown
    in lockstep; leaf value = positive-class fraction.

    samples[t] holds tree t's training rows of x, repeats allowed. Each
    tree keeps its own depth-first stack and generator, so tree t is the
    tree grown alone on x[samples[t]], y[samples[t]] with rngs[t]. Each
    step pops every unfinished tree's next node to split and scores those
    nodes together. Row order within a node changes no split, since costs
    are only read between distinct values.
    """
    n, n_feat = x.shape
    xp = np.vstack([x, np.full((1, n_feat), np.inf)])
    yp = np.append(np.asarray(y, dtype=np.int64), 0)
    subset = max_features is not None and max_features < n_feat
    all_cols = np.arange(n_feat)
    trees = [Tree() for _ in samples]
    stacks = [[] for _ in samples]  # nodes to split: (node, rows, depth, positive rows)

    def place(t, node, rows, depth, pos):
        """Settle a new node as a leaf, or stack it for splitting."""
        size = len(rows)
        if (max_depth is not None and depth >= max_depth) or size < 2 \
                or pos == 0 or pos == size:
            # pos / size is y[rows].mean() bit for bit
            trees[t].value[node] = pos / size if size else math.nan
        else:
            stacks[t].append((node, rows, depth, pos))

    for t, rows in enumerate(map(np.asarray, samples)):
        place(t, trees[t]._add_node(), rows, 0, int(yp[rows].sum()))
    while True:
        batch = [(t, *stack.pop()) for t, stack in enumerate(stacks) if stack]
        if not batch:
            return trees
        if subset:
            cands = np.sort([rngs[t].permutation(n_feat)[:max_features] for t, *_ in batch],
                            axis=1)
        else:
            cands = np.broadcast_to(all_cols, (len(batch), n_feat))
        sizes = [len(item[2]) for item in batch]
        for group in _size_groups(sizes, cands.shape[1]):
            rows, real = _pad([batch[b][2] for b in group], [sizes[b] for b in group], n)
            f, thr, found = _gini_best_splits(xp, yp, rows, real, cands[group])
            go = xp.take(rows * n_feat + f[:, None]) <= thr[:, None]  # padding: +inf
            side = 2 - go - real  # 0 left, 1 right, 2 padding; each side keeps its order
            part = rows.take(np.argsort(side, axis=1, kind="stable")
                             + (np.arange(len(group)) * rows.shape[1])[:, None])
            n_left = go.sum(axis=1).tolist()
            pos_left = (yp.take(rows) * go).sum(axis=1).tolist()
            for j, (b, split, feature, threshold) in enumerate(
                    zip(group, found.tolist(), f.tolist(), thr.tolist())):
                t, node, node_rows, depth, pos = batch[b]
                size = len(node_rows)
                if not split:
                    trees[t].value[node] = pos / size
                    continue
                li, ri = trees[t]._split(node, feature, threshold)
                nl, pl = n_left[j], pos_left[j]
                place(t, ri, part[j, nl:size], depth + 1, pos - pl)
                place(t, li, part[j, :nl], depth + 1, pl)


def grow_classification_tree(x: np.ndarray, y: np.ndarray,
                             max_depth: Optional[int],
                             max_features: Optional[int],
                             rng: np.random.Generator) -> Tree:
    """One Gini tree on all rows of x; see grow_classification_forest."""
    return grow_classification_forest(x, y, [np.arange(len(y))], max_depth,
                                      max_features, [rng])[0]


def grow_regression_tree(x: np.ndarray, residual: np.ndarray, hessian: np.ndarray,
                         max_depth: Optional[int], fitted: np.ndarray) -> Tree:
    """Least-squares tree on residuals; leaf value is the Newton step
    sum(residual)/sum(hessian) with a zero guard for saturated leaves.

    fitted[r] receives the value of the leaf that training row r lands
    in, which equals tree.predict(x)[r].
    """
    tree = Tree()
    stack = [(tree._add_node(), np.arange(len(residual)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        rs = residual[rows]
        got = None
        if (max_depth is None or depth < max_depth) and len(rows) >= 2 \
                and rs.min() != rs.max():
            got = _sse_best_split(x[rows], rs)
        if got is None:
            h = float(hessian[rows].sum())
            value = float(rs.sum()) / h if h > 1e-12 else 0.0
            tree.value[node] = value
            fitted[rows] = value
            continue
        f, thr = got
        go_left = x[rows, f] <= thr
        li, ri = tree._split(node, f, thr)
        stack.append((ri, rows[~go_left], depth + 1))
        stack.append((li, rows[go_left], depth + 1))
    return tree
