"""Binary decision trees on numpy arrays.

One implementation serves two roles: Gini classification (forest base
learner) and least-squares regression with Newton leaf values (boosting
base learner). Nodes live in flat parallel lists so trees serialize to
JSON directly. Splits use midpoint thresholds between consecutive
distinct values. Gini ties prefer the lowest candidate column, least
squares ties the first column of the order the caller gives, and then
both the lowest threshold, which keeps growth deterministic.

Both kinds rank a node's splits by one score, head**2 / k + (total -
head)**2 / (n - k), where head sums the target over the k rows left of
the split (CART's proxy). A split's summed squared error, and half its
weighted Gini impurity on 0/1 labels, is a constant of the node less
this score, so the largest score wins.

A forest's trees grow level by level in lockstep: each step scores every
node of the current level of every tree in batched Gini passes, and
every tree still builds exactly the nodes it would build alone. Since a
tree draws and numbers its nodes level by level, the tree grown to a
depth is the deeper tree cut there (Tree.truncated). Regression trees
grow depth-first, and those of one boosting fit share a RowSetCache: a
node whose rows an earlier node had takes that node's sort, and its
split's partition, from the cache.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_LEAF = -1

# Cells (rows x candidate columns) of one padded block of nodes scored
# together: about the fixed cost of a pass in per-cell work, so padding
# never costs more than a pass, and small enough that the kernel's
# temporaries stay under 1 MiB.
_MAX_BLOCK = 4096

# Bytes a RowSetCache keeps for later boosting rounds. A cohort fit keeps
# 13 row sets of 32 x 45 or fewer on average, and never more than 1 MiB;
# the cap binds only on large, deep fits, whose new row sets are then
# sorted afresh.
_MAX_CACHE_BYTES = 16 << 20


@dataclass
class Tree:
    """Flat node lists; a new Tree holds its root, node 0, as a leaf."""
    feature: list = field(default_factory=lambda: [_LEAF])  # _LEAF marks a leaf
    threshold: list = field(default_factory=lambda: [0.0])  # x[f] <= thr goes left
    left: list = field(default_factory=lambda: [_LEAF])
    right: list = field(default_factory=lambda: [_LEAF])
    # leaf payload (score/step); a forest's inner nodes hold theirs too
    value: list = field(default_factory=lambda: [0.0])

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

    def truncated(self, depth: int) -> "Tree":
        """This tree cut at depth: its nodes of depth <= depth, those at
        depth made leaves that keep their value. Needs nodes numbered level
        by level, each level's after the last, and a value in every node,
        as grow_classification_forest leaves them."""
        start, end = 0, 1  # the nodes of the level reached
        for _ in range(depth):
            # the last right child of a level is the last node of the next
            start, end = end, max(self.right[start:end]) + 1
            if end <= start:  # no node below this level
                return self
        cut = end - start
        return Tree(feature=self.feature[:start] + [_LEAF] * cut,
                    threshold=self.threshold[:start] + [0.0] * cut,
                    left=self.left[:start] + [_LEAF] * cut,
                    right=self.right[:start] + [_LEAF] * cut,
                    value=self.value[:end])

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


def _midpoint(lo: float, hi: float) -> float:
    """Midpoint of lo < hi, or lo where it rounds to hi (adjacent doubles)
    or lo + hi overflows, so that x <= threshold always parts lo from hi."""
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


class RowSetCache(dict):
    """What split search needs from a node's rows alone, kept across the
    trees that one boosting fit grows on one training matrix.

    rows.tobytes() maps to the node's sort (_sort_rows), and (that key,
    column, sorted position) to the left and right rows of the split
    there. nbytes counts what it holds; once the next item would take it
    past _MAX_CACHE_BYTES, items are used but not kept.
    """
    nbytes = 0

    def keep(self, key, arrays: tuple) -> tuple:
        size = sys.getsizeof(key) + sum(a.nbytes for a in arrays)
        if self.nbytes + size <= _MAX_CACHE_BYTES:
            self[key] = arrays
            self.nbytes += size
        return arrays


def _sort_rows(x: np.ndarray, rows: np.ndarray):
    """The stable sort of every column of x (C-contiguous) over rows, as
    rows of x; the sorted values; and where a value ties the one before."""
    order = rows.take(x.take(rows, axis=0).argsort(axis=0, kind="stable"))
    xs = x.take(order * x.shape[1] + np.arange(x.shape[1]))
    return order, xs, xs[1:] == xs[:-1]


def _sse_best_split(target: np.ndarray, order: np.ndarray, xs: np.ndarray,
                    ties: np.ndarray, counts: np.ndarray, columns: np.ndarray):
    """Best (column, sorted position, midpoint threshold) by the split
    score, the least summed squared error, for all columns at once.

    order, xs and ties are a node's sort (_sort_rows) over n >= 2 rows and
    target is indexed by rows of x; counts is the float column 0, 1, ...,
    m-1 for some m >= n, made once per tree. columns is a permutation of
    the columns: ties prefer the first of them in that order, then the
    lowest threshold; None when no column has two distinct values.
    """
    n = len(order)
    k = counts[1:n]            # left side sizes 1 .. n-1
    rest = counts[n - 1:0:-1]  # right side sizes n-1 .. 1
    csum = target.take(order).cumsum(axis=0)
    head = csum[:-1]
    score = head * head
    score /= k
    right = csum[-1] - head
    right *= right
    right /= rest
    score += right
    np.putmask(score, ties, -np.inf)
    # the flat argmax scans column by column in the given order, so ties
    # resolve to the first of those columns and then the lowest threshold
    by_col = score.T[columns]
    f, i = divmod(int(by_col.argmax()), n - 1)
    if not by_col[f, i] > -math.inf:
        return None
    f = int(columns[f])
    return f, i, _midpoint(*xs[i:i + 2, f].tolist())


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
    """Best (column, midpoint threshold) by the split score, the least
    weighted Gini impurity, for every node of a padded block in one pass.

    xp and yp are x and y with one extra last row of +inf features and
    label 0, which the padding slots of rows (from _pad) point at; cand
    is (B, C) candidate columns per node. Padding sorts after every real
    value and adds no positives, and only positions between two distinct
    real values can win. Each node's split scores are the ones a sort of
    its own block gives, and the first maximum in (column, position) order
    wins, so ties go to the lowest column, then the lowest threshold.
    Returns the chosen columns of x, the thresholds and whether each node
    has a split at all.
    """
    nb, width = rows.shape
    b = np.arange(nb)
    xb = xp.take(rows[:, None, :] * xp.shape[1] + cand[:, :, None])  # (B, C, W)
    # Sorted values and the positive count below each position between two
    # distinct values do not depend on how ties are ordered, so the faster
    # unstable sort gives the same scores.
    order = xb.argsort(axis=2)
    xs = xb.take(order + np.arange(0, xb.size, width).reshape(nb, -1, 1))
    pos = yp.take(rows).take(order + (b * width)[:, None, None]).cumsum(axis=2)
    left_n = np.arange(1, width, dtype=np.float64)
    right_n = real.sum(axis=1)[:, None, None] - left_n
    left_pos = pos[:, :, :-1]
    right_pos = pos[:, :, -1:] - left_pos
    with np.errstate(divide="ignore", invalid="ignore"):  # padding only
        score = left_pos * left_pos / left_n + right_pos * right_pos / right_n
    valid = (xs[:, :, 1:] != xs[:, :, :-1]) & real[:, None, 1:]
    score = np.where(valid, score, -np.inf).reshape(nb, -1)
    first = score.argmax(axis=1)
    f, i = np.divmod(first, width - 1)
    thr = np.array(list(map(_midpoint, xs[b, f, i].tolist(), xs[b, f, i + 1].tolist())))
    return cand[b, f], thr, score[b, first] > -np.inf


def grow_classification_forest(x: np.ndarray, y: np.ndarray, samples,
                               max_depth: Optional[int],
                               max_features: Optional[int], rngs) -> list:
    """Gini trees over 0/1 labels, one per (samples[t], rngs[t]), grown
    level by level in lockstep; every node's value is its positive-class
    fraction, the prediction of a leaf.

    samples[t] holds tree t's training rows of x, repeats allowed. Each
    step scores every node of the current level of every tree together.
    A tree draws its nodes' candidate columns from rngs[t] left to right
    within a level and numbers its nodes level by level, so tree t is the
    tree grown alone on x[samples[t]], y[samples[t]] with rngs[t], and the
    tree grown to depth d is the deeper tree's truncated(d). Row order
    within a node changes no split, since scores are only read between
    distinct values.
    """
    n, n_feat = x.shape
    # C order whatever the layout of x (a column selection is F-ordered):
    # take() on any other layout copies the whole matrix on every call
    xp = np.empty((n + 1, n_feat))
    xp[:n] = x
    xp[n] = np.inf
    yp = np.append(np.asarray(y, dtype=np.int64), 0)
    subset = max_features is not None and max_features < n_feat
    all_cols = np.arange(n_feat)
    trees = [Tree() for _ in samples]
    level = []  # nodes of the current level to split: (tree, node, rows, positive rows)

    def place(t, node, rows, depth, pos):
        """Give a new node its value, and queue it for splitting unless
        it is a leaf."""
        size = len(rows)
        # pos / size is y[rows].mean() bit for bit
        trees[t].value[node] = pos / size if size else math.nan
        if (max_depth is None or depth < max_depth) and 0 < pos < size:
            level.append((t, node, rows, pos))

    for t, rows in enumerate(map(np.asarray, samples)):
        place(t, 0, rows, 0, int(yp[rows].sum()))
    depth = 0
    while level:
        batch, level = level, []
        depth += 1
        if subset:
            cands = np.sort([rngs[t].permutation(n_feat)[:max_features] for t, *_ in batch],
                            axis=1)
        else:
            cands = np.broadcast_to(all_cols, (len(batch), n_feat))
        sizes = [len(item[2]) for item in batch]
        # per node: column, threshold, rows left then right, left size, left positives
        splits = [None] * len(batch)
        for group in _size_groups(sizes, cands.shape[1]):
            rows, real = _pad([batch[b][2] for b in group], [sizes[b] for b in group], n)
            f, thr, found = _gini_best_splits(xp, yp, rows, real, cands[group])
            go = xp.take(rows * n_feat + f[:, None]) <= thr[:, None]  # padding: +inf
            side = 2 - go - real  # 0 left, 1 right, 2 padding; each side keeps its order
            order = side.argsort(axis=1, kind="stable")
            order += (np.arange(len(group)) * rows.shape[1])[:, None]
            part = rows.take(order)
            n_left = go.sum(axis=1).tolist()
            pos_left = (yp.take(rows) * go).sum(axis=1).tolist()
            for b, split, *made in zip(group, found.tolist(), f.tolist(), thr.tolist(),
                                       part, n_left, pos_left):
                if split:
                    splits[b] = made
        # children are numbered, and drawn for, in each tree's level order
        for (t, node, _, pos), size, split in zip(batch, sizes, splits):
            if split is None:
                continue
            feature, threshold, part, nl, pl = split
            li, ri = trees[t]._split(node, feature, threshold)
            place(t, li, part[:nl], depth, pl)
            place(t, ri, part[nl:size], depth, pos - pl)
    return trees


def grow_classification_tree(x: np.ndarray, y: np.ndarray,
                             max_depth: Optional[int],
                             max_features: Optional[int],
                             rng: np.random.Generator) -> Tree:
    """One Gini tree on all rows of x; see grow_classification_forest."""
    return grow_classification_forest(x, y, [np.arange(len(y))], max_depth,
                                      max_features, [rng])[0]


def grow_regression_tree(x: np.ndarray, residual: np.ndarray, hessian: np.ndarray,
                         max_depth: Optional[int], fitted: np.ndarray,
                         cache: RowSetCache, columns: np.ndarray) -> Tree:
    """Least-squares tree on residuals; leaf value is the Newton step
    sum(residual)/sum(hessian) with a zero guard for saturated leaves.

    fitted[r] receives the value of the leaf that training row r lands
    in, which equals tree.predict(x)[r]. A node's rows keep the order
    they have in x: the cumulative sums of the split scores depend on it.
    cache serves every tree grown on this x: a node whose rows an earlier
    node had sorts nothing, and a split seen before partitions nothing.
    Every node breaks split ties by columns, a permutation of x's columns
    (_sse_best_split); the sorts and partitions cache keeps do not depend
    on it.
    """
    x = np.ascontiguousarray(x)
    n_cols = x.shape[1]
    counts = np.arange(len(residual), dtype=np.float64)[:, None]
    tree = Tree()
    stack = [(0, np.arange(len(residual)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        rs = residual.take(rows)
        got = None
        if (max_depth is None or depth < max_depth) and len(rs) >= 2 \
                and rs.min() != rs.max():
            key = rows.tobytes()
            sort = cache.get(key) or cache.keep(key, _sort_rows(x, rows))
            got = _sse_best_split(residual, *sort, counts, columns)
        if got is None:
            h = float(hessian.take(rows).sum())
            value = float(rs.sum()) / h if h > 1e-12 else 0.0
            tree.value[node] = value
            fitted[rows] = value
            continue
        f, i, thr = got
        li, ri = tree._split(node, f, thr)
        sides = cache.get((key, f, i))
        if sides is None:
            go_left = x.take(rows * n_cols + f) <= thr
            sides = cache.keep((key, f, i), (rows[go_left], rows[~go_left]))
        stack.append((ri, sides[1], depth + 1))
        stack.append((li, sides[0], depth + 1))
    return tree
