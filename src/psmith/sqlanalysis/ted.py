"""Ordered tree edit distance between skeletons (Zhang-Shasha algorithm).

Unit costs for insert, delete and relabel. The distance is a metric on
ordered labeled trees: zero iff the trees are equal, symmetric, and
satisfies the triangle inequality.
"""

from __future__ import annotations

from .skeleton import SkeletonNode


class _Annotated:
    """Postorder enumeration with leftmost-leaf descendants and keyroots."""

    def __init__(self, root: SkeletonNode):
        self.labels: list[str] = []
        self.lmld: list[int] = []  # leftmost leaf descendant, postorder index
        self._walk(root)
        n = len(self.labels)
        keyroot_for_lmld: dict[int, int] = {}
        for i in range(n):
            keyroot_for_lmld[self.lmld[i]] = i
        self.keyroots = sorted(keyroot_for_lmld.values())

    def _walk(self, node: SkeletonNode) -> int:
        """Returns the postorder index assigned to *node*."""
        first_leaf = None
        for child in node.children:
            idx = self._walk(child)
            if first_leaf is None:
                first_leaf = self.lmld[idx]
        my_index = len(self.labels)
        self.labels.append(node.label)
        self.lmld.append(first_leaf if first_leaf is not None else my_index)
        return my_index


def tree_edit_distance(a: SkeletonNode, b: SkeletonNode) -> int:
    """Minimal number of unit-cost node insertions, deletions and relabels
    transforming ordered tree *a* into *b*."""
    ta, tb = _Annotated(a), _Annotated(b)
    m, n = len(ta.labels), len(tb.labels)
    treedist = [[0] * n for _ in range(m)]

    for i in ta.keyroots:
        for j in tb.keyroots:
            _compute_treedist(ta, tb, i, j, treedist)
    return treedist[m - 1][n - 1]


def _compute_treedist(ta: _Annotated, tb: _Annotated, i: int, j: int,
                      treedist: list[list[int]]) -> None:
    li, lj = ta.lmld[i], tb.lmld[j]
    m = i - li + 2
    n = j - lj + 2
    fd = [[0] * n for _ in range(m)]
    ioff = li - 1
    joff = lj - 1

    for x in range(1, m):
        fd[x][0] = fd[x - 1][0] + 1  # delete
    for y in range(1, n):
        fd[0][y] = fd[0][y - 1] + 1  # insert

    for x in range(1, m):
        for y in range(1, n):
            if ta.lmld[x + ioff] == li and tb.lmld[y + joff] == lj:
                relabel = 0 if ta.labels[x + ioff] == tb.labels[y + joff] else 1
                fd[x][y] = min(
                    fd[x - 1][y] + 1,
                    fd[x][y - 1] + 1,
                    fd[x - 1][y - 1] + relabel,
                )
                treedist[x + ioff][y + joff] = fd[x][y]
            else:
                p = ta.lmld[x + ioff] - 1 - ioff
                q = tb.lmld[y + joff] - 1 - joff
                fd[x][y] = min(
                    fd[x - 1][y] + 1,
                    fd[x][y - 1] + 1,
                    fd[p][q] + treedist[x + ioff][y + joff],
                )
