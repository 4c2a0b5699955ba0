"""The stub draws of Molloy-Reed stub matching, in O(log n) each.

A Fenwick tree (Fenwick 1994) over the residual degrees, in label order,
finds the node of stub r, the node that a scan of the residuals finds, and
takes that stub out, each in O(log n) where the scan costs O(n).
"""


def _stub_tree(residual) -> list[int]:
    """The tree over ``residual``, padded with nodes of residual 0 to a power
    of two above n, so that a descent needs no bound check.  O(n)."""
    size = 1 << len(residual).bit_length()
    tree = [0, *residual] + [0] * (size - len(residual))
    for k in range(1, size):
        tree[k + (k & -k)] += tree[k]
    return tree


def _take_stub(tree: list[int], r: int) -> int:
    """Take stub r out of ``tree`` and return its node: the first v with
    r < r_1 + ... + r_v, 0 <= r < r_1 + ... + r_n.

    Below the root, the nodes whose range holds v are those where the
    descent does not step right, so the stub leaves them there.
    """
    v, step = 0, len(tree) >> 1  # tree[2 * step], the root, is never read
    while step:
        k = v + step
        if tree[k] <= r:
            v = k
            r -= tree[k]
        else:
            tree[k] -= 1
        step >>= 1
    return v + 1
