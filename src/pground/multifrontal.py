"""Multifrontal factor of the cell Hessian G^T H G of a grid (Duff & Reid,
ACM TOMS 1983), on a nested-dissection tree of the bounding box of its
interior nodes (George, SIAM J. Numer. Anal. 1973), batched by depth.

The box is padded along each axis to the next side (s+1) 2^j - 1 with
1 <= s <= LEAF_SIDE, so that cutting a box across the middle line of a
side halves that side exactly: every box at one depth has the same shape,
and a depth's fronts stack into one array.  A box is cut across its longer
side that can still be cut; a box of s_x x s_y nodes is a leaf.  A cut line
couples nothing across it in the 3-, 5- or 7-point pattern, whose off-axis
term couples (x+1, y) and (x, y+1).  An interval is a box one node wide.

The front of a box lists its separator's nodes (a leaf's: all its nodes,
row-major), then the nodes around the box that its nodes couple to: the
row above it, the row below it, the column left of it with the top-left
corner, and the column right of it with the bottom-right corner.  A
child's boundary is then a few runs of its parent's front, the same for
every box at a depth, so a child's update reaches its parent by slice-adds.
A box that holds no interior node (in the padding, or off a mask) is left
out of its depth with all it holds, and a boundary slot that holds no
interior node in any box of its depth (the frame around the padded box,
say) is left out of that depth's fronts.  Padding nodes and nodes off a
mask's interior that fall in the separator of a box that is kept are
decoupled identity rows.

Per depth, leaves first, the factor sums each front's lower triangle from
the per-cell entries of H and the children's updates, inverts the
separator block A11 (S = A11^-1; a symmetric sweep over the whole stack
for small blocks, LAPACK's symmetric indefinite sytrf and sytri per front
for large ones, either failing on a singular block), forms W = A21 S and
passes the update A22 - W A21^T up.  It keeps K = [S; W] per front, so a
solve walks the depths up and back down with one stacked matrix-vector
product each way: this is the block LDL^T factor with D = diag(A11, ...).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, lapack

LEAF_SIDE = 4    # widest side of a leaf box
# widest separator block inverted over the whole stack: on random blocks of
# the widths and counts of the square n=72..256 trees (float32, one thread)
# the sweep took 0.6-1.1 ms on 128-256 blocks of 15 or 16 where LAPACK per
# block took 0.8-1.6 ms, and 0.3-2.1 ms on 8-64 blocks of 19 or 31 where
# LAPACK took 0.1-1.1 ms
SWEEP_MAX = 16


def _padded(m: int) -> tuple:
    """(s, j): the least side (s+1) 2^j - 1 >= m with 1 <= s <= LEAF_SIDE,
    on a tie the larger s, whose tree is shallower."""
    side = {}
    for s in range(1, LEAF_SIDE + 1):
        j = max(0, math.ceil(math.log2((m + 1) / (s + 1))))
        side[s, j] = (s + 1) * 2 ** j - 1
    return min(side, key=lambda sj: (side[sj], -sj[0]))


class _Depth(NamedTuple):
    """The boxes of one depth that hold an interior node, k separator and
    nf front slots each.  nodes holds the interior node at each front slot
    (n where none), sep its first k columns.  kids lists the places of the
    next depth's boxes among two per box of this one, the lower and the
    upper half of each (None where every box has both), and adds, per
    child slot, the slice-adds of the children's updates into the fronts
    (`_adds`).  A solve lays the next depth's boundary values out in these
    two places per box, each child's followed by a zero, and gathers a
    front's values from them at lift (per child slot and front slot) and
    them from the front, followed by a zero, at down.  place, column and
    value are the depth's terms (`FrontTree._terms`) and unit the places of
    its identity rows."""

    k: int
    nf: int
    nodes: np.ndarray
    sep: np.ndarray
    kids: np.ndarray = None
    adds: tuple = ()
    lift: np.ndarray = None
    down: np.ndarray = None
    place: np.ndarray = None
    column: np.ndarray = None
    value: np.ndarray = None
    unit: np.ndarray = None


class Fronts(NamedTuple):
    """The matrix G^T H G on a `FrontTree`, for its factor in dtype: H the
    per-cell entries (one component of the symmetric cell matrix for all
    cells, then the next)."""

    tree: FrontTree
    H: np.ndarray
    dtype: np.dtype

    @property
    def nnz(self) -> int:
        """The matrix's stored entries in both triangles."""
        return self.tree.nnz


class FrontTree:
    """The nested-dissection tree of the interior nodes marked in interior
    (over their bounding box, numbered row-major; 1D or 2D), with the map of
    the terms of G^T H G to its fronts.  node, entry and component are G's
    cell table (`pground.inner.Factors._cell_table`): per row, every cell's
    stored entry of G, its node, and the component of H the row belongs to.
    The depths are listed from the root down."""

    def __init__(self, interior: np.ndarray, node: np.ndarray,
                 entry: np.ndarray, component: np.ndarray):
        interior = interior.reshape(interior.shape[0], -1)
        n = self.n = int(np.count_nonzero(interior))
        (sx, jx), (sy, jy) = (_padded(m) for m in interior.shape)
        shape = [(sx + 1) * 2 ** jx - 1, (sy + 1) * 2 ** jy - 1]
        cuts = [jx, jy]
        # positions over the padded box and a frame around it, (x, y) for
        # x, y >= -1 at (x + 1) stride + y + 1, and the interior node at
        # each (n where there is none)
        stride = shape[1] + 2
        index = np.full((shape[0] + 2, stride), n, dtype=np.int32)
        index[1:interior.shape[0] + 1, 1:interior.shape[1] + 1][interior] = \
            np.arange(n, dtype=np.int32)
        # positions holding a node, summed over each rectangle from the
        # frame's corner, to find the boxes that hold none
        held = np.zeros((shape[0] + 3, stride + 1), dtype=np.int32)
        held[1:, 1:] = (index < n).cumsum(0).cumsum(1)
        index = index.ravel()
        # per interior node: its depth, its box there, its slot in the box's
        # front, and the start, less the box's origin, of its depth's table
        # of front slots by position (`_terms`)
        depth = np.empty(n, dtype=np.int8)
        box = np.empty(n, dtype=np.int32)
        slot = np.empty(n, dtype=np.int32)
        start = np.empty(n, dtype=np.int32)
        # the kept boxes' origins, and per box its parent's place among the
        # kept boxes of the depth above and its child slot there
        origin = np.array([stride + 1], dtype=np.int32)
        parent = half = np.zeros(1, dtype=np.intp)
        self.depths, tables, table_size = [], [], 0
        while True:
            wx, wy = shape
            axis = max((a for a in (0, 1) if cuts[a]),
                       key=lambda a: (shape[a], -a), default=None)
            if axis is None:
                sep = np.indices(shape).reshape(2, -1).T
            else:
                sep = np.zeros((shape[1 - axis], 2), dtype=np.int32)
                sep[:, axis] = (shape[axis] - 1) // 2
                sep[:, 1 - axis] = np.arange(shape[1 - axis])
            x, y = np.arange(wx), np.arange(wy)
            ring = np.concatenate([
                np.stack([x, np.full(wx, wy)], 1),                  # top
                np.stack([x, np.full(wx, -1)], 1),                  # bottom
                np.stack([np.full(wy + 1, -1), np.arange(wy + 1)], 1),
                np.stack([np.full(wy + 1, wx), np.arange(-1, wy)], 1)])
            sep, ring = sep @ [stride, 1], ring @ [stride, 1]
            keep = (index[origin[:, None] + ring] < n).any(axis=0)
            offsets = np.concatenate([sep, ring[keep]]).astype(np.int32)
            k, nf = len(sep), len(offsets)
            nodes = index[origin[:, None] + offsets]
            # the front slot of each position from (-1, -1) to (wx, wy) of
            # a box, by its offset from the box's (-1, -1)
            table = np.full((wx + 2) * stride, nf, dtype=np.int32)
            table[offsets + stride + 1] = np.arange(nf)
            boxes, slots = np.nonzero(nodes[:, :k] < n)
            real = nodes[boxes, slots]
            depth[real] = len(self.depths)
            box[real] = boxes
            slot[real] = slots
            start[real] = table_size + stride + 1 - origin[boxes]
            tables.append(table)
            table_size += table.size
            if self.depths:
                self._link(parent, half, nf - k, parent_table[
                    np.array([0, shift])[:, None] + offsets[k:] + stride + 1])
            self.depths.append(_Depth(k, nf, nodes,
                                      np.ascontiguousarray(nodes[:, :k])))
            if axis is None:
                break
            parent_table = table
            shape[axis] = (shape[axis] - 1) // 2
            shift = (shape[axis] + 1) * (stride if axis == 0 else 1)
            cuts[axis] -= 1
            # the halves of the kept boxes that hold a node
            origin = np.stack([origin, origin + shift], 1).ravel()
            corner = np.stack([origin // stride, origin % stride])
            far = corner + np.array(shape)[:, None]
            count = (held[far[0], far[1]] - held[corner[0], far[1]]
                     - held[far[0], corner[1]] + held[corner[0], corner[1]])
            kept = np.flatnonzero(count)
            origin, parent, half = origin[kept], kept // 2, kept % 2
        self._terms(np.concatenate(tables), np.flatnonzero(index < n),
                    depth, box, slot, start, node, entry, component)

    def _link(self, parent: np.ndarray, half: np.ndarray, nb: int,
              up: np.ndarray):
        """Link the last depth to the next, whose boxes have the parents
        parent (places among the last depth's boxes) in the child slots
        half, nb boundary slots each, and per child slot the slot of each
        in its parent's front (up, the parent's nf for none)."""
        dep = self.depths[-1]
        lift = np.full((2, dep.nf), nb)
        for c, u in enumerate(up):
            s = np.flatnonzero(u < dep.nf)
            lift[c, u[s]] = c * (nb + 1) + s
        self.depths[-1] = dep._replace(
            kids=None if len(parent) == 2 * len(dep.nodes) else
            2 * parent + half,
            adds=tuple(_adds(_runs(u, dep.nf, dep.k), dep.k) for u in up),
            lift=lift, down=np.concatenate(
                [up, np.full((2, 1), dep.nf)], axis=1).ravel())

    def _terms(self, table, position, depth, box, slot, start, node, entry,
               component):
        """Each depth's terms: the pairs of each cell's stored G entries a
        and b, entry[a] entry[b] times the cell's component component[a] +
        component[b] of H, each at the place (box, row, column) of a
        (boxes, nf, k) array on or below the diagonal of the front of the
        node o the tree eliminates first, in o's column; the pair (b, a)
        adds the same term at the transposed place, which the lower triangle
        leaves out.  The other node of a pair finds its slot in o's front
        at table[start[o] + its position].  unit holds the places of the
        diagonal of separator slots without a node."""
        rows, ncell = node.shape
        k = np.array([d.k for d in self.depths], dtype=np.int32)[depth]
        first = box * (k * np.array([d.nf for d in self.depths],
                                    dtype=np.int32)[depth])
        position = position.astype(np.int32)
        # per depth, the terms of each pair of entries, in the pairs' order
        parts = [([], [], []) for _ in self.depths]
        for a in range(rows):
            for b in range(a, rows):
                value = entry[a] * entry[b]
                hit = np.flatnonzero(value)
                i, j = node[a, hit], node[b, hit]
                if a == b:
                    o = i
                else:
                    o = np.where(depth[i] >= depth[j], i, j)
                d = depth[o]
                by_depth = np.argsort(d, kind="stable")
                hit, i, j, o = (array[by_depth] for array in (hit, i, j, o))
                value = value[hit]
                if a < b:
                    value[i == j] *= 2  # (a, b) and (b, a) on the diagonal
                # the other node's slot in o's front, o's own on the diagonal
                own = slot[o]
                s = own if a == b else table[start[o] + position[i + j - o]]
                place = (first[o] + np.maximum(s, own) * k[o]
                         + np.minimum(s, own))
                column = ((component[a] + component[b]) * ncell
                          + hit).astype(np.int32)
                edges = np.searchsorted(d[by_depth],
                                        np.arange(len(self.depths) + 1))
                for at, part in enumerate(parts):
                    sel = slice(edges[at], edges[at + 1])
                    for field, array in zip(part, (place, column, value)):
                        field.append(array[sel])
        for at, dep in enumerate(self.depths):
            place, column, value = (np.concatenate(field)
                                    for field in parts[at])
            parts[at] = None
            boxes, missing = np.nonzero(dep.sep == self.n)
            self.depths[at] = dep._replace(
                place=place, column=column, value=value,
                unit=(boxes * dep.nf + missing) * dep.k + missing)

    @functools.cached_property
    def nnz(self) -> int:
        """The stored entries of G^T H G in both triangles: the places its
        terms reach, each off the diagonal standing for two entries."""
        nnz = 0
        for dep in self.depths:
            hits = np.zeros((len(dep.nodes), dep.nf, dep.k), dtype=bool)
            hits.ravel()[dep.place] = True
            diagonal = np.arange(dep.k)
            nnz += 2 * int(np.count_nonzero(hits)) - int(np.count_nonzero(
                hits[:, diagonal, diagonal]))
        return nnz

    def matrix(self, H: np.ndarray, dtype=np.float64) -> Fronts:
        """G^T H G from the per-cell entries H, for a factor in dtype."""
        return Fronts(self, H, np.dtype(dtype))

    def blocks(self, at: int, H: np.ndarray) -> np.ndarray:
        """The (boxes, nf, k) sums of the terms of depth at, in double,
        with the identity rows' ones: the matrix's entries in each front's
        separator columns, on and below the diagonal (zero above it)."""
        dep = self.depths[at]
        size = len(dep.nodes) * dep.nf * dep.k
        A = np.bincount(dep.place, dep.value * H[dep.column], size)
        A[dep.unit] = 1.0
        return A.reshape(-1, dep.nf, dep.k)

    @np.errstate(over="ignore", invalid="ignore")
    def factor(self, M: Fronts):
        """Solve callable for the symmetric M, factored in M.dtype;
        LinAlgError where a separator block is singular in that precision
        or the factor is not finite (a tiny pivot may overflow what follows
        it, which the check of each depth's K catches).  The pivots need
        not be positive, as in an LU factor without pivoting, so a positive
        definite matrix that rounding leaves indefinite still gets a
        factor.  The solve takes and returns vectors of the interior nodes
        in M.dtype.  A front is held as its separator columns [A11; A21]
        and its boundary block A22, lower triangles alone."""
        kept, update = [], None
        for at in reversed(range(len(self.depths))):
            dep = self.depths[at]
            k = dep.k
            A = self.blocks(at, M.H).astype(M.dtype)
            if update is not None:
                A22 = np.zeros((len(A), dep.nf - k, dep.nf - k), M.dtype)
                if dep.kids is not None:  # a missing child's update is 0
                    both = np.zeros((2 * len(A),) + update.shape[1:],
                                    M.dtype)
                    both[dep.kids] = update
                    update = both
                update = update.reshape(len(A), 2, *update.shape[1:])
                for c, adds in enumerate(dep.adds):
                    for rows, cols, flip, bnd, to_rows, to_cols in adds:
                        block = update[:, c, rows, cols]
                        if flip:
                            block = block.transpose(0, 2, 1)
                        (A22 if bnd else A)[:, to_rows, to_cols] += block
            K = np.empty((len(A), dep.nf, k), dtype=M.dtype)
            K[:, :k] = _inverse(A[:, :k])
            A21 = A[:, k:]
            np.matmul(A21, K[:, :k], out=K[:, k:])
            if not np.isfinite(K).all():
                raise LinAlgError("factor not finite")
            product = np.matmul(K[:, k:], A21.transpose(0, 2, 1))
            if update is None:
                update = np.negative(product, out=product)
            else:
                update = np.subtract(A22, product, out=product)
                del A22
            del A, A21
            kept.append(K)
        kept.reverse()
        return self._solver(kept, M.dtype)

    def _solver(self, kept, dtype):
        """The forward and back substitution through each depth's K = [S; W],
        root first: going up, a front's separator values v give S v, and
        W v leaves its boundary; going down, its separator's solution is
        S v - W^T x on its boundary's solution x.  The right-hand side is
        taken into the separators' order once, so that each depth reads and
        writes one stretch of it, and the solution out of it at the end.
        Each depth works in buffers and views made here, once per factor,
        so that a solve costs a few numpy calls per depth."""
        n, depths = self.n, self.depths
        order = np.concatenate([dep.sep.ravel() for dep in depths])
        empty = np.flatnonzero(order == n)  # separator slots without a node
        rhs, sol = np.empty((2, len(order)), dtype=dtype)
        # per depth, root first: the fronts' values (going up, and going
        # down their solution), K times their separators', and the boundary
        # values in the layout of the depth above (`_Depth`), going up and
        # going down (one array where every box there has both children),
        # each followed by a zero
        bufs, end = [], 0
        for dep, above in zip(depths, [None] + depths[:-1]):
            boxes, k, nf = len(dep.sep), dep.k, dep.nf
            at = slice(end, end + boxes * k)
            end = at.stop
            f = np.zeros((boxes, nf + 1), dtype)
            t = np.empty((boxes, nf, 1), dtype)
            rows = 2 * len(above.sep) if above else 1
            b_up = np.zeros((rows, nf - k + 1), dtype)
            # where the depth above misses a child, the boundary values of
            # this depth's own boxes are kept apart from its layout, and the
            # layout's rows of missing children stay zero going up
            full = above is None or above.kids is None
            b_down = b_up if full else np.zeros_like(b_up)
            own = b_up if full else np.zeros((boxes, nf - k + 1), dtype)
            bufs.append((f, t, b_up, b_down, own, rhs[at].reshape(boxes, k),
                         sol[at].reshape(boxes, k)))
        up, down = [], []
        for dep, K, above, child, (f, t, b_up, b_down, own, b_sep, x),\
                parent in zip(depths, kept, [None] + depths[:-1],
                              bufs[1:] + [None], bufs, [None] + bufs[:-1]):
            k, nf = dep.k, dep.nf
            v = f[:, :nf]
            kids = None if above is None else above.kids
            up.append((None if child is None else
                       child[2].reshape(len(v), -1), dep.lift, v, v[:, :k],
                       b_sep, K, v[:, :k, None], t, t.reshape(v.shape),
                       v[:, k:], t[:, k:, 0], own[:, :-1], kids, b_up))
            down.append((None if parent is None else parent[0],
                         None if above is None else above.down,
                         b_down.reshape(len(b_down) // 2 or 1, -1), kids,
                         b_down, own, K[:, k:].transpose(0, 2, 1),
                         own[:, :-1, None], t[:, :k, 0], f[:, :k], f[:, k:],
                         x))
        up.reverse()

        def solve(b):
            # every index is in range; mode="clip" only spares take a
            # buffer for out
            np.take(b.astype(dtype, copy=False), order, out=rhs,
                    mode="clip")
            rhs[empty] = 0
            for (children, lift, v, v_sep, b_sep, K, v_sep3, t, t_flat, v_bnd,
                 t_bnd, leaving, kids, b_up) in up:
                if children is None:  # a leaf, whose f holds the last x
                    np.copyto(v_sep, b_sep)
                    v_bnd.fill(0)
                else:
                    np.take(children, lift[0], axis=1, out=v, mode="clip")
                    np.take(children, lift[1], axis=1, out=t_flat,
                            mode="clip")
                    v += t_flat
                    v_sep += b_sep
                np.matmul(K, v_sep3, out=t)
                np.subtract(v_bnd, t_bnd, out=leaving)
                if kids is not None:
                    b_up[kids, :-1] = leaving
            for (front, down_at, laid, kids, b_down, xb, WT, xb3, t_sep,
                 x_sep, x_bnd, x) in down:
                if front is not None:
                    np.take(front, down_at, axis=1, out=laid, mode="clip")
                    if kids is not None:
                        np.take(b_down, kids, axis=0, out=xb, mode="clip")
                np.subtract(t_sep, np.matmul(WT, xb3)[..., 0], out=x_sep)
                np.copyto(x_bnd, xb)
                np.copyto(x, x_sep)
            out = np.empty(n + 1, dtype=dtype)
            out[order] = sol
            return out[:n]
        return solve


def _runs(up: np.ndarray, nf: int, k: int) -> tuple:
    """The runs of a child's boundary slots that up maps to consecutive
    slots of its parent's front of nf slots (nf for none), split at the
    parent's k separator slots: (child slot, front slot, length)."""
    s = np.flatnonzero(up < nf)
    t = up[s]
    cut = np.flatnonzero((np.diff(s) != 1) | (np.diff(t) != 1)
                         | (t[1:] == k)) + 1
    return tuple((int(s[a]), int(t[a]), int(b - a)) for a, b in
                 zip(np.r_[0, cut], np.r_[cut, len(s)]))


def _adds(runs: tuple, k: int) -> tuple:
    """The slice-adds that carry the lower triangle of a child's update to
    its parent's front, whose separator has k slots: per pair of runs, the
    first at or after the second, (child rows, child columns, transposed,
    into A22, front rows, front columns).  A block that lands above the
    front's diagonal is added transposed, and one in the boundary's columns
    goes to A22, whose slots start at k."""
    adds = []
    for r, (s0, t0, n0) in enumerate(runs):
        for s1, t1, n1 in runs[:r + 1]:
            flip = t0 < t1
            (i, m), (j, mj) = ((t1, n1), (t0, n0)) if flip else \
                ((t0, n0), (t1, n1))
            shift = k if j >= k else 0
            adds.append((slice(s0, s0 + n0), slice(s1, s1 + n1), flip,
                         j >= k, slice(i - shift, i - shift + m),
                         slice(j - shift, j - shift + mj)))
    return tuple(adds)


def _inverse(A: np.ndarray) -> np.ndarray:
    """The inverse of each stacked symmetric matrix of A, read from its
    lower triangle; LinAlgError where one is singular in this order of
    elimination.  A block need not be positive definite: the factor is a
    block LDL^T one.  Blocks up to SWEEP_MAX wide are inverted over the
    whole stack by the symmetric sweep (Gauss-Jordan elimination without
    pivoting, each pivot checked before its division), on a copy with the
    stack as its last axis, so that each step's element-wise products run
    over the stack; wider ones one by one by LAPACK's symmetric indefinite
    factor with Bunch-Kaufman pivoting and its inverse, sytrf and sytri."""
    k = A.shape[-1]
    low = np.tril(A)
    if k > SWEEP_MAX:
        sytrf, sytri = lapack.get_lapack_funcs(("sytrf", "sytri"), (A,))
        for M in low:
            L, ipiv, info = sytrf(M, lower=True, overwrite_a=True)
            if info == 0:
                M[...], info = sytri(L, ipiv, lower=True, overwrite_a=True)
            if info != 0:
                raise LinAlgError("separator block singular")
        low = np.tril(low)
        return low + np.tril(low, -1).transpose(0, 2, 1)
    M = np.ascontiguousarray(
        (low + np.tril(low, -1).transpose(0, 2, 1)).transpose(1, 2, 0))
    for j in range(k):
        pivot = M[j, j].copy()
        if not np.all(np.isfinite(pivot) & (pivot != 0)):
            raise LinAlgError("separator block singular")
        col = M[:, j] / pivot
        M -= col[:, None] * M[None, j]
        M[:, j] = M[j, :] = -col
        M[j, j] = -1 / pivot
    return np.negative(M, out=M).transpose(2, 0, 1)
