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
row below it, the column right of it with the bottom-right corner, the
column left of it with the top-left corner, and the row above it.  A
child's boundary is then a few runs of its parent's front, the same for
every box at a depth, so a child's update reaches its parent by slice-adds;
the two children of a box share no slot of its boundary.  Of the orders of
the four sides, this one cuts a child's boundary into the fewest runs
(three a child on the square n=256).  A box that holds no interior node
(in the padding, or off a mask) is left out of its depth with all it
holds, and a boundary slot that holds no interior node in any box of its
depth (the frame around the padded box, say) is left out of that depth's
fronts.  Padding nodes and nodes off a mask's interior that fall in the
separator of a box that is kept are decoupled identity rows.

The matrix comes as a list of terms, each a value times one element of a
vector H, added to the entry [i, j] of two nodes i <= j; the caller makes
the list (`pground.inner.Factors._terms`, for G^T H G), and the tree reads
no more of it.  An entry couples a node to itself or to a neighbour, and is
held in the front of the one of the two the tree eliminates first.  Its
place there is the same in every box of a depth, so the map is built per
box shape: each depth's pattern of entries, repeated at each box's
origin, keeps the entries the terms reach.  One sparse matrix takes H to
the entries' values, summing each entry's terms in the order listed
(`FrontTree._map`), and a factor scatters each depth's into its fronts.

Per depth, leaves first, the factor fills each front's separator columns
[A11; A21] from the map and its children's updates, inverts A11 (S =
A11^-1; a symmetric sweep over the whole stack for small blocks, LAPACK's
symmetric indefinite sytrf and sytri per front for large ones, either
failing on a singular block), forms W = A21 S and passes the update
A22 - W A21^T up, made as the product of -W with A21^T to which the
children's blocks of A22 are added.  It keeps K = [S; -W] per front, so a
solve walks the depths up and back down with one stacked matrix-vector
product each way: this is the block LDL^T factor with D = diag(A11, ...).
A factor works in arrays that the tree's next factor in the same dtype
reuses once its solve is dropped (`_Work`).
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, lapack

LEAF_SIDE = 4    # widest side of a leaf box
# widest separator block inverted over the whole stack: on random blocks of
# the widths and counts of the square n=256 tree (float32, one thread) the
# sweep took 0.7 ms on 128-256 blocks of 15 where LAPACK per block took
# 1.4-1.6 ms, and 1.1-1.8 ms on 32-64 blocks of 31 where LAPACK took
# 0.5-1.9 ms
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
    child slot, the slice-adds of the children's updates into the fronts'
    separator columns and into the update (`_adds`).  A solve lays the next
    depth's boundary values out in these two places per box, each child's
    followed by a zero, and gathers a front's values from them at lift
    (per child slot and front slot) and them from the front, followed by a
    zero, at down.  The depth's entries of the matrix are the rows entries
    of `FrontTree._map`, at the places place of a (boxes, nf, k) array, on
    or below the diagonal; unit holds the places of its identity rows'
    ones."""

    k: int
    nf: int
    nodes: np.ndarray
    sep: np.ndarray
    kids: np.ndarray = None
    adds: tuple = ()
    lift: np.ndarray = None
    down: np.ndarray = None
    entries: slice = None
    place: np.ndarray = None
    unit: np.ndarray = None


class Fronts(NamedTuple):
    """The matrix of a `FrontTree` at the vector H that its terms weigh,
    for its factor in dtype."""

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
    a matrix's terms to its fronts.  terms is (i, j, column, value): each
    term adds value H[column], for a vector H of length width, to the
    matrix entry [i, j] of the nodes i <= j, and one with i < j stands for
    [j, i] as well.  The depths are listed from the root down."""

    def __init__(self, interior: np.ndarray, terms: tuple, width: int):
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
        held_at = np.zeros((shape[0] + 3, stride + 1), dtype=np.int32)
        held_at[1:, 1:] = (index < n).cumsum(0).cumsum(1)
        index = index.ravel()
        # an entry of the matrix couples a node to itself or to a neighbour
        # later in the node order, at one of the offsets step in position;
        # the entry from position first at step[near] is numbered
        # first * len(step) + near, and coupled marks those the terms reach
        step = np.array([0, 1, stride - 1, stride, stride + 1])
        near = np.zeros(step[-1] + 1, dtype=np.int32)
        near[step] = np.arange(len(step))
        position = np.flatnonzero(index < n).astype(np.int32)  # per node
        i, j, columns, values = terms
        pairs = position[i] * len(step) + near[position[j] - position[i]]
        coupled = np.zeros(len(index) * len(step), dtype=bool)
        coupled[pairs] = True
        # a node's neighbours, at offsets around in position, and the
        # number of its entry with each, less len(step) times its position
        around = np.concatenate([step, -step[1:]])
        number = np.minimum(around, 0) * len(step) + \
            np.r_[0:len(step), 1:len(step)]
        # the kept boxes' origins, and per box its parent's place among the
        # kept boxes of the depth above and its child slot there
        origin = np.array([stride + 1], dtype=np.int32)
        parent = half = np.zeros(1, dtype=np.intp)
        self.depths, pairs_of = [], []
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
                np.stack([x, np.full(wx, -1)], 1),                  # bottom
                np.stack([np.full(wy + 1, wx), np.arange(-1, wy)], 1),
                np.stack([np.full(wy + 1, -1), np.arange(wy + 1)], 1),
                np.stack([x, np.full(wx, wy)], 1)])                 # top
            sep, ring = sep @ [stride, 1], ring @ [stride, 1]
            keep = (index[origin[:, None] + ring] < n).any(axis=0)
            offsets = np.concatenate([sep, ring[keep]]).astype(np.int32)
            k, nf = len(sep), len(offsets)
            nodes = index[origin[:, None] + offsets]
            # the front slot of each position from (-1, -1) to (wx, wy) of
            # a box, by its offset from the box's (-1, -1)
            table = np.full((wx + 2) * stride, nf, dtype=np.int32)
            table[offsets + stride + 1] = np.arange(nf)
            # the entries of a box's front: each separator node's with the
            # nodes of the front around it, one within the separator once,
            # kept in the boxes where the terms couple them
            other = table[sep[:, None] + around + stride + 1]
            mine = np.arange(k)[:, None]
            held = (other < nf) & ((other >= k) | (around >= 0))
            other, mine = np.broadcast_arrays(other, mine)
            pair = (origin[:, None] * len(step)
                    + (sep[:, None] * len(step) + number)[held]).ravel()
            place = (np.arange(len(origin))[:, None] * (nf * k)
                     + (np.maximum(other, mine) * k
                        + np.minimum(other, mine))[held]).ravel()
            real = coupled[pair]
            pairs_of.append(pair[real])
            if self.depths:
                self._link(parent, half, nf - k, parent_table[
                    np.array([0, shift])[:, None] + offsets[k:] + stride + 1])
            empty, missing = np.nonzero(nodes[:, :k] == n)
            self.depths.append(_Depth(
                k, nf, nodes, np.ascontiguousarray(nodes[:, :k]),
                place=place[real].astype(np.int32),
                unit=((empty * nf + missing) * k + missing).astype(np.int32)))
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
            count = (held_at[far[0], far[1]] - held_at[corner[0], far[1]]
                     - held_at[far[0], corner[1]]
                     + held_at[corner[0], corner[1]])
            kept = np.flatnonzero(count)
            origin, parent, half = origin[kept], kept // 2, kept % 2
        # the rows of the map, depth by depth, root first
        row = np.empty(len(coupled), dtype=np.int32)
        end = 0
        for at, (dep, pair) in enumerate(zip(self.depths, pairs_of)):
            self.depths[at] = dep._replace(
                entries=slice(end, end + len(pair)))
            row[pair] = np.arange(end, end + len(pair))
            end += len(pair)
        np.take(row, pairs, out=pairs)
        self._map = sparse.coo_matrix((values, (pairs, columns)),
                                      shape=(end, width))
        self.nnz = 2 * end - int(np.count_nonzero(coupled[::len(step)]))
        self._pool = {}

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

    def matrix(self, H: np.ndarray, dtype=np.float64) -> Fronts:
        """The matrix at the vector H its terms weigh, for a factor in
        dtype."""
        return Fronts(self, H, np.dtype(dtype))

    def factor(self, M: Fronts):
        """Solve callable for the symmetric M, factored in M.dtype;
        LinAlgError where a separator block is singular in that precision
        or the factor is not finite (a tiny pivot may overflow what follows
        it, which the check of each depth's K catches).  The pivots need
        not be positive, as in an LU factor without pivoting, so a positive
        definite matrix that rounding leaves indefinite still gets a
        factor.  The solve takes and returns vectors of the interior nodes
        in double.  In single precision it casts the right-hand side at
        sup-norm 1, which neither overflows nor flushes to zero, and scales
        the solution back.

        A factor's arrays come from the tree's `_Work` in its dtype, which
        goes back to the tree when the factor fails, and when its solve is
        dropped once it succeeds: the next factor then writes into the
        same memory, with no page of it new to the process."""
        work = self._pool.pop(M.dtype, None) or _Work(M.dtype)
        try:
            solve = self._factor(M, work)
        except LinAlgError:
            self._pool[M.dtype] = work
            raise
        weakref.finalize(solve, self._pool.__setitem__, M.dtype, work)
        return solve

    @np.errstate(over="ignore", invalid="ignore")
    def _factor(self, M: Fronts, work: _Work):
        """`factor`, in the arrays of work.  A front is held as its
        separator columns [A11; A21], lower triangle alone.  A depth's
        update A22 - W A21^T is made in the one of two buffers that its
        children's updates did not come in: the product of the kept -W with
        A21^T, onto which the children's blocks of A22 are added.  No slot
        of a front's boundary is in both its children's, so each entry gets
        one child's block at most, and the sums are those of A22 - W A21^T
        to the bit."""
        work.used = 0
        values = self._map @ M.H
        kept, update = [], None
        for at in reversed(range(len(self.depths))):
            dep = self.depths[at]
            k, nf, boxes = dep.k, dep.nf, len(dep.nodes)
            A = _fill(work.scratch("front", (boxes, nf, k)), dep, values)
            if update is not None:
                if dep.kids is not None:  # a missing child's update is 0
                    both = work.scratch("children",
                                        (2 * boxes,) + update.shape[1:])
                    both.fill(0)
                    both[dep.kids] = update
                    update = both
                update = update.reshape(boxes, 2, *update.shape[1:])
                for c, (into_front, _) in enumerate(dep.adds):
                    _extend(A, update[:, c], into_front)
            buffer = f"update{at % 2}"
            K = work.kept((boxes, nf, k))
            K[:, :k] = _inverse(A[:, :k], work, buffer)
            A21, W = A[:, k:], K[:, k:]
            np.matmul(A21, K[:, :k], out=W)
            np.negative(W, out=W)
            # a NaN makes both extremes NaN
            if not (np.isfinite(K.max()) and np.isfinite(K.min())):
                raise LinAlgError("factor not finite")
            product = work.scratch(buffer, (boxes, nf - k, nf - k))
            np.matmul(W, A21.transpose(0, 2, 1), out=product)
            if update is not None:
                for c, (_, into_update) in enumerate(dep.adds):
                    _extend(product, update[:, c], into_update)
            update = product
            kept.append(K)
        kept.reverse()
        return self._solver(kept, work)

    def _solver(self, kept, work):
        """The forward and back substitution through each depth's K =
        [S; -W], root first: going up, a front's separator values v give
        S v, and W v leaves its boundary; going down, its separator's
        solution is S v - W^T x on its boundary's solution x.  The
        right-hand side is taken into the separators' order once, so that
        each depth reads and writes one stretch of it, and the solution out
        of it at the end.
        Each depth works in buffers and views made here, once per factor,
        so that a solve costs a few numpy calls per depth and makes no
        array but the solution it returns."""
        n, depths, dtype = self.n, self.depths, work.dtype
        order = np.concatenate([dep.sep.ravel() for dep in depths])
        empty = np.flatnonzero(order == n)  # separator slots without a node
        # the place of each node in order
        back = np.empty(n + 1, dtype=np.intp)
        back[order] = np.arange(len(order))
        back = back[:n]
        rhs, sol = work.kept((2, len(order)))
        cast, x32 = work.kept((2, n)) if dtype == np.float32 else (None,) * 2
        # per depth, root first: the fronts' values (going up, and going
        # down their solution), K times their separators', W^T times their
        # boundary's solution, and the boundary values in the layout of the
        # depth above (`_Depth`), going up and going down (one array where
        # every box there has both children), each followed by a zero
        bufs, end = [], 0
        for dep, above in zip(depths, [None] + depths[:-1]):
            boxes, k, nf = len(dep.sep), dep.k, dep.nf
            at = slice(end, end + boxes * k)
            end = at.stop
            f = work.kept((boxes, nf + 1))
            f.fill(0)
            t = work.kept((boxes, nf, 1))
            s = work.kept((boxes, k, 1))
            rows = 2 * len(above.sep) if above else 1
            b_up = work.kept((rows, nf - k + 1))
            b_up.fill(0)
            # where the depth above misses a child, the boundary values of
            # this depth's own boxes are kept apart from its layout, and the
            # layout's rows of missing children stay zero going up
            full = above is None or above.kids is None
            b_down = b_up if full else work.kept(b_up.shape)
            own = b_up if full else work.kept((boxes, nf - k + 1))
            own.fill(0)
            bufs.append((f, t, s, b_up, b_down, own,
                         rhs[at].reshape(boxes, k), sol[at].reshape(boxes, k)))
        up, down = [], []
        for dep, K, above, child, (f, t, s, b_up, b_down, own, b_sep, x),\
                parent in zip(depths, kept, [None] + depths[:-1],
                              bufs[1:] + [None], bufs, [None] + bufs[:-1]):
            k, nf = dep.k, dep.nf
            v = f[:, :nf]
            kids = None if above is None else above.kids
            up.append((None if child is None else
                       child[3].reshape(len(v), -1), dep.lift, v, v[:, :k],
                       b_sep, K, v[:, :k, None], b_sep[..., None], t,
                       t.reshape(v.shape), v[:, k:], t[:, k:, 0],
                       own[:, :-1], kids, b_up))
            down.append((None if parent is None else parent[0],
                         None if above is None else above.down,
                         b_down.reshape(len(b_down) // 2 or 1, -1), kids,
                         b_down, own, K[:, k:].transpose(0, 2, 1),
                         own[:, :-1, None], s, t[:, :k, 0], s[..., 0],
                         f[:, :k], f[:, k:nf], x, child is None))
        up.reverse()

        def solve(b):
            if cast is None:
                # every index is in range; mode="clip" only spares take a
                # buffer for out
                np.take(b.astype(dtype, copy=False), order, out=rhs,
                        mode="clip")
            else:
                scale = max(float(b.max(initial=0.0)),
                            -float(b.min(initial=0.0))) or 1.0
                np.divide(b, scale, out=cast)
                np.take(cast, order, out=rhs, mode="clip")
            rhs[empty] = 0
            for (children, lift, v, v_sep, b_sep, K, v_sep3, b_sep3, t,
                 t_flat, v_bnd, t_bnd, leaving, kids, b_up) in up:
                if children is None:  # a leaf: its boundary values are 0
                    np.matmul(K, b_sep3, out=t)
                    np.copyto(leaving, t_bnd)
                else:
                    np.take(children, lift[0], axis=1, out=v, mode="clip")
                    np.take(children, lift[1], axis=1, out=t_flat,
                            mode="clip")
                    v += t_flat
                    v_sep += b_sep
                    np.matmul(K, v_sep3, out=t)
                    np.add(v_bnd, t_bnd, out=leaving)
                if kids is not None:
                    b_up[kids, :-1] = leaving
            for (front, down_at, laid, kids, b_down, xb, WT, xb3, s, t_sep,
                 s_flat, x_sep, x_bnd, x, leaf) in down:
                if front is not None:
                    np.take(front, down_at, axis=1, out=laid, mode="clip")
                    if kids is not None:
                        np.take(b_down, kids, axis=0, out=xb, mode="clip")
                np.matmul(WT, xb3, out=s)
                if leaf:  # no child gathers a leaf's front
                    np.add(t_sep, s_flat, out=x)
                    continue
                np.add(t_sep, s_flat, out=x_sep)
                np.copyto(x_bnd, xb[:, :-1])
                np.copyto(x, x_sep)
            if cast is None:
                return np.take(sol, back)
            np.take(sol, back, out=x32)
            return np.multiply(x32, scale, dtype=np.float64)
        return solve


class _Work:
    """The arrays of a tree's factor in one dtype, made by the first factor
    in it: those its solve keeps, listed in the order the factor asks for
    them, and its temporaries, each one buffer grown to the largest size
    asked for."""

    def __init__(self, dtype: np.dtype):
        self.dtype = dtype
        self.arrays, self.used, self.buffers = [], 0, {}

    def kept(self, shape: tuple) -> np.ndarray:
        """The next array the solve keeps; the factor asks for the same
        shapes in the same order each time."""
        if self.used == len(self.arrays):
            self.arrays.append(np.empty(shape, self.dtype))
        self.used += 1
        return self.arrays[self.used - 1]

    def scratch(self, name: str, shape: tuple) -> np.ndarray:
        """The temporary name, of shape shape."""
        size = math.prod(shape)
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self.buffers[name] = np.empty(size, self.dtype)
        return buffer[:size].reshape(shape)


def _fill(A: np.ndarray, dep: _Depth, values: np.ndarray) -> np.ndarray:
    """A, of shape (boxes, nf, k), set to the fronts of dep from the
    matrix's entries values (`FrontTree._map`): each at its place, the
    identity rows' ones, zero elsewhere."""
    A.fill(0)
    flat = A.reshape(-1)
    flat[dep.place] = values[dep.entries]
    flat[dep.unit] = 1
    return A


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
    front rows, front columns).  A block that lands above the front's
    diagonal is added transposed.  The blocks in the separator's columns
    are listed first, then those in the boundary's, whose slots are
    counted from k (`FrontTree._factor`)."""
    adds = ([], [])
    for r, (s0, t0, n0) in enumerate(runs):
        for s1, t1, n1 in runs[:r + 1]:
            flip = t0 < t1
            (i, m), (j, mj) = ((t1, n1), (t0, n0)) if flip else \
                ((t0, n0), (t1, n1))
            shift = k if j >= k else 0
            adds[j >= k].append((
                slice(s0, s0 + n0), slice(s1, s1 + n1), flip,
                slice(i - shift, i - shift + m),
                slice(j - shift, j - shift + mj)))
    return tuple(map(tuple, adds))


def _extend(A: np.ndarray, child: np.ndarray, adds: tuple):
    """Add the blocks adds (`_adds`) of the stacked child updates child to
    the stacked fronts A."""
    for rows, cols, flip, to_rows, to_cols in adds:
        block = child[:, rows, cols]
        A[:, to_rows, to_cols] += block.transpose(0, 2, 1) if flip else block


def _inverse(A: np.ndarray, work: _Work, buffer: str) -> np.ndarray:
    """The inverse of each stacked symmetric matrix of A, read from its
    lower triangle; LinAlgError where one is singular in this order of
    elimination.  A block need not be positive definite: the factor is a
    block LDL^T one.  Blocks up to SWEEP_MAX wide are inverted over the
    whole stack by the symmetric sweep (Gauss-Jordan elimination without
    pivoting, each pivot checked before its division), with the stack as
    the last axis, so that each step's element-wise products run over the
    stack, in work's buffer buffer; wider ones one by one by LAPACK's
    symmetric indefinite factor with Bunch-Kaufman pivoting and its
    inverse, sytrf and sytri."""
    k = A.shape[-1]
    if k > SWEEP_MAX:
        low = np.tril(A)
        sytrf, sytri = lapack.get_lapack_funcs(("sytrf", "sytri"), (A,))
        for M in low:
            L, ipiv, info = sytrf(M, lower=True, overwrite_a=True)
            if info == 0:
                M[...], info = sytri(L, ipiv, lower=True, overwrite_a=True)
            if info != 0:
                raise LinAlgError("separator block singular")
        low = np.tril(low)
        return low + np.tril(low, -1).transpose(0, 2, 1)
    M, step = work.scratch(buffer, (2, k, k, len(A)))
    np.copyto(M, A.transpose(1, 2, 0))
    for j in range(k - 1):  # the upper triangle from the lower
        M[j, j + 1:] = M[j + 1:, j]
    col = work.scratch("column", (k, len(A)))
    for j in range(k):
        pivot = M[j, j].copy()
        if not np.all(np.isfinite(pivot) & (pivot != 0)):
            raise LinAlgError("separator block singular")
        np.divide(M[:, j], pivot, out=col)
        np.multiply(col[:, None], M[None, j], out=step)
        M -= step
        np.negative(col, out=M[:, j])
        np.negative(col, out=M[j, :])
        M[j, j] = -1 / pivot
    return np.negative(M, out=M).transpose(2, 0, 1)
