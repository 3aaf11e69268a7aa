"""Multifrontal factor of the cell Hessian G^T H G of a grid (Duff & Reid, ACM
TOMS 1983) on a nested-dissection tree of the bounding box of its interior
nodes (George, SIAM J. Numer. Anal. 1973), batched by depth.

The box is padded per axis to the next side (s+1) 2^j - 1 with
1 <= s <= LEAF_SIDE, so that a middle cut of a box's longer cuttable side
halves it exactly (and couples nothing across it in the 7-point pattern) and
every box at one depth has one shape: a depth's fronts stack into one array,
and a child's update reaches its parent's front by the same slice-adds in every
box.  A box's front lists its separator's nodes (a leaf's: all), then the row
below, the column right with the bottom-right corner, the column left with the
top-left corner and the row above: the order that cuts a child's boundary into
the fewest runs.  Boxes and boundary slots with no interior node at a depth are
left out, and padding and off-mask nodes in a kept separator are identity rows.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, lapack

LEAF_SIDE = 4    # widest side of a leaf box
# widest separator block inverted over the whole stack, which beat LAPACK
# per block at width 15 and not at 31 on the square n=256 tree's blocks
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
    """The boxes of one depth that hold an interior node, k separator and nf
    front slots each.  nodes holds the interior node at each front slot (n
    where none), sep its first k columns.  kids places the next depth's
    boxes among two per box (None where every box has both), and adds lists,
    per child slot, the slice-adds of their updates (`_adds`).  A solve lays
    the next depth's boundary values out two per box, each followed by a
    zero, and gathers them to a front at lift and from it at down.  The
    depth's entries are the rows entries of `FrontTree._map`, at the places
    place of a (boxes, nf, k) array; unit places the identity rows' ones."""

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
    """The nested-dissection tree of the nodes marked in interior (over
    their bounding box, row-major; 1D or 2D), with the map of a matrix's
    terms to its fronts, depths from the root down.  terms is (i, j, column,
    value): each adds value H[column], for an H of length width, to the
    entry [i, j] of nodes i <= j (and [j, i]), held in the front of the node
    eliminated first at a place the same in every box of a depth."""

    def __init__(self, interior: np.ndarray, terms: tuple, width: int):
        interior = interior.reshape(interior.shape[0], -1)
        n = self.n = int(np.count_nonzero(interior))
        (sx, jx), (sy, jy) = (_padded(m) for m in interior.shape)
        shape = [(sx + 1) * 2 ** jx - 1, (sy + 1) * 2 ** jy - 1]
        cuts = [jx, jy]
        # the interior node (n for none) at each position over the padded
        # box and a frame around it, (x, y) at (x + 1) stride + y + 1
        stride = shape[1] + 2
        index = np.full((shape[0] + 2, stride), n, dtype=np.int32)
        index[1:interior.shape[0] + 1, 1:interior.shape[1] + 1][interior] = \
            np.arange(n, dtype=np.int32)
        # positions holding a node, summed over each rectangle from the
        # frame's corner, to find the boxes that hold none
        held_at = np.zeros((shape[0] + 3, stride + 1), dtype=np.int32)
        held_at[1:, 1:] = (index < n).cumsum(0).cumsum(1)
        index = index.ravel()
        # an entry couples a node to itself or to a later neighbour, at an
        # offset step[near] in position; the one from position first is
        # numbered first * len(step) + near, coupled marking those reached
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
        parent in the child slots half, nb boundary slots each, and per
        child slot the slot of each in its parent's front (up, the parent's
        nf for none)."""
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
        """The matrix at the vector H its terms weigh, factored in dtype."""
        return Fronts(self, H, np.dtype(dtype))

    def factor(self, M: Fronts):
        """Solve callable for the symmetric M, factored in M.dtype;
        LinAlgError where a separator block is singular in that precision or
        the factor is not finite.  No pivot need be positive, so a positive
        definite matrix that rounding leaves indefinite still gets a factor.
        The solve maps double to double, casting the right-hand side at
        sup-norm 1 in single precision.  The arrays come from the tree's
        `_Work` for the dtype, which goes back when the factor fails or its
        solve is dropped, so the next factor reuses its memory."""
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
        """`factor`, in the arrays of work, per depth from the leaves: fill
        each front's separator columns [A11; A21] (lower triangle) from the
        map and the children's updates, keep K = [A11^-1; -W] with
        W = A21 A11^-1, and pass up A22 - W A21^T as -W A21^T, made in the
        buffer the children's updates did not come in, plus their blocks of
        A22, which no two children share, so the sums are those of
        A22 - W A21^T to the bit."""
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
        """The substitution through each depth's K = [S; -W], the block
        LDL^T factor with D = diag(A11, ...): going up, a front's separator
        values v give S v, and W v leaves for its boundary; going down, its
        separator's solution is S v - W^T x on its boundary's solution x.
        The right-hand side is taken into the separators' order once, so
        each depth reads one stretch of it, and buffers and views are made
        once per factor, so a solve costs a few numpy calls per depth."""
        n, depths, dtype = self.n, self.depths, work.dtype
        order = np.concatenate([dep.sep.ravel() for dep in depths])
        empty = np.flatnonzero(order == n)  # separator slots without a node
        # the place of each node in order
        back = np.empty(n + 1, dtype=np.intp)
        back[order] = np.arange(len(order))
        back = back[:n]
        rhs, sol = work.kept((2, len(order)))
        cast, x32 = work.kept((2, n)) if dtype == np.float32 else (None,) * 2
        # per depth, root first: the fronts' values (up; down, their
        # solution), K v, W^T x, and the boundary values in the layout of
        # the depth above (`_Depth`), up and down, each followed by a zero
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
    """The arrays of a tree's factor in one dtype, made by its first factor:
    those its solve keeps, in the order the factor asks for them, and its
    temporaries, each a buffer grown to the largest size asked for."""

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
    """A, of shape (boxes, nf, k), set to dep's fronts from the entries
    values (`FrontTree._map`) at their places, with the identity rows' ones."""
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
    front rows, front columns), a block above the front's diagonal
    transposed; those in the separator's columns first, then the boundary's,
    counted from k."""
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
    lower triangle; LinAlgError where one is singular in this elimination
    order.  Blocks up to SWEEP_MAX wide are inverted over the whole stack by
    the symmetric sweep (Gauss-Jordan elimination without pivoting, each
    pivot checked), the stack as the last axis, in work's buffer buffer;
    wider ones one by one by LAPACK's symmetric indefinite sytrf and sytri."""
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
