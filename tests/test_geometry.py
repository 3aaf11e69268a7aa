import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy import ndimage, sparse

from pground.geometry import (DomainError, Interval, MaskDomain, Rectangle,
                              _gradient_operators, build_grid, inradius,
                              read_mask_file)
from pground.iteration import PositiveConstant, inverse_iterate

from conftest import L_MASK_TEXT


class TestBuildGrid:
    def test_interval_nodes(self):
        g = build_grid(Interval(0.0, 1.0), 3)
        assert g.h == pytest.approx(0.25)
        x = g.node_coords()
        assert np.allclose(x[g.interior], [0.25, 0.5, 0.75])
        assert np.allclose(x[g.boundary], [0.0, 1.0])

    def test_square_counts(self):
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 4)
        assert g.shape == (5, 5)
        assert g.num_interior == 9
        assert int(g.boundary.sum()) == 16

    def test_mask_matches_rectangle(self):
        cells = np.ones((2, 1), dtype=bool)
        mask = MaskDomain(width=2, height=1, cells=cells, cell_size=1.0)
        gm = build_grid(mask, 4)
        gr = build_grid(Rectangle(0.0, 2.0, 0.0, 1.0), 4)
        assert gm.h == pytest.approx(gr.h)
        assert gm.shape == gr.shape
        assert np.array_equal(gm.interior, gr.interior)
        assert np.array_equal(gm.boundary, gr.boundary)

    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape"])
    def test_masks_read_only(self, kind, l_mask):
        # a grid may serve many callers, so no caller may write its masks
        spec = {"interval": Interval(0.0, 1.0),
                "square": Rectangle(0.0, 1.0, 0.0, 1.0),
                "l_shape": l_mask}[kind]
        g = build_grid(spec, 8)
        for mask in (g.interior, g.boundary, g.cell_mask):
            with pytest.raises(ValueError):
                mask[(0,) * g.dim] = True

    def test_mask_domain_keeps_its_own_cells(self):
        # the mask keys the shared grids, so a write to the caller's array
        # must change neither its cells nor its hash
        cells = np.array([[True, True], [True, False]])
        mask = MaskDomain(2, 2, cells, 0.5)
        key = hash(mask)
        cells[1, 1] = True
        assert not mask.cells[1, 1]
        assert hash(mask) == key
        assert mask == MaskDomain(2, 2, np.array([[True, True],
                                                  [True, False]]), 0.5)
        with pytest.raises(ValueError):
            mask.cells[1, 1] = True

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            build_grid(Interval(0.0, 1.0), 2)

    def test_rejects_mask_without_interior_node(self):
        # a lone cell with one subdivision at n=3 has four boundary nodes
        # and no interior one: a solve on it ended on a degenerate iterate,
        # and Factors.of on a bare zero-size reduction
        cells = np.zeros((3, 3), bool)
        cells[1, 1] = True
        spec = MaskDomain(3, 3, cells, 1.0)
        with pytest.raises(DomainError, match="n=3 has no interior node"):
            build_grid(spec, 3)
        with pytest.raises(DomainError, match="n=3 has no interior node"):
            inverse_iterate(spec, 3, 3.0, PositiveConstant())
        assert build_grid(spec, 6).num_interior == 1

    def test_rejects_disconnected_mask(self):
        cells = np.array([[True, False], [False, True]])
        with pytest.raises(DomainError):
            MaskDomain(width=2, height=2, cells=cells, cell_size=1.0)

    def test_rejects_empty_mask(self):
        with pytest.raises(DomainError):
            MaskDomain(width=2, height=2, cells=np.zeros((2, 2), bool),
                       cell_size=1.0)

    @pytest.mark.parametrize("bounds", [
        (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_rejects_non_finite_interval(self, bounds):
        with pytest.raises(DomainError):
            Interval(*bounds)

    @pytest.mark.parametrize("bounds", [
        (0.0, math.inf, 0.0, 1.0), (0.0, 1.0, -math.inf, 1.0),
        (0.0, 1.0, 0.0, math.nan), (math.nan, 1.0, 0.0, 1.0)])
    def test_rejects_non_finite_rectangle(self, bounds):
        with pytest.raises(DomainError):
            Rectangle(*bounds)

    @pytest.mark.parametrize("size", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_cell_size(self, size):
        with pytest.raises(DomainError, match="cell_size"):
            MaskDomain(width=2, height=2, cells=np.ones((2, 2), bool),
                       cell_size=size)

    def test_node_partition(self, square_grid):
        # every node is interior, boundary, or (for masks) outside
        both = square_grid.interior & square_grid.boundary
        assert not both.any()
        assert (square_grid.interior | square_grid.boundary).all()

    def test_interior_neighbors_present(self, l_mask):
        g = build_grid(l_mask, 16)
        present = g.interior | g.boundary
        ii, jj = np.nonzero(g.interior)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert present[ii + di, jj + dj].all()


class TestConnectivity:
    """MaskDomain accepts exactly the masks that scipy.ndimage.label, with
    its default 4-neighbour cross, counts as one component."""

    @staticmethod
    def _accepted(cells):
        try:
            MaskDomain(*cells.shape, cells, 1.0)
        except DomainError:
            return False
        return True

    @staticmethod
    def _one_component(cells):
        return ndimage.label(cells)[1] == 1

    def test_random_masks(self):
        rng = np.random.default_rng(89)
        verdicts = set()
        for _ in range(500):
            cells = rng.random(rng.integers(1, 9, 2)) < rng.uniform(0.3, 0.95)
            verdict = self._accepted(cells)
            assert verdict == self._one_component(cells), cells
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_hypothesis_masks(self, data):
        w, h = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        flat = data.draw(st.lists(st.booleans(), min_size=w * h,
                                  max_size=w * h))
        cells = np.array(flat, dtype=bool).reshape(w, h)
        assert self._accepted(cells) == self._one_component(cells)

    def test_diagonal_contact_rejected(self):
        # a staircase whose cells touch only at corners: three components
        cells = np.eye(3, dtype=bool)
        assert ndimage.label(cells)[1] == 3
        with pytest.raises(DomainError, match="3 components"):
            MaskDomain(3, 3, cells, 1.0)

    def test_ring_with_hole_accepted(self):
        cells = np.ones((4, 3), dtype=bool)
        cells[1:3, 1] = False
        assert self._one_component(cells)
        assert MaskDomain(4, 3, cells, 1.0).cells.sum() == 10


class TestGradientOperator:
    @pytest.mark.parametrize("kind, n", [("interval", 63), ("square", 16),
                                         ("l_shape", 16), ("square", 24)])
    def test_csr_equals_stacked_reference(self, kind, n, l_mask):
        # G is built as CSR from the cells' node pairs; the reference stacks
        # the per-axis operators built through COO
        spec = {"interval": Interval(0.0, 1.0),
                "square": Rectangle(0.0, 1.0, 0.0, 1.0),
                "l_shape": l_mask}[kind]
        g = build_grid(spec, n)
        ref = sparse.vstack(_gradient_operators(g), format="csr")
        assert g.G.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(g.G, name), getattr(ref, name))
            assert getattr(g.G, name).dtype == getattr(ref, name).dtype


class TestMaskFile:
    def test_round_trip(self, tmp_path, l_mask):
        path = tmp_path / "L.mask"
        path.write_text(L_MASK_TEXT)
        assert read_mask_file(path) == l_mask

    def test_parse_format(self, tmp_path):
        path = tmp_path / "dom.mask"
        path.write_text("3 2 0.5\n##.\n###\n")
        spec = read_mask_file(path)
        assert spec.width == 3 and spec.height == 2
        assert spec.cell_size == 0.5
        # top file row is the top of the domain
        assert bool(spec.cells[2, 0]) is True
        assert bool(spec.cells[2, 1]) is False

    def test_bad_character(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_text("2 1 1.0\n#x\n")
        with pytest.raises(DomainError):
            read_mask_file(path)

    @pytest.mark.parametrize("header", ["a 2 0.5", "-2 2 0.5", "2 0 0.5",
                                        "2.5 2 0.5", "2 2 h", "2 2",
                                        "2 2 0.5 1"])
    def test_bad_header_names_the_file(self, tmp_path, header):
        # a non-integer or negative W or H raised int()'s or numpy's error,
        # which did not say which file was wrong
        path = tmp_path / "bad.mask"
        path.write_text(f"{header}\n#.\n##\n")
        with pytest.raises(DomainError, match="bad.mask: header must be"):
            read_mask_file(path)


class TestInradius:
    def test_interval(self):
        assert inradius(Interval(0.0, 1.0)) == pytest.approx(0.5)

    def test_square(self):
        assert inradius(Rectangle(0.0, 1.0, 0.0, 1.0)) == pytest.approx(0.5)

    def test_thin_rectangle(self):
        assert inradius(Rectangle(0.0, 4.0, 0.0, 1.0)) == pytest.approx(0.5)

    def test_l_shape(self, l_mask):
        # largest disk sits diagonally against the reentrant corner:
        # center (c, c) with c = dist to the corner, so c = (2 - sqrt 2)/2
        g = build_grid(l_mask, 64)
        r = inradius(l_mask, g)
        assert abs(r - (2.0 - math.sqrt(2.0)) / 2.0) <= 2 * g.h

    def test_full_mask_near_rectangle(self):
        cells = np.ones((3, 2), dtype=bool)
        mask = MaskDomain(width=3, height=2, cells=cells, cell_size=1.0)
        g = build_grid(mask, 32)
        assert abs(inradius(mask, g) - 1.0) <= g.h

    @given(c=st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_rectangle(self, c):
        base = inradius(Rectangle(0.0, 2.0, 0.0, 1.0))
        scaled = inradius(Rectangle(0.0, 2.0 * c, 0.0, c))
        assert scaled == pytest.approx(c * base)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mask_monotone_and_scaling(self, data):
        w, h = 4, 3
        # random connected mask grown from a seed cell
        cells = np.zeros((w, h), dtype=bool)
        cells[0, 0] = True
        for _ in range(data.draw(st.integers(1, w * h - 1))):
            frontier = []
            for i in range(w):
                for j in range(h):
                    if not cells[i, j] and (
                            (i > 0 and cells[i - 1, j]) or
                            (i < w - 1 and cells[i + 1, j]) or
                            (j > 0 and cells[i, j - 1]) or
                            (j < h - 1 and cells[i, j + 1])):
                        frontier.append((i, j))
            if not frontier:
                break
            cells[data.draw(st.sampled_from(frontier))] = True
        small = MaskDomain(width=w, height=h, cells=cells, cell_size=1.0)
        big = MaskDomain(width=w, height=h, cells=np.ones((w, h), bool),
                         cell_size=1.0)
        gs = build_grid(small, 12)
        gb = build_grid(big, 12)
        assert inradius(small, gs) <= inradius(big, gb) + gs.h
        # scaling: double the cell size doubles the inradius (same lattice)
        small2 = MaskDomain(width=w, height=h, cells=cells, cell_size=2.0)
        gs2 = build_grid(small2, 12)
        assert inradius(small2, gs2) == pytest.approx(2 * inradius(small, gs),
                                                      abs=2 * gs2.h)

    def test_mask_values_unchanged(self, l_mask):
        # the exact distance transform, bit for bit as when the package
        # loaded scipy.ndimage at import
        ring = np.ones((3, 3), dtype=bool)
        ring[1, 1] = False
        ring = MaskDomain(3, 3, ring, 1.0)
        assert inradius(l_mask) == 0.23570226039551584
        assert inradius(l_mask, build_grid(l_mask, 64)) == 0.2872621298570349
        assert inradius(ring) == 0.4714045207910317
        assert inradius(ring, build_grid(ring, 20)) == 0.5714285714285714

    def test_refinement(self, l_mask):
        g1 = build_grid(l_mask, 32)
        g2 = build_grid(l_mask, 64)
        assert abs(inradius(l_mask, g1) - inradius(l_mask, g2)) <= g1.h
