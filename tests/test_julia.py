"""Julia approximants: escape grids, boundaries, repeller clouds."""

import numpy as np
import pytest

from endolab import __version__, julia, orbits, reporting
from endolab.julia import (
    boundary_extract,
    directed_distance,
    escape_grid,
    grid_image,
    hausdorff,
    repeller_cloud,
)
from endolab.maps import PolyMap, Window, _step, map_kernel
from endolab.periodic import dedup_points

Z2 = PolyMap.from_coeffs_1d([0, 0, 1])
BASILICA = PolyMap.from_coeffs_1d([-1, 0, 1])
W = Window.square(1, -1.75, 1.75)
CARDIOID = PolyMap.from_coeffs_1d([0.2 + 0.1j, 0, 1])
RABBIT = PolyMap.from_coeffs_1d([-0.1226 + 0.7449j, 0, 1])
# its attracting 5-cycle is periodic in floats with period 5, which
# divides neither 1 nor 12: no bounded cell's state ever repeats
FIVE_BULB = PolyMap.from_coeffs_1d([-0.5 + 0.56j, 0, 1])
# (z^2 + 0.2 + 0.1i + 0.05 w, w^2 + C2): the slice at W0, the attracting
# fixed point of w^2 + C2, holds an attracting fixed point whose float
# orbits settle on a 2-cycle after some 60 steps.  With real constants the
# imaginary parts would instead decay to 0 through underflow, some 1,100
# steps
C2 = -0.1 + 0.1j
W0 = (1 - np.sqrt(1 - 4 * C2)) / 2
TRIANGULAR = PolyMap.from_terms(2, ((((2, 0), 1.0), ((0, 0), 0.2 + 0.1j),
                                     ((0, 1), 0.05)),
                                    (((0, 2), 1.0), ((0, 0), C2))))


def full_grid_escape(pmap, grid, n_max, R):
    """The escape loop that gathers and scatters over every cell at each
    step, for the live-set loop of escape_grid to match word for word."""
    z = grid.centers.reshape(-1, pmap.n).copy()
    esc_iter = np.full(len(z), -1)
    alive = np.abs(z).max(axis=-1) <= R
    esc_iter[~alive] = 0
    for k in range(1, n_max + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        z[idx], _, reached = map_kernel(pmap, z[idx])
        with np.errstate(over="ignore", invalid="ignore"):
            out = (reached == 0) | (np.abs(z[idx]).max(axis=-1) > R)
        esc_iter[idx[out]] = k
        alive[idx[out]] = False
    return esc_iter.reshape(grid.res)


def circle_cloud(npts=4096):
    th = np.linspace(0, 2 * np.pi, npts, endpoint=False)
    return np.exp(1j * th).reshape(-1, 1)


class TestEscapeGrid:
    def test_z2_filled_julia_is_unit_disc(self):
        g = escape_grid(Z2, W, 512, 200, 2.0)
        area = (~g.escaped).sum() * g.cellwidth ** 2
        assert abs(area - np.pi) / np.pi < 0.02

    def test_refinement_shrinks_boundary_error(self):
        errs = []
        for res in (128, 512):
            g = escape_grid(Z2, W, res, 200, 2.0)
            b = boundary_extract(g)
            errs.append(hausdorff(b, circle_cloud()))
        assert errs[1] < errs[0]
        # boundary cells track the circle to within ~2 cells
        assert errs[1] < 2 * (3.5 / 512)

    def test_escape_iter_monotone_in_radius(self):
        g = escape_grid(Z2, Window.square(1, -3, 3), 64, 100, 2.0)
        c = g.centers.reshape(-1)
        it = g.escape_iter.reshape(-1)
        esc = g.escaped.reshape(-1)
        # among escaped centers on a ray, farther points escape no later
        on_axis = esc & (np.abs(c.imag) < 1e-12) & (c.real > 1.0)
        r = c.real[on_axis]
        k = it[on_axis][np.argsort(r)]
        assert (np.diff(k) <= 0).all()

    def test_all_bounded_grid_gives_empty_boundary(self):
        g = escape_grid(Z2, Window.square(1, -0.3, 0.3), 16, 50, 2.0)
        assert not g.escaped.any()
        assert boundary_extract(g).shape == (0, 1)
        # and an all-escaped grid: c = 0.5 + 0.6i lies outside M
        dust = PolyMap.from_coeffs_1d([0.5 + 0.6j, 0, 1])
        g = escape_grid(dust, W, 64, 200, 3.0)
        assert g.escaped.all()
        assert boundary_extract(g).shape == (0, 1)

    def test_n2_slice(self):
        # product map (z^2, w^2) sliced at w = 0.1: same unit-disc picture
        f = PolyMap.from_terms(2, (
            (((2, 0), 1.0 + 0j),),
            (((0, 2), 1.0 + 0j),),
        ))
        win = Window.square(2, -1.75, 1.75)
        g = escape_grid(f, win, 128, 100, 2.0, fixed=(0.1, 0.0))
        area = (~g.escaped).sum() * g.cellwidth ** 2
        assert abs(area - np.pi) / np.pi < 0.05

    def test_fixed_count_is_2n_minus_2(self):
        f = PolyMap.from_terms(2, (
            (((2, 0), 1.0 + 0j),),
            (((0, 2), 1.0 + 0j),),
        ))
        win = Window.square(2, -1.75, 1.75)
        for bad in ((), (0.1,), (0.1, 0.0, 0.2)):
            with pytest.raises(ValueError, match="2n - 2 = 2 values"):
                escape_grid(f, win, 8, 10, 2.0, fixed=bad)
        with pytest.raises(ValueError, match="2n - 2 = 0 values"):
            escape_grid(Z2, W, 8, 10, 2.0, fixed=(0.1, 0.0))
        # a non-finite slice would escape every cell at step 0
        for bad in ((np.nan, 0.0), (0.0, float("1e400"))):
            with pytest.raises(ValueError, match="finite"):
                escape_grid(f, win, 8, 10, 2.0, fixed=bad)

    @pytest.mark.parametrize("f,win,res,n_max,R,fixed,retires", [
        # cells outside R at step 0
        (Z2, Window.square(1, -3, 3), 64, 100, 2.0, (), True),
        (BASILICA, W, 96, 200, 2.0, (), True),
        (PolyMap.from_terms(2, ((((2, 0), 1.0), ((0, 1), 0.3j)),
                                (((0, 2), 1.0), ((1, 0), -0.2)))),
         Window.square(2, -2, 2), 48, 60, 3.0, (0.1, -0.2), False),
        (BASILICA, Window.square(1, -3, 3), 32, 1, 2.0, (), False),
        # past 1e150 a value counts as overflow: only that ends an orbit
        (Z2, Window.square(1, -3, 3), 48, 40, 1e200, (), True),
        # bounded cells settle on an exactly periodic float state
        (CARDIOID, W, 64, 200, 2.0, (), True),
        (RABBIT, W, 64, 120, 2.0, (), True),
        (TRIANGULAR, Window.square(2, -1.75, 1.75), 48, 96, 3.0,
         (W0.real, W0.imag), True),
        (FIVE_BULB, W, 64, 120, 2.0, (), False),
    ], ids=["z2_step0", "basilica", "slice_2d", "n_max_1", "overflow_only",
            "cardioid", "rabbit_3", "slice_2d_sink", "five_bulb"])
    def test_live_set_matches_full_grid_loop(self, f, win, res, n_max, R,
                                             fixed, retires, monkeypatch):
        # in one tile, and in tiles of 1000 cells, which divide no res^2
        # here, so the last tile is ragged; cells whose state repeats are
        # retired every step, every 12 steps, or never within n_max
        stepped = {}  # (tile, every) -> rows stepped

        def counted(pmap, p, jacobian):
            stepped[tile, every] = stepped.get((tile, every), 0) + len(p)
            return _step(pmap, p, jacobian)

        monkeypatch.setattr(julia, "_step", counted)
        default, want = orbits._REPEAT_STEPS, None
        for tile in (res * res, 1000):
            monkeypatch.setattr(julia, "_TILE_CELLS", tile)
            for every in (1, default, n_max + 1):
                monkeypatch.setattr(orbits, "_REPEAT_STEPS", every)
                g = escape_grid(f, win, res, n_max, R, fixed=fixed)
                if want is None:
                    want = full_grid_escape(f, g, n_max, R)
                assert g.escape_iter.dtype == want.dtype
                assert np.array_equal(g.escape_iter.view(np.int64),
                                      want.view(np.int64))
            # retiring only drops rows: never a step more
            off = stepped[tile, n_max + 1]
            assert (stepped[tile, default] < off) == retires
            assert stepped[tile, 1] <= off
        assert g.escaped.any() and not g.escaped.all()
        if R > 1e150:
            assert g.escape_iter.min() == -1 and (g.escape_iter != 0).all()

    def test_centers_word_for_word(self):
        # the z_1 plane of an off-centre window, the rest at `fixed`
        f = PolyMap.from_terms(2, (
            (((2, 0), 1.0 + 0j),),
            (((0, 2), 1.0 + 0j),),
        ))
        win = Window(bounds=((-1.3, 0.9), (-0.7, 1.6), (-2, 2), (-2, 2)))
        fixed = (0.1, -0.25)
        g = escape_grid(f, win, 16, 5, 2.0, fixed=fixed)
        ticks = [lo + (hi - lo) / 16 * (np.arange(16) + 0.5)
                 for lo, hi in win.bounds[:2]]
        re, im = np.meshgrid(*ticks, indexing="ij")
        want = np.stack([re + 1j * im,
                         np.full(re.shape, fixed[0]) + 1j * fixed[1]],
                        axis=-1)
        got = g.centers
        assert got.shape == (16, 16, 2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert g.cellwidth == 2.3 / 16
        assert np.array_equal(g.escaped, g.escape_iter >= 0)


class TestClouds:
    def test_dedup(self):
        pts = np.array([[0j], [1e-12 + 0j], [1.0 + 0j], [1.0 + 2e-8j]])
        out = dedup_points(pts)
        assert len(out) == 3
        # the conjugate sorts between the two copies of 0.3 + 0.5i
        pts = np.array([[0.3 + 0.5j], [0.3 - 0.5j + 1e-13],
                        [0.3 + 0.5j + 2e-13]])
        out = dedup_points(pts)
        assert np.array_equal(out, pts[:2])

    def test_dedup_deterministic_under_permutation(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 1)) + 1j * rng.normal(size=(50, 1))
        a = dedup_points(pts)
        b = dedup_points(pts[rng.permutation(50)])
        assert np.array_equal(a, b)

    def test_hausdorff_oracle(self):
        A = np.array([[0j], [1.0 + 0j]])
        B = np.array([[0j], [1.5 + 0j], [5.0 + 0j]])
        assert directed_distance(A, B) == pytest.approx(0.5)
        assert directed_distance(B, A) == pytest.approx(4.0)
        assert hausdorff(A, B) == pytest.approx(4.0)

    def test_hausdorff_empty_raises(self):
        A = np.empty((0, 1), dtype=complex)
        B = np.array([[0j]])
        with pytest.raises(ValueError):
            hausdorff(A, B)

    def test_repellers_of_z2_lie_on_circle(self):
        cloud = repeller_cloud(Z2, 5, Window.square(1, -2, 2), seeds=2048,
                               seed=0)
        assert len(cloud) > 0
        assert np.abs(np.abs(cloud) - 1.0).max() < 1e-8

    def test_saddles_join_the_repellers(self):
        # (z_1^2, z_2^2) fixes (0, 0), a super-attracting point, the
        # saddles (0, 1) and (1, 0) and the repelling point (1, 1)
        f = PolyMap.from_terms(2, ((((2, 0), 1.0),), (((0, 2), 1.0),)))
        cloud = repeller_cloud(f, 1, Window.square(2, -1.5, 1.5))
        want = np.array([[0, 1], [1, 0], [1, 1]], dtype=complex)
        assert cloud.shape == want.shape
        assert np.abs(cloud - want).max() < 1e-10

    def test_repellers_approach_boundary(self):
        # directed containment: every repeller sits near the escape boundary
        g = escape_grid(Z2, W, 512, 200, 2.0)
        b = boundary_extract(g)
        cloud = repeller_cloud(Z2, 6, Window.square(1, -2, 2), seeds=4096,
                               seed=0)
        assert directed_distance(cloud, b) <= 3 * g.cellwidth

    def test_basilica_repellers_near_boundary(self):
        g = escape_grid(BASILICA, W, 512, 200, 3.0)
        b = boundary_extract(g)
        cloud = repeller_cloud(BASILICA, 6, Window.square(1, -2, 2),
                               seeds=4096, seed=0)
        assert directed_distance(cloud, b) <= 3 * g.cellwidth


class TestPGM:
    def test_header_and_size(self, tmp_path):
        g = escape_grid(Z2, W, 32, 50, 2.0)
        img = grid_image(g)
        assert img.shape == (32, 32) and img.dtype == np.uint8
        reporting.write_pgm(tmp_path / "g.pgm", img, {})
        data = (tmp_path / "g.pgm").read_bytes()
        magic, comment, rest = data.split(b"\n", 2)
        assert magic == b"P5" and comment.startswith(b"# config_hash=")
        assert rest == b"32 32\n255\n" + img.tobytes()

    def test_bounded_cells_are_black(self):
        g = escape_grid(Z2, W, 32, 50, 2.0)
        img = grid_image(g)
        assert (img[~g.escaped] == 0).all()
        assert (img[g.escaped] > 0).all()

    def test_write_pgm_non_square(self, tmp_path):
        # the header names width (columns) before height (rows)
        img = np.arange(15, dtype=np.uint8).reshape(3, 5)
        cfg = {"seed": 0}
        reporting.write_pgm(tmp_path / "a.pgm", img, cfg)
        header = (f"P5\n# config_hash={reporting.config_hash(cfg)} "
                  f"version={__version__}\n5 3\n255\n").encode()
        assert (tmp_path / "a.pgm").read_bytes() == header + bytes(range(15))
