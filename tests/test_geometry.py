import math

import numpy as np
import pytest
from numpy.random import SeedSequence
from scipy import integrate, stats

from spatq.geometry import (
    EUCLIDEAN,
    PER_CLUSTER,
    PER_USER,
    TOROIDAL,
    AssociationMap,
    PcpParams,
    PointPattern,
    Window,
    _in_cell,
    _nearest_index,
    _station_tree,
    _voronoi_areas,
    associate,
    cell_area_density,
    estimate_cell_areas,
    nearest_distance_density,
    read_pattern,
    sample_pcp,
    sample_ppp,
    write_pattern,
)


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(0.0, 1.0)
        with pytest.raises(ValueError):
            Window(1.0, -2.0)
        with pytest.raises(ValueError):
            Window(1.0, 1.0, metric="spherical")

    def test_toroidal_distance_wraps(self):
        w = Window(10.0, 10.0)
        d2 = w.distance_sq(np.array([[0.5, 0.5]]), np.array([[9.5, 0.5]]))
        assert d2[0, 0] == pytest.approx(1.0)

    def test_euclidean_distance_does_not_wrap(self):
        w = Window(10.0, 10.0, metric="euclidean")
        d2 = w.distance_sq(np.array([[0.5, 0.5]]), np.array([[9.5, 0.5]]))
        assert d2[0, 0] == pytest.approx(81.0)

    def test_wrap_stays_below_the_span(self):
        # np.mod(-1e-17, 10.0) rounds up to 10.0 itself
        w = Window(10.0, 10.0)
        wrapped = w.wrap(np.array([[-1e-17, 5.0], [10.0, -1e-17], [3.5, 12.0]]))
        assert wrapped.tolist() == [[0.0, 5.0], [0.0, 0.0], [3.5, 2.0]]


class TestSamplePpp:
    def test_zero_intensity_gives_empty_pattern(self):
        assert len(sample_ppp(0.0, Window(5.0, 5.0), seed=1)) == 0

    def test_invalid_intensity_rejected(self):
        with pytest.raises(ValueError):
            sample_ppp(-1.0, Window(5.0, 5.0), seed=1)
        with pytest.raises(ValueError):
            sample_ppp(float("nan"), Window(5.0, 5.0), seed=1)

    def test_deterministic_in_seed(self):
        w = Window(20.0, 20.0)
        a = sample_ppp(0.5, w, seed=42)
        b = sample_ppp(0.5, w, seed=42)
        c = sample_ppp(0.5, w, seed=43)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_count_moments(self):
        # intensity * area = 10: counts should be Poisson(10) over replications
        w = Window(1000.0, 1000.0)
        counts = np.array(
            [len(sample_ppp(1e-5, w, seed=s)) for s in range(10_000)], dtype=float
        )
        assert counts.mean() == pytest.approx(10.0, abs=3 * math.sqrt(10 / 10_000))
        assert counts.var() == pytest.approx(10.0, abs=0.5)

    def test_points_inside_window(self):
        p = sample_ppp(2.0, Window(7.0, 3.0), seed=5)
        assert np.all(p.window.contains(p.points))


class TestSamplePcp:
    def test_zero_parent_intensity_gives_empty_pattern(self):
        p = sample_pcp(PcpParams(0.0, 1.1, 1.0), Window(10.0, 10.0), seed=1)
        assert len(p) == 0

    def test_cluster_radius_must_fit_window(self):
        with pytest.raises(ValueError):
            sample_pcp(PcpParams(0.1, 1.0, 5.0), Window(10.0, 10.0), seed=1)

    def test_user_intensity_identity(self):
        # lambda_p = 1/(1.1*pi), lambda_c = 1.1, r_c = 1 gives unit user intensity
        params = PcpParams(lambda_p=1 / (1.1 * math.pi), lambda_c=1.1, r_c=1.0)
        assert params.user_intensity == pytest.approx(1.0, rel=1e-12)
        w = Window(50.0, 50.0)
        reps = 400
        counts = [len(sample_pcp(params, w, seed=s)) for s in range(reps)]
        expected = w.area * params.user_intensity
        # compound-Poisson count variance per replication: mean * (1 + mc)
        sigma_mean = math.sqrt(expected * (1 + params.mean_cluster_size) / reps)
        assert np.mean(counts) == pytest.approx(expected, abs=3 * sigma_mean)

    def test_per_cluster_count_is_poisson(self):
        # mean cluster size 3, ~1e5 clusters
        params = PcpParams(lambda_p=2.5, lambda_c=3 / math.pi, r_c=1.0)
        assert params.mean_cluster_size == pytest.approx(3.0)
        pattern = sample_pcp(params, Window(200.0, 200.0), seed=7)
        n_parents = len(pattern.parents)
        assert n_parents > 90_000
        counts = np.bincount(pattern.cluster_of, minlength=n_parents)
        sigma = math.sqrt(3.0 / n_parents)
        assert counts.mean() == pytest.approx(3.0, abs=3 * sigma)

    def test_daughters_within_disc_toroidally(self):
        params = PcpParams(lambda_p=0.05, lambda_c=2.0, r_c=1.5)
        p = sample_pcp(params, Window(20.0, 20.0), seed=3)
        assert np.all(p.window.contains(p.points))
        d2 = p.window.distance_sq(p.points, p.parents)
        nearest_own = d2[np.arange(len(p)), p.cluster_of]
        assert np.all(nearest_own <= params.r_c**2 + 1e-9)

    def test_euclidean_mode_truncates_at_edge(self):
        params = PcpParams(lambda_p=0.05, lambda_c=2.0, r_c=1.5)
        p = sample_pcp(params, Window(20.0, 20.0, metric="euclidean"), seed=3)
        assert np.all(p.window.contains(p.points))


class TestAssociate:
    def test_single_station_takes_all(self):
        w = Window(10.0, 10.0)
        users = sample_ppp(1.0, w, seed=2)
        bss = PointPattern(np.array([[5.0, 5.0]]), w)
        amap = associate(users, bss)
        assert amap.serving_bs.shape == (len(users),)
        assert np.all(amap.serving_bs == 0)

    def test_empty_station_pattern_rejected(self):
        w = Window(10.0, 10.0)
        users = sample_ppp(1.0, w, seed=2)
        with pytest.raises(ValueError):
            associate(users, PointPattern(np.empty((0, 2)), w))

    def test_tie_break_prefers_lowest_index(self):
        w = Window(10.0, 10.0)
        users = PointPattern(np.array([[2.0, 1.0]]), w)
        bss = PointPattern(np.array([[1.0, 1.0], [3.0, 1.0]]), w)
        assert associate(users, bss).serving_bs[0] == 0

    def test_per_user_association_minimizes_distance(self):
        w = Window(15.0, 15.0)
        users = sample_ppp(0.8, w, seed=11)
        bss = sample_ppp(0.2, w, seed=12)
        amap = associate(users, bss, PER_USER)
        d2 = w.distance_sq(users.points, bss.points)
        chosen = d2[np.arange(len(users)), amap.serving_bs]
        assert np.all(chosen <= d2.min(axis=1) + 1e-12)

    def test_maps_mutually_consistent(self):
        w = Window(15.0, 15.0)
        users = sample_ppp(0.8, w, seed=21)
        bss = sample_ppp(0.2, w, seed=22)
        amap = associate(users, bss)
        assert amap.serving_bs.shape == (len(users),)
        assert amap.serving_bs.min() >= 0 and amap.serving_bs.max() < len(bss)
        rebuilt = AssociationMap.from_serving(amap.serving_bs, n_bs=len(bss))
        assert np.array_equal(rebuilt.serving_bs, amap.serving_bs)

    def test_per_cluster_follows_parent(self):
        w = Window(20.0, 20.0)
        users = sample_pcp(PcpParams(0.1, 1.5, 1.0), w, seed=4)
        bss = sample_ppp(0.3, w, seed=5)
        amap = associate(users, bss, PER_CLUSTER)
        parent_serving = associate(
            PointPattern(users.parents, w), bss, PER_USER
        ).serving_bs
        assert np.array_equal(amap.serving_bs, parent_serving[users.cluster_of])

    def test_per_cluster_requires_clusters(self):
        w = Window(10.0, 10.0)
        users = sample_ppp(1.0, w, seed=2)
        bss = sample_ppp(0.5, w, seed=3)
        with pytest.raises(ValueError):
            associate(users, bss, PER_CLUSTER)

    @pytest.mark.parametrize("lambda_p", [0.8, 2.0])
    def test_association_modes_agree_on_mean_cell_count(self, lambda_p):
        # whole-cluster assignment preserves the mean cell occupancy across
        # parent intensities (paired replications keep the comparison tight)
        w = Window(7.0, 7.0)
        per_cluster_mean = 2.5 / lambda_p
        pcp = PcpParams(
            lambda_p=lambda_p, lambda_c=per_cluster_mean / (math.pi * 0.25), r_c=0.5
        )
        per_user_counts = []
        per_cluster_counts = []
        for seed in range(500):
            ss = SeedSequence(seed).spawn(2)
            bss = sample_ppp(1.0, w, ss[0])
            if len(bss) == 0:
                continue
            users = sample_pcp(pcp, w, ss[1])
            per_user_counts.append(
                np.count_nonzero(associate(users, bss, PER_USER).serving_bs == 0)
            )
            per_cluster_counts.append(
                np.count_nonzero(associate(users, bss, PER_CLUSTER).serving_bs == 0)
            )
        mean_pu = np.mean(per_user_counts)
        mean_pc = np.mean(per_cluster_counts)
        assert mean_pu == pytest.approx(mean_pc, rel=0.10)


def brute_nearest(targets, bss, window):
    return window.distance_sq(targets, bss).argmin(axis=1)


class TestNearestIndex:
    """The KD-tree query against brute-force argmin over all distances."""

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_on_random_patterns(self, metric, seed):
        w = Window(12.0, 7.0, metric)
        ss = SeedSequence(seed).spawn(2)
        users = sample_ppp(3.0, w, ss[0]).points
        bss = sample_ppp(0.4, w, ss[1]).points
        got = _nearest_index(users, bss, w)
        assert got.dtype == np.int64
        assert np.array_equal(got, brute_nearest(users, bss, w))

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    def test_exact_ties_go_to_lowest_index(self, metric):
        # stations on a shuffled unit lattice; targets on cell edges and
        # centers sit at equal distance from two and four stations
        w = Window(6.0, 6.0, metric)
        grid = np.array([[x, y] for x in range(6) for y in range(6)], dtype=float)
        bss = grid[np.random.default_rng(3).permutation(len(grid))]
        targets = np.concatenate((grid + [0.5, 0.0], grid + [0.0, 0.5], grid + 0.5))
        targets = targets[w.contains(targets)]
        got = _nearest_index(targets, bss, w)
        assert np.array_equal(got, brute_nearest(targets, bss, w))
        d2 = w.distance_sq(targets, bss)
        for row, j in enumerate(got):
            assert j == np.flatnonzero(d2[row] == d2[row].min()).min()

    def test_duplicate_stations_go_to_lowest_index(self):
        w = Window(10.0, 10.0)
        bss = np.array([[4.0, 4.0], [7.0, 7.0], [4.0, 4.0]])
        targets = np.array([[4.0, 4.0], [3.0, 3.0], [7.5, 7.5]])
        assert _nearest_index(targets, bss, w).tolist() == [0, 0, 1]

    def test_single_station(self):
        w = Window(10.0, 10.0)
        targets = sample_ppp(1.0, w, seed=4).points
        got = _nearest_index(targets, np.array([[2.0, 3.0]]), w)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.zeros(len(targets), dtype=int))

    @pytest.mark.parametrize("n_bs", [1, 5])
    def test_zero_targets(self, n_bs):
        w = Window(10.0, 10.0)
        bss = sample_ppp(1.0, w, seed=5).points[:n_bs]
        got = _nearest_index(np.empty((0, 2)), bss, w)
        assert got.shape == (0,) and got.dtype == np.int64

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    def test_per_cluster_matches_brute_force(self, metric):
        w = Window(20.0, 20.0, metric)
        users = sample_pcp(PcpParams(0.1, 1.5, 1.0), w, seed=6)
        bss = sample_ppp(0.3, w, seed=7)
        amap = associate(users, bss, PER_CLUSTER)
        by_parent = brute_nearest(users.parents, bss.points, w)
        assert np.array_equal(amap.serving_bs, by_parent[users.cluster_of])

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    def test_station_on_far_edge(self, metric):
        # Window.contains admits x == width; a periodic tree needs x < width
        w = Window(10.0, 10.0, metric)
        bss = PointPattern(np.array([[10.0, 5.0], [3.0, 3.0], [6.0, 10.0]]), w)
        users = sample_ppp(2.0, w, seed=8)
        amap = associate(users, bss)
        assert np.array_equal(amap.serving_bs, brute_nearest(users.points, bss.points, w))


class TestEstimateCellAreas:
    def test_station_on_far_edge(self):
        # a station at x == width is the one at x == 0 on the torus
        w = Window(10.0, 10.0)
        edge = PointPattern(np.array([[10.0, 5.0], [3.0, 3.0]]), w)
        folded = PointPattern(np.array([[0.0, 5.0], [3.0, 3.0]]), w)
        areas = estimate_cell_areas(edge, w, probes=10_000, seed=1)
        assert np.array_equal(areas, estimate_cell_areas(folded, w, 10_000, seed=1))
        assert areas.sum() == pytest.approx(w.area, rel=1e-12)

    def test_single_station_owns_window(self):
        w = Window(10.0, 10.0)
        bss = PointPattern(np.array([[5.0, 5.0]]), w)
        areas = estimate_cell_areas(bss, w, probes=10_000, seed=1)
        assert areas[0] == pytest.approx(w.area)

    def test_preconditions(self):
        w = Window(10.0, 10.0)
        bss = sample_ppp(0.5, w, seed=1)
        with pytest.raises(ValueError):
            estimate_cell_areas(bss, w, probes=5000, seed=1)
        with pytest.raises(ValueError):
            estimate_cell_areas(PointPattern(np.empty((0, 2)), w), w, 10_000, 1)

    @pytest.mark.parametrize(
        "other", [Window(10.0, 10.0, EUCLIDEAN), Window(20.0, 10.0), Window(10.0, 12.0)]
    )
    def test_window_must_be_the_stations(self, other):
        bss = sample_ppp(0.5, Window(10.0, 10.0), seed=1)
        with pytest.raises(ValueError):
            estimate_cell_areas(bss, other, probes=10_000, seed=1)

    def test_areas_partition_window(self):
        w = Window(12.0, 12.0)
        bss = sample_ppp(1.0, w, seed=9)
        areas = estimate_cell_areas(bss, w, probes=50_000, seed=2)
        assert np.all(areas >= 0)
        assert areas.sum() == pytest.approx(w.area, rel=1e-12)

    def test_mean_and_second_moment(self):
        # pooled over replications: E[S]*lam -> 1 within 1%, E[S^2]*lam^2 -> 1.2857
        # within 3% (the gamma fit slightly overstates the true second moment)
        lam = 1.0
        w = Window(10.0, 10.0)
        pooled = []
        for child in SeedSequence(20260808).spawn(300):
            s1, s2 = child.spawn(2)
            bss = sample_ppp(lam, w, s1)
            if len(bss) == 0:
                continue
            pooled.append(estimate_cell_areas(bss, w, probes=20_000, seed=s2))
        areas = np.concatenate(pooled)
        assert len(areas) > 25_000
        assert areas.mean() * lam == pytest.approx(1.0, rel=0.01)
        assert np.mean(areas**2) * lam**2 == pytest.approx(1.2857, rel=0.03)


def probe_areas(bss, window, probes, seed):
    """Cell areas by counting uniform probes, each given to its nearest station."""
    pts = np.random.default_rng(seed).random((probes, 2)) * [window.width, window.height]
    _, idx = _station_tree(bss, window).query(pts)
    return np.bincount(idx, minlength=len(bss)) * (window.area / probes)


class TestVoronoiAreas:
    """Exact cell areas on degenerate station sets, with known answers."""

    CASES = {
        "one station": ([[5.0, 5.0]], [100.0]),
        "two stations": ([[2.0, 5.0], [6.0, 5.0]], {TOROIDAL: [50.0, 50.0], EUCLIDEAN: [40.0, 60.0]}),
        "collinear": ([[2.0, 5.0], [5.0, 5.0], [8.0, 5.0]], [35.0, 30.0, 35.0]),
        "2x2 lattice": ([[2.5, 2.5], [7.5, 2.5], [2.5, 7.5], [7.5, 7.5]], [25.0] * 4),
        "duplicates": ([[3.0, 3.0], [3.0, 3.0], [7.0, 7.0]], [50.0, 0.0, 50.0]),
        # on the torus x == width is x == 0, so the later station is a duplicate
        "far edge": ([[10.0, 5.0], [0.0, 5.0]], {TOROIDAL: [100.0, 0.0], EUCLIDEAN: [50.0, 50.0]}),
        "far edge alone": ([[10.0, 4.0]], [100.0]),
        "far corner": ([[10.0, 10.0], [0.0, 0.0]], {TOROIDAL: [100.0, 0.0], EUCLIDEAN: [50.0, 50.0]}),
    }

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_known_areas_sum_to_window(self, metric, case):
        w = Window(10.0, 10.0, metric)
        points, expected = self.CASES[case]
        if isinstance(expected, dict):
            expected = expected[metric]
        areas = _voronoi_areas(np.array(points), w)
        assert areas.sum() == pytest.approx(w.area, rel=1e-12)
        assert areas == pytest.approx(expected, rel=1e-12, abs=1e-12 * w.area)

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    def test_edge_stations_match_nearest_station_grid(self, metric):
        # stations on every edge and corner; a fine grid of targets assigned
        # by nearest station approximates each area to O(grid step)
        w = Window(10.0, 8.0, metric)
        bss = np.array(
            [[0.0, 3.0], [10.0, 6.5], [4.0, 0.0], [7.0, 8.0], [10.0, 0.0], [5.0, 4.0], [2.0, 6.0]]
        )
        areas = _voronoi_areas(bss, w)
        assert areas.sum() == pytest.approx(w.area, rel=1e-12)
        step = 0.01
        grid = np.stack(np.meshgrid(np.arange(step / 2, 10, step), np.arange(step / 2, 8, step)), -1)
        owner = _nearest_index(grid.reshape(-1, 2), bss, w)
        counted = np.bincount(owner, minlength=len(bss)) * step**2
        assert np.allclose(counted, areas, atol=0.05)

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    def test_matches_probe_counting(self, metric):
        # 1e6 probes: each count is binomial, so within 5 sd of probes * p
        w = Window(20.0, 15.0, metric)
        bss = sample_ppp(1.0, w, seed=11).points
        exact = _voronoi_areas(bss, w)
        probes = 1_000_000
        counted = probe_areas(bss, w, probes, seed=12)
        p = exact / w.area
        sd = np.sqrt(probes * p * (1.0 - p)) * (w.area / probes)
        assert np.all(np.abs(counted - exact) <= 5.0 * sd)

    def test_estimate_is_a_multinomial_draw_on_exact_areas(self):
        w = Window(12.0, 12.0)
        bss = sample_ppp(1.0, w, seed=9)
        counts = np.random.default_rng(4).multinomial(50_000, _voronoi_areas(bss.points, w) / w.area)
        expected = counts * (w.area / 50_000)
        assert np.array_equal(estimate_cell_areas(bss, w, 50_000, seed=4), expected)


class TestInCell:
    """One station's members against `associate` for every station."""

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_uniform_users(self, metric, seed):
        w = Window(12.0, 9.0, metric)
        ss = SeedSequence(seed).spawn(2)
        users = sample_ppp(4.0, w, ss[0])
        bss = sample_ppp(0.5, w, ss[1])
        serving = associate(users, bss).serving_bs
        for station in range(len(bss)):
            got = _in_cell(users.points, bss.points, station, w)
            assert np.array_equal(got, serving == station)

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_clustered_users_per_cluster(self, metric, seed):
        w = Window(15.0, 15.0, metric)
        ss = SeedSequence(seed).spawn(2)
        users = sample_pcp(PcpParams(0.3, 2.0, 1.0), w, ss[0])
        bss = sample_ppp(0.3, w, ss[1])
        serving = associate(users, bss, PER_CLUSTER).serving_bs
        for station in range(len(bss)):
            in_cell = _in_cell(users.parents, bss.points, station, w)
            assert np.array_equal(in_cell[users.cluster_of], serving == station)

    @pytest.mark.parametrize("metric", [TOROIDAL, EUCLIDEAN])
    def test_ties_on_bisectors_and_corners(self, metric):
        w = Window(6.0, 6.0, metric)
        grid = np.array([[x, y] for x in range(6) for y in range(6)], dtype=float)
        bss = grid[np.random.default_rng(3).permutation(len(grid))]
        targets = np.concatenate((grid + [0.5, 0.0], grid + [0.0, 0.5], grid + 0.5))
        targets = targets[w.contains(targets)]
        nearest = brute_nearest(targets, bss, w)
        for station in range(len(bss)):
            assert np.array_equal(_in_cell(targets, bss, station, w), nearest == station)

    def test_few_stations(self):
        w = Window(10.0, 10.0)
        users = sample_ppp(2.0, w, seed=4).points
        bss = np.array([[2.0, 2.0], [2.0, 2.0], [8.0, 5.0]])
        nearest = brute_nearest(users, bss, w)
        for station in range(3):
            assert np.array_equal(_in_cell(users, bss, station, w), nearest == station)


class TestDensities:
    def test_cell_area_density_basics(self):
        assert cell_area_density(0.0, 2.0) == 0.0
        with pytest.raises(ValueError):
            cell_area_density(-1.0, 2.0)
        with pytest.raises(ValueError):
            cell_area_density(1.0, 0.0)

    @pytest.mark.parametrize("lam", [0.25, 1.0, 7.5])
    def test_cell_area_density_normalizes(self, lam):
        total, _ = integrate.quad(lambda x: cell_area_density(x, lam), 0, 40 / lam)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [0.25, 1.0, 7.5])
    def test_cell_area_density_mean(self, lam):
        mean, _ = integrate.quad(lambda x: x * cell_area_density(x, lam), 0, 60 / lam)
        assert mean == pytest.approx(1.0 / lam, abs=1e-6 / lam)

    def test_nearest_distance_density_basics(self):
        assert nearest_distance_density(0.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            nearest_distance_density(-0.5, 1.0)
        total, _ = integrate.quad(lambda r: nearest_distance_density(r, 1.0), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nearest_distances_follow_density(self):
        # KS fit at the 1% level on 1e5 sampled nearest-station distances
        lam = 1.0
        w = Window(5.0, 5.0)
        center = w.center[None, :]
        dists = np.empty(100_000)
        for i, child in enumerate(SeedSequence(77).spawn(len(dists))):
            pattern = sample_ppp(lam, w, child)
            while len(pattern) == 0:  # pragma: no cover - ~e^-25
                child = child.spawn(1)[0]
                pattern = sample_ppp(lam, w, child)
            dists[i] = math.sqrt(w.distance_sq(center, pattern.points).min())
        cdf = lambda r: 1.0 - np.exp(-lam * math.pi * r**2)
        result = stats.kstest(dists, cdf)
        assert result.pvalue > 0.01


class TestSerialization:
    def test_round_trip_plain(self, tmp_path):
        w = Window(10.0, 10.0)
        pattern = sample_ppp(1.0, w, seed=3)
        path = tmp_path / "pattern.csv"
        write_pattern(pattern, path)
        text = path.read_text()
        assert text.splitlines()[0] == "x,y,parent_index"
        assert ",-1" in text.splitlines()[1]
        back = read_pattern(path, w)
        assert np.array_equal(back.points, pattern.points)
        assert not back.is_clustered

    def test_round_trip_clustered(self, tmp_path):
        w = Window(10.0, 10.0)
        pattern = sample_pcp(PcpParams(0.2, 1.0, 1.0), w, seed=3)
        path = tmp_path / "pattern.csv"
        write_pattern(pattern, path)
        back = read_pattern(path, w)
        assert np.array_equal(back.points, pattern.points)
        assert np.array_equal(back.cluster_of, pattern.cluster_of)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_pattern(path, Window(10.0, 10.0))


class TestAssociationMapInvariants:
    def test_from_serving_round_trip(self):
        serving = np.array([2, 0, 2, 1, 0])
        amap = AssociationMap.from_serving(serving, n_bs=3)
        assert np.array_equal(amap.serving_bs, serving)
        empty = AssociationMap.from_serving(np.empty(0, dtype=int), n_bs=1)
        assert empty.serving_bs.shape == (0,)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_labels_outside_the_stations_rejected(self, label):
        with pytest.raises(ValueError):
            AssociationMap.from_serving(np.array([0, label, 2]), n_bs=3)
