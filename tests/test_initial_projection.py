"""The initial projection ``projection.project_initial`` against the
algorithms it replaced: for ConservativeMoment the stepping recovery's
fallback ladder followed by the nearest-branch choice
(``conftest.ladder_projection``), for the chart manifolds a per-cell
Newton with a finite-difference Jacobian
(``conftest.fd_newton_projection``)."""

import warnings

import numpy as np
import pytest

from conftest import fd_newton_projection, ladder_projection, moment_targets
from kinreduce import (
    ConservativeMoment,
    DistributionField,
    EntropyClosure,
    HermitePerturbation,
    InversionError,
    KinReduceError,
    MomentState,
    RealizabilityError,
    SpatialMesh,
    maxwellian,
    project_initial,
    truncated_rule,
)
from kinreduce import projection
from kinreduce.ansatz import _newton
from kinreduce.kinetic import moments_of_profile
from kinreduce.projection import _orthogonality, _passing_rows


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def mixture(grid, rho1, u1, theta1, rho2, u2, theta2):
    return (maxwellian(MomentState(rho1, u1, theta1), grid)
            + maxwellian(MomentState(rho2, u2, theta2), grid))


def field(grid, *profiles):
    return DistributionField(np.stack(profiles), grid, SpatialMesh(len(profiles), 1.0))


def outcome(project, manifold, f0):
    """The projection, or the type of the typed error it raised."""
    try:
        return project(manifold, f0)
    except KinReduceError as exc:
        return type(exc)


# ---- ConservativeMoment: the nearest enumerated preimage -----------------

class TestNearestPreimage:
    def test_cm4_mixture_rows_match_the_ladder(self):
        # the cm4_shakhov_mix rows and three more: every guess stalls
        grid = truncated_rule(10.0, 128)
        cm = ConservativeMoment(4)
        f0 = field(grid, *(mixture(grid, 0.7, -0.6, 0.6, 0.3, u2, 0.5)
                           for u2 in (1.0, 1.2, 1.4, 1.6)))
        assert same_bits(project_initial(cm, f0), ladder_projection(cm, f0))

    def test_symmetric_mixture_does_not_depend_on_the_tiling(self):
        """As a scenario config lays it out, over 1, 2, 4 and 16 cells:
        every tiling projects, as the ladder does, with the same bits in
        every cell.  The exactly symmetric moments' preimage has a
        polynomial factor that touches zero (min/max 1.9e-26 at the
        nodes), so its realizability rests on the last bits of the moment
        sums: the quadrature's fixed-order sums make it realizable."""
        grid = truncated_rule(8.5, 48)
        cm = ConservativeMoment(4)
        f = mixture(grid, 0.5, -1.2, 0.4, 0.5, 1.2, 0.4)
        seen = set()
        for cells in (1, 2, 4, 16):
            f0 = DistributionField(np.tile(f, (cells, 1)), grid, SpatialMesh(cells, 1.0))
            omegas = project_initial(cm, f0)
            assert same_bits(omegas, ladder_projection(cm, f0))
            seen.update(row.tobytes() for row in omegas)
        assert len(seen) == 1

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_random_mixtures_agree_with_the_ladder(self, degree):
        """Same success or failure, and the same function to 1e-10 of
        its maximum.  Mixtures of close Maxwellians project near the
        chart's alpha ~ 0 ridge, where the parameters are
        ill-conditioned: there a ridge jitter of the ladder and a cold
        start can land on the same preimage with parameters 1e-9 apart."""
        rng = np.random.default_rng(1800 + degree)
        cm = ConservativeMoment(degree)
        for half_width in (8.5, 9.0, 10.0):
            grid = truncated_rule(half_width, 64)
            for spread in (2.0, 2.0, 2.0, 0.6, 0.6, 0.6):
                p = [rng.uniform(0.2, 0.8), rng.uniform(-spread, 0.0), rng.uniform(0.3, 1.2),
                     rng.uniform(0.2, 0.8), rng.uniform(0.0, spread), rng.uniform(0.3, 1.2)]
                f0 = field(grid, mixture(grid, *p))
                got, want = outcome(project_initial, cm, f0), outcome(ladder_projection, cm, f0)
                if isinstance(want, type):
                    assert got is want is InversionError, p
                else:
                    assert not isinstance(got, type), p
                    f_got, f_want = (cm.values_batch(w, grid.nodes) for w in (got, want))
                    assert np.abs(f_got - f_want).max() <= 1e-10 * np.abs(f_want).max(), p

    def test_a_ridge_jitter_and_a_cold_start_share_the_preimage(self):
        # Newton from the guess stalls near the ridge; the ladder kept its
        # ridge jitter's solution, the one-pass rule takes a cold start's
        grid = truncated_rule(8.5, 64)
        cm = ConservativeMoment(4)
        f0 = field(grid, mixture(grid, 0.4792394998199295, -0.2510544247664624,
                                 0.9546798407180823, 0.5356043100123994,
                                 0.20182271305228258, 0.9656603503073045))
        got, want = project_initial(cm, f0), ladder_projection(cm, f0)
        assert np.abs(got - want).max() < 1e-8
        f_got, f_want = (cm.values_batch(w, grid.nodes) for w in (got, want))
        assert np.abs(f_got - f_want).max() <= 1e-12 * np.abs(f_want).max()

    def test_ties_keep_the_guess_then_scan_order(self, monkeypatch):
        # every converged solution made equally near f0
        grid = truncated_rule(10.0, 128)
        cm = ConservativeMoment(4)
        f0 = field(grid, mixture(grid, 0.7, -0.6, 0.6, 0.3, 1.2, 0.5),
                   mixture(grid, 0.7, -0.6, 0.6, 0.3, 1.6, 0.5),
                   maxwellian(MomentState(1.0, 0.2, 0.9), grid))
        monkeypatch.setattr(projection, "_sq_distances", lambda m, om, f, g: np.ones(len(om)))
        got = project_initial(cm, f0)
        targets = moment_targets(cm, f0)
        guess, ok, _, _ = _newton(cm, targets, cm.initial_guess(targets, grid), grid)
        assert ok.tolist() == [False, False, True]
        assert same_bits(got[2], guess[2])
        owner, starts = cm.cold_start_candidates(targets[:2], grid)
        sol, sol_ok, _, _ = _newton(cm, targets[owner], starts, grid)
        for i in range(2):
            hits = np.flatnonzero(sol_ok & (owner == i))
            assert not same_bits(sol[hits[0]], sol[hits[-1]])
            assert same_bits(got[i], sol[hits[0]])

    def test_no_cold_start_where_the_guess_lands_on_f0(self, monkeypatch):
        # the cm2_bgk_sine field: every cell is a Maxwellian
        grid = truncated_rule(9.0, 64)
        mesh = SpatialMesh(200, 1.0)
        rho = 1.0 + 0.2 * np.sin(2.0 * np.pi * mesh.centers())
        f0 = DistributionField(rho[:, None] * maxwellian(MomentState(1.0, 0.0, 1.0), grid),
                               grid, mesh)
        asked = []
        kernel = ConservativeMoment.cold_start_candidates
        monkeypatch.setattr(ConservativeMoment, "cold_start_candidates",
                            lambda self, T, g: asked.append(len(T)) or kernel(self, T, g))
        omegas = project_initial(ConservativeMoment(2), f0)
        assert sum(asked) == 0  # no row is cold-started
        assert same_bits(omegas, ladder_projection(ConservativeMoment(2), f0))

    @pytest.mark.parametrize("p", [
        # its cold starts' pseudo-inverse products overflow
        (0.5884940377154716, -1.100354540950631, 0.9311999895813688,
         0.31229252286248493, 1.7958120213452016, 1.0397495096505236),
        # and in this one the pseudo-inverse itself does
        (0.5884988849546834, -1.1003523537678064, 0.9312275691188102,
         0.31228088573627194, 1.7957769836785502, 1.039736312020419),
    ])
    def test_overflowing_steps_fail_as_an_inversion_error(self, p):
        grid = truncated_rule(8.5, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InversionError) as info:
                project_initial(ConservativeMoment(3), field(grid, mixture(grid, *p)))
        assert str(info.value).startswith("cell 0:")
        assert info.value.rows.tolist() == [0]


# ---- chart manifolds: one batched Gauss-Newton ----------------------------

CHART_MANIFOLDS = [HermitePerturbation(3), HermitePerturbation(4), HermitePerturbation(6),
                   EntropyClosure(4), EntropyClosure(5)]
STATES = [(1.0, 0.0, 1.0), (0.8, 0.3, 0.7), (1.3, -0.4, 1.2)]
MIXTURES = [(0.6, -0.9, 0.5, 0.6, 0.9, 0.5), (0.5, -1.2, 0.4, 0.5, 1.2, 0.4),
            (0.7, -0.6, 0.6, 0.3, 1.4, 0.5), (0.5, -1.0, 1.0, 0.5, 1.0, 1.0)]


def perturbed(grid, state, amplitude):
    base = maxwellian(MomentState(*state), grid)
    return base * (1.0 + amplitude * np.sin(2.2 * grid.nodes) * np.exp(-grid.nodes**2 / 8))


def test_project_initial_lives_in_projection():
    import kinreduce
    assert kinreduce.project_initial is projection.project_initial


class TestChartProjection:
    @pytest.mark.parametrize("manifold", CHART_MANIFOLDS, ids=lambda m: m.name)
    def test_matches_the_finite_difference_newton(self, manifold, grid):
        profiles = [perturbed(grid, s, a) for s in STATES for a in (0.006, 0.05)]
        profiles += [mixture(grid, *p) for p in MIXTURES]
        for f in profiles:
            f0 = field(grid, f)
            got, want = outcome(project_initial, manifold, f0), outcome(fd_newton_projection,
                                                                        manifold, f0)
            if isinstance(want, type):
                # far from the manifold the Gauss-Newton step can stop
                # reducing |r| before the root that the finite-difference
                # Newton reaches and the sign rule then rejects
                assert got is want or (got, want) == (InversionError, RealizabilityError)
            else:
                assert not isinstance(got, type)
                assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.abs(want).max())

    def test_maxwellian_start_is_kept_after_zero_iterations(self, grid, monkeypatch):
        # the hermite4_generic field
        hp = HermitePerturbation(4)
        mesh = SpatialMesh(100, 1.0)
        rho = 1.0 + 0.2 * np.sin(2.0 * np.pi * mesh.centers())
        vals = rho[:, None] * maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        start = []
        for f in vals:  # each cell's moments as a lone row sums them
            m = moments_of_profile(f, grid)
            start.append(hp.equilibrium_params(m.rho, m.u, m.theta))

        def no_step(*args):
            raise AssertionError("a Gauss-Newton step was taken")

        monkeypatch.setattr(projection, "_project", no_step)
        assert same_bits(project_initial(hp, DistributionField(vals, grid, mesh)), start)

    @pytest.mark.parametrize("manifold", [HermitePerturbation(4), EntropyClosure(5)],
                             ids=lambda m: m.name)
    def test_cells_alone_match_the_batch(self, manifold, grid):
        profiles = [perturbed(grid, s, 0.006) for s in STATES]
        if isinstance(manifold, EntropyClosure):
            # a damping level of this cell overflows the ansatz on the grid
            profiles.insert(1, mixture(grid, 0.7919, -0.5598, 0.4051, 0.2133, 0.4442, 0.9464))
        together = project_initial(manifold, field(grid, *profiles))
        for i, f in enumerate(profiles):
            assert same_bits(project_initial(manifold, field(grid, f))[0], together[i])

    def test_a_failing_row_rejects_only_itself(self, grid):
        hp = HermitePerturbation(3)
        good = hp.equilibrium_params(np.array([1.0, 0.9]), np.array([0.1, -0.2]),
                                     np.array([1.0, 0.8]))
        bad_theta = hp.equilibrium_params(1.0, 0.0, -0.5)  # fails check_params
        # at theta = 0.05, w = xi / sqrt(theta) reaches 40 on the nodes:
        # exp(w^2 / 2) fails the weight guard
        wide = hp.equilibrium_params(1.0, 0.0, 0.05)
        omegas = np.stack([good[0], bad_theta, good[1], wide])
        f0 = np.stack([maxwellian(MomentState(1.0, 0.0, 1.0), grid)] * 4)

        def rule(j):
            return _orthogonality(hp, omegas[j], f0[j], grid)

        ok, out = _passing_rows(rule, np.arange(4))
        assert ok.tolist() == [True, False, True, False]
        for got, want in zip(out, rule(np.array([0, 2]))):
            assert same_bits(got, want)
        for got, want in zip(out, (np.concatenate(a) for a in zip(rule(np.array([0])),
                                                                  rule(np.array([2]))))):
            assert same_bits(got, want)

    def test_negative_projection_names_its_cell(self, grid):
        f0 = field(grid, perturbed(grid, STATES[0], 0.006),
                   mixture(grid, 0.7, -0.6, 0.6, 0.3, 1.4, 0.5),
                   perturbed(grid, STATES[1], 0.006))
        with pytest.raises(RealizabilityError, match="^cell 1: "):
            project_initial(HermitePerturbation(3), f0)

    def test_stall_names_its_rows(self, grid):
        f0 = field(grid, perturbed(grid, STATES[0], 0.006),
                   mixture(grid, 0.5, -1.2, 0.4, 0.5, 1.2, 0.4),
                   perturbed(grid, STATES[1], 0.006))
        with pytest.raises(InversionError, match="^cell 1: .*stalled") as info:
            project_initial(HermitePerturbation(4), f0)
        assert info.value.rows.tolist() == [1]
