import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from steadygain import (
    LinearGaussianModel,
    VehicleParams,
    build_bicycle_model,
    spectral_radius,
)
from steadygain.models import discretize, equivalent_moment_arm

TABLE_PARAMS = VehicleParams()


class TestDiscretize:
    def test_zero_dynamics_gives_identity(self):
        A_d, B_d = discretize(np.zeros((2, 2)), np.ones((2, 1)), dt=0.7)
        np.testing.assert_array_equal(A_d, np.eye(2))
        np.testing.assert_allclose(B_d, 0.7 * np.ones((2, 1)))

    def test_exact_matches_library_expm(self):
        # Independent oracle: library matrix exponential (Pade), package
        # uses its own scaled Taylor series.
        rng = np.random.default_rng(11)
        for _ in range(10):
            A_c = rng.standard_normal((4, 4)) * rng.uniform(0.1, 20.0)
            B_c = rng.standard_normal((4, 2))
            dt = rng.uniform(1e-3, 0.5)
            A_d, B_d = discretize(A_c, B_c, dt)
            scale_a = max(1.0, np.abs(A_d).max())
            assert np.abs(A_d - expm(A_c * dt)).max() < 1e-12 * scale_a
            # zero-order-hold input integral via dense quadrature
            grid = np.linspace(0.0, dt, 4001)
            vals = np.stack([expm(A_c * s) @ B_c for s in grid])
            B_ref = np.trapezoid(vals, grid, axis=0)
            scale_b = max(1.0, np.abs(B_ref).max())
            assert np.abs(B_d - B_ref).max() < 1e-6 * scale_b

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            discretize(np.zeros((2, 3)), np.zeros((2, 1)), 0.1)
        with pytest.raises(ValueError):
            discretize(np.zeros((2, 2)), np.zeros((3, 1)), 0.1)
        with pytest.raises(ValueError):
            discretize(np.zeros((2, 2)), np.zeros((2, 1)), 0.0)


class TestMomentArm:
    def test_symmetric_vehicle(self):
        assert equivalent_moment_arm(1.3, 1.3) == 0.0

    def test_reference_vehicle_value(self):
        assert equivalent_moment_arm(1.14, 1.4) == pytest.approx(-0.13)

    def test_matches_quadrature_oracle(self):
        # Moment of a unit force spread uniformly over [-b, a].
        for a, b in [(2.0, 1.0), (1.14, 1.4), (0.5, 3.0)]:
            oracle, _ = quad(lambda x: x / (a + b), -b, a)
            assert equivalent_moment_arm(a, b) == pytest.approx(oracle)
        assert equivalent_moment_arm(2.0, 1.0) == pytest.approx(0.5)

    def test_degenerate_geometry(self):
        with pytest.raises(ValueError):
            equivalent_moment_arm(1.0, -1.0)


class TestBicycleModel:
    def test_dimensions(self, bicycle):
        assert (bicycle.n, bicycle.m, bicycle.r, bicycle.p) == (2, 1, 2, 2)

    def test_yaw_rate_measured_directly(self, bicycle):
        assert bicycle.C[1, 0] == 0.0
        assert bicycle.C[1, 1] == 1.0

    def test_noise_input_zero_entry(self, bicycle):
        assert bicycle.E[1, 0] == 0.0

    def test_noise_covariances(self, bicycle):
        np.testing.assert_allclose(
            bicycle.Q, np.diag([122.625 ** 2, 100.0 ** 2]))
        np.testing.assert_allclose(
            bicycle.R, np.diag([0.05886 ** 2, 0.0005814 ** 2]))

    def test_open_loop_stable(self, bicycle):
        assert spectral_radius(bicycle.A) < 1.0

    def test_passes_model_invariants_for_random_params(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params = VehicleParams(
                m=rng.uniform(500, 3000),
                v_long=rng.uniform(1, 50),
                a=rng.uniform(0.5, 2.0),
                b=rng.uniform(0.5, 2.5),
                C_f=-rng.uniform(2e4, 2e5),
                C_r=-rng.uniform(2e4, 2e5),
                I_zz=rng.uniform(500, 5000),
                sigma_side_slope=rng.uniform(0, 500),
                sigma_side_wind=rng.uniform(0, 500),
                sigma_lat_acc=rng.uniform(1e-3, 1),
                sigma_yaw_rate=rng.uniform(1e-5, 1e-2),
                dt=rng.uniform(1e-3, 0.05),
            )
            model = build_bicycle_model(params)
            assert model.n == 2  # construction validates all invariants

    def test_effective_process_cov(self, bicycle):
        np.testing.assert_allclose(
            bicycle.effective_process_cov(),
            bicycle.E @ bicycle.Q @ bicycle.E.T)

    def test_moment_arm_derived_by_default(self):
        params = VehicleParams()
        assert params.l_arm == pytest.approx(equivalent_moment_arm(1.14, 1.4))
        explicit = VehicleParams(l_arm=-0.2)
        assert explicit.l_arm == -0.2


class TestVehicleParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"m": 0.0}, {"v_long": -1.0}, {"I_zz": 0.0},
        {"a": -0.1}, {"b": 0.0}, {"dt": 0.0},
        {"sigma_side_slope": -1.0}, {"sigma_yaw_rate": -1e-9},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            VehicleParams(**kwargs)


class TestLinearGaussianModel:
    def test_json_roundtrip(self, bicycle):
        doc = json.loads(json.dumps(bicycle.to_dict()))
        assert set(doc) == {"A", "B", "C", "D", "E", "Q", "R", "dt"}
        again = LinearGaussianModel.from_dict(doc)
        for name in ("A", "B", "C", "D", "E", "Q", "R"):
            np.testing.assert_array_equal(
                getattr(again, name), getattr(bicycle, name))
        assert again.dt == bicycle.dt

    def test_missing_key_rejected(self, bicycle):
        doc = bicycle.to_dict()
        del doc["Q"]
        with pytest.raises(ValueError, match="missing"):
            LinearGaussianModel.from_dict(doc)

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            LinearGaussianModel(
                A=[[0.5]], B=[[0.0]], C=[[1.0]], D=[[0.0]],
                E=np.eye(1, 2), Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]],
                dt=0.01)

    def test_indefinite_q_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            LinearGaussianModel(
                A=[[0.5]], B=[[0.0]], C=[[1.0]], D=[[0.0]],
                E=[[1.0]], Q=[[-1.0]], R=[[1.0]], dt=0.01)

    def test_singular_r_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            LinearGaussianModel(
                A=[[0.5]], B=[[0.0]], C=[[1.0]], D=[[0.0]],
                E=[[1.0]], Q=[[1.0]], R=[[0.0]], dt=0.01)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearGaussianModel(
                A=[[0.5, 0.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]],
                E=[[1.0]], Q=[[1.0]], R=[[1.0]], dt=0.01)
        with pytest.raises(ValueError):
            LinearGaussianModel(
                A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
                D=np.zeros((2, 1)), E=np.eye(2), Q=np.eye(3), R=np.eye(2),
                dt=0.01)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LinearGaussianModel(
                A=[[np.nan]], B=[[0.0]], C=[[1.0]], D=[[0.0]],
                E=[[1.0]], Q=[[1.0]], R=[[1.0]], dt=0.01)

    def test_matrices_immutable(self, bicycle):
        with pytest.raises(ValueError):
            bicycle.A[0, 0] = 7.0
