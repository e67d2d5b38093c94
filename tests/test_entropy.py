import functools
import math

import numpy as np
import pytest

from enttime.entropy import (
    VON_NEUMANN_ALPHA,
    entropy_series,
    renyi_from_probabilities,
    verify_growth,
    von_neumann_curvature_probe,
    von_neumann_from_probabilities,
)
from enttime.errors import DimensionError, NumericalError, StateError
from enttime.hamiltonian import ProductHamiltonian, ProductState, assemble, product_state_vector
from enttime.propagator import Propagator
from enttime.models import (
    CoherentField,
    FockField,
    JcmSpec,
    build_jcm,
)
from enttime.timescale import check_alpha, entanglement_timescale

import oracles


def random_pure_state(rng, dim_a, dim_b):
    """Random (amplitudes, dim_a, dim_b) of an A x B pure state."""
    return oracles.random_unit_vector(rng, dim_a * dim_b), dim_a, dim_b


def reduced_density(state, keep):
    psi, dim_a, dim_b = state
    return oracles.partial_trace_loops(np.outer(psi, psi.conj()), dim_a, dim_b, keep)


def probe(h, s, times):
    return von_neumann_curvature_probe(Propagator(h, s), entanglement_timescale(h, s), times)


# ---------------------------------------------------------------------------
# Schmidt route against matrix-power oracles on the reduced density matrix


def test_renyi_entropy_matches_matrix_power_oracle():
    rng = np.random.default_rng(72)
    for _ in range(40):
        state = random_pure_state(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        probs = oracles.schmidt_probabilities_svd(*state)
        rho_a = reduced_density(state, "A")
        for alpha in (2, 3, 4):
            ours = renyi_from_probabilities(probs, alpha)
            assert abs(ours - oracles.renyi_matrix_power(rho_a, alpha)) <= 1e-10


def test_von_neumann_matches_eigh_oracle():
    rng = np.random.default_rng(73)
    for _ in range(40):
        state = random_pure_state(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        ours = von_neumann_from_probabilities(oracles.schmidt_probabilities_svd(*state))
        assert abs(ours - oracles.von_neumann_eigh(reduced_density(state, "A"))) <= 1e-10


# ---------------------------------------------------------------------------
# exact reference values


def test_maximally_mixed_qubit_values():
    for alpha in (2, 3, 8):
        assert abs(renyi_from_probabilities([0.5, 0.5], alpha) - math.log(2.0)) <= 1e-12
    assert abs(von_neumann_from_probabilities([0.5, 0.5]) - math.log(2.0)) <= 1e-12

    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    probs = oracles.schmidt_probabilities_svd(bell, 2, 2)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-14)
    assert abs(renyi_from_probabilities(probs, 2) - math.log(2.0)) <= 1e-12


def test_pure_state_entropies_are_exactly_zero():
    assert renyi_from_probabilities([1.0, 0.0, 0.0], 2) == 0.0
    assert von_neumann_from_probabilities([1.0, 0.0]) == 0.0
    probs = oracles.schmidt_probabilities_svd(np.eye(6)[3], 3, 2)  # |1>|1>
    assert renyi_from_probabilities(probs, 4) == 0.0
    assert von_neumann_from_probabilities(probs) == 0.0


def test_two_outcome_von_neumann_value():
    expected = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
    assert abs(von_neumann_from_probabilities([0.25, 0.75]) - expected) <= 1e-14


def test_kernel_resolves_probabilities_near_one():
    # spectrum (1 - eps, eps) with eps = 1e-20: a log-of-sum evaluation
    # returns exactly 0 here, the defect form must keep ~16 digits
    eps = 1e-20
    s2 = renyi_from_probabilities([1.0 - eps, eps], 2)
    assert abs(s2 - 2.0 * eps) <= 1e-6 * 2.0 * eps

    vn = von_neumann_from_probabilities([1.0 - eps, eps])
    expected = -(1.0 - eps) * math.log1p(-eps) - eps * math.log(eps)
    assert abs(vn - expected) <= 1e-6 * expected
    assert vn > s2


def test_probability_kernel_guards():
    with pytest.raises(StateError, match="negative"):
        renyi_from_probabilities([1.1, -0.1], 2)
    with pytest.raises(StateError, match="sum"):
        renyi_from_probabilities([0.5, 0.4], 2)
    with pytest.raises(StateError):
        renyi_from_probabilities([0.5, np.nan], 2)
    with pytest.raises(StateError):
        renyi_from_probabilities([], 2)
    # roundoff-level negativity is clipped, not rejected
    assert renyi_from_probabilities([1.0, -1e-13], 2) == 0.0


@pytest.mark.parametrize("alpha", [VON_NEUMANN_ALPHA, 2, 5])
def test_kernels_take_a_stack_of_spectra(alpha):
    kernel = von_neumann_from_probabilities
    if alpha != VON_NEUMANN_ALPHA:
        kernel = functools.partial(renyi_from_probabilities, alpha=alpha)
    rng = np.random.default_rng(76)
    stack = rng.dirichlet(np.ones(12), size=(2, 40))  # (2, T, k), k past numpy's 8-way sums
    stack[0, 3] = np.eye(12)[0]  # pure
    stack[1, 5] = np.eye(12)[4]  # pure, leading entry not first
    stack[1, 2, :2], stack[1, 2, 2:] = (0.7, 0.3), 0.0  # zeros in the tail
    both = kernel(stack)
    assert both.shape == (2, 40)
    np.testing.assert_array_equal(kernel(stack[0]), both[0])
    for i, j in np.ndindex(2, 40):
        assert both[i, j] == kernel(stack[i, j])
        assert both[i, j] == oracles.spectrum_entropy_scalar(stack[i, j], alpha)
    for i, j in ((0, 3), (1, 5)):
        # -0.0 == 0.0, so test the sign bit
        assert both[i, j] == 0.0 and math.copysign(1.0, both[i, j]) == 1.0
        assert math.copysign(1.0, kernel(stack[i, j])) == 1.0
    for bad in ([1.1, -0.1], [0.5, np.nan], [0.6, 0.3]):
        broken = stack.copy()
        broken[1, 4] = np.pad(bad, (0, 10))
        with pytest.raises(StateError):
            kernel(broken)


def test_alpha_validation():
    probs = [0.5, 0.5]
    for bad in (1, 0, -3, 2.0, True):
        with pytest.raises(ValueError):
            renyi_from_probabilities(probs, bad)
    assert check_alpha(np.int64(1), 1) == 1
    for bad in (0, 1.0, False):
        with pytest.raises(ValueError, match=">= 1"):
            check_alpha(bad, 1)
    with pytest.raises(ValueError, match="von_neumann_curvature_probe"):
        check_alpha(1, 2)


# ---------------------------------------------------------------------------
# structural inequalities on evolved states


def test_alpha_ordering_and_von_neumann_dominance():
    spec = JcmSpec(lam=1.0, n_max=8, field=FockField(1))
    h, s = build_jcm(spec)
    times = np.linspace(0.05, 2.0, 12)
    _, (vn, s2, s3, s4, s8) = entropy_series(h, s, [VON_NEUMANN_ALPHA, 2, 3, 4, 8], times)
    assert np.all(vn >= s2 - 1e-10)
    assert np.all(s2 >= s3 - 1e-10)
    assert np.all(s3 >= s4 - 1e-10)
    assert np.all(s4 >= s8 - 1e-10)


def test_entropy_bounds():
    rng = np.random.default_rng(74)
    for _ in range(50):
        dim_a = int(rng.integers(2, 6))
        dim_b = int(rng.integers(2, 6))
        state = random_pure_state(rng, dim_a, dim_b)
        probs = oracles.schmidt_probabilities_svd(*state)
        cap = math.log(min(dim_a, dim_b)) + 1e-9
        for alpha in (2, 5):
            value = renyi_from_probabilities(probs, alpha)
            assert -1e-12 <= value <= cap
        assert -1e-12 <= von_neumann_from_probabilities(probs) <= cap


def test_reduced_entropies_agree_between_subsystems():
    rng = np.random.default_rng(75)
    for _ in range(100):
        dim_a = int(rng.integers(2, 7))
        dim_b = int(rng.integers(2, 7))
        state = random_pure_state(rng, dim_a, dim_b)
        rho_a = reduced_density(state, "A")
        rho_b = reduced_density(state, "B")
        for alpha in (2, 3):
            sa = oracles.renyi_matrix_power(rho_a, alpha)
            sb = oracles.renyi_matrix_power(rho_b, alpha)
            assert abs(sa - sb) <= 1e-10
            direct = renyi_from_probabilities(oracles.schmidt_probabilities_svd(*state), alpha)
            assert abs(sa - direct) <= 1e-10
        assert abs(oracles.von_neumann_eigh(rho_a) - oracles.von_neumann_eigh(rho_b)) <= 1e-10


# ---------------------------------------------------------------------------
# time series


def test_series_matches_analytic_jcm():
    spec = JcmSpec(lam=0.7, n_max=30, field=CoherentField(1.5), omega=0.4)
    h, s = build_jcm(spec)
    times = np.linspace(0.0, 3.0 / spec["lambda"], 16)
    _, (values,) = entropy_series(h, s, [2], times)
    for t, value in zip(times, values):
        psi = oracles.jcm_analytic_state(spec, t)
        probs = oracles.schmidt_probabilities_svd(psi, 2, spec["n_max"] + 1)
        assert abs(value - renyi_from_probabilities(probs, 2)) <= 1e-9
    assert values[0] <= 1e-10


def test_series_orders_and_marker():
    spec = JcmSpec(lam=1.0, n_max=6, field=FockField(1))
    h, s = build_jcm(spec)
    times = np.array([0.0, 0.3, 0.7])
    spectra, series = entropy_series(h, s, [2, VON_NEUMANN_ALPHA, 4], times)
    assert len(series) == 3
    assert series[0].shape == (3,)
    assert np.array_equal(series[0], renyi_from_probabilities(spectra, 2))
    assert np.array_equal(series[2], renyi_from_probabilities(spectra, 4))
    # the alpha = 1 entry is the von Neumann branch
    psi = oracles.expm_propagate(assemble(h), product_state_vector(s), 0.7)
    probs = oracles.schmidt_probabilities_svd(psi, h.dim_a, h.dim_b)
    expected = von_neumann_from_probabilities(probs)
    assert abs(series[1][2] - expected) <= 1e-12


def test_series_spectra_capture():
    spec = JcmSpec(lam=1.0, n_max=5, field=FockField(2))
    h, s = build_jcm(spec)
    times = np.linspace(0.0, 1.0, 7)
    spectra, _ = entropy_series(h, s, [2], times)
    assert spectra.shape == (7, 2)  # min(2, n_max + 1) Schmidt values
    assert np.all(np.diff(spectra, axis=1) <= 0.0)
    # the two qubit-side probabilities account for all the weight
    assert np.max(np.abs(spectra.sum(axis=1) - 1.0)) <= 1e-12


def test_series_batched_matches_single_time():
    spec = JcmSpec(lam=1.0, n_max=40, field=CoherentField(1.2), c_e=0.6, c_g=0.8)
    h, s = build_jcm(spec)
    times = np.linspace(0.0, 2.0, 9)
    spectra, (values,) = entropy_series(h, s, [3], times)
    for k, t in enumerate(times):
        one_spectrum, (one_value,) = entropy_series(h, s, [3], [t])
        assert abs(one_value[0] - values[k]) <= 1e-14
        assert np.max(np.abs(one_spectrum[0] - spectra[k])) <= 1e-14


def test_series_validation():
    spec = JcmSpec(lam=1.0, n_max=4, field=FockField(1))
    h, s = build_jcm(spec)
    with pytest.raises(ValueError):
        entropy_series(h, s, [], [0.0, 1.0])
    with pytest.raises(ValueError):
        entropy_series(h, s, [2], [1.0, 0.5])
    with pytest.raises(ValueError, match=r"nonnegative, got -1\.0$"):
        entropy_series(h, s, [2], [-1.0, 0.5])  # not np.float64(-1.0)
    with pytest.raises(ValueError):
        entropy_series(h, s, [0], [0.0, 1.0])
    with pytest.raises(ValueError):
        entropy_series(h, s, [2], [])
    other = ProductState(psi_a=np.array([1.0, 0.0]), psi_b=np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        entropy_series(h, other, [2], [0.0, 1.0])


def test_leading_probability_curvature_at_zero():
    # the largest Schmidt probability starts at 1 and bends down at a rate
    # set by the same double sum: d^2 p1/dt^2 = -2 / T^2 at t = 0
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    h, s = build_jcm(spec)
    report = entanglement_timescale(h, s)
    propagator = Propagator(h, s)

    def p1(t):
        return float(propagator.probabilities([t])[0, 0])

    measured = oracles.stencil_second_derivative(p1, 0.0, report["t_ent"] / 50.0)
    expected = -2.0 * report["t_ent_inv_sq"]
    assert abs(measured - expected) <= 0.01 * abs(expected)


# ---------------------------------------------------------------------------
# von Neumann curvature probe


def exact_doublet_curvature(omega_r, t):
    # single resonant doublet: S(t) is the binary entropy of cos^2(omega_r t)
    p = math.cos(omega_r * t) ** 2
    q = math.sin(omega_r * t) ** 2
    return 2.0 * omega_r**2 * math.cos(2.0 * omega_r * t) * math.log(p / q) - 4.0 * omega_r**2


def test_probe_matches_exact_single_doublet_curvature():
    spec = JcmSpec(lam=1.0, n_max=3, field=FockField(0))
    h, s = build_jcm(spec)
    times = [0.3, 0.2, 0.1]
    rows = probe(h, s, times)
    for (t, measured), t_req in zip(rows, times):
        assert t == t_req
        exact = exact_doublet_curvature(1.0, t)
        assert abs(measured - exact) <= 1e-3 * abs(exact)


def test_probe_log_divergence_coefficient():
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    h, s = build_jcm(spec)
    report = entanglement_timescale(h, s)
    times = report["t_ent"] * np.array([1e-1, 1e-2, 1e-3, 1e-4])
    rows = von_neumann_curvature_probe(Propagator(h, s), report, times)
    log_t = np.log([t for t, _ in rows])
    curv = np.array([c for _, c in rows])
    slope, _ = np.polyfit(log_t, curv, 1)
    expected = -4.0 * report["t_ent_inv_sq"]
    assert abs(slope - expected) <= 0.05 * abs(expected)


def test_probe_stationary_state_is_flat():
    spec = JcmSpec(lam=1.0, n_max=4, field=FockField(0), c_e=0.0, c_g=1.0)
    h, s = build_jcm(spec)
    rows = probe(h, s, [0.1, 0.01])
    for _, curvature in rows:
        assert abs(curvature) <= 1e-10


def test_probe_degenerate_coherent_ground_vanishes():
    spec = JcmSpec(lam=1.0, n_max=40, field=CoherentField(2.0), c_e=0.0, c_g=1.0)
    h, s = build_jcm(spec)
    rows = probe(h, s, [1e-2, 1e-3])
    # sixth-order onset: the curvature dies out instead of diverging
    assert abs(rows[1][1]) < abs(rows[0][1])
    assert abs(rows[1][1]) < 1e-6


def test_probe_validation():
    spec = JcmSpec(lam=1.0, n_max=4, field=FockField(1))
    h, s = build_jcm(spec)
    with pytest.raises(ValueError, match="descending"):
        probe(h, s, [0.1, 0.2])
    with pytest.raises(ValueError):
        probe(h, s, [])
    with pytest.raises(ValueError):
        probe(h, s, [0.1, 0.0])
    with pytest.raises(NumericalError, match="floor"):
        probe(h, s, [1e-9])


# ---------------------------------------------------------------------------
# growth check


def test_verify_growth_rows():
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    h, s = build_jcm(spec)
    report, rows = verify_growth(h, s, [2, VON_NEUMANN_ALPHA, 3])
    assert report["t_ent_inv_sq"] == entanglement_timescale(h, s)["t_ent_inv_sq"]
    assert [r["label"] for r in rows] == [
        "curvature(alpha=2)",
        "curvature(alpha=3)",
        "vn-divergence",
    ]
    assert [r["status"] for r in rows] == ["PASS", "PASS", "INFO"]
    assert abs(rows[0]["predicted"] - 16.0) <= 1e-12
    _, (vn,) = verify_growth(h, s, [VON_NEUMANN_ALPHA])
    assert vn["measured"] == rows[2]["measured"]


def test_verify_growth_measures_each_order_once():
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    h, s = build_jcm(spec)
    _, rows = verify_growth(h, s, [3, 2, np.int64(3), VON_NEUMANN_ALPHA, 2, 1])
    assert [r["label"] for r in rows] == [
        "curvature(alpha=3)",
        "curvature(alpha=2)",
        "vn-divergence",
    ]


def test_verify_growth_validation():
    spec = JcmSpec(lam=1.0, n_max=4, field=FockField(1))
    h, s = build_jcm(spec)
    with pytest.raises(ValueError, match="tolerance_rel"):
        verify_growth(h, s, [2], 0.0)
    with pytest.raises(ValueError):
        verify_growth(h, s, [0])


def test_verify_growth_rejects_empty_alphas():
    # an empty request would otherwise return no rows, which reads as a pass
    for spec in (
        JcmSpec(lam=1.0, n_max=4, field=FockField(1)),
        JcmSpec(lam=1.0, n_max=40, field=CoherentField(2.0), c_e=0.0, c_g=1.0),
    ):
        h, s = build_jcm(spec)
        with pytest.raises(ValueError, match="alphas is empty"):
            verify_growth(h, s, [])
