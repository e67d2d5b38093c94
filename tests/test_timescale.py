import math
import tracemalloc

import numpy as np
import pytest

from enttime.entropy import renyi_from_probabilities
from enttime.errors import DimensionError, NumericalError
from enttime.hamiltonian import ProductHamiltonian, ProductState
from enttime.models import (
    BoseHubbardBoundarySpec,
    CoherentField,
    FockField,
    JcmSpec,
    build_bose_hubbard_boundary,
    build_jcm,
)
from enttime.propagator import Propagator
from enttime.timescale import entanglement_timescale, predicted_curvature

import oracles


def random_system(rng, max_dim=6, n_groups=None):
    dim_a = int(rng.integers(2, max_dim + 1))
    dim_b = int(rng.integers(2, max_dim + 1))
    groups = int(rng.integers(1, 4)) if n_groups is None else n_groups
    terms = oracles.random_term_list(rng, dim_a, dim_b, groups)
    h = ProductHamiltonian(dim_a, dim_b, tuple(terms))
    s = ProductState(
        psi_a=oracles.random_unit_vector(rng, dim_a),
        psi_b=oracles.random_unit_vector(rng, dim_b),
    )
    return h, s


def test_double_sum_matches_definition_oracle():
    rng = np.random.default_rng(62)
    for _ in range(100):
        h, s = random_system(rng)
        report = entanglement_timescale(h, s)
        ref = oracles.covariance_sum_loops(oracles.dense_terms(h), s.psi_a, s.psi_b)
        scale = max(1.0, report["scale"])
        assert abs(report["t_ent_inv_sq"] - ref.real) <= 1e-12 * scale
        assert abs(ref.imag) <= 1e-10 * scale


def test_positivity_of_double_sum():
    rng = np.random.default_rng(63)
    for _ in range(200):
        h, s = random_system(rng)
        report = entanglement_timescale(h, s)
        assert report["t_ent_inv_sq"] >= 0.0  # clipped
        ref = oracles.covariance_sum_loops(oracles.dense_terms(h), s.psi_a, s.psi_b)
        assert ref.real >= -1e-12 * max(1.0, report["scale"])


def test_subsystem_swap_symmetry():
    rng = np.random.default_rng(64)
    for _ in range(100):
        h, s = random_system(rng)
        swapped_h = ProductHamiltonian(
            h.dim_b, h.dim_a, tuple((b, a) for a, b in h.terms)
        )
        swapped_s = ProductState(psi_a=s.psi_b, psi_b=s.psi_a)
        direct = entanglement_timescale(h, s)
        mirrored = entanglement_timescale(swapped_h, swapped_s)
        scale = max(1.0, direct["scale"])
        assert abs(direct["t_ent_inv_sq"] - mirrored["t_ent_inv_sq"]) <= 1e-12 * scale


@pytest.mark.parametrize("omega, n_terms", [(0.0, 2), (0.7, 4)])
def test_covariance_matrices_shape_and_adjoint_pairing(omega, n_terms):
    spec = JcmSpec(lam=1.0, n_max=6, field=FockField(2), omega=omega)
    h, s = build_jcm(spec)
    report = entanglement_timescale(h, s)
    n = h.n_terms
    assert n == n_terms
    assert report["cov_a"].shape == (n, n)
    assert report["cov_b"].shape == (n, n)
    # excited atom: <sigma+ sigma-> = 1 while <sigma- sigma+> = 0, so the
    # covariance matrices are not entrywise Hermitian; the total still is real.
    # The coupling pair sigma_- (x) a^dag, sigma_+ (x) a closes the term list.
    assert report["cov_a"][n - 1, n - 2] != report["cov_a"][n - 2, n - 1].conjugate()
    assert report["imag_residual"] <= 1e-10 * max(1.0, report["scale"])


def test_jcm_fock_timescales():
    for lam in (1.0, 0.35):
        spec = JcmSpec(lam=lam, n_max=10, field=FockField(3))
        h, s = build_jcm(spec)
        report = entanglement_timescale(h, s)
        assert abs(report["t_ent_inv_sq"] - 4.0 * lam**2) <= 1e-12 * 4.0 * lam**2
        assert not report["degenerate"]
        assert abs(report["t_ent"] - 1.0 / (2.0 * lam)) <= 1e-12 / lam

        ground = JcmSpec(lam=lam, n_max=10, field=FockField(3), c_e=0.0, c_g=1.0)
        hg, sg = build_jcm(ground)
        assert abs(
            entanglement_timescale(hg, sg)["t_ent_inv_sq"] - 3.0 * lam**2
        ) <= 1e-12 * 3.0 * lam**2


def test_covariance_sum_copies_no_factor():
    # d = 1536, as in the benchmark: each B factor is 768 x 768, with at most
    # 768 nonzeros; the sum reads those and holds a few vectors of length 768
    h, state = build_jcm(JcmSpec(lam=1.0, n_max=767, field=FockField(3)))
    factor_bytes = 16 * (768 * 16)
    tracemalloc.start()
    try:
        report = entanglement_timescale(h, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["t_ent_inv_sq"] == pytest.approx(4.0, rel=1e-12)
    assert peak < factor_bytes


def test_jcm_vacuum_ground_is_degenerate_and_stationary():
    spec = JcmSpec(lam=1.0, n_max=4, field=FockField(0), c_e=0.0, c_g=1.0)
    h, s = build_jcm(spec)
    report = entanglement_timescale(h, s)
    assert report["degenerate"]
    assert report["t_ent_inv_sq"] == 0.0
    assert report["t_ent"] is None


def test_jcm_coherent_timescales():
    for nu in (1.0, 3.0, 3.0 + 2.0j):
        spec = JcmSpec(lam=1.0, n_max=60, field=CoherentField(nu))
        h, s = build_jcm(spec)
        report = entanglement_timescale(h, s)
        assert abs(report["t_ent"] - 1.0) <= 1e-10
    ground = JcmSpec(lam=1.0, n_max=60, field=CoherentField(3.0), c_e=0.0, c_g=1.0)
    hg, sg = build_jcm(ground)
    assert entanglement_timescale(hg, sg)["degenerate"]


def test_bose_hubbard_timescale_and_u_invariance():
    j = 2.0 * math.pi * 66.0
    base = None
    for u in (0.0, j, 10.0 * j):
        spec = BoseHubbardBoundarySpec(j_rate=j, u_rate=u)
        h, s = build_bose_hubbard_boundary(spec)
        report = entanglement_timescale(h, s)
        assert abs(report["t_ent_inv_sq"] - 4.0 * j * j) <= 1e-12 * 4.0 * j * j
        if base is None:
            base = report["t_ent_inv_sq"]
        assert abs(report["t_ent_inv_sq"] - base) <= 1e-12 * base


def test_degeneracy_scales_with_lambda():
    # rescaling the coupling must not flip the degeneracy classification
    for lam in (1e-6, 1.0, 1e6):
        spec = JcmSpec(lam=lam, n_max=40, field=CoherentField(2.0), c_e=0.0, c_g=1.0)
        h, s = build_jcm(spec)
        assert entanglement_timescale(h, s)["degenerate"]


def test_imaginary_residual_flags_non_hermitian_total():
    # a lone sigma+ type term with a complex-phase state: the double sum
    # picks up an order-one imaginary part and must be rejected
    g = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    h = ProductHamiltonian(2, 2, ((g, np.diag([1.0, -1.0]).astype(complex)),))
    phase = np.exp(0.25j * np.pi)
    s = ProductState(
        psi_a=np.array([1.0, phase]) / np.sqrt(2.0),
        psi_b=np.array([1.0, 1.0]) / np.sqrt(2.0),
    )
    with pytest.raises(NumericalError, match="imaginary"):
        entanglement_timescale(h, s)


@pytest.mark.parametrize("lam", [1e78, 1e160], ids=["scale-overflows", "sum-overflows"])
def test_non_finite_sum_or_scale_is_numerical_error(lam):
    # finite rates whose covariances overflow: at 1e160 the sum itself is
    # inf + nan i, which every plain comparison would let through as degenerate
    h, s = build_jcm(JcmSpec(lam=lam, n_max=5, field=FockField(3)))
    with pytest.raises(NumericalError, match="not finite"):
        entanglement_timescale(h, s)


def test_dimension_mismatch_rejected():
    spec = JcmSpec(lam=1.0, n_max=4, field=FockField(1))
    h, _ = build_jcm(spec)
    s = ProductState(psi_a=np.array([1.0, 0.0]), psi_b=np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        entanglement_timescale(h, s)


def test_predicted_curvature_values_and_guards():
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    h, s = build_jcm(spec)
    report = entanglement_timescale(h, s)
    p2 = predicted_curvature(report, 2)
    assert p2["coefficient"] == 4.0
    assert p2["curvature"] == 4.0 * report["t_ent_inv_sq"]
    p3 = predicted_curvature(report, 3)
    assert abs(p3["curvature"] - 3.0 * 4.0) <= 1e-12  # 3 lam^2 (N+1) at lam=1, N=3
    for bad in (1, 0, -2):
        with pytest.raises(ValueError, match="von_neumann_curvature_probe|>= 2"):
            predicted_curvature(report, bad)
    with pytest.raises(ValueError):
        predicted_curvature(report, 2.5)
    with pytest.raises(ValueError):
        predicted_curvature(report, True)


def test_coefficient_monotone_decreasing():
    spec = JcmSpec(lam=1.0, n_max=4, field=FockField(1))
    h, s = build_jcm(spec)
    report = entanglement_timescale(h, s)
    coeffs = [predicted_curvature(report, a)["coefficient"] for a in range(2, 65)]
    assert all(c1 > c2 for c1, c2 in zip(coeffs, coeffs[1:]))
    assert coeffs[0] == 4.0
    assert coeffs[-1] > 2.0


def test_double_sum_equals_quarter_s2_curvature():
    # t_ent_inv_sq = (1/4) d^2 S_2/dt^2 at t = 0, by finite differences on
    # exact evolution, for random small systems
    rng = np.random.default_rng(65)
    checked = 0
    while checked < 10:
        h, s = random_system(rng, max_dim=4, n_groups=1)
        report = entanglement_timescale(h, s)
        if report["degenerate"]:
            continue
        propagator = Propagator(h, s)

        def s2(t):
            return renyi_from_probabilities(propagator.probabilities([t])[0], 2)

        measured = oracles.stencil_second_derivative(s2, 0.0, report["t_ent"] / 50.0)
        assert abs(measured / 4.0 - report["t_ent_inv_sq"]) <= 5e-3 * report["t_ent_inv_sq"]
        checked += 1


def first_derivative(propagator, alpha, dt):
    """Centered difference (S_alpha(dt) - S_alpha(-dt)) / (2 dt) at t = 0."""
    s_plus, s_minus = renyi_from_probabilities(propagator.probabilities([dt, -dt]), alpha)
    return float(s_plus - s_minus) / (2.0 * dt)


def test_first_derivative_vanishes_for_product_states():
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    propagator = Propagator(*build_jcm(spec))
    for alpha in (2, 3, 8):
        assert abs(first_derivative(propagator, alpha, 1e-4)) <= 1e-6

    j = 2.0 * math.pi * 66.0
    hb, sb = build_bose_hubbard_boundary(BoseHubbardBoundarySpec(j_rate=j))
    assert abs(first_derivative(Propagator(hb, sb), 2, 1e-4 / j)) <= 1e-6


def test_first_derivative_zero_for_stationary_state():
    # |g>|0> is an eigenstate of the JCM Hamiltonian
    spec = JcmSpec(lam=1.0, n_max=4, field=FockField(0), c_e=0.0, c_g=1.0)
    assert abs(first_derivative(Propagator(*build_jcm(spec)), 2, 1e-3)) <= 1e-12


def test_report_scaling_relation():
    # t_ent must be exactly the inverse square root of the reported sum
    rng = np.random.default_rng(66)
    for _ in range(20):
        h, s = random_system(rng)
        report = entanglement_timescale(h, s)
        if not report["degenerate"]:
            assert report["t_ent"] == report["t_ent_inv_sq"]**-0.5
