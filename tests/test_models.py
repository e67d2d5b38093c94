import json
import math
import tracemalloc

import numpy as np
import pytest

import enttime.models
from enttime.cli import load_model_file
from enttime.errors import DimensionError, ModelError, StateError, TruncationError
from enttime.hamiltonian import assemble, product_state_vector
from enttime.tolerances import MAX_DIM
from enttime.models import (
    ATOM_EXCITED,
    ATOM_GROUND,
    BoseHubbardBoundarySpec,
    CoherentField,
    FockField,
    JcmSpec,
    annihilation,
    build_bose_hubbard_boundary,
    build_jcm,
    coherent_tail_mass,
    creation,
    field_amplitudes,
    identity,
    jcm_timescale_closed_form,
    number_operator,
    sigma_minus,
    sigma_plus,
    sigma_z,
    suggest_coherent_cutoff,
)
from enttime.propagator import Propagator
from enttime.timescale import entanglement_timescale

import oracles


# ---------------------------------------------------------------------------
# operators


def test_operator_matrices():
    a = annihilation(3)
    expected = np.array(
        [[0.0, 1.0, 0.0], [0.0, 0.0, math.sqrt(2.0)], [0.0, 0.0, 0.0]]
    )
    assert np.array_equal(a.toarray(), expected)
    # only the nonzeros are stored: the zero level of n, the empty rows of a
    assert a.values.size == 2 and np.array_equal(a.indptr, [0, 1, 2, 2])
    assert number_operator(4).values.size == 3
    assert np.array_equal(creation(3).toarray(), expected.T)
    assert np.array_equal(number_operator(4).toarray(), np.diag([0.0, 1.0, 2.0, 3.0]))
    assert np.array_equal(identity(3).toarray(), np.eye(3))
    assert np.array_equal(sigma_z().toarray(), np.diag([1.0, -1.0]))
    assert sigma_plus().toarray()[ATOM_EXCITED, ATOM_GROUND] == 1.0
    assert sigma_minus().toarray()[ATOM_GROUND, ATOM_EXCITED] == 1.0
    assert np.array_equal(sigma_plus().toarray(), sigma_minus().adjoint().toarray())


def test_ladder_algebra_below_cutoff():
    dim = 7
    a = annihilation(dim).toarray()
    ad = creation(dim).toarray()
    comm = a @ ad - ad @ a
    # canonical commutator holds except on the truncated top level
    assert np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1))) <= 1e-14
    assert np.max(np.abs(ad @ a - number_operator(dim).toarray())) <= 1e-14


def test_operator_dimension_guards():
    with pytest.raises(ModelError):
        annihilation(0)
    with pytest.raises(ModelError):
        number_operator(-1)


# ---------------------------------------------------------------------------
# spec validation and field preparation


def test_jcm_spec_validation():
    with pytest.raises(StateError, match="norm"):
        JcmSpec(lam=1.0, n_max=4, field=FockField(1), c_e=1.0, c_g=1.0)
    with pytest.raises(TruncationError, match="n_max >= 5"):
        JcmSpec(lam=1.0, n_max=4, field=FockField(4))
    with pytest.raises(ModelError):
        JcmSpec(lam=1.0, n_max=0, field=FockField(0))
    with pytest.raises(ModelError):
        JcmSpec(lam=math.inf, n_max=4, field=FockField(1))
    with pytest.raises(ModelError):
        JcmSpec(lam=1.0, n_max=4, field="thermal")
    # occupying the level right below the cutoff is allowed
    JcmSpec(lam=1.0, n_max=4, field=FockField(3))


def test_coherent_cutoff_enforcement():
    with pytest.raises(TruncationError, match="n_max >="):
        JcmSpec(lam=1.0, n_max=25, field=CoherentField(3.0))
    JcmSpec(lam=1.0, n_max=45, field=CoherentField(3.0))
    suggested = suggest_coherent_cutoff(3.0)
    assert coherent_tail_mass(3.0, suggested) <= 1e-12
    assert coherent_tail_mass(3.0, 25) > 1e-12
    # tail mass decreases monotonically with the cutoff
    tails = [coherent_tail_mass(3.0, n) for n in range(10, 60, 5)]
    assert all(t1 > t2 for t1, t2 in zip(tails, tails[1:]))
    # a cutoff far below the mean |nu|^2 = 900: the first terms underflow,
    # yet nearly all the mass lies above the cutoff
    assert abs(coherent_tail_mass(30.0, 10) - 1.0) <= 1e-12
    assert coherent_tail_mass(1e4, 10) == 1.0  # |nu|^2 = 1e8, and no 1e8-term loop
    with pytest.raises(TruncationError, match="n_max >= "):
        JcmSpec(lam=1.0, n_max=10, field=CoherentField(30.0))


def test_spec_size_cap_precedes_tail_sum(monkeypatch):
    def refuse(nu, n_max):
        raise AssertionError("tail summed before the size cap was checked")

    monkeypatch.setattr(enttime.models, "coherent_tail_mass", refuse)
    nu = 1e5
    with pytest.raises(DimensionError, match="exceeds the configured maximum 4096"):
        JcmSpec(lam=1.0, n_max=suggest_coherent_cutoff(nu), field=CoherentField(nu))
    with pytest.raises(DimensionError, match="exceeds the configured maximum 4096"):
        BoseHubbardBoundarySpec(j_rate=1.0, n_per_site_max=64)


# each model document next to the constructor call that resolves to the same dict
_HZ = 2.0 * math.pi  # the reader's factor for a rate given in Hz
_DOCUMENTS = {
    "fock-defaults": (
        {"model": "jcm", "lambda": 0.8, "field": {"type": "fock", "n": 2}},
        lambda: JcmSpec(lam=0.8, n_max=4, field=FockField(2)),
    ),
    "fock-full": (
        {"model": "jcm", "lambda_hz": 0.5, "omega_hz": 0.25, "n_max": 6,
         "atom": {"c_e": 0.6, "c_g": [0.0, 0.8]}, "field": {"type": "fock", "n": 3}},
        lambda: JcmSpec(lam=_HZ * 0.5, n_max=6, field=FockField(3), c_e=0.6, c_g=0.8j,
                        omega=_HZ * 0.25),
    ),
    "coherent-defaults": (
        {"model": "jcm", "lambda": 1.0, "field": {"type": "coherent", "nu": [1.5, -0.5]}},
        lambda: JcmSpec(lam=1.0, n_max=suggest_coherent_cutoff(1.5 - 0.5j),
                        field=CoherentField(1.5 - 0.5j)),
    ),
    "coherent-full": (
        {"model": "jcm", "lambda": 1.0, "omega": 0.3, "n_max": 40,
         "atom": {"c_e": 0.0, "c_g": 1.0}, "field": {"type": "coherent", "nu": 3.0}},
        lambda: JcmSpec(lam=1.0, n_max=40, field=CoherentField(3.0), c_e=0.0, c_g=1.0,
                        omega=0.3),
    ),
    "bose-hubbard-defaults": (
        {"model": "bose_hubbard", "j_rate": 2},
        lambda: BoseHubbardBoundarySpec(j_rate=2.0),
    ),
    "bose-hubbard-full": (
        {"model": "bose_hubbard", "j_rate": 1.0, "u_rate_hz": 2.0, "n_per_site_max": 3},
        lambda: BoseHubbardBoundarySpec(j_rate=1.0, u_rate=_HZ * 2.0, n_per_site_max=3),
    ),
}


@pytest.mark.parametrize("name", list(_DOCUMENTS))
def test_constructors_return_the_resolved_document(tmp_path, name):
    document, construct = _DOCUMENTS[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    h, state, resolved = load_model_file(str(path))
    spec = construct()
    assert spec == resolved
    assert json.dumps(spec) == json.dumps(resolved)  # the same keys in the same order
    assert json.loads(json.dumps(spec)) == spec
    # a builder reads the round-tripped dict as it reads the constructor's
    build = build_jcm if spec["model"] == "jcm" else build_bose_hubbard_boundary
    h2, state2 = build(json.loads(json.dumps(spec)))
    assert np.array_equal(assemble(h2), assemble(h))
    assert np.array_equal(state2.psi_a, state.psi_a)
    assert np.array_equal(state2.psi_b, state.psi_b)


def test_builders_check_the_size_of_a_hand_made_document(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a factor was built before the size cap was checked")

    monkeypatch.setattr(enttime.models, "_diagonal", refuse)
    jcm = {**JcmSpec(lam=1.0, n_max=4, field=FockField(1)), "n_max": MAX_DIM}
    with pytest.raises(DimensionError, match="exceeds the configured maximum"):
        build_jcm(jcm)
    with pytest.raises(DimensionError, match="exceeds the configured maximum"):
        field_amplitudes(jcm)
    with pytest.raises(DimensionError, match="exceeds the configured maximum"):
        jcm_timescale_closed_form(jcm)
    bose_hubbard = {**BoseHubbardBoundarySpec(j_rate=1.0), "n_per_site_max": 64}
    with pytest.raises(DimensionError, match="exceeds the configured maximum"):
        build_bose_hubbard_boundary(bose_hubbard)


def test_coherent_tail_against_direct_sum():
    # compare the log-space accumulation with a naive Poisson partial sum
    nu = 2.0
    mean = abs(nu) ** 2
    for n_max in (2, 5, 10, 20):  # 2 lies below the mean
        direct = 1.0 - sum(
            math.exp(-mean) * mean**n / math.factorial(n) for n in range(n_max + 1)
        )
        assert abs(coherent_tail_mass(nu, n_max) - direct) <= 1e-13


def test_field_amplitudes_fock():
    spec = JcmSpec(lam=1.0, n_max=6, field=FockField(4))
    amps = field_amplitudes(spec)
    assert amps.shape == (7,)
    assert amps[4] == 1.0
    assert np.count_nonzero(amps) == 1


def test_field_amplitudes_coherent():
    nu = 1.5 + 0.5j
    spec = JcmSpec(lam=1.0, n_max=40, field=CoherentField(nu))
    amps = field_amplitudes(spec)
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-14
    # recursion C_{n+1} / C_n = nu / sqrt(n+1)
    for n in range(10):
        ratio = amps[n + 1] / amps[n]
        assert abs(ratio - nu / math.sqrt(n + 1.0)) <= 1e-12
    # mean occupation approximates |nu|^2
    mean = float(np.sum(np.arange(41) * np.abs(amps) ** 2))
    assert abs(mean - abs(nu) ** 2) <= 1e-10


# ---------------------------------------------------------------------------
# Hamiltonian structure


def test_excitation_number_is_conserved():
    spec = JcmSpec(lam=0.8, n_max=7, field=FockField(2), omega=1.3)
    h, _ = build_jcm(spec)
    dense = assemble(h)
    dim = spec["n_max"] + 1
    excitation = np.kron(0.5 * sigma_z().toarray(), identity(dim).toarray()) + np.kron(
        identity(2).toarray(), number_operator(dim).toarray()
    )
    comm = dense @ excitation - excitation @ dense
    assert np.max(np.abs(comm)) <= 1e-12


def test_jcm_builds_free_terms_only_off_zero_detuning():
    dim = 9
    coupling = [
        (0.7 * sigma_minus().toarray(), creation(dim).toarray()),
        (0.7 * sigma_plus().toarray(), annihilation(dim).toarray()),
    ]
    h, _ = build_jcm(JcmSpec(lam=0.7, n_max=dim - 1, field=FockField(2)))
    assert h.n_terms == 2
    for (a, b), (want_a, want_b) in zip(oracles.dense_terms(h), coupling):
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)

    hd, _ = build_jcm(JcmSpec(lam=0.7, n_max=dim - 1, field=FockField(2), omega=1.3))
    free = [
        (0.5 * 1.3 * sigma_z().toarray(), identity(dim).toarray()),
        (identity(2).toarray(), 1.3 * number_operator(dim).toarray()),
    ]
    assert hd.n_terms == 4
    for (a, b), (want_a, want_b) in zip(oracles.dense_terms(hd), free + coupling):
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)

    # lam = 0 still leaves a valid coupling pair, whose A factors store nothing
    h0, _ = build_jcm(JcmSpec(lam=0.0, n_max=dim - 1, field=FockField(2)))
    assert h0.n_terms == 2 and h0.terms[0][0].values.size == h0.terms[1][0].values.size == 0


@pytest.mark.parametrize(
    "spec",
    [
        JcmSpec(lam=1.0, n_max=12, field=FockField(3)),
        JcmSpec(lam=1.0, n_max=40, field=CoherentField(2.0)),
        JcmSpec(lam=1.0, n_max=40, field=CoherentField(2.0), c_e=0.0, c_g=1.0),
        JcmSpec(lam=0.8, n_max=40, field=CoherentField(1.5 - 0.5j), c_e=0.6, c_g=0.8j),
    ],
    ids=["fock", "coherent-excited", "coherent-ground", "coherent-superposition"],
)
def test_zero_detuning_matches_the_four_term_hamiltonian_bit_for_bit(spec):
    h, state = build_jcm(spec)
    full = oracles.jcm_four_term_hamiltonian(spec)
    assert (h.n_terms, full.n_terms) == (2, 4)
    got, want = entanglement_timescale(h, state), entanglement_timescale(full, state)
    assert got["t_ent_inv_sq"] == want["t_ent_inv_sq"]
    assert got["scale"] == want["scale"]
    assert got["degenerate"] == want["degenerate"]
    times = np.linspace(0.0, 4.0, 41)
    assert np.array_equal(
        Propagator(h, state).probabilities(times), Propagator(full, state).probabilities(times)
    )


def test_zero_detuning_build_holds_no_dense_free_factor():
    # n_max 767 as in the benchmark: a dense 768 x 768 field factor took
    # 9.4 MB; the CSR factors hold at most 768 entries each
    tracemalloc.start()
    try:
        h, _ = build_jcm(JcmSpec(lam=1.0, n_max=767, field=FockField(3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.n_terms == 2
    assert peak < 2**20


@pytest.mark.parametrize(
    "build, spec",
    [
        (build_jcm, JcmSpec(lam=1.0, omega=0.5, n_max=6, field=FockField(2))),
        (build_bose_hubbard_boundary, BoseHubbardBoundarySpec(j_rate=1.0, u_rate=2.0)),
    ],
    ids=["jcm", "bose-hubbard"],
)
def test_builders_hand_over_frozen_factors(monkeypatch, build, spec):
    handed = []
    product = enttime.models.ProductHamiltonian

    def spy(**kwargs):
        handed.append(kwargs["terms"])
        return product(**kwargs)

    monkeypatch.setattr(enttime.models, "ProductHamiltonian", spy)
    h, _ = build(spec)
    (given,) = handed
    assert len(given) == h.n_terms
    for pair, kept in zip(given, h.terms):
        for m, k in zip(pair, kept):
            assert k is m
            assert not any(x.flags.writeable for x in (k.indptr, k.indices, k.values))


def test_initial_state_layout():
    spec = JcmSpec(lam=1.0, n_max=3, field=FockField(2), c_e=0.6, c_g=0.8)
    _, state = build_jcm(spec)
    vec = product_state_vector(state)
    dim = spec["n_max"] + 1
    assert abs(vec[ATOM_EXCITED * dim + 2] - 0.6) <= 1e-15
    assert abs(vec[ATOM_GROUND * dim + 2] - 0.8) <= 1e-15
    assert np.count_nonzero(np.abs(vec) > 1e-15) == 2


# ---------------------------------------------------------------------------
# analytic evolution


def test_analytic_state_at_zero_is_the_initial_product():
    spec = JcmSpec(lam=1.0, n_max=20, field=CoherentField(1.0), c_e=0.6j, c_g=0.8)
    h, state = build_jcm(spec)
    vec = product_state_vector(state)
    analytic = oracles.jcm_analytic_state(spec, 0.0)
    assert np.max(np.abs(analytic - vec)) <= 1e-12


def test_analytic_state_half_rabi_swap():
    # |e, 0> -> -i |g, 1> after a quarter period of the vacuum Rabi cycle
    spec = JcmSpec(lam=1.0, n_max=3, field=FockField(0))
    t = 0.5 * math.pi
    analytic = oracles.jcm_analytic_state(spec, t)
    dim = spec["n_max"] + 1
    target = ATOM_GROUND * dim + 1
    assert abs(abs(analytic[target]) - 1.0) <= 1e-12
    rest = np.delete(analytic, target)
    assert np.max(np.abs(rest)) <= 1e-12


def test_analytic_agrees_with_dense_propagation():
    rng = np.random.default_rng(81)
    fields = [
        FockField(0),
        FockField(3),
        CoherentField(1.0),
        CoherentField(1.0 + 0.7j),
    ]
    for case in range(20):
        field = fields[case % len(fields)]
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        spec = JcmSpec(
            lam=float(rng.uniform(0.2, 2.0)),
            n_max=25,
            field=field,
            c_e=math.cos(theta),
            c_g=math.sin(theta) * np.exp(1j * phi),
            omega=float(rng.uniform(0.0, 2.0)),
        )
        h, state = build_jcm(spec)
        t = float(rng.uniform(0.0, 5.0))
        numeric = oracles.expm_propagate(assemble(h), product_state_vector(state), t)
        analytic = oracles.jcm_analytic_state(spec, t)
        assert np.max(np.abs(analytic - numeric)) <= 1e-9


# ---------------------------------------------------------------------------
# closed-form timescales


def test_closed_form_fock_values():
    for lam, n in ((1.0, 3), (0.4, 0), (2.5, 5)):
        spec = JcmSpec(lam=lam, n_max=n + 5, field=FockField(n))
        assert abs(
            jcm_timescale_closed_form(spec) - lam**2 * (n + 1)
        ) <= 1e-12 * lam**2 * (n + 1)
        ground = JcmSpec(
            lam=lam, n_max=n + 5, field=FockField(n), c_e=0.0, c_g=1.0
        )
        assert abs(jcm_timescale_closed_form(ground) - lam**2 * n) <= 1e-12 * lam**2 * max(n, 1)


def test_closed_form_coherent_values():
    spec = JcmSpec(lam=0.9, n_max=50, field=CoherentField(2.0))
    assert abs(jcm_timescale_closed_form(spec) - 0.9**2) <= 1e-10
    ground = JcmSpec(lam=0.9, n_max=50, field=CoherentField(2.0), c_e=0.0, c_g=1.0)
    assert jcm_timescale_closed_form(ground) <= 1e-12


def test_closed_form_matches_covariance_sum():
    rng = np.random.default_rng(82)
    specs = [
        JcmSpec(lam=1.0, n_max=8, field=FockField(2)),
        JcmSpec(lam=0.5, n_max=8, field=FockField(1), c_e=0.0, c_g=1.0),
        JcmSpec(lam=1.3, n_max=35, field=CoherentField(1.0 - 1.0j)),
    ]
    # superposition atoms exercise the covariance fallback branch
    for _ in range(3):
        theta = rng.uniform(0.1, math.pi / 2.0)
        specs.append(
            JcmSpec(
                lam=1.0,
                n_max=20,
                field=CoherentField(0.8),
                c_e=math.cos(theta),
                c_g=math.sin(theta),
                omega=0.7,
            )
        )
    for spec in specs:
        h, state = build_jcm(spec)
        report = entanglement_timescale(h, state)
        closed = jcm_timescale_closed_form(spec)
        scale = max(1.0, report["t_ent_inv_sq"])
        assert abs(closed - report["t_ent_inv_sq"]) <= 1e-12 * scale


def test_log_divergence_coefficients():
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    constant, slope = oracles.jcm_log_divergence_coefficient(spec)
    assert slope == -16.0
    assert abs(constant - 2.0 * (-2.0 + math.log(2.0) - math.log(4.0)) * 4.0) <= 1e-12

    with pytest.raises(ModelError, match="excited"):
        oracles.jcm_log_divergence_coefficient(
            JcmSpec(lam=1.0, n_max=4, field=FockField(1), c_e=0.0, c_g=1.0)
        )
    with pytest.raises(ModelError, match="degenerate"):
        oracles.jcm_log_divergence_coefficient(JcmSpec(lam=0.0, n_max=4, field=FockField(1)))


# ---------------------------------------------------------------------------
# Bose-Hubbard boundary pair


def test_bose_hubbard_term_structure():
    free = BoseHubbardBoundarySpec(j_rate=1.0)
    h, state = build_bose_hubbard_boundary(free)
    assert h.n_terms == 2
    assert h.dim_a == h.dim_b == 3
    vec = product_state_vector(state)
    assert vec[1 * 3 + 1] == 1.0

    interacting = BoseHubbardBoundarySpec(j_rate=1.0, u_rate=0.5)
    hi, _ = build_bose_hubbard_boundary(interacting)
    assert hi.n_terms == 4
    # the on-site term is (U/2) n (n - 1) = diag(0, 0, U) at two bosons max
    assert np.allclose(hi.terms[2][0].toarray(), np.diag([0.0, 0.0, 0.5]))


def test_bose_hubbard_timescale_value():
    j = 2.0 * math.pi * 66.0
    h, state = build_bose_hubbard_boundary(BoseHubbardBoundarySpec(j_rate=j))
    report = entanglement_timescale(h, state)
    assert abs(report["t_ent_inv_sq"] - 4.0 * j * j) <= 1e-12 * 4.0 * j * j
    assert abs(report["t_ent"] - 1.0 / (2.0 * j)) <= 1e-12 / j
    assert abs(report["t_ent"] * 1e3 - 1.2057) <= 1e-3  # milliseconds


def test_bose_hubbard_validation():
    with pytest.raises(TruncationError):
        BoseHubbardBoundarySpec(j_rate=1.0, n_per_site_max=0)
    with pytest.raises(ModelError):
        BoseHubbardBoundarySpec(j_rate=math.nan)


def test_bose_hubbard_hopping_is_number_conserving():
    spec = BoseHubbardBoundarySpec(j_rate=1.0, u_rate=2.0, n_per_site_max=3)
    h, _ = build_bose_hubbard_boundary(spec)
    dense = assemble(h)
    dim = spec["n_per_site_max"] + 1
    n, one = number_operator(dim).toarray(), identity(dim).toarray()
    total_n = np.kron(n, one) + np.kron(one, n)
    comm = dense @ total_n - total_n @ dense
    assert np.max(np.abs(comm)) <= 1e-12
