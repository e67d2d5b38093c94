"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N (...): PASS/FAIL`` line; pytest is
configured with ``-rP`` so those lines land in the terminal summary of a
normal run. Measured routes here deliberately avoid the package's own
evolution code where the point is independence: propagation goes through
scipy's expm and entropies through direct eigenvalue formulas.
"""

import math
import time

import numpy as np

from enttime.entropy import (
    entropy_series,
    renyi_from_probabilities,
    von_neumann_curvature_probe,
)
from enttime.hamiltonian import ProductHamiltonian, ProductState, assemble, product_state_vector
from enttime.models import (
    BoseHubbardBoundarySpec,
    CoherentField,
    FockField,
    JcmSpec,
    build_bose_hubbard_boundary,
    build_jcm,
    jcm_timescale_closed_form,
)
from enttime.propagator import Propagator
from enttime.timescale import entanglement_timescale, predicted_curvature

import oracles


def _report(number: int, label: str, failures: list, note: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = f"  [{note}]" if note else ""
    print(f"criterion {number} ({label}): {status}{extra}")


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _dense(terms) -> np.ndarray:
    total = None
    for a, b in terms:
        k = np.kron(a, b)
        total = k if total is None else total + k
    return total


def _oracle_probabilities(h_dense, psi0, dim_a, dim_b, t):
    return oracles.schmidt_probabilities_svd(oracles.expm_propagate(h_dense, psi0, t), dim_a, dim_b)


def _oracle_renyi(probs, alpha):
    return math.log(float(np.sum(probs**alpha))) / (1.0 - alpha)


def _random_4x4_model():
    rng = np.random.default_rng(2024)
    terms = oracles.random_term_list(rng, 4, 4, 2)
    h = ProductHamiltonian(4, 4, tuple(terms))
    state = ProductState(
        psi_a=oracles.random_unit_vector(rng, 4),
        psi_b=oracles.random_unit_vector(rng, 4),
    )
    return h, state


def test_criterion_1_fock_timescale():
    failures = []
    started = time.perf_counter()
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    closed = jcm_timescale_closed_form(spec)
    _check(failures, closed == 4.0, f"closed form gave {closed!r}, want 4.0 exactly")
    h, state = build_jcm(spec)
    report = entanglement_timescale(h, state)
    _check(
        failures,
        abs(report["t_ent_inv_sq"] - 4.0) <= 1e-12 * 4.0,
        f"covariance path gave {report['t_ent_inv_sq']!r}",
    )
    lam_t = spec["lambda"] * report["t_ent"]
    # lam * T_ent = 1 / sqrt(N + 1) = 0.5 at N = 3; see the repository's
    # decision notes on the discrepant headline figure
    _check(failures, abs(lam_t - 0.5) <= 1e-12, f"lam * T_ent = {lam_t!r}")
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s")
    _report(
        1,
        "Fock-state timescale",
        failures,
        f"t_ent_inv_sq = {report['t_ent_inv_sq']:g}, lam*T_ent = {lam_t:g}, {elapsed:.3f} s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_2_curvature_universality():
    failures = []
    started = time.perf_counter()
    worst = 0.0

    jcm_spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    jcm_h, jcm_state = build_jcm(jcm_spec)
    random_h, random_state = _random_4x4_model()

    for label, h, state in (
        ("jcm-fock-3", jcm_h, jcm_state),
        ("random-4x4", random_h, random_state),
    ):
        report = entanglement_timescale(h, state)
        _check(failures, not report["degenerate"], f"{label}: degenerate timescale")
        if report["degenerate"]:
            continue
        h_dense = _dense(oracles.dense_terms(h))
        psi0 = np.kron(state.psi_a, state.psi_b)
        width = report["t_ent"] / 50.0
        probs = [
            _oracle_probabilities(h_dense, psi0, h.dim_a, h.dim_b, k * width)
            for k in (-2.0, -1.0, 0.0, 1.0, 2.0)
        ]
        weights = (-1.0, 16.0, -30.0, 16.0, -1.0)
        for alpha in (2, 3, 4, 8):
            values = [_oracle_renyi(p, alpha) for p in probs]
            measured = sum(w * v for w, v in zip(weights, values)) / (
                12.0 * width * width
            )
            predicted = predicted_curvature(report, alpha)["curvature"]
            rel = abs(measured - predicted) / abs(predicted)
            worst = max(worst, rel)
            _check(
                failures,
                rel <= 0.01,
                f"{label} alpha={alpha}: measured {measured!r} vs predicted "
                f"{predicted!r} (rel {rel:.2e})",
            )
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s")
    _report(
        2,
        "curvature universality",
        failures,
        f"worst rel error {worst:.2e}, {elapsed:.2f} s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_3_coherent_nu_independence():
    failures = []
    worst = 0.0
    for nu, n_max in ((1.0, 45), (3.0, 60), (3.0 + 2.0j, 70)):
        spec = JcmSpec(lam=1.0, n_max=n_max, field=CoherentField(nu))
        h, state = build_jcm(spec)
        report = entanglement_timescale(h, state)
        deviation = abs(spec["lambda"] * report["t_ent"] - 1.0)
        worst = max(worst, deviation)
        _check(
            failures,
            deviation <= 1e-10,
            f"nu = {nu}: lam * T_ent deviates by {deviation:.2e}",
        )
    _report(
        3,
        "coherent-state nu-independence",
        failures,
        f"worst |lam*T_ent - 1| = {worst:.2e}",
    )
    assert not failures, "; ".join(failures)


def test_criterion_4_degenerate_sixth_order_onset():
    failures = []
    spec = JcmSpec(lam=1.0, n_max=60, field=CoherentField(3.0), c_e=0.0, c_g=1.0)
    h, state = build_jcm(spec)
    report = entanglement_timescale(h, state)
    _check(
        failures,
        report["t_ent_inv_sq"] <= 1e-12 * report["scale"],
        f"t_ent_inv_sq = {report['t_ent_inv_sq']!r} at scale {report['scale']!r}",
    )
    times = np.geomspace(1e-3, 1e-1, 13) / spec["lambda"]
    _, (values,) = entropy_series(h, state, [2], times)
    _check(failures, bool(np.all(values > 0.0)), "S_2 not resolvable on window")
    slope, _ = np.polyfit(np.log(times), np.log(values), 1)
    _check(failures, abs(slope - 6.0) <= 0.1, f"onset slope {slope!r}, want 6.0 +- 0.1")
    _report(
        4,
        "degenerate case",
        failures,
        f"t_ent_inv_sq = {report['t_ent_inv_sq']:g}, onset slope = {slope:.4f}",
    )
    assert not failures, "; ".join(failures)


def test_criterion_5_bose_hubbard_estimate():
    failures = []
    j = 2.0 * math.pi * 66.0
    values = []
    for u in (0.0, j, 10.0 * j):
        spec = BoseHubbardBoundarySpec(j_rate=j, u_rate=u)
        h, state = build_bose_hubbard_boundary(spec)
        values.append(entanglement_timescale(h, state)["t_ent_inv_sq"])
    _check(
        failures,
        abs(values[0] - 4.0 * j * j) <= 1e-12 * 4.0 * j * j,
        f"t_ent_inv_sq = {values[0]!r}, want 4 J^2 = {4.0 * j * j!r}",
    )
    t_ent_ms = values[0] ** -0.5 * 1e3
    _check(failures, abs(t_ent_ms - 1.21) <= 0.01, f"T_ent = {t_ent_ms!r} ms")
    spread = max(values) - min(values)
    _check(
        failures,
        spread <= 1e-12 * values[0],
        f"U dependence detected: spread {spread!r} across U in {{0, J, 10J}}",
    )
    _report(
        5,
        "Bose-Hubbard estimate",
        failures,
        f"T_ent = {t_ent_ms:.4f} ms, U-spread = {spread:g}",
    )
    assert not failures, "; ".join(failures)


def test_criterion_6_von_neumann_log_divergence():
    failures = []
    spec = JcmSpec(lam=1.0, n_max=10, field=FockField(3))
    h, state = build_jcm(spec)
    report = entanglement_timescale(h, state)
    times = np.array([1e-2, 1e-3, 1e-4, 1e-5]) / spec["lambda"]
    rows = von_neumann_curvature_probe(Propagator(h, state), report, times)
    x = np.log(spec["lambda"] * np.array([t for t, _ in rows]))
    y = np.array([c for _, c in rows])
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - y.mean()
    r_squared = 1.0 - float(residual @ residual) / float(total @ total)
    expected = -4.0 * report["t_ent_inv_sq"]
    rel = abs(slope - expected) / abs(expected)
    _check(failures, r_squared > 0.999, f"R^2 = {r_squared!r}")
    _check(
        failures,
        rel <= 0.05,
        f"log coefficient {slope!r} vs -4 t_ent_inv_sq = {expected!r} (rel {rel:.2e})",
    )
    _report(
        6,
        "log divergence of VN curvature",
        failures,
        f"b = {slope:.4f} (want {expected:g}), R^2 = {r_squared:.6f}",
    )
    assert not failures, "; ".join(failures)


def test_criterion_7_first_derivative_lemma():
    failures = []
    worst = 0.0
    cases = [
        ("jcm-fock-3", *build_jcm(JcmSpec(lam=1.0, n_max=10, field=FockField(3))), 1e-5, 1.0),
        (
            "jcm-coherent-1",
            *build_jcm(JcmSpec(lam=1.0, n_max=45, field=CoherentField(1.0))),
            1e-5,
            1.0,
        ),
        (
            "jcm-coherent-3+2i",
            *build_jcm(JcmSpec(lam=1.0, n_max=70, field=CoherentField(3.0 + 2.0j))),
            1e-5,
            1.0,
        ),
        (
            "jcm-coherent-ground",
            *build_jcm(
                JcmSpec(lam=1.0, n_max=60, field=CoherentField(3.0), c_e=0.0, c_g=1.0)
            ),
            1e-5,
            1.0,
        ),
    ]
    j = 2.0 * math.pi * 66.0
    cases.append(
        (
            "bose-hubbard",
            *build_bose_hubbard_boundary(BoseHubbardBoundarySpec(j_rate=j, u_rate=j)),
            1e-5 / j,
            j,
        )
    )
    cases.append(("random-4x4", *_random_4x4_model(), 1e-5, 1.0))
    for label, h, state, dt, rate_scale in cases:
        # (S_alpha(dt) - S_alpha(-dt)) / (2 dt), in units of the model's rate
        spectra = Propagator(h, state).probabilities([dt, -dt])
        for alpha in (2, 3):
            s_plus, s_minus = renyi_from_probabilities(spectra, alpha)
            estimate = float(s_plus - s_minus) / (2.0 * dt) / rate_scale
            worst = max(worst, abs(estimate))
            _check(
                failures,
                abs(estimate) <= 1e-6,
                f"{label} alpha={alpha}: |dS/dt| = {abs(estimate):.2e}",
            )
    _report(7, "first-derivative lemma", failures, f"worst |dS/dt| = {worst:.2e}")
    assert not failures, "; ".join(failures)


def test_criterion_8_property_suites():
    failures = []
    rng = np.random.default_rng(88)

    def random_system():
        dim_a = int(rng.integers(2, 7))
        dim_b = int(rng.integers(2, 7))
        terms = oracles.random_term_list(rng, dim_a, dim_b, int(rng.integers(1, 4)))
        h = ProductHamiltonian(dim_a, dim_b, tuple(terms))
        state = ProductState(
            psi_a=oracles.random_unit_vector(rng, dim_a),
            psi_b=oracles.random_unit_vector(rng, dim_b),
        )
        return h, state

    # positivity of the double covariance sum
    for _ in range(100):
        h, state = random_system()
        report = entanglement_timescale(h, state)
        terms = oracles.dense_terms(h)
        raw = oracles.covariance_sum_loops(terms, state.psi_a, state.psi_b)
        _check(
            failures,
            raw.real >= -1e-12 * max(1.0, report["scale"]) and report["t_ent_inv_sq"] >= 0.0,
            f"positivity violated: raw sum {raw.real!r}",
        )

    # exchanging the subsystems leaves the timescale alone
    for _ in range(100):
        h, state = random_system()
        direct = entanglement_timescale(h, state)["t_ent_inv_sq"]
        mirrored = entanglement_timescale(
            ProductHamiltonian(h.dim_b, h.dim_a, tuple((b, a) for a, b in h.terms)),
            ProductState(psi_a=state.psi_b, psi_b=state.psi_a),
        )["t_ent_inv_sq"]
        _check(
            failures,
            abs(direct - mirrored) <= 1e-12 * max(1.0, direct),
            f"A-B asymmetry: {direct!r} vs {mirrored!r}",
        )

    # both reduced states carry the same entropies
    for _ in range(100):
        dim_a = int(rng.integers(2, 7))
        dim_b = int(rng.integers(2, 7))
        psi = oracles.random_unit_vector(rng, dim_a * dim_b)
        rho = np.outer(psi, psi.conj())
        spectra = [
            np.linalg.eigvalsh(oracles.partial_trace_loops(rho, dim_a, dim_b, keep))
            for keep in ("A", "B")
        ]
        for alpha in (2, 3):
            sa, sb = (renyi_from_probabilities(p, alpha) for p in spectra)
            _check(failures, abs(sa - sb) <= 1e-10, f"S_{alpha}(A) != S_{alpha}(B)")

    # Renyi entropies decrease with the order
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.ones(dim))
        values = [renyi_from_probabilities(probs, a) for a in (2, 3, 4, 8)]
        _check(
            failures,
            all(v1 >= v2 - 1e-10 for v1, v2 in zip(values, values[1:])),
            f"alpha-monotonicity broken for {probs!r}",
        )

    # Schmidt probabilities of the exact dynamics against the eigenvalues of
    # the index-loop partial traces of the expm-evolved state
    for _ in range(100):
        h, state = random_system()
        t = float(rng.uniform(0.0, 2.0))
        ours = Propagator(h, state).probabilities([t])[0]
        psi0 = np.kron(state.psi_a, state.psi_b)
        psi = oracles.expm_propagate(_dense(oracles.dense_terms(h)), psi0, t)
        rho = np.outer(psi, psi.conj())
        for keep in ("A", "B"):
            ref = np.linalg.eigvalsh(
                oracles.partial_trace_loops(rho, h.dim_a, h.dim_b, keep)
            )[::-1]
            _check(
                failures,
                float(np.max(np.abs(ref[: ours.size] - ours))) <= 1e-12
                and float(np.max(np.abs(ref[ours.size :]), initial=0.0)) <= 1e-12,
                "Schmidt probabilities disagree with the loop partial trace",
            )

    # closed-form JCM propagation against scipy's expm of the dense H
    for _ in range(100):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        spec = JcmSpec(
            lam=float(rng.uniform(0.2, 2.0)),
            n_max=5,
            field=FockField(int(rng.integers(0, 5))),
            c_e=math.cos(theta),
            c_g=math.sin(theta) * np.exp(1j * phi),
            omega=float(rng.uniform(0.0, 2.0)),
        )
        h, state = build_jcm(spec)
        t = float(rng.uniform(0.0, 5.0))
        numeric = oracles.expm_propagate(assemble(h), product_state_vector(state), t)
        analytic = oracles.jcm_analytic_state(spec, t)
        _check(
            failures,
            float(np.max(np.abs(analytic - numeric))) <= 1e-9,
            f"analytic propagator deviates at t = {t!r}",
        )

    _report(8, "property suites", failures, "6 suites x 100 randomized cases")
    assert not failures, "; ".join(failures)
