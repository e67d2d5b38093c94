"""Reference models: Jaynes-Cummings and a two-site Bose-Hubbard boundary.

Conventions (hbar = 1, all rates angular):

* Atom basis ordering is |excited> = index 0, |ground> = index 1, so
  sigma_z = diag(+1, -1) satisfies sigma_z |e> = +|e>.
* The field/site mode uses the number basis 0..n_max with the annihilation
  matrix a[n-1, n] = sqrt(n); truncation silently drops the coupling out of
  the top level, so specs enforce that negligible population ever reaches
  it.

A model is its document: :func:`JcmSpec` (with :func:`FockField` or
:func:`CoherentField`) and :func:`BoseHubbardBoundarySpec` check the model
and return the ``spec`` dict that ``enttime timescale`` and ``verify``
echo (complex values as ``[re, im]``), and the builders read that dict.

The resonant rotating-wave Jaynes-Cummings Hamiltonian built here is

    H = (omega/2) sigma_z (x) 1 + 1 (x) omega a^dag a
        + lam (sigma_- (x) a^dag + sigma_+ (x) a),

and its dynamics from a product start (atom superposition times a fixed
photon distribution C_n) stays pairwise: each |e, n> rotates against
|g, n+1> at Rabi rate lam * sqrt(n+1). That closed form gives
:func:`jcm_timescale_closed_form` below, and the tests' analytic states.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelError, StateError, TruncationError
from .hamiltonian import Factor, ProductHamiltonian, ProductState, require_dense_dim
from .tolerances import NORM_TOL, TAIL_TOL

__all__ = [
    "ATOM_EXCITED",
    "ATOM_GROUND",
    "annihilation",
    "creation",
    "number_operator",
    "identity",
    "sigma_z",
    "sigma_plus",
    "sigma_minus",
    "FockField",
    "CoherentField",
    "JcmSpec",
    "field_amplitudes",
    "coherent_tail_mass",
    "suggest_coherent_cutoff",
    "build_jcm",
    "jcm_timescale_closed_form",
    "BoseHubbardBoundarySpec",
    "build_bose_hubbard_boundary",
]

ATOM_EXCITED = 0
ATOM_GROUND = 1


def _diagonal(values, offset: int = 0) -> Factor:
    """The Factor with ``values`` along one diagonal, ``offset`` places right of the main one."""
    values = np.asarray(values, dtype=np.complex128)
    n, first_row = values.size + abs(offset), max(0, -offset)
    indptr = np.clip(np.arange(n + 1) - first_row, 0, values.size)
    return Factor(n, indptr, np.arange(values.size) + first_row + offset, values)


def _mode_levels(dim: int) -> np.ndarray:
    """0, 1, ..., dim - 1 as floats."""
    if dim < 1:
        raise ModelError(f"mode dimension must be positive, got {dim}")
    return np.arange(dim, dtype=np.float64)


def annihilation(dim: int) -> Factor:
    """Truncated mode annihilation operator, a[n-1, n] = sqrt(n)."""
    return _diagonal(np.sqrt(_mode_levels(dim)[1:]), 1)


def creation(dim: int) -> Factor:
    """Adjoint of :func:`annihilation` on the same truncated space, a^dag[n, n-1] = sqrt(n)."""
    return _diagonal(np.sqrt(_mode_levels(dim)[1:]), -1)


def number_operator(dim: int) -> Factor:
    """diag(0, 1, ..., dim - 1)."""
    return _diagonal(_mode_levels(dim))


def identity(dim: int) -> Factor:
    return _diagonal(np.ones(dim))


def sigma_z() -> Factor:
    return _diagonal([1.0, -1.0])


def sigma_plus() -> Factor:
    """|e><g| in the (excited, ground) ordering: entry (0, 1)."""
    return _diagonal([1.0], ATOM_GROUND - ATOM_EXCITED)


def sigma_minus() -> Factor:
    """|g><e| in the (excited, ground) ordering: entry (1, 0)."""
    return _diagonal([1.0], ATOM_EXCITED - ATOM_GROUND)


def FockField(n: int) -> dict:
    """The field block of a model document for the number state |n>."""
    return {"type": "fock", "n": n}


def CoherentField(nu: complex) -> dict:
    """The field block for the coherent state of complex amplitude nu, as ``[re, im]``."""
    value = complex(nu)
    size = abs(value)  # the cutoff estimates below need |nu|^2
    if not math.isfinite(size * size):
        raise ModelError(f"coherent amplitude nu and |nu|^2 must be finite, got {nu!r}")
    return {"type": "coherent", "nu": [value.real, value.imag]}


def suggest_coherent_cutoff(nu: complex) -> int:
    """A mode cutoff holding a coherent state's tail below TAIL_TOL.

    Poisson mass above mean + O(sqrt(mean)) decays superexponentially; the
    margin below is generous for any |nu| this dense solver can afford.
    """
    mean = abs(nu) ** 2
    return int(math.ceil(mean + 10.0 * math.sqrt(mean) + 20.0))


def coherent_tail_mass(nu: complex, n_max: int) -> float:
    """Probability a coherent state holds above occupation n_max.

    Summed upward from n_max + 1 in log space, so small tails come out
    without cancellation against 1. Below the mean |nu|^2 the tail is about
    1/2 or more, and 1 minus the n_max + 1 terms below it is as exact.
    """
    if n_max < 0:
        raise ModelError(f"n_max must be nonnegative, got {n_max}")
    mean = abs(nu) ** 2
    if mean == 0.0:
        return 0.0
    log_mean = math.log(mean)
    if n_max < mean:
        below = range(n_max + 1)
        return 1.0 - sum(math.exp(-mean + n * log_mean - math.lgamma(n + 1)) for n in below)
    mass = 0.0
    for n in range(n_max + 1, n_max + 1 + max(200, 4 * int(mean) + 40)):
        log_term = -mean + n * log_mean - math.lgamma(n + 1)
        if log_term < -745.0:  # exp underflows to 0 here
            break
        mass += math.exp(log_term)
    return mass


def JcmSpec(
    lam: float,
    n_max: int,
    field: dict,
    c_e: complex = 1.0,
    c_g: complex = 0.0,
    omega: float = 0.0,
) -> dict:
    """Resonant Jaynes-Cummings model with a product initial state, as its document.

    ``lam`` is the coupling rate and ``omega`` the shared transition/mode
    frequency (angular, hbar = 1). The atom starts in c_e |e> + c_g |g>,
    the field (:func:`FockField` or :func:`CoherentField`) in the given
    occupation distribution truncated at n_max photons. Fock occupations
    must sit strictly below n_max so the level coupled to them remains
    represented; coherent amplitudes must leave at most TAIL_TOL
    probability above the cutoff. Returns the resolved ``jcm`` document.
    """
    if not math.isfinite(lam) or not math.isfinite(omega):
        raise ModelError("lam and omega must be finite")
    if n_max < 1:
        raise ModelError(f"n_max must be at least 1, got {n_max}")
    require_dense_dim(2, n_max + 1)  # before the tail sum or any factor
    norm = math.hypot(abs(c_e), abs(c_g))
    if abs(norm - 1.0) > NORM_TOL:
        raise StateError(f"atom amplitudes have norm {norm!r}, expected 1")
    kind = field.get("type") if isinstance(field, dict) else None
    if kind == "fock":
        n = field["n"]
        if n < 0:
            raise ModelError(f"Fock occupation must be nonnegative, got {n}")
        if n > n_max - 1:
            raise TruncationError(
                f"Fock occupation {n} needs n_max >= {n + 1} so the coupled "
                f"level |{n + 1}> is represented, got n_max = {n_max}"
            )
    elif kind == "coherent":
        nu = complex(*field["nu"])
        tail = coherent_tail_mass(nu, n_max)
        if tail > TAIL_TOL:
            raise TruncationError(
                f"coherent state with |nu| = {abs(nu):.4g} leaves "
                f"probability {tail:.3e} above n_max = {n_max}; "
                f"use n_max >= {suggest_coherent_cutoff(nu)}"
            )
    else:
        raise ModelError(f"unsupported field type {field!r}")
    c_e, c_g = complex(c_e), complex(c_g)
    atom = {"c_e": [c_e.real, c_e.imag], "c_g": [c_g.real, c_g.imag]}
    return {"model": "jcm", "lambda": lam, "omega": omega, "n_max": n_max, "atom": atom,
            "field": field}


def field_amplitudes(spec: dict) -> np.ndarray:
    """Photon-number amplitudes C_n of the initial field, length n_max + 1.

    Coherent amplitudes are renormalized after truncation; the discarded
    mass is below TAIL_TOL by construction, so this shifts nothing beyond
    machine precision while keeping the vector exactly normalized.
    """
    dim = spec["n_max"] + 1
    require_dense_dim(2, dim)
    field = spec["field"]
    if field["type"] == "fock":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[field["n"]] = 1.0
        return amps
    nu = complex(*field["nu"])
    ns = np.arange(dim)
    if nu == 0:
        amps = np.zeros(dim, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    log_mag = -0.5 * abs(nu) ** 2 + ns * math.log(abs(nu))
    log_mag -= 0.5 * np.array([math.lgamma(n + 1) for n in ns])
    amps = np.exp(log_mag) * np.exp(1j * ns * np.angle(nu))
    amps /= np.linalg.norm(amps)
    return amps


def build_jcm(spec: dict) -> tuple[ProductHamiltonian, ProductState]:
    """Product-form Hamiltonian and initial state for the model.

    Term order: atomic splitting, mode energy, sigma_- (x) a^dag,
    sigma_+ (x) a. At omega = 0 the two free terms are exactly zero and are
    not built, so the list is the two coupling terms alone; they are always
    built, even at lam = 0. On resonance the free terms commute with the
    coupling, and excitation number sigma_z/2 + a^dag a is conserved exactly
    even on the truncated space (truncation only removes couplings).
    """
    dim = spec["n_max"] + 1
    require_dense_dim(2, dim)  # before any factor
    lam, omega = spec["lambda"], spec["omega"]
    terms: list[tuple[Factor, Factor]] = []
    if omega != 0.0:
        terms.append((sigma_z().scaled(0.5 * omega), identity(dim)))
        terms.append((identity(2), number_operator(dim).scaled(omega)))
    terms.append((sigma_minus().scaled(lam), creation(dim)))
    terms.append((sigma_plus().scaled(lam), annihilation(dim)))
    psi_a = np.zeros(2, dtype=np.complex128)
    psi_a[ATOM_EXCITED] = complex(*spec["atom"]["c_e"])
    psi_a[ATOM_GROUND] = complex(*spec["atom"]["c_g"])
    h = ProductHamiltonian(dim_a=2, dim_b=dim, terms=tuple(terms))
    state = ProductState(psi_a=psi_a, psi_b=field_amplitudes(spec))
    return h, state


def jcm_timescale_closed_form(spec: dict) -> float:
    """Squared inverse timescale from the atom amplitudes and photon distribution alone.

    Only the two coupling terms correlate atom and field (a free term has
    an identity factor, whose covariance is 0). With p_e = |c_e|^2,
    p_g = |c_g|^2, s = <sigma_+> = c_e* c_g and field moments over C_n,

        t_ent_inv_sq = lam^2 (p_e (1 - p_g) (<a a^dag> - |<a>|^2)
                              + p_g (1 - p_e) (<a^dag a> - |<a>|^2)
                              - 2 Re(s^2 (<a^2> - <a>^2))),

    where <a a^dag> = sum_n (n+1) |C_n|^2 is taken untruncated. Fock input
    reduces an excited atom to lam^2 (N+1) and a ground one to lam^2 N; a
    coherent state gives lam^2 (excited) and 0 (ground, degenerate).
    """
    c_e, c_g = (complex(*spec["atom"][key]) for key in ("c_e", "c_g"))
    p_e, p_g, s = abs(c_e) ** 2, abs(c_g) ** 2, c_e.conjugate() * c_g
    c = field_amplitudes(spec)
    ns = np.arange(c.size)
    weights = np.abs(c) ** 2
    cross = complex(np.sum(np.sqrt(ns[:-1] + 1.0) * np.conj(c[1:]) * c[:-1]))  # <a^dag>
    pair = complex(np.sum(np.sqrt((ns[:-2] + 1.0) * (ns[:-2] + 2.0)) * np.conj(c[:-2]) * c[2:]))
    excited = float(np.sum((ns + 1.0) * weights)) - abs(cross) ** 2
    ground = float(np.sum(ns * weights)) - abs(cross) ** 2
    coherence = (s * s * (pair - cross.conjugate() ** 2)).real
    value = spec["lambda"] ** 2 * (p_e * (1.0 - p_g) * excited + p_g * (1.0 - p_e) * ground
                                   - 2.0 * coherence)
    return max(value, 0.0)


def BoseHubbardBoundarySpec(
    j_rate: float, u_rate: float = 0.0, n_per_site_max: int = 2
) -> dict:
    """Two neighboring sites at a lattice bipartition cut, one boson each, as its document.

    ``j_rate`` is the hopping rate J and ``u_rate`` the on-site interaction
    U (both angular). Only the cut-crossing hopping correlates the sides, so
    U never enters the timescale; it is kept to demonstrate exactly that.
    ``n_per_site_max`` truncates each site's occupation. Returns the
    resolved ``bose_hubbard`` document.
    """
    if not math.isfinite(j_rate) or not math.isfinite(u_rate):
        raise ModelError("j_rate and u_rate must be finite")
    if n_per_site_max < 1:
        raise TruncationError(
            f"n_per_site_max must be at least 1 to hold one boson, got {n_per_site_max}"
        )
    require_dense_dim(n_per_site_max + 1, n_per_site_max + 1)  # before any factor
    return {"model": "bose_hubbard", "j_rate": j_rate, "u_rate": u_rate,
            "n_per_site_max": n_per_site_max}


def build_bose_hubbard_boundary(spec: dict) -> tuple[ProductHamiltonian, ProductState]:
    """Hopping across the cut plus optional on-site interactions.

    H = -J (a_L^dag a_R + a_L a_R^dag)
        + (U/2) n_L (n_L - 1) (x) 1 + 1 (x) (U/2) n_R (n_R - 1),

    starting from |1> on each site. The closed-form squared inverse
    timescale of this start is 4 J^2 independent of U.
    """
    dim = spec["n_per_site_max"] + 1
    require_dense_dim(dim, dim)  # before any factor
    j_rate, u_rate = spec["j_rate"], spec["u_rate"]
    a = annihilation(dim)
    ad = creation(dim)
    terms: list[tuple[Factor, Factor]] = [(ad.scaled(-j_rate), a), (a.scaled(-j_rate), ad)]
    if u_rate != 0.0:
        n = _mode_levels(dim)
        anharmonic = _diagonal(0.5 * u_rate * (n * n - n))
        terms.append((anharmonic, identity(dim)))
        terms.append((identity(dim), anharmonic))
    psi = np.zeros(dim, dtype=np.complex128)
    psi[1] = 1.0
    h = ProductHamiltonian(dim_a=dim, dim_b=dim, terms=tuple(terms))
    state = ProductState(psi_a=psi, psi_b=psi.copy())
    return h, state
