"""
potentials.py

Diatomic potential models built around the deformed Schioberg form

    U(r) = A * (B + tanh_q(alpha r))^2,
    tanh_q(x) = (e^{2x} - q) / (e^{2x} + q),

its Tietz-Hua equivalent, and the rational P-form

    U(r) = P1 + P2/(e^{b r} + q) + P3/(e^{b r} + q)^2

that the bound-state solver consumes.  Parameters A, B, q are fixed from
the spectroscopic constants (De, re, we) by requiring a minimum at re,
depth De at dissociation and curvature matching the harmonic force
constant; with those values all model variants below are the same
function of r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .units import kinetic_factor

_INV_E = math.exp(-1.0)


class SingularRadiusError(ValueError):
    """Potential evaluated at (or numerically on top of) a pole."""


@dataclass(frozen=True)
class SpectroscopicParams:
    """Input constants for one molecule.

    Energies in cm^-1, lengths in Angstrom, mass in amu.  ``eta`` is the
    shape (deformation) parameter of the Tietz-Hua form; ``eta = 1``
    degenerates the potential and is rejected.  ``beta_table`` optionally
    carries a tabulated Morse constant for consistency reports; the
    package otherwise works with the value derived from we.  Every number
    must be finite.
    """

    name: str
    De: float
    re: float
    we: float
    mu: float
    alpha: float
    eta: float
    beta_table: float | None = None

    def __post_init__(self) -> None:
        for field in ("De", "re", "we", "mu", "alpha", "eta", "beta_table"):
            value = getattr(self, field)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value}")
        for field in ("De", "re", "we", "mu", "alpha"):
            value = getattr(self, field)
            if not value > 0.0:
                raise ValueError(f"{field} must be positive, got {value}")
        if self.eta == 1.0:
            raise ValueError("eta must differ from 1 (potential degenerates)")
        if self.beta_table is not None and not self.beta_table > 0.0:
            raise ValueError(f"beta_table must be positive, got {self.beta_table}")


@dataclass(frozen=True)
class DerivedParams:
    """Shape parameters fixed by the minimum conditions.

    b = 2 alpha, u = b re, q = -eta e^u, beta = sqrt(Ke / 2 De) with Ke
    the harmonic force constant we^2 * mu / (2 * hbar^2/2).  A and B are
    the deformed Schioberg coefficients; A is +inf in the Morse limit
    q = 0 where that form has no finite representation.
    """

    b: float
    u: float
    q: float
    Ke: float
    beta: float
    A: float
    B: float


def derive(params: SpectroscopicParams) -> DerivedParams:
    """Fix the potential shape from the spectroscopic constants."""
    b = 2.0 * params.alpha
    u = b * params.re
    q = -params.eta * math.exp(u)
    Ke = params.we**2 / (2.0 * kinetic_factor(params.mu))
    beta = math.sqrt(Ke / (2.0 * params.De))
    eu = math.exp(u)
    if q**2 == 0.0:
        # Morse limit (q = 0, or so close that q^2 underflows): the
        # Schioberg offset coefficient runs away while A (B + 1)^2 stays
        # De; B itself is well defined (-1).
        A = math.inf
    else:
        A = params.De * (eu + q) ** 2 / (4.0 * q**2)
    B = -(eu - q) / (eu + q)
    for label, value in (("b", b), ("beta", beta), ("Ke", Ke), ("q", q), ("B", B)):
        if not math.isfinite(value):
            raise ValueError(f"derived parameter {label} is not finite: {value}")
    return DerivedParams(b=b, u=u, q=q, Ke=Ke, beta=beta, A=A, B=B)


# ---------------------------------------------------------------------------
# model variants


@dataclass(frozen=True)
class DeformedSchioberg:
    """U(r) = A (B + tanh_q(alpha r))^2."""

    A: float
    B: float
    q: float
    alpha: float


@dataclass(frozen=True)
class TietzHua:
    """U(r) = De [(1 - e^{-b(r-re)}) / (1 - eta e^{-b(r-re)})]^2."""

    De: float
    re: float
    b: float
    eta: float


@dataclass(frozen=True)
class DengFan:
    """U(r) = De [1 - (e^{lam re} - 1)/(e^{lam r} - 1)]^2, the q = -1 case."""

    De: float
    re: float
    lam: float


@dataclass(frozen=True)
class Morse:
    """U(r) = De (1 - e^{-beta (r - re)})^2, the q -> 0 limit."""

    De: float
    re: float
    beta: float


@dataclass(frozen=True)
class PForm:
    """Rational coefficients of U = P1 + P2/(e^{br}+q) + P3/(e^{br}+q)^2."""

    b: float
    q: float
    P1: float
    P2: float
    P3: float


@dataclass(frozen=True)
class GeneralPForm:
    """Potential given directly by its P-form coefficients."""

    pform: PForm


PotentialModel = Union[DeformedSchioberg, TietzHua, DengFan, Morse, GeneralPForm]


def tanh_q(x, q: float):
    """Deformed hyperbolic tangent (e^{2x} - q)/(e^{2x} + q)."""
    e2x = np.exp(2.0 * np.asarray(x, dtype=float))
    return (e2x - q) / (e2x + q)


def pole_radius(b: float, q: float) -> float | None:
    """Radius where e^{br} + q vanishes, or None if there is none for r > 0."""
    if q >= 0.0:
        return None
    r = math.log(-q) / b
    return r if r > 0.0 else None


def model_pole_radius(model: PotentialModel) -> float | None:
    """Pole of the model's rational structure at positive radius, if any."""
    if isinstance(model, DeformedSchioberg):
        return pole_radius(2.0 * model.alpha, model.q)
    if isinstance(model, TietzHua):
        return pole_radius(model.b, -model.eta * math.exp(model.b * model.re))
    if isinstance(model, GeneralPForm):
        return pole_radius(model.pform.b, model.pform.q)
    return None  # DengFan's pole sits at r = 0, Morse has none


def from_params(params: SpectroscopicParams) -> TietzHua:
    """Tietz-Hua model with shape fixed by the minimum conditions."""
    return TietzHua(De=params.De, re=params.re, b=2.0 * params.alpha, eta=params.eta)


def equilibrium_radius(model: PotentialModel) -> float:
    """Location of the potential minimum."""
    if isinstance(model, (TietzHua, DengFan, Morse)):
        return model.re
    if isinstance(model, DeformedSchioberg):
        # B = -(e^{2 alpha re} - q)/(e^{2 alpha re} + q) inverted for re
        ratio = model.q * (1.0 - model.B) / (1.0 + model.B)
        if ratio <= 1.0:
            raise ValueError("model has no minimum at positive radius")
        return math.log(ratio) / (2.0 * model.alpha)
    if isinstance(model, GeneralPForm):
        p = model.pform
        arg = -p.P2 / (2.0 * p.P1) - p.q
        if arg <= 1.0:
            raise ValueError("model has no minimum at positive radius")
        return math.log(arg) / p.b
    raise TypeError(f"unsupported model {type(model).__name__}")


def dissociation_energy(model: PotentialModel) -> float:
    """Well depth U(inf) - U(re)."""
    if isinstance(model, (TietzHua, DengFan, Morse)):
        return model.De
    if isinstance(model, DeformedSchioberg):
        return model.A * (model.B + 1.0) ** 2
    if isinstance(model, GeneralPForm):
        return model.pform.P1
    raise TypeError(f"unsupported model {type(model).__name__}")


def evaluate(model: PotentialModel, r):
    """Potential energy at radius r (scalar or array), relative to the minimum.

    Every variant vanishes at its equilibrium radius, so no offset is
    applied here; :func:`schioberg_offset` reports the constant a raw
    (A, B, q) triple not satisfying the minimum conditions would carry.
    Radii within 1e-9 Angstrom of a pole raise SingularRadiusError; the
    poles exist only for q < 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive")
    pole = model_pole_radius(model)
    if pole is not None and np.any(np.abs(r - pole) < 1.0e-9):
        raise SingularRadiusError(
            f"radius within 1e-9 A of the potential pole at {pole:.9f} A"
        )
    if isinstance(model, DeformedSchioberg):
        e2x = np.exp(2.0 * model.alpha * r)
        t = (e2x - model.q) / (e2x + model.q)
        out = model.A * (model.B + t) ** 2
    elif isinstance(model, TietzHua):
        y = np.exp(-model.b * (r - model.re))
        out = model.De * ((1.0 - y) / (1.0 - model.eta * y)) ** 2
    elif isinstance(model, DengFan):
        out = model.De * (
            1.0 - np.expm1(model.lam * model.re) / np.expm1(model.lam * r)
        ) ** 2
    elif isinstance(model, Morse):
        out = model.De * (1.0 - np.exp(-model.beta * (r - model.re))) ** 2
    elif isinstance(model, GeneralPForm):
        p = model.pform
        den = np.exp(p.b * r) + p.q
        out = p.P1 + p.P2 / den + p.P3 / den**2
    else:
        raise TypeError(f"unsupported model {type(model).__name__}")
    return float(out) if r.ndim == 0 else out


def schioberg_offset(model: DeformedSchioberg) -> float:
    """Value of the raw A (B + tanh_q)^2 form at its own minimum.

    Vanishes (up to rounding) whenever the minimum sits at positive
    radius, since the squared bracket reaches zero there; serves as a
    consistency diagnostic for arbitrary coefficient triples.
    """
    re = equilibrium_radius(model)
    t = float(tanh_q(model.alpha * re, model.q))
    return model.A * (model.B + t) ** 2


def to_pform(model: PotentialModel) -> PForm:
    """Rewrite a model as P-form coefficients.

    P1 = De, P2 = -2 De (e^{b re} + q), P3 = De (e^{b re} + q)^2, which
    satisfy P2^2 = 4 P1 P3.  The Morse potential is the q -> 0 limit and
    has no finite P-form; requesting it raises ValueError.
    """
    if isinstance(model, GeneralPForm):
        return model.pform
    if isinstance(model, Morse):
        raise ValueError(
            "Morse potential (q = 0) is not representable in P-form; "
            "use the dedicated Morse energy helpers"
        )
    if isinstance(model, TietzHua):
        b = model.b
        q = -model.eta * math.exp(b * model.re)
        De = model.De
        re = model.re
    elif isinstance(model, DengFan):
        b = model.lam
        q = -1.0
        De = model.De
        re = model.re
    elif isinstance(model, DeformedSchioberg):
        b = 2.0 * model.alpha
        q = model.q
        De = dissociation_energy(model)
        re = equilibrium_radius(model)
    else:
        raise TypeError(f"unsupported model {type(model).__name__}")
    c = math.exp(b * re) + q
    return PForm(b=b, q=q, P1=De, P2=-2.0 * De * c, P3=De * c**2)


# ---------------------------------------------------------------------------
# verification helpers


@dataclass(frozen=True)
class VarshniReport:
    """Finite-difference check of the minimum conditions.

    dU_at_re and d2U_at_re are 5-point stencil derivatives at re; depth
    is U(far) - U(re).  Targets: dU 0, depth De, d2U the harmonic force
    constant Ke (exactly 2 De beta^2 only when the parameter set is
    self-consistent; tabulated alpha and beta columns usually agree to a
    few 1e-5 relative).
    """

    re: float
    dU_at_re: float
    depth: float
    d2U_at_re: float
    De: float
    Ke: float


def _decay_constant(model: PotentialModel) -> float:
    if isinstance(model, DeformedSchioberg):
        return 2.0 * model.alpha
    if isinstance(model, TietzHua):
        return model.b
    if isinstance(model, DengFan):
        return model.lam
    if isinstance(model, Morse):
        return model.beta
    return model.pform.b


def verify_varshni(model: PotentialModel, derived: DerivedParams) -> VarshniReport:
    """Check minimum location, depth and curvature by finite differences.

    Step h = 1e-4 re balances truncation against cancellation in double
    precision; the depth is probed at 100 re, capped so the largest
    exponent stays below overflow.
    """
    re = equilibrium_radius(model)
    h = 1.0e-4 * re
    u = [evaluate(model, re + i * h) for i in (-2, -1, 0, 1, 2)]
    dU = (u[0] - 8.0 * u[1] + 8.0 * u[3] - u[4]) / (12.0 * h)
    d2U = (-u[0] + 16.0 * u[1] - 30.0 * u[2] + 16.0 * u[3] - u[4]) / (12.0 * h**2)
    far = min(100.0 * re, 650.0 / _decay_constant(model))
    depth = evaluate(model, far) - u[2]
    return VarshniReport(
        re=re,
        dU_at_re=dU,
        depth=depth,
        d2U_at_re=d2U,
        De=dissociation_energy(model),
        Ke=derived.Ke,
    )


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= -1/e.

    Halley iteration from a branch-aware seed; accurate to ~1e-14
    relative over the domain used here (arguments of order unity).
    """
    if x < -_INV_E:
        if x > -_INV_E - 1.0e-15 * _INV_E:
            return -1.0
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == -_INV_E:
        return -1.0
    if x < -0.25:
        # series around the branch point in p = sqrt(2 (e x + 1))
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p**2 / 3.0 + 11.0 * p**3 / 72.0
    elif x < 0.25:
        w = x
    else:
        w = math.log1p(x)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1.0e-15 * max(1.0, abs(w)):
            break
    return w


def alpha_dmrm(
    params: SpectroscopicParams,
    derived: DerivedParams,
    variant: str = "corrected",
) -> float:
    """Morse-like range parameter from the Lambert W closed form.

    Inverting q = -eta e^{2 alpha re} together with 2 alpha = beta (1 - eta)
    gives alpha = beta/2 + W(re q beta e^{-re beta}) / (2 re); that is the
    "corrected" variant.  The "as_published" variant carries the commonly
    printed exponent e^{-re beta / 2} instead and yields a systematically
    different alpha.
    """
    beta = derived.beta
    q = derived.q
    re = params.re
    if variant == "as_published":
        arg = re * q * beta * math.exp(-re * beta / 2.0)
    elif variant == "corrected":
        arg = re * q * beta * math.exp(-re * beta)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if arg < -_INV_E:
        raise ValueError(
            f"no real solution: W argument {arg:.6g} below -1/e for {variant!r}"
        )
    return beta / 2.0 + lambert_w0(arg) / (2.0 * re)
