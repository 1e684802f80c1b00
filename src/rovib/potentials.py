"""
potentials.py

The deformed Schioberg potential

    U(r) = A * (B + tanh_q(alpha r))^2,
    tanh_q(x) = (e^{2x} - q) / (e^{2x} + q),

is the Tietz-Hua oscillator, with Deng-Fan as its q = -1 case and Morse
as its eta -> 0 limit.  One model, TietzHua, carries all of them; the
schioberg and deng_fan constructors map those forms' parameters onto it.
to_pform rewrites it in the rational P-form

    U(r) = P1 + P2/(e^{b r} + q) + P3/(e^{b r} + q)^2

that the closed-form spectrum consumes.  The model itself is evaluated
in the Tietz-Hua form: near re the P-form sum cancels three terms of
size De, which costs digits.  Shape parameters are fixed from the
spectroscopic constants (De, re, we) by requiring a minimum at re,
depth De at dissociation and curvature matching the harmonic force
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import kinetic_factor

_INV_E = math.exp(-1.0)

# Largest magnitude of a parameter (and inverse of the smallest positive
# one), and largest exponent b re = 2 alpha re: far beyond any diatomic,
# and small enough that e^{b re}, we^2 and the P-form, centrifugal and
# oracle quantities built from them stay finite.
MAX_MAGNITUDE = 1.0e6
MAX_B_RE = 50.0


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
    must be finite, the positive ones within [1/MAX_MAGNITUDE,
    MAX_MAGNITUDE], |eta| at most MAX_MAGNITUDE and 2 alpha re at most
    MAX_B_RE, so that nothing computed from them overflows.
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
        for field in ("De", "re", "we", "mu", "alpha", "beta_table"):
            value = getattr(self, field)
            if value is None:  # beta_table is optional
                continue
            if not value > 0.0:
                raise ValueError(f"{field} must be positive, got {value}")
            if not 1.0 / MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:
                raise ValueError(
                    f"{field} must lie in [{1.0 / MAX_MAGNITUDE:g}, "
                    f"{MAX_MAGNITUDE:g}], got {value}"
                )
        if self.eta == 1.0:
            raise ValueError("eta must differ from 1 (potential degenerates)")
        if abs(self.eta) > MAX_MAGNITUDE:
            raise ValueError(
                f"eta must lie in [{-MAX_MAGNITUDE:g}, {MAX_MAGNITUDE:g}], got {self.eta}"
            )
        if 2.0 * self.alpha * self.re > MAX_B_RE:
            raise ValueError(
                f"alpha must keep 2 alpha re at most {MAX_B_RE:g}, got alpha = "
                f"{self.alpha} at re = {self.re}"
            )


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
# the potential model


@dataclass(frozen=True)
class TietzHua:
    """U(r) = De [(1 - e^{-b(r-re)}) / (1 - eta e^{-b(r-re)})]^2.

    The one potential model: :func:`schioberg` and :func:`deng_fan`
    build it from those forms' parameters, and eta = 0 is the Morse
    potential De (1 - e^{-b(r-re)})^2.
    """

    De: float
    re: float
    b: float
    eta: float

    @property
    def q(self) -> float:
        """Deformation of the P-form denominator e^{br} + q."""
        return -self.eta * math.exp(self.b * self.re)


@dataclass(frozen=True)
class PForm:
    """Rational coefficients of U = P1 + P2/(e^{br}+q) + P3/(e^{br}+q)^2."""

    b: float
    q: float
    P1: float
    P2: float
    P3: float


def schioberg(A: float, B: float, q: float, alpha: float) -> TietzHua:
    """The deformed Schioberg form A (B + tanh_q(alpha r))^2.

    tanh_q(x) = (e^{2x} - q)/(e^{2x} + q).  Inverting
    B = -(e^{2 alpha re} - q)/(e^{2 alpha re} + q) gives the minimum re;
    then De = A (B + 1)^2, b = 2 alpha and eta = -q e^{-b re}.
    """
    ratio = q * (1.0 - B) / (1.0 + B)
    if ratio <= 1.0:
        raise ValueError("model has no minimum at positive radius")
    b = 2.0 * alpha
    re = math.log(ratio) / b
    return TietzHua(De=A * (B + 1.0) ** 2, re=re, b=b, eta=-q * math.exp(-b * re))


def deng_fan(De: float, re: float, lam: float) -> TietzHua:
    """U(r) = De [1 - (e^{lam re} - 1)/(e^{lam r} - 1)]^2, the q = -1 case."""
    return TietzHua(De=De, re=re, b=lam, eta=math.exp(-lam * re))


def pole_radius(b: float, q: float) -> float | None:
    """Radius where e^{br} + q vanishes, or None if there is none for r > 0."""
    if q >= 0.0:
        return None
    r = math.log(-q) / b
    return r if r > 0.0 else None


def from_params(params: SpectroscopicParams) -> TietzHua:
    """Tietz-Hua model with shape fixed by the minimum conditions."""
    return TietzHua(De=params.De, re=params.re, b=2.0 * params.alpha, eta=params.eta)


def evaluate(model: TietzHua, r):
    """Potential energy at radius r (scalar or array), relative to the minimum.

    Radii within 1e-9 Angstrom of a pole raise SingularRadiusError; the
    poles exist only for q < 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive")
    pole = pole_radius(model.b, model.q)
    if pole is not None and np.any(np.abs(r - pole) < 1.0e-9):
        raise SingularRadiusError(
            f"radius within 1e-9 A of the potential pole at {pole:.9f} A"
        )
    y = np.exp(-model.b * (r - model.re))
    out = model.De * ((1.0 - y) / (1.0 - model.eta * y)) ** 2
    return float(out) if r.ndim == 0 else out


def to_pform(model: TietzHua) -> PForm:
    """Rewrite a model as P-form coefficients.

    P1 = De, P2 = -2 De (e^{b re} + q), P3 = De (e^{b re} + q)^2, which
    satisfy P2^2 = 4 P1 P3.  The Morse model (eta = 0) maps to q = 0,
    where the closed-form spectrum gives the Morse levels.
    """
    b, q, De = model.b, model.q, model.De
    c = math.exp(b * model.re) + q
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


def verify_varshni(model: TietzHua, derived: DerivedParams) -> VarshniReport:
    """Check minimum location, depth and curvature by finite differences.

    Step h = 1e-4 re balances truncation against cancellation in double
    precision; the depth is probed at 100 re, capped so the largest
    exponent stays below overflow.
    """
    re = model.re
    h = 1.0e-4 * re
    u = [evaluate(model, re + i * h) for i in (-2, -1, 0, 1, 2)]
    dU = (u[0] - 8.0 * u[1] + 8.0 * u[3] - u[4]) / (12.0 * h)
    d2U = (-u[0] + 16.0 * u[1] - 30.0 * u[2] + 16.0 * u[3] - u[4]) / (12.0 * h**2)
    far = min(100.0 * re, 650.0 / model.b)
    depth = evaluate(model, far) - u[2]
    return VarshniReport(
        re=re,
        dU_at_re=dU,
        depth=depth,
        d2U_at_re=d2U,
        De=model.De,
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
