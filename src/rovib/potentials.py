"""
potentials.py

The deformed Schioberg potential

    U(r) = A * (B + tanh_q(alpha r))^2,
    tanh_q(x) = (e^{2x} - q) / (e^{2x} + q),

is the Tietz-Hua oscillator, with Deng-Fan as its q = -1 case and Morse
as its eta -> 0 limit.  One model, TietzHua, carries all of them; the
tests hold each form's mapping onto it as an identity.  to_pform
rewrites it in the rational P-form

    U(r) = P1 + P2/(e^{b r} + q) + P3/(e^{b r} + q)^2

that the closed-form spectrum consumes.  The model itself is evaluated
in the Tietz-Hua form: near re the P-form sum cancels three terms of
size De, which costs digits.  Shape parameters are fixed from the
spectroscopic constants (De, re, we) by requiring a minimum at re,
depth De at dissociation and curvature matching the harmonic force
constant, given as the SpectroscopicParams that rovib.database defines.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .database import SpectroscopicParams
from .units import kinetic_factor

_INV_E = math.exp(-1.0)

# Largest sinc-DVR basis the oracle builds per J (a solve: 0.7 s, 65 MB
# peak, 2 vCPUs, ~N^3), and most basis functions in one deviation_report,
# len(J_list) x min(n_points, MAX_BASIS) (32 J at MAX_BASIS took 23 s and
# 97 MB); kept here so that the CLI's checks do not load the oracle.
MAX_BASIS = 2048
MAX_ORACLE_POINTS = 2**16


class SingularRadiusError(ValueError):
    """Potential evaluated at (or numerically on top of) a pole."""


class DerivedParams(NamedTuple):
    """Shape parameters fixed by the minimum conditions.

    b = 2 alpha, u = b re, q = -eta e^u, beta = sqrt(Ke / 2 De) with Ke
    the harmonic force constant we^2 * mu / (2 * hbar^2/2).
    """

    b: float
    u: float
    q: float
    Ke: float
    beta: float


def derive(params: SpectroscopicParams) -> DerivedParams:
    """Fix the potential shape from the spectroscopic constants."""
    b = 2.0 * params.alpha
    u = b * params.re
    q = -params.eta * math.exp(u)
    Ke = params.we**2 / (2.0 * kinetic_factor(params.mu))
    beta = math.sqrt(Ke / (2.0 * params.De))
    for label, value in (("b", b), ("beta", beta), ("Ke", Ke), ("q", q)):
        if not math.isfinite(value):
            raise ValueError(f"derived parameter {label} is not finite: {value}")
    return DerivedParams(b=b, u=u, q=q, Ke=Ke, beta=beta)


# ---------------------------------------------------------------------------
# the potential model


class TietzHua(NamedTuple):
    """U(r) = De [(1 - e^{-b(r-re)}) / (1 - eta e^{-b(r-re)})]^2.

    The one potential model; eta = 0 is the Morse potential
    De (1 - e^{-b(r-re)})^2.
    """

    De: float
    re: float
    b: float
    eta: float

    @property
    def q(self) -> float:
        """Deformation of the P-form denominator e^{br} + q."""
        return -self.eta * math.exp(self.b * self.re)


class PForm(NamedTuple):
    """Rational coefficients of U = P1 + P2/(e^{br}+q) + P3/(e^{br}+q)^2."""

    b: float
    q: float
    P1: float
    P2: float
    P3: float


def pole_radius(b: float, q: float) -> float | None:
    """Radius where e^{br} + q vanishes, or None if there is none for r > 0."""
    r = math.log(-q) / b if q < 0.0 else 0.0
    return r if r > 0.0 else None


def from_params(params: SpectroscopicParams) -> TietzHua:
    """Tietz-Hua model with shape fixed by the minimum conditions."""
    return TietzHua(De=params.De, re=params.re, b=2.0 * params.alpha, eta=params.eta)


def evaluate(model: TietzHua, r):
    """Potential energy at radius r, relative to the minimum: a float for
    a Python float or int r, evaluated with math (no numpy import), else
    numpy's array (a float if 0-d).  Both paths raise ValueError for r <= 0
    and SingularRadiusError within 1e-9 Angstrom of a pole (q < 0 only),
    give inf or nan where the other does, and differ only in exp's last bit.
    """
    if isinstance(r, (int, float)):  # an int past float range acts as +-1e308
        xp, any_, r = math, bool, float(min(max(r, -1.0e308), 1.0e308))
    else:
        import numpy as xp

        any_, r = xp.any, xp.asarray(r, dtype=float)
    if any_(r <= 0.0):
        raise ValueError("r must be positive")
    pole = pole_radius(model.b, model.q)
    if pole is not None and any_(abs(r - pole) < 1.0e-9):
        raise SingularRadiusError(f"radius within 1e-9 A of the potential pole "
                                  f"at {pole:.9f} A")
    try:
        y = xp.exp(-model.b * (r - model.re))
    except OverflowError:  # math only: numpy's inf makes the quotient nan
        y = math.inf
    try:
        out = model.De * ((1.0 - y) / (1.0 - model.eta * y)) ** 2
    except (OverflowError, ZeroDivisionError):  # math only: numpy gives inf
        return math.inf
    return float(out) if xp is math or r.ndim == 0 else out


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


class VarshniReport(NamedTuple):
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
        Ke=derived.Ke,
    )


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= -1/e.

    Halley iteration from a branch-aware seed; accurate to ~1e-14
    relative over the domain used here (arguments of order unity).
    """
    if x <= -_INV_E:  # -1/e itself, or below it by rounding, is the branch point
        if x > -_INV_E - 1.0e-15 * _INV_E:
            return -1.0
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x}")
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
    beta, q, re = derived.beta, derived.q, params.re
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
