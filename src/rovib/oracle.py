"""
oracle.py

An independent numerical check of the closed-form spectrum: the
Colbert-Miller sinc discrete variable representation (DVR; J. Chem.
Phys. 96, 1982 (1992)) of -k R'' + (U(r) + J(J+1) k / r^2) R = E R with
the exact 1/r^2, a dense eigenproblem refined N -> 2N until its levels
agree to DVR_TOL_CM1.  deviation_report groups the J values of a request
(_groups): the lowest J of a group, its reference, refines on a box that
holds every level of the group, and the others are solved in the
reference's lowest eigenvectors, where their Hamiltonians differ only by
(J(J+1) - J_ref(J_ref+1)) k / r^2 (_contracted; Echave & Clary, Chem.
Phys. Lett. 190, 225 (1992)).  A J alone in its group, or one whose
contraction does not converge, refines on its own box.  The refinements
of a request run together, the problems of one basis size solved as one
stacked eigensolve (dvr_eigenvalues).  Its disagreement
with the closed form measures the rational approximation of the
centrifugal term.  deviation_report runs it over a closed-form (nu, J)
table, converge for one level of a TietzHua; both take each J's well,
and the levels it holds, from _wells.
No other module imports this one at load time: the package
resolves converge and deviation_report on first access and the CLI
imports it inside compare, so the closed form never pays for compiling
it.  numpy is imported by the functions that build arrays, not by
importing this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .potentials import (MAX_BASIS, MAX_ORACLE_POINTS, SingularRadiusError, TietzHua,
                         evaluate, from_params)
from .spectrum import LevelFailure, _index_error, level_table
from .units import kinetic_factor

if TYPE_CHECKING:
    import numpy as np

DVR_TOL_CM1 = 1.0e-6  # N -> 2N agreement that ends the DVR refinement
_R_MIN, _R_MAX = 0.3, 8.0  # the range every box lies in, in units of re
_TAIL = 18.0  # decay integral past each turning point: amplitude e^-18
_SAFETY = 2.0  # spacing pi / (_SAFETY p_max), p_max the largest wave number
_SCAN = 2048  # potential samples over the range that place the box
# a group's reference basis is at most this large: numpy's eigh, which the
# contraction needs, peaks at 42 MB for 512 functions and 74 MB for 1024,
# where eigvalsh peaks at 34 and 46 MB
_CONTRACT_MAX = 512
# a shared basis costs one eigh of the reference's 2N matrix, about as much
# as refining two J values (eigvalsh at N and 2N), and a small solve per J:
# it saves time from four J values on, and smaller groups split
_MIN_GROUP = 4
_STACK = 2**18  # matrix elements per stacked eigensolve, unless one matrix has more
_ABOVE_BASIS = ("nu at or above the sinc DVR basis size within {} basis "
                "functions; no oracle level")
_BELOW_WELL = "below the effective potential's minimum; no oracle level"
_ABOVE_WELL = "nu above the well: its WKB count at the top is {:.2f}; no oracle level"
_ABOVE_TOP = ("closed-form level at or above the well's top, {:.2f} cm^-1; "
              "no oracle level")


class ResolutionError(RuntimeError):
    """Basis budget too small to converge the requested level."""


def _potential(model: TietzHua, r: np.ndarray) -> np.ndarray:
    """evaluate, with a sample on the pole (0 < eta < 1) a ResolutionError."""
    try:
        return evaluate(model, r)
    except SingularRadiusError as exc:
        raise ResolutionError(f"{exc}; no oracle level") from None


def _effective(model: TietzHua, r: np.ndarray, c) -> np.ndarray:
    """V(r) + c / r^2 for c = J(J+1) k: at one J, or with c a column of
    them at one J per row of r."""
    return _potential(model, r) + c / r**2


def _hamiltonian(r: np.ndarray, v: np.ndarray, k: float) -> np.ndarray:
    """The sinc-DVR matrix of -k d^2/dr^2 + v on the uniform points r, one
    basis function per point: r and v of shape (n,), or (m, n) for a
    stack of m matrices."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    n = r.shape[-1]
    # t = k / dr^2 as the scalar expression gives it: a numpy scalar's ** 2
    # calls pow, as float_power does; an array's ** 2 multiplies, which
    # differs in the last bit for ~0.1% of spacings
    t = k / np.float_power((r[..., -1] - r[..., 0]) / (n - 1), 2)
    m = np.arange(n)
    row = 2.0 * (-1.0) ** m / np.maximum(m * m, 1)  # h[i, j] = t row[|i - j|]
    h = sliding_window_view(np.concatenate([row[:0:-1], row]), n)[::-1]
    h = h * t[..., None, None]
    h[..., m, m] = math.pi**2 / 3.0 * t[..., None] + v
    return h


def dvr_eigenvalues(r: np.ndarray, v: np.ndarray, k: float) -> np.ndarray:
    """Ascending eigenvalues of -k d^2/dr^2 + v in the sinc DVR on the
    uniform points r, one basis function per point: r and v of shape (n,),
    or (m, n) for m problems solved as one stack."""
    import numpy as np

    return np.linalg.eigvalsh(_hamiltonian(r, v, k))


class _Wells(NamedTuple):
    """The well of the effective potential v = V + J(J+1) k / r^2 on the
    scan r, _SCAN points of [_R_MIN re, _R_MAX re] spaced dr, a row of v
    per J.  Per row: the minimum lo at index well; top, the lower of the
    highest v on each side of the minimum (the barrier top, or v at the
    scan's end); inside, v on the points around the minimum where
    v < top; and top_phase, the phase at top."""

    r: np.ndarray
    v: np.ndarray
    well: list[int]
    lo: list[float]
    top: list[float]
    top_phase: list[float]
    inside: list[np.ndarray]
    k: float
    dr: float

    def phase(self, row: int, E: float) -> float:
        """S(E) / pi for E at most top: the WKB phase integral of
        sqrt((E - v) / k) dr over the points of inside where v < E, the
        well at E.  Level nu lies half a level below pi (nu + 1), so by
        this count the well holds top_phase - 1/2 levels."""
        import numpy as np

        v = self.inside[row]
        return np.sqrt(E - v[v < E]).sum() * (self.dr / math.pi / math.sqrt(self.k))

    def box(self, row: int, E_top: float) -> tuple[float, float, int]:
        """(r_min, r_max, N) for levels up to E_top, above lo: the well at
        E_top plus tails where the decay integral reaches _TAIL, within
        the scan, and N = _SAFETY times the de Broglie limit."""
        import numpy as np

        r, v, well, k = self.r, self.v[row], self.well[row], self.k
        reach = 256  # the integrals run over v[a:b], widened until both reach _TAIL
        while True:
            a, b = max(well - reach, 0), min(well + reach, r.size)
            decay = np.sqrt(np.maximum(v[a:b] - E_top, 0.0) / k) * self.dr  # 0 inside
            inner = np.searchsorted(np.cumsum(decay[well - a::-1]), _TAIL)
            outer = np.searchsorted(np.cumsum(decay[well - a:]), _TAIL)
            if (a == 0 or inner <= well - a) and (b == r.size or outer < b - well):
                break
            reach *= 4
        r_min, r_max = r[max(well - inner, 0)], r[min(well + outer, r.size - 1)]
        p_max = math.sqrt((E_top - self.lo[row]) / k)
        return r_min, r_max, math.ceil(_SAFETY * p_max * (r_max - r_min) / math.pi) + 1


def _wells(model: TietzHua, J_list: list[int], k: float) -> _Wells:
    """The _Wells of model at each J of J_list, all rows found at once; a
    scan point on the pole is a ResolutionError."""
    import numpy as np

    r = np.linspace(_R_MIN * model.re, _R_MAX * model.re, _SCAN)
    v = np.array([J * (J + 1) * k for J in J_list], dtype=float)[:, None] / r**2
    v += _potential(model, r)
    n = r.size
    well, base = v.argmin(axis=1), np.arange(0, v.size, n)  # base: row starts in v.ravel()
    # with the rows laid end to end, one reduceat finds the highest v
    # before each minimum and from it on, and one search the nearest
    # points with v >= top on each side (each side has one, unless the
    # minimum is the scan's first point, where top = lo)
    side = np.maximum.reduceat(v.ravel(), np.column_stack((base, base + well)).ravel())
    top = np.minimum(side[::2], side[1::2])
    wall = np.flatnonzero(v >= top[:, None])
    after = wall.searchsorted(base + well)
    stop = wall[after] - base
    start = np.clip(wall[after - 1] + 1 - base, 0, stop)
    inside = [row[a:b] for row, a, b in zip(v, start.tolist(), stop.tolist())]
    # and one reduceat sums each row's phase at top, over its inside laid
    # end to end and a final 0 (a row with no inside has phase 0)
    size = stop - start
    x = np.concatenate([*inside, [0.0]])
    np.subtract(np.repeat(top, size), x[:-1], out=x[:-1])
    phase = np.add.reduceat(np.sqrt(x, out=x), np.cumsum(size) - size)
    dr = float(r[-1] - r[0]) / (n - 1)
    phase *= (size > 0) * (dr / math.pi / math.sqrt(k))
    return _Wells(r, v, well.tolist(), v.ravel()[base + well].tolist(), top.tolist(),
                  phase.tolist(), inside, k, dr)


def _dvr_levels(
    model: TietzHua, k: float,
    jobs: dict[int, tuple[list[int], tuple[float, float, int]]], n_max: int,
) -> tuple[dict[int, dict[int, tuple[float, float, int] | str]], dict[int, int]]:
    """({J: {nu: (E_2N, |E_N - E_2N|, 2N) or the reason there is none}},
    {J: the last basis size J solved}) for jobs {J: (nus, box)}, box the
    (r_min, r_max, n) of _Wells.box at the highest level's energy.

    Per J, first N: the box's n.  N doubles while some level moves by more
    than DVR_TOL_CM1 and 4N fits in n_max; then, if n_max // 2 exceeds N,
    the last pair that fits, (n_max // 2, 2 (n_max // 2)), serves the
    levels still unconverged, and a level converged at an earlier pair
    keeps that pair.  A level at or above the last N has no N -> 2N pair.
    The J values refine together: each step solves those due at the
    smallest basis size as one stack of at most max(size^2, _STACK) matrix
    elements."""
    import numpy as np

    c = {J: J * (J + 1) * k for J in jobs}
    out, box, N, size, fine, last = {}, {}, {}, {}, {}, {}
    for J, (_, (*box[J], n)) in jobs.items():
        N[J] = size[J] = min(max(n, 2), n_max // 2)
    while size:  # size[J]: the basis J solves next, N[J] or 2 N[J]
        n = min(size.values())
        stack = [J for J in size if size[J] == n][:max(_STACK // n**2, 1)]
        x = np.linspace(*np.array([box[J] for J in stack]).T, n).T  # a row per J
        v = _effective(model, x, np.array([c[J] for J in stack])[:, None])
        for J, E in zip(stack, dvr_eigenvalues(x, v, k)):
            nus = jobs[J][0]
            E = np.append(E, np.full(max(nus) + 1, np.nan))[nus]  # nan at or above n
            if n == N[J]:
                fine[J], size[J] = E, 2 * n
                continue
            errors, fine[J] = np.abs(E - fine[J]), E
            converged = np.all(errors <= DVR_TOL_CM1)
            if not (converged or 4 * N[J] > n_max):
                N[J], size[J] = n, 2 * n
                continue
            kept = out.get(J, {})  # set if this is the last pair
            out[J] = {
                nu: kept[nu] if isinstance(kept.get(nu), tuple) else
                _ABOVE_BASIS.format(n_max) if nu >= N[J] else
                (E_nu, err, n) if err <= DVR_TOL_CM1 else
                f"sinc DVR not converged to {DVR_TOL_CM1} cm^-1 within {n} "
                f"basis functions (|E_N - E_2N| = {err:.3g} cm^-1)"
                for nu, E_nu, err in zip(nus, E.tolist(), errors.tolist())
            }
            if converged or N[J] >= n_max // 2:
                del size[J]
                last[J] = n
            else:
                N[J] = size[J] = n_max // 2
    return out, last


def _groups(
    wells: _Wells, jobs: dict[int, tuple[list[int], float, int]], n_max: int,
) -> list[tuple[list[int], tuple[float, float, int]]]:
    """The J values of jobs {J: (nus, E_top, row)}, ascending, in groups
    (Js, box) that share one basis: Js[0], the reference, refines on box,
    its _Wells.box at the group's highest E_top.  A J joins the open group
    while its E_top lies below the reference's well top, and the
    reference's first N on the group's new box is at most 5/4 of the
    first N of J's own box, and at most _CONTRACT_MAX / 2.  A group of
    fewer than _MIN_GROUP J values splits into groups of one, each J on
    its own box."""
    def first_N(box):
        return min(max(box[2], 2), n_max // 2)

    groups, own = [], {}
    for J in sorted(jobs):
        _, E_top, row = jobs[J]
        own[J] = wells.box(row, E_top)
        if groups:
            Js, E, box = groups[-1]
            ref = jobs[Js[0]][2]
            if E_top < wells.top[ref]:
                grown = box if E_top <= E else wells.box(ref, E_top)
                N = first_N(grown)
                if 2 * N <= _CONTRACT_MAX and 4 * N <= 5 * first_N(own[J]):
                    groups[-1] = (Js + [J], max(E, E_top), grown)
                    continue
        groups.append(([J], E_top, own[J]))
    out = []
    for Js, _, box in groups:
        out += [(Js, box)] if len(Js) >= _MIN_GROUP else [([J], own[J]) for J in Js]
    return out


def _contracted(
    x: np.ndarray, v: np.ndarray, k: float, ref: int, members: dict[int, list[int]],
    levels: dict[int, tuple[float, float, int]],
) -> dict[int, dict[int, tuple[float, float, int]]]:
    """{J: {nu: (E_2M, |E_M - E_2M| + the reference's |E_N - E_2N|, 2N)}}
    for each J of members {J: nus} that converges in the reference's basis.

    x and v are the reference's converged 2N basis and its effective
    potential, levels its refined levels.  Its lowest 2M eigenvectors Phi
    make the 2M x 2M problem diag(E_ref) + (J(J+1) - J_ref(J_ref+1)) k
    Phi^T diag(1/r^2) Phi, and its leading M x M block the M problem; M
    starts at 2 (max nu + 1) and doubles, the last step at 2M = 2N, while
    some level of J moves by more than DVR_TOL_CM1.  A J still moving
    then is left out."""
    import numpy as np

    n = x.size // 2  # N
    M = 2 * (max(max(nus) for nus in members.values()) + 1)
    if M > n:
        return {}
    E, U = np.linalg.eigh(_hamiltonian(x, v, k))
    out, pending = {}, list(members)
    while pending and M <= n:
        phi = U[:, :2 * M]
        w = phi.T @ (phi / x[:, None] ** 2)  # <i| 1/r^2 |j>
        shift = np.array([(J * (J + 1) - ref * (ref + 1)) * k for J in pending])
        h = shift[:, None, None] * w
        h[:, range(2 * M), range(2 * M)] += E[:2 * M]
        fine, coarse = np.linalg.eigvalsh(h), np.linalg.eigvalsh(h[:, :M, :M])
        for J, E_2M, E_M in zip(pending, fine, coarse):
            nus = members[J]
            errors = np.abs(E_M[nus] - E_2M[nus])
            if np.all(errors <= DVR_TOL_CM1):
                out[J] = {nu: (E_nu, err + levels[nu][1], x.size) for nu, E_nu, err
                          in zip(nus, E_2M[nus].tolist(), errors.tolist())}
        pending = [J for J in pending if J not in out]
        M = n if M < n < 2 * M else 2 * M
    return out


def _levels(
    model: TietzHua, wells: _Wells, jobs: dict[int, tuple[list[int], float, int]],
    n_max: int,
) -> dict[int, dict[int, tuple[float, float, int] | str]]:
    """{J: {nu: level or reason}} for jobs {J: (nus, E_top, row)}.

    Every group's reference (_groups) refines all nu of its group on the
    group's box, the references of all groups together.  If its basis
    has at most _CONTRACT_MAX functions, each J of the group whose levels
    all converged there is contracted in it.  A J whose levels did not
    converge, or whose contraction did not, then refines on its own box,
    as does a reference one of whose own levels failed on the group's."""
    import numpy as np

    k = wells.k
    groups = _groups(wells, jobs, n_max)
    levels, last = _dvr_levels(model, k, {
        Js[0]: (sorted({nu for J in Js for nu in jobs[J][0]}), box) for Js, box in groups
    }, n_max)
    out, alone = {}, {}
    for Js, (r_min, r_max, _) in groups:
        ref, shared = Js[0], levels[Js[0]]
        out[ref] = {nu: shared[nu] for nu in jobs[ref][0]}
        ready = {J: jobs[J][0] for J in Js[1:]
                 if all(isinstance(shared[nu], tuple) for nu in jobs[J][0])}
        if ready and last[ref] <= _CONTRACT_MAX:
            x = np.linspace(r_min, r_max, last[ref])
            out |= _contracted(x, _effective(model, x, ref * (ref + 1) * k), k, ref,
                               ready, shared)
        if len(Js) > 1 and not all(isinstance(lv, tuple) for lv in out[ref].values()):
            del out[ref]
        alone |= {J: (jobs[J][0], wells.box(jobs[J][2], jobs[J][1]))
                  for J in Js if J not in out}
    return out | _dvr_levels(model, k, alone, n_max)[0]


def _budget(n_points) -> int:
    """min(n_points, MAX_BASIS) of a whole n_points >= 4, else ValueError.
    nan fails every comparison, so a nan budget would never stop the
    refinement's doubling."""
    if not (n_points >= 4 and n_points % 1 == 0):
        raise ValueError("need a whole n_points >= 4")
    return min(int(n_points), MAX_BASIS)


class ConvergeResult(NamedTuple):
    """One level from the sinc DVR refined N -> 2N.

    The DVR converges exponentially in N, so no h^2 extrapolation is
    applied: extrapolated is the 2N eigenvalue itself.
    """

    nu: int
    J: int
    extrapolated: float  # E_2N, cm^-1
    difference: float  # |E_N - E_2N|, at most DVR_TOL_CM1
    n_points_fine: int  # 2N


def converge(
    model: TietzHua, J: int, mu: float, nu: int, n_points: int = MAX_BASIS,
) -> ConvergeResult:
    """Level nu at J of a TietzHua, converged to DVR_TOL_CM1 within
    n_points (at most MAX_BASIS) basis functions like deviation_report's
    rows, else ResolutionError naming the reason.  nu and J are
    non-negative integers, as level_table takes them; the model's fields
    are finite, De, re and b positive and eta not 1 (ValueError else).

    The box energy comes from the model's potential alone, not from the
    closed form: the WKB phase integral S(E) of sqrt((E - v) / k) dr over
    the well, where v < E next to the scan's minimum, is pi (nu + 1) half
    a level above nu.  E stays below the well top, the lower of the
    highest v on each side of the minimum.  One solve on the box at E
    gives level nu, whose box _dvr_levels then refines.  A level past the
    WKB count S(top) / pi - 1/2 by half a level or more fails before any
    basis is built, here and in deviation_report, which finds its wells
    the same way (_wells).
    """
    import numpy as np

    if error := _index_error("nu", nu) or _index_error("J", J):
        raise ValueError(error)
    n_max = _budget(n_points)
    if not (all(map(math.isfinite, model)) and min(model.De, model.re, model.b) > 0.0
            and model.eta != 1.0):
        raise ValueError(f"need finite model fields, De, re and b positive and "
                         f"eta != 1, got {model}")
    nu, J = int(nu), int(J)
    k = kinetic_factor(mu)
    if nu >= n_max // 2:  # _dvr_levels' last N is at most n_max // 2
        raise ResolutionError(_ABOVE_BASIS.format(n_max))
    wells = _wells(model, [J], k)
    lo, E, phase_top = wells.lo[0], wells.top[0], wells.top_phase[0]
    if phase_top <= nu:
        raise ResolutionError(_ABOVE_WELL.format(phase_top - 0.5))
    if phase_top > nu + 1:
        for _ in range(50):  # bisection to 2^-50 of the well's depth
            mid = 0.5 * (lo + E)
            lo, E = (mid, E) if wells.phase(0, mid) < nu + 1 else (lo, mid)
    r_min, r_max, n = wells.box(0, E)
    x = np.linspace(r_min, r_max, min(max(n, nu + 1), n_max))
    E_nu = dvr_eigenvalues(x, _effective(model, x, J * (J + 1) * k), k)[nu]
    level = _dvr_levels(model, k, {J: ([nu], wells.box(0, E_nu))}, n_max)[0][J][nu]
    if isinstance(level, str):
        raise ResolutionError(level)
    return ConvergeResult(nu, J, *level)


class DeviationRow(NamedTuple):
    nu: int
    J: int
    E_closed: float
    E_oracle: float
    delta: float  # E_closed - E_oracle
    # |E_N - E_2N| of the sinc-DVR refinement, cm^-1; in a shared basis
    # |E_M - E_2M| plus the reference's |E_N - E_2N|
    oracle_err: float
    basis: int  # 2N, the DVR basis behind E_oracle (the reference's, if shared)


class DeviationReport(NamedTuple):
    """Closed form against the sinc-DVR oracle over a (nu, J) table."""

    molecule: str
    rows: list[DeviationRow]
    failures: list[LevelFailure]
    max_abs_delta: float
    mean_delta: float
    max_abs_delta_by_J: dict[int, float]


def deviation_report(
    params, nu_list: list[int], J_list: list[int], n_points: int = MAX_BASIS,
) -> DeviationReport:
    """Compare closed-form levels with sinc-DVR eigenvalues (per row the
    2N value, |E_N - E_2N| and 2N).  n_points is the largest basis the
    refinement may build, at most MAX_BASIS; more than MAX_ORACLE_POINTS
    basis functions over the J values raise ValueError before any solve.
    Each J's well is converge's: a cell past its WKB count, as converge
    fails it, or whose closed-form level lies at or above the well's top
    is a LevelFailure, as is a cell beyond the bound range, one
    _dvr_levels gives a reason for, or one whose potential samples hit
    the pole.  The rest are solved by J groups (_groups): a group's lowest
    J refines on a box at the group's highest closed-form level, the
    others in its basis (_contracted); a J that shares no basis boxes at
    the highest closed-form level of its own."""
    if not nu_list or not J_list:
        raise ValueError("need non-empty nu_list and J_list")
    n_max = _budget(n_points)
    if len(J_list) * n_max > MAX_ORACLE_POINTS:
        raise ValueError(f"J_list x n_points asks for {len(J_list) * n_max} oracle "
                         f"basis functions; the limit is {MAX_ORACLE_POINTS}")
    rows_closed, failures = level_table(params, nu_list, J_list)
    model = from_params(params)
    cells_by_J: dict[int, list] = {}
    for row in rows_closed:
        if row.bound:
            cells_by_J.setdefault(row.J, []).append(row)
    k = kinetic_factor(params.mu)
    oracle, jobs = {}, {}
    try:
        wells = _wells(model, list(cells_by_J), k)
        for row, (J, cells) in enumerate(cells_by_J.items()):
            lo, top, count = wells.lo[row], wells.top[row], wells.top_phase[row]
            oracle[J], inside = {}, []
            for c in cells:
                reason = (_BELOW_WELL if c.E <= lo else
                          _ABOVE_WELL.format(count - 0.5) if count <= c.nu else
                          _ABOVE_TOP.format(top) if c.E >= top else None)
                if reason:
                    oracle[J][c.nu] = reason
                else:
                    inside.append(c)
            if inside:
                jobs[J] = ([c.nu for c in inside], max(c.E for c in inside), row)
        for J, levels in _levels(model, wells, jobs, n_max).items():
            oracle[J] |= levels
    except ResolutionError as exc:  # a sample on the pole
        oracle = {J: dict.fromkeys((c.nu for c in cells), str(exc))
                  for J, cells in cells_by_J.items()}
    rows = []
    for row in rows_closed:
        level = (oracle[row.J][row.nu] if row.bound else
                 "beyond the bound range; no oracle level")
        if isinstance(level, str):
            failures.append(LevelFailure(row.nu, row.J, level))
        else:
            E, err, basis = level
            rows.append(DeviationRow(row.nu, row.J, row.E, E, row.E - E, err, basis))
    by_J: dict[int, float] = {}
    for row in rows:
        by_J[row.J] = max(by_J.get(row.J, 0.0), abs(row.delta))
    deltas = [row.delta for row in rows]
    return DeviationReport(
        params.name, rows, failures, max(by_J.values(), default=math.nan),
        math.fsum(deltas) / len(deltas) if deltas else math.nan, by_J,
    )
