"""Physical parameters, internal unit system, and grid configuration.

Internal units are hbar = m = omega0 = 1 by default.  All driving enters
through the reduced field eps(t) = e*E(t)/m, and the charge e and the light
speed c enter only through the radiation-damping time tau = 2e^2/(3mc^3),
the single small parameter; so tau is set, and e and c are not.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, fields, replace

from .errors import InvalidParams

#: tau*omega0 above this value emits a warning (the small-parameter
#: expansion is getting doubtful), above TAU_OMEGA_REJECT it is rejected.
TAU_OMEGA_WARN = 0.1
TAU_OMEGA_REJECT = 0.5

#: kT above this is refused: a run squares energies of order kT (standard
#: errors) and sums n^2 times them (Parseval sums), and float64 ends at
#: 1.8e308.  Energies are in the internal units (hbar = omega0 = 1 by default).
KT_MAX = 1e100

#: Burn-in, in units of the amplitude relaxation time 2/(tau*omega0^2):
#: five e-folds of the slowest decay.
BURN_IN_EFOLDS = 5.0

#: free_zpf fits its structure function on the lags from FIT_LAG_TAUS * tau
#: up to the periodicity guard's (n//10 - 1) * dt.
FIT_LAG_TAUS = 100.0


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of one charged-particle system.

    Parameters
    ----------
    hbar, m : float
        Action scale and particle mass (internal defaults 1).
    omega0 : float
        Natural angular frequency; 0 selects the free particle.
    tau : float
        Radiation-damping time, tau*omega0 << 1 required.
    kT : float
        Temperature in energy units; 0 means pure zeropoint driving.
    K : float
        Dipole coupling (units of m*omega0^2); 0 unless the two-dipole
        scenario is run.
    """

    hbar: float = 1.0
    m: float = 1.0
    omega0: float = 1.0
    tau: float = 0.01
    kT: float = 0.0
    K: float = 0.0

    @property
    def damping_rate(self) -> float:
        """Amplitude decay rate gamma = tau*omega0^2/2 (pole of the response)."""
        return 0.5 * self.tau * self.omega0 ** 2

    def mode_params(self, sign: int) -> "SystemParams":
        """Parameters of one dipole normal mode, omega_pm^2 = omega0^2 -+ K/m."""
        w2 = self.omega0 ** 2 - sign * self.K / self.m
        if w2 <= 0.0:
            raise InvalidParams(
                [f"normal mode frequency imaginary: omega0^2 - ({sign:+d})K/m = {w2}"]
            )
        return replace(self, omega0=math.sqrt(w2), K=0.0)


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid and ensemble bookkeeping for one run.

    omega_cut is the ultraviolet cutoff of the synthesis band (default
    5/tau so position statistics capture the tau-dependent tail).
    """

    dt: float = 0.1
    n_samples: int = 1 << 20
    omega_cut: float | None = None
    n_ensemble: int = 64
    seed: int = 202608

    @property
    def duration(self) -> float:
        return self.dt * self.n_samples

    @property
    def domega(self) -> float:
        """Synthesis lattice spacing 2*pi/(n*dt)."""
        return 2.0 * math.pi / self.duration


def _type_violations(obj) -> dict:
    """Messages, by field name, for the fields of the dataclass ``obj`` whose
    value does not fit the annotation: an ``int`` field takes an integer (not
    a bool) within int64, a ``float`` one a real within the float range (no
    inf, no NaN, no int that would overflow), and ``| None`` admits None."""
    bad = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int":
            ok, kind = isinstance(v, numbers.Integral), "an integer"
            if ok and not -(1 << 63) <= v < 1 << 63:
                # numpy sizes and counts are int64
                ok, kind = False, "an integer within int64"
        else:
            ok = (v is None and f.type.endswith("| None")
                  or isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max)
            kind = "a finite real number"
        if isinstance(v, bool) or not ok:
            try:
                shown = repr(v)
            except ValueError:  # an int beyond the interpreter's digit limit
                shown = f"an integer of {v.bit_length()} bits"
            bad[f.name] = f"{f.name} must be {kind}, got {shown}"
    return bad


def validate(params: SystemParams, grid: GridSpec | None = None,
             oscillator: bool = False, log_fit: bool = False):
    """Check every invariant and return ``(params, grid)``, the grid's
    omega_cut resolved (None becomes 5/tau).

    ``oscillator`` marks a configuration that drives a bound oscillator,
    whose omega0 must then be > 0 (omega0 = 0 is the free particle).
    ``log_fit`` marks free_zpf's, whose fit lags (FIT_LAG_TAUS) must start
    at one sample or more and hold at least two distinct lags.
    Without a ``grid`` only the parameters are checked.  A field of the
    wrong type is reported as such, and the range checks that read it are
    skipped.

    Raises
    ------
    InvalidParams
        Listing *every* violated invariant, not just the first.
    """
    bad = _type_violations(params)
    if grid is not None:
        bad.update(_type_violations(grid))
    violations = list(bad.values())

    def typed(*names) -> bool:
        return not bad.keys() & set(names)

    if typed("hbar") and not params.hbar > 0:
        violations.append(f"hbar must be > 0, got {params.hbar}")
    if typed("m") and not params.m > 0:
        violations.append(f"m must be > 0, got {params.m}")
    if typed("omega0"):
        if oscillator and not params.omega0 > 0:
            violations.append(f"omega0 must be > 0, got {params.omega0}")
        elif params.omega0 < 0:
            violations.append(f"omega0 must be >= 0, got {params.omega0}")
    # omega0 * omega0 is omega0 ** 2 to the bit, but inf where ** 2 would raise
    w0_sq = params.omega0 * params.omega0 if typed("omega0") else 0.0
    if math.isinf(w0_sq):
        violations.append(f"omega0 = {params.omega0:g} is too large: omega0^2 leaves float64")
    if typed("tau") and not params.tau > 0:
        violations.append(f"tau must be > 0, got {params.tau}")
    if typed("kT") and params.kT < 0:
        violations.append(f"kT must be >= 0, got {params.kT}")
    elif typed("kT") and params.kT > KT_MAX:
        violations.append(f"kT = {params.kT:g} exceeds {KT_MAX:g}, beyond which a run's "
                          "squared energies leave float64")

    tw = params.tau * params.omega0 if typed("tau", "omega0") else 0.0
    if tw >= TAU_OMEGA_REJECT:
        violations.append(
            f"tau*omega0 = {tw:g} exceeds the hard limit {TAU_OMEGA_REJECT}"
        )
    elif tw > TAU_OMEGA_WARN:
        warnings.warn(
            f"tau*omega0 = {tw:g} above the soft limit {TAU_OMEGA_WARN}; "
            "corrections of order tau*omega0 are no longer small",
            stacklevel=2,
        )

    if (typed("K", "m", "omega0") and params.K != 0.0
            and not abs(params.K) < params.m * w0_sq):
        violations.append(
            f"|K| = {abs(params.K):g} must be < m*omega0^2 = "
            f"{params.m * w0_sq:g} (real normal modes)"
        )

    if grid is not None:  # its omega_cut defaults to 5/tau
        if typed("tau") and params.tau > 0 and grid.omega_cut is None:
            grid = replace(grid, omega_cut=5.0 / params.tau)
        if typed("dt") and not grid.dt > 0:
            violations.append(f"dt must be > 0, got {grid.dt}")
        if typed("n_samples") and grid.n_samples < 2:
            violations.append(f"n_samples must be >= 2, got {grid.n_samples}")
        if typed("n_ensemble") and grid.n_ensemble < 2:
            # one member has no spread to take a standard error from
            violations.append(f"n_ensemble must be >= 2, got {grid.n_ensemble}")
        if typed("seed") and grid.seed < 0:
            violations.append(f"seed must be >= 0, got {grid.seed}")
        finite_duration = False
        if typed("dt", "n_samples") and grid.dt > 0:
            finite_duration = math.isfinite(grid.duration)
            if not finite_duration:
                violations.append(
                    f"duration dt*n_samples = {grid.duration:g} must be finite")

        if (finite_duration and typed("omega_cut", "omega0")
                and grid.omega_cut is not None):
            prod = grid.dt * grid.omega_cut
            if prod > math.pi * (1.0 + 1e-12):
                violations.append(f"Nyquist violated: dt*omega_cut = {prod:g} > pi")
            if params.omega0 > 0:
                need = 100.0 * 2.0 * math.pi / params.omega0
                if grid.duration < need:
                    violations.append(
                        f"duration {grid.duration:g} < 100 periods = {need:g} "
                        "(long-run stationarity)"
                    )
            if grid.omega_cut <= params.omega0:
                violations.append(
                    f"omega_cut = {grid.omega_cut:g} must exceed omega0 = {params.omega0:g}"
                )
        if log_fit and finite_duration and typed("tau") and params.tau > 0:
            t_lo, top = FIT_LAG_TAUS * params.tau, grid.n_samples // 10 - 1
            lo = round(min(t_lo / grid.dt, max(top, 0) + 1.0))  # t_lo/dt may be inf
            if lo == 0:
                violations.append(
                    f"shortest lag 100 tau = {t_lo:g} is under dt/2 = {grid.dt / 2:g}")
            if lo >= top:
                violations.append(
                    f"longest lag (n//10 - 1)*dt = {top * grid.dt:g} must exceed 100 tau "
                    f"= {t_lo:g} by a sample: the log fit needs two distinct lags")
        # the field's lattice must resolve the oscillator's resonance width
        if (finite_duration and typed("omega0", "tau")
                and params.omega0 > 0 and params.tau > 0):
            limit = params.tau * w0_sq / 4.0
            if grid.domega > limit:
                violations.append(
                    f"lattice spacing {grid.domega:g} > tau*omega0^2/4 = {limit:g}; "
                    "lengthen the trajectory to resolve the resonance"
                )

    if violations:
        raise InvalidParams(violations)
    return params, grid


def burn_in_samples(params: SystemParams, dt: float) -> int:
    """Samples discarded before statistics: 10/(tau*omega0^2) time units."""
    if params.omega0 <= 0:
        return 0
    t_burn = 2.0 * BURN_IN_EFOLDS / (params.tau * params.omega0 ** 2)
    return int(math.ceil(t_burn / dt))
