"""The ensemble engine and the named end-to-end scenarios, each giving a
reproducible pass/fail ``report.ExperimentReport``.

Every scenario draws its ensemble from sub-seeds that are pure functions
of (master seed, member index), reduces member results in index order, and
embeds the fully resolved configuration in the report, so a report is a
deterministic function of (name, params, grid, seed) for any worker count.

Every scenario forms its response one way: the half-spectrum coefficients
of its field (a ``noise.Synthesis`` draw; for the dipoles, one draw per
normal mode, each from its own sub-seed of the member) times the gains of
``dynamics.response_transfer``, the periodic steady state on the synthesis
lattice, with no burn-in (for the free particle, its exact free response).
Lag correlations, spectra and structure functions are linear in |X_j|^2,
so energy_time, free_thermal and free_zpf add each member's |X_j|^2 into
its group and inverse-transform each group once (free_zpf's fit weights,
each lag's model variance, take one transform of the squared ensemble
power).  commutators inverse-transforms only the ensemble power: its one
per-group value, c_xp(0) by the Hilbert route, is one linear functional K
of the power (``estimators.hilbert_zero_functional``), so each group's is
the product K |X_j|^2, with no transform.  Variances come from the band of
X by Parseval (``estimators.mean_square``: one pass over the coefficients,
no power array), and KS subsamples from folds of it
(``estimators.decorrelated``: one transform of at most n/32 points on a
power-of-two lattice), in one routine per mode (``_mode``), so
ground_state, planck_thermal and dipoles form no n-point series.  The
time series themselves are formed only where a statistic needs them
(windowed energies, the stationary part of coherent_decay, whose kicked
start adds the homogeneous decay by linearity), one transform each.  A
momentum series or correlation takes no transform of its own: the
momentum gain T is a trapezoid recursion (``dynamics.apply_momentum_gain``),
so p comes from x, C_pp from C_xp and c_pp from c_xx, each by one
cumulative sum; where there is no series, P is T X.

``--emit trajectories`` rebuilds member 0 from its seed apart from the
members (``_emit_member_zero``); coherent_decay, whose members are not
one steady state, writes none.  ``report`` writes every file.

Members reuse memory.  Each scenario call sets its field synthesis up once
(``noise.field_synthesis``) and makes a ``Workspace``: complex buffers of
n//2 + 1 entries, a set per thread, at most two, which every member and
every per-group linear map of that thread writes its n-point
intermediates into (``out=``).  The rule: a value the reducer keeps (a
scalar, a KS subsample, a summed power or structure function) is a fresh
array, since a pool thread starts its next member before the reducer has
read the last; everything else lives in the workspace.
"""

from __future__ import annotations

import math
import mmap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from . import analytic
from .core import Config, GridSpec, SystemParams, validate
from .dynamics import (
    _positions,
    apply_momentum_gain,
    canonical_momentum,
    momentum_step,
    response_transfer,
)
from .errors import InvalidParams, UnknownScenario
from .estimators import (
    HILBERT_MARGIN,
    coefficient_power,
    commutator_from_spectrum,
    decorrelated,
    hilbert_commutator,
    hilbert_transform,
    hilbert_zero_functional,
    ks_critical,
    ks_distance,
    lag_count,
    mean_square,
    mean_square_displacement,
    mean_square_displacement_variance,
    spectrum_from_power,
    window_samples,
    windowed_energy,
)
from .noise import field_synthesis, member_seed
from .report import Emitter, ExperimentReport, Row
from .spectra import SpectrumModel

N_GROUPS = 8  # ensemble split for group-based standard errors


# ---------------------------------------------------------------------------
# deterministic ensemble map-reduce

def ensemble_reduce(worker, n_ensemble: int, jobs: int, reducer, state):
    """Apply ``reducer(state, k, worker(k))`` in member order.

    Workers may run on any number of threads; the reduction order is
    always 0..n-1, so the result is identical for every jobs setting.
    """
    if jobs <= 1:
        for k in range(n_ensemble):
            state = reducer(state, k, worker(k))
        return state
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        window = max(2 * jobs, 2)
        for start in range(0, n_ensemble, window):
            ks = list(range(start, min(start + window, n_ensemble)))
            for k, res in zip(ks, ex.map(worker, ks)):
                state = reducer(state, k, res)
    return state


class Ensemble:
    """Member results of one scenario, reduced in member order.

    ``run_ensemble`` makes one from the results of its workers.  A worker
    returns a dict of named values.  Arrays named in ``summed`` are added
    into the sum of the member's group: member k of n is in group
    k * N_GROUPS // n, so group sizes differ by at most one, and groups are
    empty when n < N_GROUPS.  Every other value is kept per member, in
    member order.

    Standard errors follow one rule.  The mean of a per-member value takes
    the standard error over members (``mean``).  A functional of ensemble
    means takes the standard error of the same functional over the means
    of the nonempty groups, each group sum divided by its own member count
    (``estimate``).

    The sums and values are final when the Ensemble is made, so a summed
    key's ensemble mean (``total``) and group means (``estimate``) are each
    formed once, on first use, however many functionals use them.
    """

    def __init__(self, n_ensemble: int, sums=None, values=None):
        self.n = n_ensemble
        self.sizes = np.bincount(_member_groups(n_ensemble), minlength=N_GROUPS)
        self.sums = {} if sums is None else sums
        self.values = {} if values is None else values
        self._totals, self._group_means = {}, {}

    @staticmethod
    def _mean_stderr(values) -> tuple[float, float]:
        arr = np.asarray(values, dtype=float)
        if arr.size < 2:
            return float(arr.mean()), 0.0
        return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))

    def mean(self, key: str) -> tuple[float, float]:
        """Mean of a per-member value and its standard error over members."""
        return self._mean_stderr(self.values[key])

    def pool(self, key: str) -> np.ndarray:
        """Per-member arrays (the KS subsamples) joined in member order."""
        return np.concatenate(self.values[key])

    def total(self, key: str) -> np.ndarray:
        """Ensemble mean of a summed array."""
        if key not in self._totals:
            total = np.zeros(np.shape(self.sums[key][0]))
            for group_sum in self.sums[key]:
                total += group_sum
            self._totals[key] = total / self.n
        return self._totals[key]

    def estimate(self, f, key: str) -> tuple[float, float]:
        """f of the ensemble mean of ``key``, with the standard error of f
        over the group means; f must not modify its argument."""
        if key not in self._group_means:
            self._group_means[key] = [self.sums[key][g] / self.sizes[g]
                                      for g in np.flatnonzero(self.sizes)]
        _, se = self._mean_stderr([f(m) for m in self._group_means[key]])
        return float(f(self.total(key))), se

    def map_groups(self, key: str, linear, jobs: int) -> "Ensemble":
        """The ensemble whose group sums of ``key`` are the linear map
        ``linear`` of these: one call per group, on the worker pool."""
        # a list: one stacked block this large would raise glibc's mmap
        # threshold and leave freed heap untrimmed, raising later peak RSS
        sums = ensemble_reduce(lambda g: linear(self.sums[key][g]), N_GROUPS,
                               jobs, lambda acc, g, res: acc + [res], [])
        return Ensemble(self.n, {key: sums})


def _member_groups(n_ensemble: int) -> np.ndarray:
    """The group of each member, in member order."""
    return np.arange(n_ensemble) * N_GROUPS // n_ensemble


def run_ensemble(worker, n_ensemble: int, jobs: int, summed=()) -> Ensemble:
    """Run ``worker(k)`` for every member and reduce the results in order
    into an ``Ensemble``, summing the arrays named in ``summed`` by group."""
    group = _member_groups(n_ensemble)

    def add(acc, k, res):
        sums, values = acc
        for key, v in res.items():
            if key in summed:
                if key not in sums:
                    sums[key] = np.zeros((N_GROUPS,) + np.shape(v))
                sums[key][group[k]] += v
            else:
                values.setdefault(key, []).append(v)
        return acc

    sums, values = ensemble_reduce(worker, n_ensemble, jobs, add, ({}, {}))
    return Ensemble(n_ensemble, sums, values)


class Workspace:
    """Member-sized scratch arrays of one scenario call, a set per thread.

    Buffer i is a complex half-spectrum of n//2 + 1 entries, allocated on
    the first request of a thread; ``series(i)`` is the same memory read as
    n real samples, so one buffer holds one intermediate at a time.  Every
    later member (or group map) on that thread writes into the same
    buffers, so members do not page-fault fresh temporaries.  The buffers
    live as long as the Workspace (the scenario call) and the thread (a
    pool thread ends with its ``ensemble_reduce``).
    """

    def __init__(self, n: int):
        self.n = n
        self._local = threading.local()

    def spectrum(self, i: int) -> np.ndarray:
        bufs = vars(self._local).setdefault("bufs", [])
        while len(bufs) <= i:
            # an anonymous mapping of its own, unmapped when the buffer dies:
            # from malloc it would stay behind as free heap in the thread's arena
            bufs.append(np.frombuffer(mmap.mmap(-1, 16 * (self.n // 2 + 1)), dtype=complex))
        return bufs[i]

    def series(self, i: int) -> np.ndarray:
        return self.spectrum(i).view(np.float64)[: self.n]


def _mean_variance(x: np.ndarray) -> tuple[float, float]:
    """``(x.mean(), x.var())`` bit for bit, without var's n-point
    temporary: x is overwritten with its squared deviations."""
    mean = np.add.reduce(x) / x.size
    np.square(np.subtract(x, mean, out=x), out=x)
    return float(mean), float(np.add.reduce(x) / x.size)


def _steady_state(synthesis, H, seed, ws: Workspace) -> np.ndarray:
    """The steady-state response X = E H to the draw from ``seed`` in
    workspace buffer 0 (buffer 1 holds the draw's normals until then), on the
    first H.size entries of the half-spectrum: given H on the band alone, X
    is the band and the zeros above it are neither written nor multiplied."""
    X = synthesis.draw(seed, out=ws.spectrum(0)[: H.size], normals=ws.series(1))
    X *= H
    return X


def _mode(synthesis, H, T, seed, ws: Workspace, dt: float, x_dec=(), p_dec=()):
    """One mode of a member with no n-point transform: X = E H from ``seed``
    (``_steady_state``, in buffers 0 and 1), then P = T X over it, and of
    each the Parseval mean square and the ``decorrelated`` subsamples at the
    times ``x_dec`` and ``p_dec``.  Returns (<x^2>, x subsamples, <p^2>, p
    subsamples)."""
    n = synthesis.n_samples
    X = _steady_state(synthesis, H, seed, ws)
    x_sq, x_subs = mean_square(X, n), [decorrelated(X, n, dt, t) for t in x_dec]
    P = np.multiply(T, X, out=X)  # X is spent
    return x_sq, x_subs, mean_square(P, n), [decorrelated(P, n, dt, t) for t in p_dec]


def _emit_member_zero(emitter: Emitter, scenario: str, grid: GridSpec, synthesis, modes,
                      seed: int, label=None):
    """``--emit trajectories``: member 0's x and p (and, given the model
    ``label``, its field), rebuilt from its seed apart from the members.
    ``modes`` are (H, params) pairs; the dipoles' two are drawn as in their
    member, from the children of the seed, and x = (x+ + x-)/sqrt(2)."""
    if not emitter.wants("trajectories"):
        return
    n, dt, seed0 = grid.n_samples, grid.dt, member_seed(seed, 0)
    # children of a second sequence: spawning would change seed0's repr
    seeds = [seed0] if len(modes) == 1 else member_seed(seed, 0).spawn(2)
    xs = [np.fft.irfft(_steady_state(synthesis, H, s, Workspace(n)), n)
          for (H, _), s in zip(modes, seeds)]
    ps = [canonical_momentum(x, q, dt) for x, (_, q) in zip(xs, modes)]
    if label is not None:
        emitter.dump(f"{scenario}_field", np.fft.irfft(synthesis.draw(seed0), n), dt,
                     seed0, label)
    for name, parts in (("x", xs), ("p", ps)):
        emitter.dump(f"{scenario}_{name}", np.sum(parts, axis=0) / math.sqrt(len(parts)),
                     dt, seed0, f"trajectory:{name}")


def _structure_function(pw, gain, lags, ws: Workspace) -> np.ndarray:
    """``mean_square_displacement`` at ``lags`` of ``gain`` times one
    (group's) power ``pw``, formed in workspace buffer 0 (complex, so the
    transform takes no converted copy) and transformed into buffer 1."""
    spec = np.multiply(gain, pw, out=ws.spectrum(0))
    return mean_square_displacement(spec, ws.n, lags, out=ws.series(1))


def _ks_row(quantity: str, pool: np.ndarray, cdf, note: str) -> Row:
    """The KS distance of ``pool`` from ``cdf`` as an upper-bound row at
    its 1% critical value; the note ends with the sample count and the
    exact p-value P(D_n >= d), which the pass rule does not read."""
    from scipy.stats import kstwo

    d = ks_distance(pool, cdf)
    return Row(quantity, d, 0.0, ks_critical(pool.size), 0.0, kind="upper_bound",
               note=f"{note}; n={pool.size}, p={kstwo.sf(d, pool.size):.4g}")


def _x_decorrelation_time(params: SystemParams) -> float:
    # twelve amplitude e-folds: the subsample is independent enough that
    # the KS tests run at their nominal level despite the small finite-tau
    # offsets of the simulated moments
    return 24.0 / (params.tau * params.omega0 ** 2)


def _u_decorrelation_time(params: SystemParams) -> float:
    # the energy autocovariance decays at twice the amplitude rate
    return 12.0 / (params.tau * params.omega0 ** 2)


def _energy(params: SystemParams, x_sq, p_sq, out=None):
    """Oscillator energy (m omega0^2 x^2 + p^2/m)/2 from x^2 and p^2
    (samples, or means: the steady-state x and p have zero mean).  Given
    ``out`` (which may be x_sq), a series is formed in place, and p_sq is
    overwritten."""
    if out is None:
        return 0.5 * (params.m * params.omega0 ** 2 * x_sq + p_sq / params.m)
    np.multiply(params.m * params.omega0 ** 2, x_sq, out=out)
    out += np.divide(p_sq, params.m, out=p_sq)
    return np.multiply(0.5, out, out=out)


def _lag_window(pw, one_plus_t, lag: int, ws: Workspace) -> np.ndarray:
    """irfft(pw (1 + T))/n on the lags -lag..lag of one (group's) power
    ``pw`` = |X_j|^2, with ``one_plus_t`` = 1 + T: C_xx + C_xp, whose even
    part is C_xx and odd part (T imaginary) C_xp."""
    cross = np.multiply(pw, one_plus_t, out=ws.spectrum(0))
    return np.fft.irfft(cross, ws.n, out=ws.series(1))[np.arange(-lag, lag + 1)] / ws.n


def _xp_correlations(pw, one_plus_t, t_sq, g: float, lag: int, ws: Workspace) -> np.ndarray:
    """Rows C_xx, C_pp, C_xp on the lags 0..lag of one (group's) power
    ``pw`` = |X_j|^2, with ``one_plus_t`` = 1 + T, ``t_sq`` = |T|^2 and ``g``
    the ``momentum_step`` of T.

    C_xx and C_xp are the even and odd parts of one ``_lag_window``.  C_pp
    takes no second transform: it is T applied along the lags to
    C_px = -C_xp (``apply_momentum_gain`` with step -g), from
    C_pp(0) = <p^2> = 2 sum_j |T_j|^2 pw_j / n^2 by Parseval (T_0 = 0, and
    T vanishes at Nyquist).
    """
    w = _lag_window(pw, one_plus_t, lag, ws)
    fwd, back = w[lag:], w[lag::-1]
    c = np.empty((3, lag + 1))
    np.multiply(0.5, np.add(fwd, back, out=c[0]), out=c[0])
    np.multiply(0.5, np.subtract(fwd, back, out=c[2]), out=c[2])
    apply_momentum_gain(c[2], -g, 2.0 * np.dot(t_sq, pw) / ws.n ** 2, out=c[1])
    return c


def _momentum_commutator(c_xx, spec_x, T, g: float) -> np.ndarray:
    """c_pp from c_xx = 2 domega sum_j S_j sin(omega_j t) on lags 0, dt, ...
    (``commutator_from_spectrum`` of the position spectrum ``spec_x``), with
    no transform: T maps sin(omega_j t) to Im(T_j) cos(omega_j t) and that
    to -|T_j|^2 sin(omega_j t), so c_pp = -T(T(c_xx)).  The even step
    starts at 2 domega sum_j Im(T_j) S_j, the odd one at 0.
    """
    # a pairwise sum: an error in the start grows linearly over the lags of
    # the odd step, and np.dot's 4e-15 would grow to 4e-13 of the peak
    even = apply_momentum_gain(
        c_xx, g, 2.0 * spec_x.domega * np.sum(T.imag[1:] * spec_x.values))
    return apply_momentum_gain(even, -g, 0.0)


def _oscillator_worker(scenario: str, model: SpectrumModel, cfg: Config, seed: int,
                       emitter: Emitter):
    """Member of the single-oscillator scenarios: the variances of the
    steady-state x and p, the mean energy, and decorrelated energy
    subsamples for the KS tests (and position ones for ground_state, the
    one scenario with a position KS row), all from one ``_mode``."""
    params, grid = cfg.params, cfg.grid
    dt, n = grid.dt, grid.n_samples
    t_dec_u = _u_decorrelation_time(params)
    x_dec = (t_dec_u, _x_decorrelation_time(params)) if scenario == "ground_state" else (t_dec_u,)
    synthesis = field_synthesis(model, params, grid)
    H, T = (gain[: synthesis.j_max + 1] for gain in response_transfer(params, grid))
    ws = Workspace(n)
    _emit_member_zero(emitter, scenario, grid, synthesis, [(H, params)], seed,
                      model.label())

    def worker(k):
        x_var, (x_u, *x_sub), p_var, (p_u,) = _mode(
            synthesis, H, T, member_seed(seed, k), ws, dt, x_dec, (t_dec_u,))
        return {
            "x_var": x_var,
            "p_var": p_var,
            "u_mean": _energy(params, x_var, p_var),
            "u_sub": _energy(params, x_u ** 2, p_u ** 2),
            **{"x_sub": sub for sub in x_sub},
        }

    return worker


# ---------------------------------------------------------------------------
# scenario implementations

def _scenario_ground_state(cfg: Config, seed: int, jobs: int, emitter: Emitter):
    params = cfg.params
    gs = analytic.ground_state(params)
    worker = _oscillator_worker("ground_state", SpectrumModel.zpf(), cfg, seed, emitter)
    acc = run_ensemble(worker, cfg.grid.n_ensemble, jobs)

    x_var, x_se = acc.mean("x_var")
    p_var, p_se = acc.mean("p_var")
    u_mean, u_se = acc.mean("u_mean")
    x_pool = acc.pool("x_sub")
    u_pool = acc.pool("u_sub")

    heis = x_var * p_var
    heis_se = heis * math.sqrt((x_se / x_var) ** 2 + (p_se / p_var) ** 2)

    rows = [
        Row("x_variance", x_var, x_se, gs.x_var, 0.03),
        Row("p_variance", p_var, p_se, gs.p_var, 0.03),
        Row("mean_energy", u_mean, u_se, gs.mean_energy, 0.03),
        _ks_row("position_ks", x_pool, gs.x_cdf,
                f"KS vs Gaussian(var={gs.x_var:g}) at the 1% level, decorrelated samples"),
        _ks_row("energy_ks", u_pool, gs.energy_cdf,
                f"KS vs exponential(mean={gs.mean_energy:g}) at the 1% level"),
        Row("heisenberg_product", heis, heis_se,
            analytic.heisenberg_product(params), 0.06),
    ]
    return rows


def _scenario_commutators(cfg: Config, seed: int, jobs: int, emitter: Emitter):
    params, grid = cfg.params, cfg.grid
    model = SpectrumModel.zpf()
    dt, n = grid.dt, grid.n_samples
    t_max = 100.0
    lag_ext = lag_count(HILBERT_MARGIN * t_max, dt, n)
    H, T = response_transfer(params, grid)
    synthesis = field_synthesis(model, params, grid)
    ws = Workspace(n)
    _emit_member_zero(emitter, "commutators", grid, synthesis, [(H, params)], seed)
    one_plus_t = 1.0 + T
    # c_xp(0) by the Hilbert route is linear in each group's power; its
    # weights depend on the grid alone, so they are formed before the members
    xp_zero = hilbert_zero_functional(one_plus_t, n, lag_ext)

    def worker(k):
        X = _steady_state(synthesis, H, member_seed(seed, k), ws)
        return {"power": coefficient_power(X, out=ws.spectrum(1)).copy()}

    acc = run_ensemble(worker, grid.n_ensemble, jobs, summed=("power",))

    spec_x = spectrum_from_power(acc.total("power"), n, dt)
    lags = dt * np.arange(int(round(t_max / dt)) + 1)
    c_xx_spec = commutator_from_spectrum(spec_x, t_max, dt).values
    c_pp_spec = _momentum_commutator(c_xx_spec, spec_x, T, momentum_step(params, dt))

    window = _lag_window(acc.total("power"), one_plus_t, lag_ext, ws)
    c_xx_h = hilbert_commutator(0.5 * (window + window[::-1]), lags.size)
    c_xp0, cxp0_se = acc.estimate(lambda pw: float(xp_zero @ pw), "power")

    hb, m, w0 = params.hbar, params.m, params.omega0
    ref_xx, ref_pp, _ = analytic.commutator_closed(params, lags)
    peak_xx = hb / (m * w0)
    peak_pp = hb * m * w0

    dev_xx = float(np.max(np.abs(c_xx_spec - ref_xx)) / peak_xx)
    dev_pp = float(np.max(np.abs(c_pp_spec - ref_pp)) / peak_pp)

    strong = np.abs(ref_xx) > 0.3 * peak_xx
    route_dev = float(np.max(np.abs(c_xx_spec[strong] - c_xx_h[strong])) / peak_xx)

    emitter.series("commutators", "c_xx_spectral", "lag", lags, c_xx_spec)
    emitter.series("commutators", "c_xx_hilbert", "lag", lags, c_xx_h)
    emitter.series("commutators", "c_pp_spectral", "lag", lags, c_pp_spec)

    rows = [
        Row("c_xp_zero", c_xp0, cxp0_se, params.hbar, 0.05,
            note="equal-time x-p commutator, Hilbert route"),
        Row("c_xx_max_dev", dev_xx, 0.0, 0.05, 0.0, kind="upper_bound",
            note="max |c_xx - (hbar/m w0)(sin(w0 t) + tau w0 sign(t) cos(w0 t)) "
                 "e^{-gamma t}| / peak, t in [0,100]"),
        Row("c_pp_max_dev", dev_pp, 0.0, 0.05, 0.0, kind="upper_bound",
            note="max |c_pp - hbar m w0 sin(w0 t) e^{-gamma t}| / peak"),
        Row("route_agreement", route_dev, 0.0, 0.05, 0.0, kind="upper_bound",
            note="sine-transform vs Hilbert route where |c_xx| > 0.3 peak"),
    ]
    return rows


def _scenario_energy_time(cfg: Config, seed: int, jobs: int, emitter: Emitter):
    params, grid = cfg.params, cfg.grid
    model = SpectrumModel.zpf()
    dt, n = grid.dt, grid.n_samples
    t_sweep = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    single = [t for t in t_sweep if window_samples(t, dt) == 1]
    windows = [t for t in t_sweep if t not in single]
    lag_max = lag_count(max(t_sweep), dt, n)
    m, w0 = params.m, params.omega0
    H, T = response_transfer(params, grid)
    synthesis = field_synthesis(model, params, grid)
    ws = Workspace(n)
    _emit_member_zero(emitter, "energy_time", grid, synthesis, [(H, params)], seed)

    def worker(k):
        X = _steady_state(synthesis, H, member_seed(seed, k), ws)
        res = {"power": coefficient_power(X, out=ws.spectrum(1)).copy()}
        x = np.fft.irfft(X, n, out=ws.series(1))
        # X is spent: its buffer takes p
        p = canonical_momentum(x, params, dt, out=ws.series(0))
        energy = _energy(params, np.square(x, out=x), np.square(p, out=p), out=x)
        for t in windows:
            stats = windowed_energy(energy, t, dt)
            res[f"T{t:g}"], res[f"mean_T{t:g}"] = stats.t_window, stats.mean
            res[f"var_T{t:g}"], res[f"sd_T{t:g}"] = stats.variance, stats.dispersion
        # the instantaneous energy, which is windowed_energy's single-sample
        # window (bit for bit); last, as it overwrites the series
        mean, var = _mean_variance(energy)
        res["inst_sd"] = math.sqrt(var)
        for t in single:
            res[f"T{t:g}"], res[f"mean_T{t:g}"] = dt, mean
            res[f"var_T{t:g}"], res[f"sd_T{t:g}"] = var, res["inst_sd"]
        return res

    acc = run_ensemble(worker, grid.n_ensemble, jobs, summed=("power",))

    one_plus_t, t_sq, g = 1.0 + T, np.abs(T) ** 2, momentum_step(params, dt)
    corr = acc.map_groups(
        "power", lambda pw: _xp_correlations(pw, one_plus_t, t_sq, g, lag_max, ws), jobs)

    def corr_route_delta_u(c, t_window):
        n_lag = int(round(t_window / dt))
        cxx, cpp, cxp = c[:, : n_lag + 1]
        f = m ** 2 * w0 ** 4 * cxx ** 2 + 2.0 * w0 ** 2 * cxp ** 2 + cpp ** 2 / m ** 2
        return math.sqrt(np.trapezoid(f, np.arange(n_lag + 1) * dt) / (2.0 * t_window))

    um, um_se = acc.mean(f"mean_T{t_sweep[0]:g}")
    inst, inst_se = acc.mean("inst_sd")
    u0 = analytic.ground_state(params).mean_energy
    rows = [
        Row("u_mean", um, um_se, u0, 0.03),
        Row("delta_u_small_t", inst, inst_se, u0, 0.10,
            note="window of a single sample; small-T limit of Delta U_T"),
    ]

    for t in t_sweep:
        est_corr, se_corr = corr.estimate(lambda c: corr_route_delta_u(c, t), "power")
        closed = analytic.energy_fluctuation(params, t)
        rows.append(Row(
            f"delta_u_corr_T{t:g}", est_corr, se_corr, closed.recomputed, 0.10,
            note="correlation-functional route; paper's printed large-T form "
                 f"would give {closed.paper_printed:.6g}"))

        t_eff = acc.values[f"T{t:g}"][0]
        means = np.array(acc.values[f"mean_T{t:g}"])
        variances = np.array(acc.values[f"var_T{t:g}"])
        pooled_var = float(np.mean(variances + means ** 2) - np.mean(means) ** 2)
        pooled_std = math.sqrt(max(pooled_var, 0.0))
        _, std_se = acc.mean(f"sd_T{t:g}")
        closed_eff = analytic.energy_fluctuation(params, t_eff)
        rows.append(Row(
            f"delta_u_window_T{t:g}", pooled_std, std_se,
            closed_eff.window_exact, 0.10,
            note="disjoint-window std; keeps the (1-u/T) overlap factor the "
                 "correlation functional drops (sqrt(2) larger at large T)"))
        rows.append(Row(
            f"uncertainty_product_T{t:g}", pooled_std * t_eff,
            std_se * t_eff, 0.5 * params.hbar, 0.0, kind="lower_bound",
            note="Delta U_T * T >= hbar/2"))

    emitter.series("energy_time", "cxx", "lag", np.arange(0, lag_max + 1, 100) * dt,
                   corr.total("power")[0][::100])
    return rows


def _scenario_coherent_decay(cfg: Config, seed: int, jobs: int, emitter: Emitter):
    """Displaced ensemble.

    By linearity each member is the homogeneous decay from the displaced
    start plus the stationary response to its field.  The stationary part
    has zero mean, so the ensemble mean is the homogeneous decay exactly,
    with no mean-trajectory noise (whose correlation time ~1/gamma would
    otherwise leave only a couple of independent draws across the
    two-e-fold window), and the variance about it is the ensemble mean of
    the stationary part squared.
    """
    params, grid = cfg.params, cfg.grid
    model = SpectrumModel.zpf()
    dt, n = grid.dt, grid.n_samples
    amp, phase = 3.0, 0.0
    gamma = params.damping_rate
    t_obs = 2.0 / gamma            # two amplitude e-folds
    n_keep = int(round(1.25 * t_obs / dt)) + 1
    mean_x = _positions(
        params, np.zeros(n_keep), dt, x0=amp * math.cos(phase),
        v0=-amp * (params.omega0 * math.sin(phase) + gamma * math.cos(phase)))
    H, _ = response_transfer(params, grid)
    synthesis = field_synthesis(model, params, grid)
    ws = Workspace(n)

    def worker(k):
        X = _steady_state(synthesis, H, member_seed(seed, k), ws)
        return {"x_sq": np.fft.irfft(X, n, out=ws.series(1))[:n_keep] ** 2}

    acc = run_ensemble(worker, grid.n_ensemble, jobs, summed=("x_sq",))
    var_x = acc.total("x_sq")

    t = np.arange(n_keep) * dt
    envelope = np.hypot(mean_x, hilbert_transform(mean_x))
    # smooth over one oscillation period to suppress ripple
    period_n = max(1, int(round(2.0 * math.pi / params.omega0 / dt)))
    kernel = np.ones(period_n) / period_n
    env_smooth = np.convolve(envelope, kernel, mode="same")

    sel = (t >= 0.05 * t_obs) & (t <= t_obs)
    env_ref = amp * np.exp(-gamma * t)
    env_dev = float(np.max(np.abs(env_smooth[sel] - env_ref[sel]) / env_ref[sel]))

    # decay rate from the log-envelope slope
    logs = np.log(env_smooth[sel])
    slope, _ = np.polyfit(t[sel], logs, 1)

    var_mean, var_se = acc.estimate(lambda x_sq: np.mean(x_sq[t <= t_obs]), "x_sq")

    emitter.series("coherent_decay", "mean_trajectory", "t", t, mean_x)
    emitter.series("coherent_decay", "variance", "t", t, var_x)

    gs = analytic.ground_state(params)
    rows = [
        Row("envelope_max_dev", env_dev, 0.0, 0.05, 0.0, kind="upper_bound",
            note=f"|envelope - {amp:g} e^(-gamma t)| / envelope over two e-folds; "
                 "the ensemble mean is the homogeneous decay"),
        Row("decay_rate", float(-slope), 0.0, gamma, 0.05,
            note="log-envelope slope vs pole rate tau*omega0^2/2"),
        Row("variance_about_mean", var_mean, var_se, gs.x_var, 0.05,
            note="ensemble variance about the coherent mean stays at the "
                 "ground-state value"),
    ]
    return rows


def _scenario_free_thermal(cfg: Config, seed: int, jobs: int, emitter: Emitter):
    params, grid = cfg.params, cfg.grid
    model = SpectrumModel.rayleigh_jeans(params.kT)
    dt, n = grid.dt, grid.n_samples

    # the synthesis lattice misses the band below domega = 2 pi / duration,
    # which depresses the structure function by ~ (2 kT tau/pi m) dt^2 domega;
    # the Brownian slope is therefore fitted where that bias is negligible
    # (dt <= 20) and the longer lags are reported for the emitted curve only
    deltas = np.geomspace(1.0, 100.0, 16)
    fit_deltas = np.linspace(2.0, 20.0, 10)
    x_lags = [lag_count(t, dt, n) for t in (*deltas, *fit_deltas)]
    v_lags = [lag_count(t, dt, n) for t in (50.0, 100.0)]
    pred = analytic.free_particle(params, 1.0, grid.omega_cut)
    H, _ = response_transfer(params, grid)
    omega = grid.domega * np.arange(n // 2 + 1)
    i_omega, omega_sq = 1j * omega, omega ** 2
    synthesis = field_synthesis(model, params, grid)
    ws = Workspace(n)
    _emit_member_zero(emitter, "free_thermal", grid, synthesis, [(H, params)], seed)

    def worker(k):
        X = _steady_state(synthesis, H, member_seed(seed, k), ws)
        power = coefficient_power(X, out=ws.spectrum(1)).copy()
        # the velocity V = i omega X of the same draw, over the spent X
        return {"power": power, "v_var": mean_square(np.multiply(i_omega, X, out=X), n)}

    acc = run_ensemble(worker, grid.n_ensemble, jobs, summed=("power",))

    # the position structure function at deltas and fit_deltas, then the
    # velocity one (power gain omega^2) at the asymptote lags
    sf = acc.map_groups("power", lambda pw: np.concatenate(
        [_structure_function(pw, 1.0, x_lags, ws),
         _structure_function(pw, omega_sq, v_lags, ws)]), jobs)
    n_d, n_x = deltas.size, len(x_lags)
    slope, slope_se = sf.estimate(
        lambda s: np.polyfit(fit_deltas, s[n_d:n_x], 1)[0], "power")
    v_var, v_se = acc.mean("v_var")
    sfv, sfv_se = sf.estimate(lambda s: np.mean(s[n_x:]), "power")

    emitter.series("free_thermal", "structure_function", "delta_t", deltas,
                   sf.total("power")[:n_d])

    rows = [
        Row("structure_slope", slope, slope_se, pred.thermal_dx2, 0.10,
            note="Brownian slope of the position structure function"),
        Row("v_variance", v_var, v_se, pred.thermal_v_var, 0.05,
            note="equipartition kT/m"),
        Row("v_structure_asymptote", sfv, sfv_se,
            2.0 * pred.thermal_v_var, 0.10, kind="info",
            note="large-lag velocity structure function approaches 2 kT/m; "
                 "the printed form reads kT/m, which is the equilibrium "
                 "variance, not the structure-function asymptote"),
    ]
    return rows


def _scenario_free_zpf(cfg: Config, seed: int, jobs: int, emitter: Emitter):
    params, grid = cfg.params, cfg.grid
    model = SpectrumModel.zpf()
    dt, n = grid.dt, grid.n_samples
    t_lo = 100.0 * params.tau
    t_hi = (n // 10 - 1) * dt
    deltas = np.geomspace(t_lo, t_hi, 24)
    lags = np.array([lag_count(t, dt, n) for t in deltas])
    if lags.min() == 0:
        # SF(0) = 0 has no variance: the fit would weight it infinitely
        raise InvalidParams([f"shortest lag 100 tau = {t_lo:g} is under dt/2 = {dt / 2:g}"])
    H, T = response_transfer(params, grid)
    synthesis = field_synthesis(model, params, grid)
    ws = Workspace(n)
    _emit_member_zero(emitter, "free_zpf", grid, synthesis, [(H, params)], seed)

    def worker(k):
        X = _steady_state(synthesis, H, member_seed(seed, k), ws)
        power = coefficient_power(X, out=ws.spectrum(1)).copy()
        return {"power": power, "p_var": mean_square(np.multiply(T, X, out=X), n)}

    acc = run_ensemble(worker, grid.n_ensemble, jobs, summed=("power",))

    sf = acc.map_groups("power", lambda pw: _structure_function(pw, 1.0, lags, ws), jobs)
    # a member's variance at each lag, from the ensemble power alone
    sf_var = mean_square_displacement_variance(acc.total("power"), n, lags)
    logd = np.log(deltas)

    def fit(sf):
        # weighted least squares on ln(delta), weights 1/variance
        return np.polyfit(logd, sf, 1, w=sf_var ** -0.5)

    slope, slope_se = sf.estimate(lambda s: fit(s)[0], "power")
    # intercept/slope = C + ln(1/tau) when the log law holds
    euler_est, euler_se = sf.estimate(
        lambda s: fit(s)[1] / fit(s)[0] + math.log(params.tau), "power")
    p_var, _ = acc.mean("p_var")

    emitter.series("free_zpf", "structure_function", "delta_t", deltas, sf.total("power"),
                   np.sqrt(sf_var / grid.n_ensemble))

    pred = analytic.free_particle(params, 1.0, grid.omega_cut)
    rows = [
        Row("log_slope", slope, slope_se, pred.zpf_log_slope, 0.15,
            note="d(Delta x^2)/d(ln t); zeropoint diffusion is logarithmic"),
        Row("euler_intercept", euler_est, euler_se,
            analytic.EULER_GAMMA, 0.25,
            note="intercept/slope - ln(1/tau); Euler constant of the "
                 "log-diffusion law"),
        Row("p_variance_zero", p_var, 0.0, 1e-18, 0.0,
            kind="upper_bound",
            note="canonical momentum of the free particle has nil spectrum"),
    ]
    return rows


def _scenario_dipoles(cfg: Config, seed: int, jobs: int, emitter: Emitter):
    params, grid = cfg.params, cfg.grid
    model = SpectrumModel.zpf()
    pred = analytic.dipole_prediction(params)
    pp, pm = params.mode_params(+1), params.mode_params(-1)
    t_dec = _x_decorrelation_time(pp)
    m, w0, K = params.m, params.omega0, params.K
    dt, n = grid.dt, grid.n_samples
    # normal modes x_pm = (x1 +- x2)/sqrt(2), driven by eps_pm = (eps1 +- eps2)/sqrt(2):
    # an independent pair with the field's spectrum, so each is drawn directly,
    # on the band alone (the draws and gains are zero above it)
    synthesis = field_synthesis(model, params, grid)
    gains = [tuple(g[: synthesis.j_max + 1] for g in response_transfer(q, grid))
             for q in (pp, pm)]
    ws = Workspace(n)
    _emit_member_zero(emitter, "dipoles", grid, synthesis,
                      [(H, q) for (H, _), q in zip(gains, (pp, pm))], seed)

    def worker(k):
        # each mode in turn, in buffers 0 and 1, from one child of the seed
        (xp_var, (xp_sub,), pp_sq, _), (xm_var, (xm_sub,), pm_sq, _) = (
            _mode(synthesis, H, T, child, ws, dt, (t_dec,))
            for (H, T), child in zip(gains, member_seed(seed, k).spawn(2)))
        # x1^2 + x2^2 = x+^2 + x-^2, x1 x2 = (x+^2 - x-^2)/2, likewise for p
        p_sq = pp_sq + pm_sq
        return {
            "xp_var": xp_var, "xm_var": xm_var,
            "cross": 0.5 * (xp_var - xm_var),
            "h_mean": (p_sq / (2 * m) + 0.5 * m * w0 ** 2 * (xp_var + xm_var)
                       - 0.5 * K * (xp_var - xm_var)),
            "xp_sub": xp_sub,
            "xm_sub": xm_sub,
        }

    acc = run_ensemble(worker, grid.n_ensemble, jobs)

    xp_var, xp_se = acc.mean("xp_var")
    xm_var, xm_se = acc.mean("xm_var")
    cross, cross_se = acc.mean("cross")
    h_mean, h_se = acc.mean("h_mean")
    xp_pool = acc.pool("xp_sub")
    xm_pool = acc.pool("xm_sub")

    rows = [
        Row("x_plus_variance", xp_var, xp_se, pred.x_plus_var, 0.03),
        Row("x_minus_variance", xm_var, xm_se, pred.x_minus_var, 0.03),
        Row("cross_moment", cross, cross_se, pred.cross_cov, 0.15,
            note="<x1 x2> = (<x+^2> - <x-^2>)/2"),
        Row("mean_energy_H", h_mean, h_se, pred.mean_H, 0.005,
            note="canonical-momentum energies; exact normal-mode value"),
        _ks_row("mode_plus_ks", xp_pool, pred.rho_plus_cdf,
                "x+ vs its normal-mode Gaussian at the 1% level"),
        _ks_row("mode_minus_ks", xm_pool, pred.rho_minus_cdf,
                "x- vs its normal-mode Gaussian at the 1% level"),
        Row("interaction_energy_series", pred.E_int_exact, 0.0,
            pred.E_int_paper_series, 0.0, kind="info",
            note="exact E_int vs the printed series coefficient "
                 "-K^2 hbar/(2 m^2 w0^3); the exact expansion carries 1/8, "
                 "not 1/2"),
    ]
    return rows


def _scenario_planck_thermal(cfg: Config, seed: int, jobs: int, emitter: Emitter):
    params = cfg.params
    pred = analytic.planck_prediction(params)
    worker = _oscillator_worker("planck_thermal", SpectrumModel.planck(params.kT),
                                cfg, seed, emitter)
    acc = run_ensemble(worker, cfg.grid.n_ensemble, jobs)

    u_mean, u_se = acc.mean("u_mean")
    u_pool = acc.pool("u_sub")
    boltz = analytic.boltzmann_mean_energy(params)

    rows = [
        Row("mean_energy", u_mean, u_se, pred.mean_energy, 0.03),
        _ks_row("energy_ks", u_pool, pred.energy_cdf,
                f"energy histogram vs exponential(mean={pred.mean_energy:.6g})"),
        Row("boltzmann_oracle", boltz, 0.0, pred.mean_energy, 1e-10,
            note="Boltzmann sum over E_n = (n+1/2) hbar w0 vs the coth form"),
    ]
    return rows


# ---------------------------------------------------------------------------
# registry and entry point

SCENARIO_DEFAULTS = {
    "ground_state": (
        SystemParams(tau=0.01),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=10.0),
        _scenario_ground_state,
    ),
    "commutators": (
        SystemParams(tau=0.01),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=20.0),
        _scenario_commutators,
    ),
    "energy_time": (
        SystemParams(tau=0.01),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=20.0),
        _scenario_energy_time,
    ),
    "coherent_decay": (
        SystemParams(tau=0.01),
        GridSpec(dt=0.1, n_samples=1 << 15, omega_cut=10.0, n_ensemble=1024),
        _scenario_coherent_decay,
    ),
    "free_thermal": (
        SystemParams(tau=0.01, omega0=0.0, kT=1.0),
        GridSpec(dt=0.001, n_samples=1 << 20, omega_cut=3000.0),
        _scenario_free_thermal,
    ),
    "free_zpf": (
        SystemParams(tau=0.01, omega0=0.0),
        GridSpec(dt=0.01, n_samples=1 << 20, omega_cut=300.0),
        _scenario_free_zpf,
    ),
    "dipoles": (
        SystemParams(tau=0.01, K=0.1),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=4.0),
        _scenario_dipoles,
    ),
    "planck_thermal": (
        SystemParams(tau=0.01, kT=0.5),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=20.0),
        _scenario_planck_thermal,
    ),
}

SCENARIO_NAMES = tuple(SCENARIO_DEFAULTS)


def scenario_defaults(name: str) -> tuple[SystemParams, GridSpec]:
    if name not in SCENARIO_DEFAULTS:
        raise UnknownScenario(
            f"unknown scenario {name!r}; valid: {', '.join(SCENARIO_NAMES)}"
        )
    p, g, _ = SCENARIO_DEFAULTS[name]
    return p, g


def run_scenario(
    name: str,
    params: SystemParams | None = None,
    grid: GridSpec | None = None,
    jobs: int = 1,
    out_dir=None,
    emit=(),
) -> ExperimentReport:
    """Run one named scenario and assemble its report.

    ``params``/``grid`` default to the scenario's tuned configuration; the
    master seed lives in the grid.  The report embeds the fully resolved
    configuration, so every analytic value in it is re-derivable.
    """
    dp, dg = scenario_defaults(name)
    params = dp if params is None else params
    grid = dg if grid is None else grid
    # a scenario built on a bound oscillator divides by omega0
    cfg = validate(params, grid, oscillator=dp.omega0 > 0)

    emitter = Emitter(out_dir=out_dir, emit=emit)
    t0 = time.perf_counter()
    rows = SCENARIO_DEFAULTS[name][2](cfg, cfg.grid.seed, jobs, emitter)
    runtime = time.perf_counter() - t0

    config = {"params": asdict(cfg.params), "grid": asdict(cfg.grid)}
    return ExperimentReport(
        scenario=name, config=config, rows=rows, runtime=runtime,
        seed=cfg.grid.seed,
    )
