"""The ensemble engine and the named end-to-end scenarios, each giving a
reproducible pass/fail ``report.ExperimentReport``.

A scenario is a function of the validated ``(params, grid)`` of
``core.validate``, its field's kind (``core.ZPF``, ``PLANCK`` or
``RAYLEIGH_JEANS``, named once in ``SCENARIO_DEFAULTS``), the workers and
the emitter; the grid holds the master seed, and every routine that gets
the grid reads the seed from it.  It draws its ensemble from sub-seeds
that are pure functions of (master seed, member or group index), reduces
in index order, and embeds the fully resolved configuration in the
report, so a report is a deterministic function of (name, params, grid)
for any worker count.

Every scenario's response X is the half-spectrum coefficients of its
field (a ``noise.Synthesis`` draw) times the gains H of
``dynamics.response_transfer``, the periodic steady state on the synthesis
lattice, with no burn-in (for the free particle, its exact free response).
Every half-spectrum holds the band j = 0..j_max alone (the draw, the gains,
X, its power, the group sums and their totals): above the band the field
has no power, and ``irfft(band, n)`` pads the zero tail itself, so nothing
writes, multiplies or transforms it.  Only coherent_decay's members and
``--emit trajectories`` draw X itself; every other scenario draws the law
of what its rows read, built on one fact: each bin's power |X_j|^2 is its
mean 2 a_j^2 |H_j|^2 times an independent standard exponential (Brockwell
& Davis, *Time Series: Theory and Methods*, §10.3).
commutators, energy_time, free_thermal and free_zpf read only each
group's summed power |X_j|^2, drawn with no member (``draw_power_groups``),
and its linear maps, one transform per group (free_zpf's fit weights, each
lag's model variance, take one transform of the squared ensemble power).
energy_time's rows are all functionals of each group's correlations C_xx,
C_pp and C_xp: x and p are Gaussian, so the energy's autocovariance, and
with it the spread of every window average, follows from them (Isserlis'
theorem, ``_energy_covariance``).
commutators inverse-transforms only the ensemble power: its one
per-group value, c_xp(0) by the Hilbert route, is one linear functional K
of the power (``estimators.hilbert_zero_functional``), so each group's is
the product K |X_j|^2, with no transform.
ground_state, planck_thermal and dipoles read a member's Parseval
variances, linear in its power, and its KS subsamples, which by the
aliasing theorem depend on X only through its fold onto L <= n/32 bins
(``estimators.fold``).  Their one member routine (``_mode_members``)
draws, per mode, the power (j_max exponentials) and each fold's L/2 + 1
independent complex Gaussian entries (``_fold_law``), never 2 j_max
normals, and transforms each fold (``estimators.decorrelated``).  Their
energies and cross moments are formed after the run, from the members'
arrays.  The only member series is the stationary part of coherent_decay
(whose kicked start adds the homogeneous decay by linearity), one
transform per member.  A momentum
correlation takes no transform of its own: the momentum gain T is a
trapezoid recursion (``dynamics.apply_momentum_gain``), so C_pp comes from
C_xp and c_pp from c_xx, each by one cumulative sum; elsewhere P is T X.

``--emit trajectories`` draws member 0's band from its seed
(``_emit_member_zero``), apart from the ensemble: a draw of the same law,
not the values the rows read, wherever only groups, powers or folds are
drawn; coherent_decay, whose members are not one steady state, writes none.
``report`` writes every file.

Every ensemble, the property suite's included, runs its members (or
drawn groups) on up to ``jobs`` threads and reduces them in member order
(``ensemble_reduce``): ``sum_members`` adds their arrays into the group
sums of an ``Ensemble``, which ``draw_power_groups`` draws instead, and
``join_members`` joins each key's values.  ``_group_bounds`` alone maps
members to min(N_GROUPS, n) groups.

Members reuse memory.  Each scenario call sets its field synthesis up once
(``noise.field_synthesis``) and makes a ``Workspace``: complex buffers of
n//2 + 1 entries, a set per thread, at most two, which every member and
every drawn group of that thread writes its band, power draw and n-point
intermediates into (``out=``).  The rule: a value the
reducer keeps (a scalar, a KS subsample, a summed power or structure
function) is a fresh array, since a pool thread starts its next member
before the reducer has read the last; everything else lives in the
workspace.
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
from .core import FIT_LAG_TAUS, PLANCK, RAYLEIGH_JEANS, ZPF, GridSpec, SystemParams, validate
from .dynamics import (
    apply_momentum_gain,
    canonical_momentum,
    homogeneous_decay,
    momentum_step,
    response_transfer,
)
from .errors import InvalidParams, UnknownScenario
from .estimators import (
    HILBERT_MARGIN,
    commutator_from_spectrum,
    decorrelated,
    fold,
    fold_bins,
    hilbert_commutator,
    hilbert_transform,
    hilbert_zero_functional,
    ks_critical,
    ks_distance,
    ks_sf,
    lag_count,
    mean_square_displacement,
    mean_square_displacement_variance,
    spectrum_from_power,
    window_samples,
)
from .noise import field_synthesis, group_seed, member_seed
from .report import Emitter, ExperimentReport, Row

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


def _group_bounds(n_ensemble: int) -> list[range]:
    """The members of each group, in group order: member k is in group
    k * G // n, G = min(N_GROUPS, n), so every group holds a run of
    consecutive members and group sizes differ by at most one."""
    n_groups = min(N_GROUPS, n_ensemble)
    starts = [-(-g * n_ensemble // n_groups) for g in range(n_groups + 1)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def _collect(results: list, k: int, res) -> list:
    results.append(res)
    return results


def sum_members(member, n_ensemble: int, jobs: int) -> "Ensemble":
    """The ``Ensemble`` of ``member(k)``, a dict of arrays, for every
    member: each array added into its group's sum in member order."""
    starts = {members.start for members in _group_bounds(n_ensemble)}

    def add(groups, k, res):
        if k in starts:
            # one array per group, never a stacked block: freeing a block
            # this large would raise glibc's mmap threshold and leave freed
            # heap untrimmed, raising later peak RSS
            groups.append({key: np.array(v, dtype=float) for key, v in res.items()})
        else:
            for key, v in res.items():
                groups[-1][key] += v
        return groups

    return Ensemble(n_ensemble, ensemble_reduce(member, n_ensemble, jobs, add, []))


def join_members(member, n_ensemble: int, jobs: int) -> dict:
    """Each key of ``member(k)``'s dict, its values joined in member order
    (a scalar's 1-D, a KS subsample's the pool)."""
    results = ensemble_reduce(member, n_ensemble, jobs, _collect, [])
    return {key: np.hstack([res[key] for res in results]) for key in results[0]}


class Ensemble:
    """The group sums of an ensemble of n members: a list, in group order
    (``_group_bounds``), of dicts of arrays summed over each group.

    A functional of ensemble means takes the standard error of the same
    functional over the group means, each group sum divided by its own
    member count (``estimate``).  The sums are final, so a key's ensemble
    mean (``total``) and group means are each formed once, on first use.
    """

    def __init__(self, n_ensemble: int, groups: list):
        self.n = n_ensemble
        self.groups = groups
        self._totals, self._group_means = {}, {}

    def total(self, key: str) -> np.ndarray:
        """Ensemble mean of a summed array."""
        if key not in self._totals:
            total = np.zeros(np.shape(self.groups[0][key]))
            for group in self.groups:
                total += group[key]
            self._totals[key] = total / self.n
        return self._totals[key]

    def estimate(self, f, key: str) -> tuple[float, float]:
        """f of the ensemble mean of ``key``, with the standard error of f
        over the group means; f must not modify its argument."""
        if key not in self._group_means:
            self._group_means[key] = [group[key] / len(members) for group, members
                                      in zip(self.groups, _group_bounds(self.n))]
        _, se = _mean_stderr([f(m) for m in self._group_means[key]])
        return float(f(self.total(key))), se


def _mean_stderr(values) -> tuple[float, float]:
    """Mean of per-member (or per-group) values and its standard error."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _mean_power(synthesis, H) -> np.ndarray:
    """The mean power E|X_j|^2 = 2 a_j^2 |H_j|^2 of X = E H on the band
    (a = ``synthesis.amplitude``), nil at j = 0, which the draw leaves
    empty; a fresh array."""
    power = np.abs(H)
    power[0] = 0.0
    power[1:] *= synthesis.amplitude
    np.square(power, out=power)
    power *= 2.0
    return power


def draw_power_groups(synthesis, H, grid: GridSpec, jobs: int, linear) -> Ensemble:
    """The group sums of the grid's n_ensemble members' power |X_j|^2,
    X = E H, drawn with no member: |X_j|^2 is its mean 2 a_j^2 |H_j|^2
    (a = ``synthesis.amplitude``) times a standard exponential,
    independently per bin (Brockwell & Davis, *Time Series: Theory and
    Methods*, §10.3), so m members sum to the mean times one
    ``standard_gamma(m)`` per bin, drawn from ``group_seed(grid.seed, g)``.
    ``linear`` maps a group's fresh power to a dict of arrays linear in it."""
    groups = _group_bounds(grid.n_ensemble)
    mean = _mean_power(synthesis, H)[1:]

    def worker(g):
        pw = np.zeros(H.size)
        np.random.default_rng(group_seed(grid.seed, g)).standard_gamma(len(groups[g]), out=pw[1:])
        pw[1:] *= mean
        return linear(pw)

    return Ensemble(grid.n_ensemble, ensemble_reduce(worker, len(groups), jobs, _collect, []))


class Workspace:
    """Member-sized scratch arrays of one scenario call, a set per thread.

    Buffer i is a complex half-spectrum of n//2 + 1 entries, allocated on
    the first request of a thread; ``series(i)`` is the same memory read as
    n real samples, so one buffer holds one intermediate at a time.  Every
    later member (or drawn group) on that thread writes into the same
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


def _steady_state(synthesis, H, seed, ws: Workspace) -> np.ndarray:
    """The steady-state response X = E H on the band to the draw from
    ``seed``, in workspace buffer 0 (buffer 1 holds the draw's normals until
    then)."""
    X = synthesis.draw(seed, out=ws.spectrum(0)[: H.size], normals=ws.series(1))
    X *= H
    return X


def _mode_seeds(seed: int, k: int, n_modes: int) -> list:
    """Member k's seeds of its normal modes: one mode draws from
    ``member_seed(seed, k)``, two from its ``spawn(2)`` children."""
    s = member_seed(seed, k)
    return [s] if n_modes == 1 else s.spawn(2)


def _emit_member_zero(emitter: Emitter, scenario: str, grid: GridSpec, synthesis, modes,
                      label=None):
    """``--emit trajectories``: x and p (and, given the field's ``label``,
    its field) of a band drawn from member 0's seeds (``_mode_seeds``),
    apart from the ensemble: a draw of the same law as member 0, not the
    values the rows read.  ``modes`` are (H, params) pairs; the dipoles'
    x = (x+ + x-)/sqrt(2)."""
    if not emitter.wants("trajectories"):
        return
    # the sidecars' seed0 is a sequence of its own: spawning the modes'
    # children from it would change its repr
    n, dt, seed0 = grid.n_samples, grid.dt, member_seed(grid.seed, 0)
    xs = [np.fft.irfft(_steady_state(synthesis, H, s, Workspace(n)), n)
          for (H, _), s in zip(modes, _mode_seeds(grid.seed, 0, len(modes)))]
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
    spec = np.multiply(gain, pw, out=ws.spectrum(0)[: pw.size])
    return mean_square_displacement(spec, ws.n, lags, out=ws.series(1))


def _ks_row(quantity: str, pool: np.ndarray, cdf, note: str) -> Row:
    """The KS distance of ``pool`` from ``cdf`` as an upper-bound row at
    its 1% critical value; the note ends with the sample count and the
    asymptotic (Kolmogorov) p-value, by the law of the critical value, so
    the row passes exactly when p >= ``ks_sf(ks_critical(n), n)``."""
    d = ks_distance(pool, cdf)
    return Row(quantity, d, 0.0, ks_critical(pool.size), 0.0, kind="upper_bound",
               note=f"{note}; n={pool.size}, asymptotic p={ks_sf(d, pool.size):.4g}")


def _x_decorrelation_time(params: SystemParams) -> float:
    # twelve amplitude e-folds: the subsample is independent enough that
    # the KS tests run at their nominal level despite the small finite-tau
    # offsets of the simulated moments
    return 24.0 / (params.tau * params.omega0 ** 2)


def _u_decorrelation_time(params: SystemParams) -> float:
    # the energy autocovariance decays at twice the amplitude rate
    return 12.0 / (params.tau * params.omega0 ** 2)


def _energy(params: SystemParams, x_sq, p_sq):
    """Oscillator energy (m omega0^2 x^2 + p^2/m)/2 from x^2 and p^2
    (samples, or means: the steady-state x and p have zero mean)."""
    return 0.5 * (params.m * params.omega0 ** 2 * x_sq + p_sq / params.m)


def _gain_scale(params: SystemParams) -> float:
    """2^k within a factor of 2 of m omega0 (1 where m omega0 is in [1, 2)),
    the size of the momentum gain T near the resonance: in 1 + T/2^k, C_xx
    and C_xp/2^k share one transform at comparable sizes whatever m omega0
    is, where 1 + T lost the smaller of them to rounding (far from m
    omega0 = 1).  Dividing by 2^k is exact."""
    return 2.0 ** (math.frexp(params.m * params.omega0)[1] - 1)


def _lag_window(pw, one_plus_t, lag: int, ws: Workspace) -> np.ndarray:
    """irfft(pw (1 + T/s))/n on the lags -lag..lag of one (group's) power
    ``pw`` = |X_j|^2, with ``one_plus_t`` = 1 + T/s (s = ``_gain_scale``):
    C_xx + C_xp/s, whose even part is C_xx and odd part (T imaginary)
    C_xp/s."""
    cross = np.multiply(pw, one_plus_t, out=ws.spectrum(0)[: pw.size])
    return np.fft.irfft(cross, ws.n, out=ws.series(1))[np.arange(-lag, lag + 1)] / ws.n


def _xp_correlations(pw, one_plus_t, t_sq, g: float, lag: int, ws: Workspace,
                     scale: float = 1.0) -> np.ndarray:
    """Rows C_xx, C_pp, C_xp on the lags 0..lag of one (group's) power
    ``pw`` = |X_j|^2, with ``one_plus_t`` = 1 + T/``scale`` (the
    ``_gain_scale``), ``t_sq`` = |T|^2 and ``g`` the ``momentum_step`` of T.

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
    np.multiply(0.5 * scale, np.subtract(fwd, back, out=c[2]), out=c[2])
    apply_momentum_gain(c[2], -g, 2.0 * np.einsum("i,i->", t_sq, pw) / ws.n ** 2, out=c[1])
    return c


def _energy_covariance(params: SystemParams, c) -> np.ndarray:
    """2 Cov(U(t), U(t + d)) of the energy U = (m omega0^2 x^2 + p^2/m)/2 on
    the lags of ``c``, rows C_xx, C_pp, C_xp of ``_xp_correlations``: x and
    p are Gaussian, so Cov(a^2, b^2) = 2 <a b>^2 (Isserlis' theorem), and
    C_xp is odd."""
    m, w0 = params.m, params.omega0
    cxx, cpp, cxp = c
    return m ** 2 * w0 ** 4 * cxx ** 2 + 2.0 * w0 ** 2 * cxp ** 2 + cpp ** 2 / m ** 2


def _window_variance(g, w: int) -> float:
    """Var U_T of ``estimators.windowed_energy``'s average over w samples,
    from the energy autocovariance g on the lags 0..w: the window weighs its
    w + 1 samples by (1/2, 1, ..., 1, 1/2)/w, so Var U_T =
    ((w - 1/2) g(0) + 2 sum_{d=1}^{w-1} (w - d) g(d) + g(w)/2) / w^2.  A
    window of one sample is the instantaneous energy, of variance g(0)."""
    if w == 1:
        return float(g[0])
    weights = 2.0 * (w - np.arange(w + 1.0))
    weights[0], weights[w] = w - 0.5, 0.5
    return float(np.einsum("i,i->", weights, g[: w + 1])) / w ** 2


def _momentum_commutator(c_xx, spec_x, domega: float, T, g: float) -> np.ndarray:
    """c_pp from c_xx = 2 domega sum_j S_j sin(omega_j t) on lags 0, dt, ...
    (``commutator_from_spectrum`` of the position spectrum ``spec_x``), with
    no transform: T maps sin(omega_j t) to Im(T_j) cos(omega_j t) and that
    to -|T_j|^2 sin(omega_j t), so c_pp = -T(T(c_xx)).  The even step
    starts at 2 domega sum_j Im(T_j) S_j, the odd one at 0.
    """
    # a pairwise sum: an error in the start grows linearly over the lags of
    # the odd step, and np.dot's 4e-15 would grow to 4e-13 of the peak
    even = apply_momentum_gain(
        c_xx, g, 2.0 * domega * np.sum(T.imag[1:] * spec_x))
    return apply_momentum_gain(even, -g, 0.0)


def _fold_law(power, n: int, dt: float, t_dec: float, T=None, p_power=None):
    """The law of a member's folded entries (``estimators.fold``) at the
    spacing ``t_dec`` of X, and given the momentum gain ``T``, of X and
    P = T X jointly, from the band's mean powers ``power`` = E|X_j|^2 and
    ``p_power`` = |T_j|^2 E|X_j|^2.

    An entry r sums independent circular Gaussian bins j = r and the
    conjugates of bins j = -r (mod L), so the entries are independent
    circular Gaussians, real at r = 0 and (L even) at L/2, of variance
    V = fold(power).  The pair's covariance is the fold of
    power [[1, conj T], [T, |T|^2]], a mirror bin adding conj T below the
    diagonal: [[V, conj K], [K, Q]], K = fold(power T), Q = fold(p_power),
    with Cholesky factor [[a, 0], [b, c]].  Returns ``unit``, each entry's
    scale of its real and imaginary standard normals (1/sqrt 2 each, or 1
    and 0 at a real entry), and the factors (a,) or (a, b, c).
    """
    v = fold(power, n, dt, t_dec)
    unit = np.full((v.size, 2), math.sqrt(0.5))
    unit[0] = 1.0, 0.0
    if fold_bins(n, dt, t_dec) % 2 == 0:
        unit[-1] = 1.0, 0.0
    a = np.sqrt(v)
    if T is None:
        return unit, (a,)
    k = fold(power * T, n, dt, t_dec)
    b = np.divide(k, a, out=np.zeros_like(k), where=a > 0.0)
    # Q - |K|^2/V, which rounding may take just below 0 where one bin dominates
    c = np.sqrt(np.maximum(fold(p_power, n, dt, t_dec) - np.square(np.abs(b)), 0.0))
    return unit, (a, b, c)


def _draw_fold(rng, unit, factors) -> tuple:
    """A member's folded entries of X (and of P) by ``_fold_law``'s law,
    from one standard normal pair per entry and variable."""
    z = rng.standard_normal((len(factors) // 2 + 1, *unit.shape))
    z *= unit
    z = z.view(complex)[..., 0]
    if len(factors) == 1:
        return (factors[0] * z[0],)
    a, b, c = factors
    return a * z[0], b * z[0] + c * z[1]


def _mode_members(name: str, field: str, params: SystemParams, grid: GridSpec,
                  modes, jobs: int, emitter: Emitter, x_dec=None, u_dec=None) -> dict:
    """Members of independent steady-state normal modes (``modes``, their
    SystemParams) of the field of kind ``field``, drawn from the children
    of their ``_mode_seeds`` seeds by the law of what the rows read.  Of
    mode i a member keeps <x^2> and <p^2> by Parseval (``x_sq{i}``,
    ``p_sq{i}``): its power |X_j|^2 is E|X_j|^2 e_j, e_j standard
    exponentials, so each is an inner product of e with 2 E|X_j|^2/n^2
    (times |T_j|^2 for p).  Given their spacings it keeps ``decorrelated``
    x subsamples at ``x_dec`` (``x_sub{i}``) and energy ones at ``u_dec``
    (``u_sub{i}``) of folds drawn by ``_fold_law``.  Returns each key's
    member values joined in member order (a scalar's 1-D, a subsample's the
    pool).  Member 0's emitted trajectories of a single mode carry its
    field."""
    dt, n = grid.dt, grid.n_samples
    synthesis = field_synthesis(field, params, grid)
    gains = [response_transfer(q, grid) for q in modes]
    label = field if field == ZPF else f"{field}(kT={params.kT:g})"
    _emit_member_zero(emitter, name, grid, synthesis, [(H, q) for (H, _), q in zip(gains, modes)],
                      label if len(modes) == 1 else None)
    ws = Workspace(n)
    laws = []
    for H, T in gains:
        # E|X_j|^2, and E|P_j|^2 = |T_j|^2 E|X_j|^2 formed in place
        power = _mean_power(synthesis, H)
        p_power = np.abs(T)
        np.square(p_power, out=p_power)
        p_power *= power
        laws.append((power[1:], p_power[1:],
                     None if x_dec is None else _fold_law(power, n, dt, x_dec),
                     None if u_dec is None else _fold_law(power, n, dt, u_dec, T, p_power)))

    def worker(k):
        res = {}
        seeds = _mode_seeds(grid.seed, k, len(modes))
        for i, (q, (power, p_power, x_law, u_law), s) in enumerate(zip(modes, laws, seeds)):
            power_rng, x_rng, u_rng = (np.random.default_rng(c) for c in s.spawn(3))
            # in the workspace: fresh, j_max draws would stay behind as free
            # heap in the thread's arena
            e = power_rng.standard_exponential(out=ws.series(0)[: power.size])
            res[f"x_sq{i}"] = 2.0 * np.einsum("i,i->", power, e) / n ** 2
            res[f"p_sq{i}"] = 2.0 * np.einsum("i,i->", p_power, e) / n ** 2
            if x_law is not None:
                res[f"x_sub{i}"] = decorrelated(_draw_fold(x_rng, *x_law)[0], n, dt, x_dec)
            if u_law is not None:
                fx, fp = _draw_fold(u_rng, *u_law)
                res[f"u_sub{i}"] = _energy(q, decorrelated(fx, n, dt, u_dec) ** 2,
                                           decorrelated(fp, n, dt, u_dec) ** 2)
        return res

    return join_members(worker, grid.n_ensemble, jobs)


# ---------------------------------------------------------------------------
# scenario implementations

def _scenario_ground_state(params: SystemParams, grid: GridSpec, field: str, jobs: int,
                           emitter: Emitter):
    gs = analytic.ground_state(params)
    acc = _mode_members("ground_state", field, params, grid, [params], jobs, emitter,
                        x_dec=_x_decorrelation_time(params), u_dec=_u_decorrelation_time(params))

    x_var, x_se = _mean_stderr(acc["x_sq0"])
    p_var, p_se = _mean_stderr(acc["p_sq0"])
    u_mean, u_se = _mean_stderr(_energy(params, acc["x_sq0"], acc["p_sq0"]))

    # a member's x^2 and p^2 move together (one power draw), so the
    # product's error is that of its linearization p_var x^2 + x_var p^2
    # over the members (the delta method with their covariance), formed as
    # heis (x^2/x_var + p^2/p_var) so that no square of heis can overflow
    heis = x_var * p_var
    _, rel_se = _mean_stderr(acc["x_sq0"] / x_var + acc["p_sq0"] / p_var)
    heis_se = heis * rel_se

    rows = [
        Row("x_variance", x_var, x_se, gs.x_var, 0.03),
        Row("p_variance", p_var, p_se, gs.p_var, 0.03),
        Row("mean_energy", u_mean, u_se, gs.mean_energy, 0.03),
        _ks_row("position_ks", acc["x_sub0"], gs.x_cdf,
                f"KS vs Gaussian(var={gs.x_var:g}) at the 1% level, decorrelated samples"),
        _ks_row("energy_ks", acc["u_sub0"], gs.energy_cdf,
                f"KS vs exponential(mean={gs.mean_energy:g}) at the 1% level"),
        Row("heisenberg_product", heis, heis_se,
            analytic.heisenberg_product(params), 0.06),
    ]
    return rows


def _scenario_commutators(params: SystemParams, grid: GridSpec, field: str, jobs: int,
                          emitter: Emitter):
    dt, n = grid.dt, grid.n_samples
    t_max = 100.0
    lag_ext = lag_count(HILBERT_MARGIN * t_max, dt, n)
    H, T = response_transfer(params, grid)
    synthesis = field_synthesis(field, params, grid)
    ws = Workspace(n)
    _emit_member_zero(emitter, "commutators", grid, synthesis, [(H, params)])
    scale = _gain_scale(params)
    one_plus_t = 1.0 + T / scale
    # c_xp(0)/scale by the Hilbert route is linear in each group's power;
    # its weights depend on the grid alone, so they are formed before the draw
    xp_zero = hilbert_zero_functional(one_plus_t, n, lag_ext)
    acc = draw_power_groups(synthesis, H, grid, jobs, lambda pw: {"power": pw})

    spec_x = spectrum_from_power(acc.total("power"), n, dt)
    lags = dt * np.arange(int(round(t_max / dt)) + 1)
    c_xx_spec = commutator_from_spectrum(spec_x, n, dt, t_max)
    c_pp_spec = _momentum_commutator(c_xx_spec, spec_x, grid.domega, T,
                                     momentum_step(params, dt))

    window = _lag_window(acc.total("power"), one_plus_t, lag_ext, ws)
    c_xx_h = hilbert_commutator(0.5 * (window + window[::-1]), lags.size)
    c_xp0, cxp0_se = acc.estimate(lambda pw: scale * float(np.einsum("i,i->", xp_zero, pw)),
                                  "power")

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


def _scenario_energy_time(params: SystemParams, grid: GridSpec, field: str, jobs: int,
                          emitter: Emitter):
    dt, n = grid.dt, grid.n_samples
    t_sweep = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    lag_max = lag_count(max(t_sweep), dt, n)
    H, T = response_transfer(params, grid)
    synthesis = field_synthesis(field, params, grid)
    ws = Workspace(n)
    _emit_member_zero(emitter, "energy_time", grid, synthesis, [(H, params)])

    scale, t_sq, g = _gain_scale(params), np.abs(T) ** 2, momentum_step(params, dt)
    one_plus_t = 1.0 + T / scale
    corr = draw_power_groups(synthesis, H, grid, jobs, lambda pw: {
        "corr": _xp_correlations(pw, one_plus_t, t_sq, g, lag_max, ws, scale)})

    def corr_route_delta_u(c, t_window):
        n_lag = int(round(t_window / dt))
        f = _energy_covariance(params, c[:, : n_lag + 1])
        return math.sqrt(np.trapezoid(f, np.arange(n_lag + 1) * dt) / (2.0 * t_window))

    def window_sd(c, w):
        return math.sqrt(_window_variance(0.5 * _energy_covariance(params, c[:, : w + 1]), w))

    um, um_se = corr.estimate(lambda c: _energy(params, c[0, 0], c[1, 0]), "corr")
    inst, inst_se = corr.estimate(lambda c: window_sd(c, 1), "corr")
    u0 = analytic.ground_state(params).mean_energy
    rows = [
        Row("u_mean", um, um_se, u0, 0.03),
        Row("delta_u_small_t", inst, inst_se, u0, 0.10,
            note="window of a single sample; small-T limit of Delta U_T"),
    ]

    for t in t_sweep:
        est_corr, se_corr = corr.estimate(lambda c: corr_route_delta_u(c, t), "corr")
        closed = analytic.energy_fluctuation(params, t)
        rows.append(Row(
            f"delta_u_corr_T{t:g}", est_corr, se_corr, closed.recomputed, 0.10,
            note="correlation-functional route; paper's printed large-T form "
                 f"would give {closed.paper_printed:.6g}"))

        w = window_samples(t, dt)
        t_eff = w * dt
        sd, sd_se = corr.estimate(lambda c: window_sd(c, w), "corr")
        closed_eff = analytic.energy_fluctuation(params, t_eff)
        rows.append(Row(
            f"delta_u_window_T{t:g}", sd, sd_se, closed_eff.window_exact, 0.10,
            note="std of the trapezoid window average, from the group's "
                 "correlations; keeps the (1-u/T) overlap factor the correlation "
                 "functional drops (sqrt(2) larger at large T)"))
        # below about T = 1/omega0 the exact product itself falls under
        # hbar/2, so there the row states it beside the bound
        exact, bound = closed_eff.window_exact * t_eff, 0.5 * params.hbar
        if exact >= bound:
            ref, kind, note = bound, "lower_bound", "Delta U_T * T >= hbar/2"
        else:
            ref, kind, note = exact, "info", (
                f"Delta U_T * T vs its exact value; the bound hbar/2 = {bound:.6g} "
                "holds only for T beyond about 1/omega0")
        rows.append(Row(f"uncertainty_product_T{t:g}", sd * t_eff, sd_se * t_eff, ref, 0.0,
                        kind=kind, note=note))

    emitter.series("energy_time", "cxx", "lag", np.arange(0, lag_max + 1, 100) * dt,
                   corr.total("corr")[0][::100])
    return rows


def _scenario_coherent_decay(params: SystemParams, grid: GridSpec, field: str, jobs: int,
                             emitter: Emitter):
    """Displaced ensemble.

    By linearity each member is the homogeneous decay from the displaced
    start plus the stationary response to its field.  The stationary part
    has zero mean, so the ensemble mean is the homogeneous decay exactly,
    with no mean-trajectory noise (whose correlation time ~1/gamma would
    otherwise leave only a couple of independent draws across the
    two-e-fold window), and the variance about it is the ensemble mean of
    the stationary part squared.  So the two envelope rows draw nothing:
    they check ``homogeneous_decay`` and ``hilbert_transform`` against
    amp e^(-gamma t).  The one Monte Carlo row, ``variance_about_mean``,
    re-measures the ground-state x variance.
    """
    dt, n = grid.dt, grid.n_samples
    amp, phase = 3.0, 0.0
    gamma = params.damping_rate
    t_obs = 2.0 / gamma            # two amplitude e-folds
    n_keep = int(round(1.25 * t_obs / dt)) + 1
    t = np.arange(n_keep) * dt
    mean_x = homogeneous_decay(
        params, t, x0=amp * math.cos(phase),
        v0=-amp * (params.omega0 * math.sin(phase) + gamma * math.cos(phase)))
    H, _ = response_transfer(params, grid)
    synthesis = field_synthesis(field, params, grid)
    ws = Workspace(n)

    def worker(k):
        X = _steady_state(synthesis, H, member_seed(grid.seed, k), ws)
        return {"x_sq": np.fft.irfft(X, n, out=ws.series(1))[:n_keep] ** 2}

    acc = sum_members(worker, grid.n_ensemble, jobs)
    var_x = acc.total("x_sq")

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


def _scenario_free_thermal(params: SystemParams, grid: GridSpec, field: str, jobs: int,
                           emitter: Emitter):
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
    omega_sq = (grid.domega * np.arange(H.size)) ** 2
    synthesis = field_synthesis(field, params, grid)
    ws = Workspace(n)
    _emit_member_zero(emitter, "free_thermal", grid, synthesis, [(H, params)])

    # position structure function at deltas and fit_deltas, velocity one (gain
    # omega^2) at the asymptote lags, <v^2> by Parseval (no j = 0 or Nyquist bin)
    sf = draw_power_groups(synthesis, H, grid, jobs, lambda pw: {
        "sf": np.concatenate([_structure_function(pw, 1.0, x_lags, ws),
                              _structure_function(pw, omega_sq, v_lags, ws),
                              [2.0 * np.einsum("i,i->", omega_sq, pw) / n ** 2]])})
    n_d, n_x = deltas.size, len(x_lags)
    slope, slope_se = sf.estimate(
        lambda s: np.polyfit(fit_deltas, s[n_d:n_x], 1)[0], "sf")
    v_var, v_se = sf.estimate(lambda s: s[-1], "sf")
    sfv, sfv_se = sf.estimate(lambda s: np.mean(s[n_x:-1]), "sf")

    emitter.series("free_thermal", "structure_function", "delta_t", deltas,
                   sf.total("sf")[:n_d])

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


def _scenario_free_zpf(params: SystemParams, grid: GridSpec, field: str, jobs: int,
                       emitter: Emitter):
    dt, n = grid.dt, grid.n_samples
    # validate's log_fit gives these a first lag of one sample or more (SF(0) = 0
    # has no variance to weight) and two distinct lags
    deltas = np.geomspace(FIT_LAG_TAUS * params.tau, (n // 10 - 1) * dt, 24)
    lags = np.array([lag_count(t, dt, n) for t in deltas])
    H, T = response_transfer(params, grid)
    synthesis = field_synthesis(field, params, grid)
    ws = Workspace(n)
    _emit_member_zero(emitter, "free_zpf", grid, synthesis, [(H, params)])

    acc = draw_power_groups(synthesis, H, grid, jobs, lambda pw: {
        "power": pw, "sf": _structure_function(pw, 1.0, lags, ws)})
    # a member's variance at each lag, from the ensemble power alone
    sf_var = mean_square_displacement_variance(acc.total("power"), n, lags)
    logd = np.log(deltas)

    def fit(sf):
        # weighted least squares on ln(delta), weights 1/variance
        return np.polyfit(logd, sf, 1, w=sf_var ** -0.5)

    slope, slope_se = acc.estimate(lambda s: fit(s)[0], "sf")
    # intercept/slope = C + ln(1/tau) when the log law holds
    euler_est, euler_se = acc.estimate(
        lambda s: fit(s)[1] / fit(s)[0] + math.log(params.tau), "sf")
    # <p^2> by Parseval, T being the momentum gain (identically 0 here)
    p_var = float(2.0 * np.einsum("i,i->", np.abs(T) ** 2, acc.total("power")) / n ** 2)

    emitter.series("free_zpf", "structure_function", "delta_t", deltas, acc.total("sf"),
                   np.sqrt(sf_var / grid.n_ensemble))

    pred = analytic.free_particle(params, 1.0, grid.omega_cut)
    rows = [
        Row("log_slope", slope, slope_se, pred.zpf_log_slope, 0.15,
            note="d(Delta x^2)/d(ln t); zeropoint diffusion is logarithmic"),
        Row("euler_intercept", euler_est, euler_se, pred.zpf_log_constant, 0.25,
            note="intercept/slope - ln(1/tau) vs the log-diffusion law's constant "
                 "on the band up to omega_c, Euler's C - ln(1 + (omega_c tau)^-2)/2"),
        Row("p_variance_zero", p_var, 0.0, 1e-18, 0.0,
            kind="upper_bound",
            note="canonical momentum of the free particle has nil spectrum"),
    ]
    return rows


def _scenario_dipoles(params: SystemParams, grid: GridSpec, field: str, jobs: int,
                      emitter: Emitter):
    pred = analytic.dipole_prediction(params)
    pp, pm = params.mode_params(+1), params.mode_params(-1)
    m, w0, K = params.m, params.omega0, params.K
    # normal modes x_pm = (x1 +- x2)/sqrt(2), driven by eps_pm = (eps1 +- eps2)/sqrt(2):
    # an independent pair with the field's spectrum, so each is drawn directly
    acc = _mode_members("dipoles", field, params, grid, [pp, pm], jobs, emitter,
                        x_dec=_x_decorrelation_time(pp))
    xp_sq, xm_sq, pp_sq, pm_sq = (acc[key] for key in ("x_sq0", "x_sq1", "p_sq0", "p_sq1"))
    # x1^2 + x2^2 = x+^2 + x-^2, x1 x2 = (x+^2 - x-^2)/2, likewise for p
    p_sq = pp_sq + pm_sq
    xp_var, xp_se = _mean_stderr(xp_sq)
    xm_var, xm_se = _mean_stderr(xm_sq)
    cross, cross_se = _mean_stderr(0.5 * (xp_sq - xm_sq))
    h_mean, h_se = _mean_stderr(p_sq / (2 * m) + 0.5 * m * w0 ** 2 * (xp_sq + xm_sq)
                                - 0.5 * K * (xp_sq - xm_sq))

    rows = [
        Row("x_plus_variance", xp_var, xp_se, pred.x_plus_var, 0.03),
        Row("x_minus_variance", xm_var, xm_se, pred.x_minus_var, 0.03),
        Row("cross_moment", cross, cross_se, pred.cross_cov, 0.15,
            note="<x1 x2> = (<x+^2> - <x-^2>)/2"),
        Row("mean_energy_H", h_mean, h_se, pred.mean_H, 0.005,
            note="canonical-momentum energies; exact normal-mode value"),
        _ks_row("mode_plus_ks", acc["x_sub0"], pred.rho_plus_cdf,
                "x+ vs its normal-mode Gaussian at the 1% level"),
        _ks_row("mode_minus_ks", acc["x_sub1"], pred.rho_minus_cdf,
                "x- vs its normal-mode Gaussian at the 1% level"),
        Row("interaction_energy_series", pred.E_int_exact, 0.0,
            pred.E_int_paper_series, 0.0, kind="info",
            note="exact E_int vs the printed series coefficient "
                 "-K^2 hbar/(2 m^2 w0^3); the exact expansion carries 1/8, "
                 "not 1/2"),
    ]
    return rows


def _scenario_planck_thermal(params: SystemParams, grid: GridSpec, field: str, jobs: int,
                             emitter: Emitter):
    pred = analytic.planck_prediction(params)
    acc = _mode_members("planck_thermal", field, params, grid,
                        [params], jobs, emitter, u_dec=_u_decorrelation_time(params))

    u_mean, u_se = _mean_stderr(_energy(params, acc["x_sq0"], acc["p_sq0"]))
    boltz, complete = analytic.boltzmann_mean_energy(params)
    note = "Boltzmann sum over E_n = (n+1/2) hbar w0 vs the coth form"
    if not complete:
        note += (f"; its tail bound needs more than {analytic.BOLTZMANN_MAX_TERMS} terms "
                 "at this kT, so the sum stops unfinished and the row is info")

    rows = [
        Row("mean_energy", u_mean, u_se, pred.mean_energy, 0.03),
        _ks_row("energy_ks", acc["u_sub0"], pred.energy_cdf,
                f"energy histogram vs exponential(mean={pred.mean_energy:.6g})"),
        Row("boltzmann_oracle", boltz, 0.0, pred.mean_energy, 1e-10,
            kind="match" if complete else "info", note=note),
    ]
    return rows


# ---------------------------------------------------------------------------
# registry and entry point

#: Each scenario's default params and grid, its driving field and its function.
SCENARIO_DEFAULTS = {
    "ground_state": (
        SystemParams(tau=0.01),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=10.0),
        ZPF, _scenario_ground_state,
    ),
    "commutators": (
        SystemParams(tau=0.01),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=20.0),
        ZPF, _scenario_commutators,
    ),
    "energy_time": (
        SystemParams(tau=0.01),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=20.0),
        ZPF, _scenario_energy_time,
    ),
    "coherent_decay": (
        SystemParams(tau=0.01),
        GridSpec(dt=0.1, n_samples=1 << 15, omega_cut=10.0, n_ensemble=1024),
        ZPF, _scenario_coherent_decay,
    ),
    "free_thermal": (
        SystemParams(tau=0.01, omega0=0.0, kT=1.0),
        GridSpec(dt=0.001, n_samples=1 << 20, omega_cut=3000.0),
        RAYLEIGH_JEANS, _scenario_free_thermal,
    ),
    "free_zpf": (
        SystemParams(tau=0.01, omega0=0.0),
        GridSpec(dt=0.01, n_samples=1 << 20, omega_cut=300.0),
        ZPF, _scenario_free_zpf,
    ),
    "dipoles": (
        SystemParams(tau=0.01, K=0.1),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=4.0),
        ZPF, _scenario_dipoles,
    ),
    "planck_thermal": (
        SystemParams(tau=0.01, kT=0.5),
        GridSpec(dt=0.1, n_samples=1 << 20, omega_cut=20.0),
        PLANCK, _scenario_planck_thermal,
    ),
}

SCENARIO_NAMES = tuple(SCENARIO_DEFAULTS)


def scenario_defaults(name: str) -> tuple[SystemParams, GridSpec]:
    if name not in SCENARIO_DEFAULTS:
        raise UnknownScenario(
            f"unknown scenario {name!r}; valid: {', '.join(SCENARIO_NAMES)}"
        )
    p, g, _, _ = SCENARIO_DEFAULTS[name]
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
    master seed lives in the grid; ``jobs`` is an integer >= 1.  The report
    embeds the fully resolved configuration, so every analytic value in it
    is re-derivable.
    """
    dp, dg = scenario_defaults(name)
    _, _, field, scenario = SCENARIO_DEFAULTS[name]
    params = dp if params is None else params
    grid = dg if grid is None else grid
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise InvalidParams([f"jobs must be an integer >= 1, got {jobs!r}"])
    # a scenario built on a bound oscillator divides by omega0
    params, grid = validate(params, grid, oscillator=dp.omega0 > 0, log_fit=name == "free_zpf",
                            field=field)

    emitter = Emitter(out_dir=out_dir, emit=emit)
    t0 = time.perf_counter()
    rows = scenario(params, grid, field, jobs, emitter)
    runtime = time.perf_counter() - t0

    config = {"params": asdict(params), "grid": asdict(grid)}
    return ExperimentReport(scenario=name, config=config, rows=rows, runtime=runtime,
                            seed=grid.seed)
