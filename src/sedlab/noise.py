"""Stationary Gaussian field synthesis on the discrete-transform lattice.

A realization is a harmonic superposition on the exact FFT lattice
omega_j = j * 2*pi/(n*dt), j = 1..J:

    eps(t) = sum_j sqrt(S(omega_j) * domega) * (a_j cos omega_j t + b_j sin omega_j t)

with a_j, b_j independent standard normals, so the sample variance matches
the integral of the one-sided spectrum over the synthesis band and the
expectation of the lattice periodogram equals S(omega_j) exactly.  The
realized process is periodic with period n*dt; lag statistics downstream
are therefore restricted to |lag| <= n*dt/10.

The j = 0 mode is always excluded, which is what makes infrared-divergent
free-particle spectra (S_x ~ 1/omega) usable: structure functions remain
finite on the lattice while the raw variance never sees the missing band.

The draw is kept as its half-spectrum coefficients on the band j = 0..J
(``Synthesis.draw``), the numpy ``rfft`` of the series with its zero tail
left off: a periodic steady-state response is driven with them directly,
and ``synthesize_series``/``synthesize_field`` are their ``irfft`` at n
points, which pads the tail itself.  Most scenarios draw only the law of
what their rows read from the synthesis amplitudes (``experiments``).

Everything but the normals is fixed by (spectrum, grid), and a field's
spectrum by its kind (``core.ZPF``, ``PLANCK``, ``RAYLEIGH_JEANS``) and the
``SystemParams`` it reads, so a scenario sets its synthesis up once
(``field_synthesis``: the band j_max and the amplitudes
0.5 n sqrt(S(omega_j) domega)) and each ``Synthesis.draw`` only draws the
normals and scales them, into arrays the caller may reuse from draw to
draw.  The dipoles need no second routine: their normal modes are driven
by eps_pm = (eps1 +- eps2)/sqrt(2), which in each bin rotates the standard
normals of the independent eps1, eps2 by 45 degrees and so is itself an
independent pair with the same law; each mode is drawn from its own
sub-seed of the member.

Seed splitting: the sub-seed of ensemble member k is a pure function of
(master seed, k) via numpy's SeedSequence spawn keys, so members can be
generated in any order, on any number of workers, with identical results;
so is a group's seed (``group_seed``) for the power sums drawn by group.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, SystemParams
from .errors import InvalidParams
from .spectra import field_spectrum


def member_seed(master_seed: int, k: int) -> np.random.SeedSequence:
    """Sub-seed of ensemble member k; pure function of (master_seed, k)."""
    return np.random.SeedSequence(master_seed, spawn_key=(k,))


def group_seed(master_seed: int, g: int) -> np.random.SeedSequence:
    """Group g's sub-seed: its pool of 8 words (4 in a member's) sets it apart."""
    return np.random.SeedSequence(master_seed, spawn_key=(g,), pool_size=8)


@dataclass(frozen=True)
class FieldRealization:
    """One sampled reduced-field realization on a grid of step dt."""

    dt: float
    samples: np.ndarray


def synthesis_band(dt: float, n_samples: int, omega_cut: float) -> int:
    """Highest lattice index j_max of the synthesis band; coefficients above it are zero."""
    domega = 2.0 * math.pi / (n_samples * dt)
    j_max = int(math.floor(omega_cut / domega + 1e-9))
    j_max = min(j_max, n_samples // 2 - 1)
    if j_max < 1:
        raise InvalidParams([f"omega_cut {omega_cut:g} below the lattice spacing {domega:g}"])
    return j_max


@dataclass(frozen=True)
class Synthesis:
    """One spectrum's synthesis on one lattice, set up once per scenario:
    the band j = 1..j_max and the amplitudes 0.5 n sqrt(S(omega_j) domega).

    ``draw`` fills the half-spectrum of one realization; every member of an
    ensemble shares the setup, so the spectrum is evaluated once.
    """

    j_max: int
    amplitude: np.ndarray

    @functools.cached_property
    def neg_amplitude(self) -> np.ndarray:
        """-amplitude, for the imaginary parts: (-a) b = -(a b) exactly, so
        the normals need no negation pass; formed on the first ``draw``, so
        that a scenario that draws no band does not form it."""
        return np.negative(self.amplitude)

    def draw(self, seed, out=None, normals=None) -> np.ndarray:
        """Half-spectrum coefficients E_j (j = 0..j_max, the band) of the
        draw from ``seed`` (an int, a SeedSequence or a Generator); every
        coefficient above the band is zero, so ``irfft(E, n)`` is the series.

        ``out`` (complex, j_max + 1 entries) receives them; ``normals``
        (real, at least 2 j_max entries) holds the draw's standard normals.
        Their prior contents are ignored, and the result is the same as with
        fresh arrays.
        """
        j = self.j_max
        band = np.empty(j + 1, dtype=complex) if out is None else out
        rng = np.random.default_rng(seed)
        ab = (rng.standard_normal(2 * j) if normals is None
              else rng.standard_normal(out=normals[: 2 * j]))
        band[0] = 0.0
        # irfft convention: x_k = (1/n) * (c_0 + 2 * sum_j Re[c_j e^{2pi i jk/n}] + ...),
        # with c_j = amplitude_j * (a_j - i b_j)
        np.multiply(self.amplitude, ab[:j], out=band.real[1:])
        np.multiply(self.neg_amplitude, ab[j:], out=band.imag[1:])
        return band


def _synthesis(spectrum, dt: float, n_samples: int, omega_cut: float) -> Synthesis:
    """Synthesis of the one-sided spectrum S, evaluated as ``spectrum`` on a
    1-d array of lattice frequencies."""
    domega = 2.0 * math.pi / (n_samples * dt)
    j_max = synthesis_band(dt, n_samples, omega_cut)
    omegas = np.arange(1.0, j_max + 1)
    omegas *= domega
    svals = np.asarray(spectrum(omegas), dtype=float)
    if np.any(svals < 0):
        raise InvalidParams(["spectrum must be >= 0 on the synthesis band"])
    # 0.5 n sqrt(S domega), in one array: svals may be the caller's own
    amplitude = np.multiply(svals, domega)
    np.sqrt(amplitude, out=amplitude)
    amplitude *= 0.5 * n_samples
    return Synthesis(j_max, amplitude)


def synthesize_series(
    spectrum,
    dt: float,
    n_samples: int,
    omega_cut: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one realization of a Gaussian process with one-sided spectrum S,
    evaluated as ``spectrum`` on a 1-d array of lattice frequencies."""
    return np.fft.irfft(_synthesis(spectrum, dt, n_samples, omega_cut).draw(rng), n_samples)


def field_synthesis(field: str, params: SystemParams, grid: GridSpec) -> Synthesis:
    """The synthesis of the spectrum of the field of kind ``field`` on the grid."""
    return _synthesis(lambda w: field_spectrum(field, params, w),
                      grid.dt, grid.n_samples, grid.omega_cut)


def synthesize_field(
    field: str,
    params: SystemParams,
    grid: GridSpec,
    seed,
) -> FieldRealization:
    """One reduced-field realization eps(t) on the grid.

    ``seed`` may be an int or a SeedSequence; identical seeds give
    bit-identical samples regardless of scheduling.
    """
    samples = np.fft.irfft(field_synthesis(field, params, grid).draw(seed),
                           grid.n_samples)
    return FieldRealization(dt=grid.dt, samples=samples)


@dataclass(frozen=True)
class FieldPair:
    """Two independent realizations and their sum/difference modes."""

    eps1: FieldRealization
    eps2: FieldRealization
    eps_plus: FieldRealization
    eps_minus: FieldRealization


def synthesize_pair(
    field: str,
    params: SystemParams,
    grid: GridSpec,
    seed,
) -> FieldPair:
    """Independent pair (eps1, eps2) plus eps_pm = (eps1 +- eps2)/sqrt(2).

    The pm combinations are statistically independent of each other and
    carry the same target spectrum as each input.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    sub1, sub2 = ss.spawn(2)
    f1 = synthesize_field(field, params, grid, sub1)
    f2 = synthesize_field(field, params, grid, sub2)
    root2 = math.sqrt(2.0)
    return FieldPair(
        eps1=f1,
        eps2=f2,
        eps_plus=FieldRealization(grid.dt, (f1.samples + f2.samples) / root2),
        eps_minus=FieldRealization(grid.dt, (f1.samples - f2.samples) / root2),
    )

