"""Regressor generation, surrogates, random streams, and the quantizer.

Each regressor entry is a sinusoid ``offset + sin_amp*sin(w t) + cos_amp*cos(w t)``
with coefficients sampled once per scenario from a seeded counter-based RNG
(Philox). Noise and packet-loss draws use independent seed-derived streams so
enabling one never perturbs another.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Stream tags appended to the scenario seed; one independent stream per purpose.
_STREAM_COEFFS = 0
_STREAM_NOISE = 1
_STREAM_LOSS = 2


def _philox(key: list[int]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def coefficient_stream(seed: int) -> np.random.Generator:
    return _philox([seed, _STREAM_COEFFS])


def noise_stream(seed: int, agent: int) -> np.random.Generator:
    return _philox([seed, _STREAM_NOISE, agent])


def loss_stream(seed: int) -> np.random.Generator:
    return _philox([seed, _STREAM_LOSS])


@dataclass(frozen=True)
class RegressorGenerator:
    """Per-agent time-varying regressor rows built from sinusoidal tables.

    Coefficient arrays are per-agent tuples of shape (p_i, n): ``offset`` is
    the constant part, ``sin_amp``/``cos_amp`` the sine/cosine amplitudes and
    ``freq`` the angular frequency of each entry.
    """

    n_params: int
    rows_per_agent: tuple[int, ...]
    offset: tuple[np.ndarray, ...]
    sin_amp: tuple[np.ndarray, ...]
    cos_amp: tuple[np.ndarray, ...]
    freq: tuple[np.ndarray, ...]
    seed: int | None = None

    @property
    def n_agents(self) -> int:
        return len(self.rows_per_agent)

    @cached_property
    def _batched(self):
        # (N, p_max, n) coefficient stacks; agents with fewer rows are padded
        # with zero rows, whose entries are exactly 0 at every t.
        p_max = max(self.rows_per_agent)

        def stack(tables):
            out = np.zeros((self.n_agents, p_max, self.n_params))
            for i, a in enumerate(tables):
                out[i, : a.shape[0]] = a
            return out

        return tuple(stack(t) for t in (self.offset, self.sin_amp, self.cos_amp, self.freq))

    @cached_property
    def real_rows(self) -> np.ndarray:
        """Flat indices of the real rows in the padded (N * p_max) row stack."""
        rows = np.asarray(self.rows_per_agent)
        return np.flatnonzero(np.arange(rows.max()) < rows[:, None])

    def evaluate(self, agent: int, t: float) -> np.ndarray:
        """Regressor C_i(t) of one agent, shape (p_i, n): the reference formula."""
        a, b, d, w = (
            self.offset[agent],
            self.sin_amp[agent],
            self.cos_amp[agent],
            self.freq[agent],
        )
        return a + b * np.sin(w * t) + d * np.cos(w * t)

    def evaluate_all(self, t) -> np.ndarray:
        """All agents' regressors at time t, shape (N, p_max, n), zero-padded.

        Zero rows change neither C^T C, C^T y nor any stacked gradient, so the
        padded stack serves every row layout. A 1-D array of times gives one
        such stack per time, shape (len(t), N, p_max, n).
        """
        a, b, d, w = self._batched
        wt = w * np.asarray(t)[..., None, None, None]
        return a + b * np.sin(wt) + d * np.cos(wt)

    def evaluate_all_dot(self, t) -> np.ndarray:
        """Analytic time derivative of evaluate_all, zero on the padding rows."""
        _, b, d, w = self._batched
        wt = w * np.asarray(t)[..., None, None, None]
        return w * (b * np.cos(wt) - d * np.sin(wt))

    def to_jsonable(self) -> dict:
        """Dump coefficient tables for exact reproducibility."""
        return {
            "n_params": self.n_params,
            "rows_per_agent": list(self.rows_per_agent),
            "offset": [a.tolist() for a in self.offset],
            "sin_amp": [a.tolist() for a in self.sin_amp],
            "cos_amp": [a.tolist() for a in self.cos_amp],
            "freq": [a.tolist() for a in self.freq],
            "seed": self.seed,
        }

    @classmethod
    def from_tables(cls, offset, sin_amp, cos_amp, freq, seed=None) -> "RegressorGenerator":
        """Build a generator from explicit per-agent coefficient tables."""
        off = tuple(np.asarray(a, dtype=float) for a in offset)
        samp = tuple(np.asarray(a, dtype=float) for a in sin_amp)
        camp = tuple(np.asarray(a, dtype=float) for a in cos_amp)
        frq = tuple(np.asarray(a, dtype=float) for a in freq)
        ref = [a.shape for a in off]
        for group in (samp, camp, frq):
            if len(group) != len(off) or [a.shape for a in group] != ref:
                raise ValueError("coeff_tables must give each agent one table shape for all four")
        n = off[0].shape[1]
        if any(a.shape[1] != n for a in off):
            raise ValueError("coeff_tables must give every agent n columns")
        return cls(
            n_params=n,
            rows_per_agent=tuple(a.shape[0] for a in off),
            offset=off,
            sin_amp=samp,
            cos_amp=camp,
            freq=frq,
            seed=seed,
        )


def sample_coefficients(
    n: int,
    n_agents: int,
    rows,
    coeff_range,
    freq_range,
    seed: int,
) -> RegressorGenerator:
    """Sample a RegressorGenerator with i.i.d. uniform coefficients.

    ``rows`` is either a single int (same p for every agent) or a sequence of
    per-agent row counts. Sampling order is fixed (per agent: offset, sine,
    cosine amplitudes, then frequencies) so the same seed always reproduces
    the same tables. Messages start with the scenario key they refuse; the
    dimensions and the finiteness of the ranges are load_config's checks.
    """
    if isinstance(rows, int):
        rows = [rows] * n_agents
    rows = [int(p) for p in rows]
    if len(rows) != n_agents or any(p < 1 for p in rows):
        raise ValueError(f"rows_per_agent must give a positive row count per agent, got {rows}")
    for key, (lo, hi) in (("coeff_range", coeff_range), ("freq_range", freq_range)):
        if hi < lo:
            raise ValueError(f"{key} must be [lo, hi] with lo <= hi, got [{lo}, {hi}]")

    rng = coefficient_stream(seed)
    tables = [[rng.uniform(lo, hi, size=(p, n))
               for lo, hi in (coeff_range, coeff_range, coeff_range, freq_range)]
              for p in rows]
    return RegressorGenerator.from_tables(*zip(*tables), seed=seed)


def surrogate_all(
    c_all: np.ndarray, y_all: np.ndarray, out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Batched surrogate construction: (...,N,p,n),(...,N,p) -> (...,N,n,n),(...,N,n).

    C^T C is formed once per regressor stack of c_all; the leading axes of
    y_all broadcast against c_all's, so one stack can serve several outputs.
    out, when given, is the pair of arrays to write them into.
    """
    cp_out, yp_out = (None, None) if out is None else out
    cp = np.einsum("...api,...apj->...aij", c_all, c_all, out=cp_out)
    yp = np.einsum("...api,...ap->...ai", c_all, y_all, out=yp_out)
    return cp, yp


def quantizer_steps(eps) -> np.ndarray:
    """The quantizer steps eps as quantize's buffered form reads them: a
    float array, 0-d for one step (numpy's loops take a 0-d operand
    fastest). Refuses a negative step. A caller that quantizes many times
    at the same steps checks them here once."""
    steps = np.asarray(eps, dtype=float)
    if not (steps >= 0).all():
        raise ValueError("quantization step must be nonnegative")
    return steps.reshape(()) if steps.size == 1 else steps


def quantize(value, eps, out=None):
    """Floor quantizer Q(s) = eps*floor(s/eps), applied element-wise.

    eps is one step, or an array of steps that broadcasts into value's
    shape: a step column (E, 1, 1) quantizes each member's rows of an
    (E, N, w) value at its own step. A step of 0 means identity (exact
    communication). The error is one-sided: 0 <= s - Q(s) < eps.

    out, when given, is the array of value's shape that Q(value) is
    written into and returned, and eps must be quantizer_steps' array: the
    buffered form checks neither, so a caller checks its steps once, not
    at every call.
    """
    if out is None:
        steps = quantizer_steps(eps)
        value = np.asarray(value, dtype=float)
        out = np.empty_like(value)
    else:
        steps = eps
    if not min(steps.flat) > 0:  # builtin min: cheaper than a reduction over a few steps
        exact = steps == 0  # rows at step 0 pass unquantized
        if not exact.all():
            quantize(value, np.where(exact, 1.0, steps), out=out)
        np.copyto(out, value, where=exact)
        return out
    np.divide(value, steps, out=out)
    np.floor(out, out=out)
    out *= steps
    return out
