"""Per-user packet arrival-rate laws and slot-indexed Bernoulli streams."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DETERMINISTIC = "deterministic"
UNIFORM = "uniform"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class ArrivalRateDistribution:
    """Law of the per-user arrival rate.

    Three kinds are supported: a point mass, uniform on (0, b), and
    exponential parameterized by its mean.  The exponential law has support
    above 1 even though a rate is used as a per-slot probability; analytic
    formulas use the untruncated law, and simulation clamps draws to [0, 1]
    while reporting how often it did so.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == DETERMINISTIC:
            if not (math.isfinite(self.param) and self.param >= 0.0):
                raise ValueError("deterministic rate must be finite and >= 0")
        elif self.kind in (UNIFORM, EXPONENTIAL):
            if not (math.isfinite(self.param) and self.param > 0):
                raise ValueError(f"{self.kind} parameter must be positive")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def deterministic(cls, rate: float) -> "ArrivalRateDistribution":
        return cls(DETERMINISTIC, float(rate))

    @classmethod
    def uniform(cls, upper: float) -> "ArrivalRateDistribution":
        return cls(UNIFORM, float(upper))

    @classmethod
    def exponential(cls, mean: float) -> "ArrivalRateDistribution":
        return cls(EXPONENTIAL, float(mean))

    def cdf(self, x):
        """Exact CDF of the law (untruncated)."""
        x = np.asarray(x, dtype=float)
        if self.kind == DETERMINISTIC:
            out = (x >= self.param).astype(float)
        elif self.kind == UNIFORM:
            out = np.clip(x / self.param, 0.0, 1.0)
        else:
            out = np.where(x < 0, 0.0, 1.0 - np.exp(-np.maximum(x, 0.0) / self.param))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        if self.kind == DETERMINISTIC:
            return self.param
        if self.kind == UNIFORM:
            return 0.5 * self.param
        return self.param

    def sample(self, rng: np.random.Generator, size=None):
        """Raw draws from the law (no clamping)."""
        if self.kind == DETERMINISTIC:
            return self.param if size is None else np.full(size, self.param)
        if self.kind == UNIFORM:
            return self.param * rng.random(size)
        return rng.exponential(self.param, size)

    @classmethod
    def parse(cls, spec: str) -> "ArrivalRateDistribution":
        """Parse `det:x`, `unif:0:b`, or `exp-mean:m`."""
        parts = spec.strip().split(":")
        try:
            if parts[0] == "det" and len(parts) == 2:
                return cls.deterministic(float(parts[1]))
            if parts[0] == "unif" and len(parts) == 3:
                if float(parts[1]) != 0.0:
                    raise ValueError("uniform law is anchored at 0")
                return cls.uniform(float(parts[2]))
            if parts[0] == "exp-mean" and len(parts) == 2:
                return cls.exponential(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad distribution spec {spec!r}: {exc}") from None
        raise ValueError(
            f"bad distribution spec {spec!r}; expected det:x, unif:0:b, or exp-mean:m"
        )

    def spec_string(self) -> str:
        if self.kind == DETERMINISTIC:
            return f"det:{self.param:g}"
        if self.kind == UNIFORM:
            return f"unif:0:{self.param:g}"
        return f"exp-mean:{self.param:g}"


def _slot_uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform(0,1) value for each slot in [start, stop), random-access.

    Slot t reads the first double of counter block t of a keyed Philox
    stream, so single-slot lookups and batched ranges agree bit for bit.
    """
    if start < 0 or stop < start:
        raise ValueError("need 0 <= start <= stop")
    n = stop - start
    if n == 0:
        return np.empty(0)
    gen = np.random.Generator(np.random.Philox(key=seed, counter=start))
    return gen.random(4 * n)[::4]


@dataclass(frozen=True)
class ArrivalStream:
    """Slot-indexed Bernoulli arrival process."""

    rate: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must lie in [0, 1]")

    def next_arrival(self, slot: int) -> bool:
        """Whether a packet arrives in the given slot; pure in (seed, slot)."""
        if slot < 0:
            raise ValueError("slot must be >= 0")
        return bool(_slot_uniforms(self.seed, slot, slot + 1)[0] < self.rate)

    def arrivals(self, start: int, stop: int) -> np.ndarray:
        """Vectorized arrival indicators for slots [start, stop)."""
        return _slot_uniforms(self.seed, start, stop) < self.rate
