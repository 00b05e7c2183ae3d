"""Core domain types: rate pairs and discretely observed count paths.

All estimators in this package consume a :class:`Panel`, a collection of
independently observed trajectories of the same population process. Types
validate eagerly so numerical code can assume well-formed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, DomainError

__all__ = ["Rates", "Trajectory", "GapGroup", "Transitions", "Panel"]

# Relative tolerance within which two inter-observation gaps count as equal.
SPACING_TOL = 1e-9


@dataclass(frozen=True)
class Rates:
    """Per-individual birth and death rates of the population process.

    Both rates are nonnegative and at least one is positive; a frozen
    process (both zero) is rejected.
    """

    lam: float
    mu: float

    def __post_init__(self):
        lam, mu = float(self.lam), float(self.mu)
        if not (math.isfinite(lam) and math.isfinite(mu)):
            raise DomainError(f"rates must be finite, got lam={self.lam}, mu={self.mu}")
        if lam < 0.0 or mu < 0.0:
            raise DomainError(f"rates must be nonnegative, got lam={lam}, mu={mu}")
        if lam + mu <= 0.0:
            raise DomainError("degenerate process: lam + mu must be positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def omega(self) -> float:
        """Net growth rate, birth minus death."""
        return self.lam - self.mu

    @property
    def xi(self) -> float:
        """Total event rate per individual, birth plus death."""
        return self.lam + self.mu


@dataclass(frozen=True)
class Trajectory:
    """One population path observed at finitely many time points.

    Invariants: at least two observations, strictly increasing times,
    nonnegative integer counts, a positive initial count, and absorption
    at zero (a zero count is never followed by a positive one).
    """

    times: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        counts = tuple(self.counts)
        if len(times) != len(counts):
            raise DataError(
                f"times and counts must have equal length, got {len(times)} and {len(counts)}"
            )
        if len(times) < 2:
            raise DataError("a trajectory needs at least two observations")
        for t in times:
            if not math.isfinite(t):
                raise DataError(f"non-finite observation time {t}")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise DataError(f"observation times must strictly increase ({a} then {b})")
        for k in counts:
            if not isinstance(k, (int,)) or isinstance(k, bool):
                raise DataError(f"counts must be integers, got {k!r}")
            if k < 0:
                raise DataError(f"counts must be nonnegative, got {k}")
        if counts[0] < 1:
            raise DataError("initial count must be positive")
        for prev, cur in zip(counts, counts[1:]):
            if prev == 0 and cur > 0:
                raise DataError("zero is absorbing: a zero count cannot be followed by a positive one")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_transitions(self) -> int:
        return len(self.times) - 1

    def gaps(self) -> tuple[float, ...]:
        """Inter-observation time gaps, all positive by construction."""
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GapGroup:
    """The transitions of a panel that share one inter-observation gap.

    tau is the mean of the members' gaps; src and dst are the counts at
    the start and end of each member, in panel order (read-only int64).
    """

    tau: float
    src: np.ndarray
    dst: np.ndarray


@dataclass(frozen=True, eq=False)
class Transitions:
    """Every transition of a panel out of a positive count, grouped by gap.

    Steps out of 0 are absorbed and carry no information, so they are
    dropped. Gaps that agree to SPACING_TOL relative (the default of
    Panel.equal_spacing) form one group, so a float grid such as
    0.1*(j+1), whose differences scatter in the last bits, gives a single
    group. Groups are ordered by increasing gap. Every estimator reads
    the panel through this table: the moments, the quasi-likelihood, the
    starting point of the searches and the transition likelihoods.

    _saddlepoints holds the last finished sweep of saddlepoint.spa_loglik
    whose total is finite, as {(rates, conditional): each group's law,
    lanes and saddlepoints}, for spa_derivatives to read at equal rates
    and the same variant. A plain group's saddlepoints are its x; a
    conditional group's are the terms of its solve's last pass in s =
    log u, from which its derivatives are formed. Only spa_loglik writes
    it; spa_derivatives runs spa_loglik where the slot misses, so a cold
    derivatives call leaves a sweep there too.
    """

    groups: tuple[GapGroup, ...]
    _saddlepoints: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def term_table(self):
        """The rate-free coefficients of the exact likelihood (an
        exact.TermTable), built on the first exact evaluation only (the
        other estimators never pay for them) and kept for the table's
        lifetime."""
        from .exact import term_table

        return term_table(self.groups)

    def pooled_growth(self) -> tuple[float, float]:
        """(omega, tau_bar): the growth rate log(sum dst / sum src) / tau_bar
        of the pooled one-step ratio, with tau_bar the mean gap. On total
        extinction (sum dst == 0) half an individual stands in for the
        targets, so the guess stays finite and negative."""
        n = sum(len(grp.src) for grp in self.groups)
        # weighting by n_g/n, not summing n_g*tau, returns a lone group's
        # tau bit for bit
        tau_bar = sum(grp.tau * (len(grp.src) / n) for grp in self.groups)
        num = sum(sum(grp.dst.tolist()) for grp in self.groups)
        den = sum(sum(grp.src.tolist()) for grp in self.groups)
        if num > 0:
            return math.log(num / den) / tau_bar, tau_bar
        return math.log(0.5 / den) / tau_bar, tau_bar

    @classmethod
    def from_panel(cls, panel: Panel) -> Transitions:
        steps = [
            (b - a, k0, k1)
            for tr in panel
            for a, b, k0, k1 in zip(tr.times, tr.times[1:], tr.counts, tr.counts[1:])
            if k0 > 0
        ]
        order = sorted(range(len(steps)), key=lambda i: steps[i][0])
        runs: list[list[int]] = []
        lo = 0.0
        for i in order:
            gap = steps[i][0]
            # same test as Panel.equal_spacing, against the run's smallest gap
            if runs and gap - lo <= SPACING_TOL * 0.5 * (lo + gap):
                runs[-1].append(i)
            else:
                runs.append([i])
                lo = gap
        groups = []
        for run in runs:
            members = [steps[i] for i in sorted(run)]
            groups.append(
                GapGroup(
                    tau=sum(m[0] for m in members) / len(members),
                    src=_frozen([m[1] for m in members]),
                    dst=_frozen([m[2] for m in members]),
                )
            )
        return cls(tuple(groups))


@dataclass(frozen=True)
class Panel:
    """A nonempty collection of independent trajectories.

    Every estimator reads the panel through its transitions table, which
    is built on first use and kept for the panel's lifetime, so the many
    evaluations of one fit, and the fits of one battery, share it.
    """

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if len(trajs) < 1:
            raise DataError("a panel needs at least one trajectory")
        for tr in trajs:
            if not isinstance(tr, Trajectory):
                raise DataError(f"panel entries must be Trajectory, got {type(tr).__name__}")
        object.__setattr__(self, "trajectories", trajs)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    def __getitem__(self, index):
        return self.trajectories[index]

    @property
    def n_transitions(self) -> int:
        return sum(tr.n_transitions for tr in self.trajectories)

    @cached_property
    def transitions(self) -> Transitions:
        """The panel's live transitions grouped by gap (built once)."""
        return Transitions.from_panel(self)

    def all_gaps(self) -> list[float]:
        out: list[float] = []
        for tr in self.trajectories:
            out.extend(tr.gaps())
        return out

    def equal_spacing(self, tolerance: float = SPACING_TOL) -> bool:
        """Whether all gaps, within and across trajectories, agree to the
        given relative tolerance."""
        return _gaps_agree(self.all_gaps(), tolerance)

    def common_gap(self, tolerance: float = SPACING_TOL) -> float:
        """The shared inter-observation gap (the mean gap); raises if
        spacing is unequal. Walks the gaps once."""
        gaps = self.all_gaps()
        if not _gaps_agree(gaps, tolerance):
            raise DataError(
                f"panel is not equally spaced: gaps range [{min(gaps)}, {max(gaps)}]"
            )
        return sum(gaps) / len(gaps)


def _gaps_agree(gaps: list[float], tolerance: float) -> bool:
    lo, hi = min(gaps), max(gaps)
    mid = 0.5 * (lo + hi)
    return (hi - lo) <= tolerance * mid
