"""Core domain types: rate pairs and discretely observed count paths.

All estimators in this package consume a :class:`Panel`, a collection of
independently observed trajectories of the same population process. Types
validate eagerly so numerical code can assume well-formed input. A panel
lays its steps out once, in flat arrays, as its transitions table
(:class:`Transitions`), and every estimator reads the panel through it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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
        times = tuple(map(float, self.times))
        counts = tuple(self.counts)
        if len(times) != len(counts):
            raise DataError(
                f"times and counts must have equal length, got {len(times)} and {len(counts)}"
            )
        if len(times) < 2:
            raise DataError("a trajectory needs at least two observations")
        # each check runs over the whole tuple at C speed; only a failing
        # one walks the elements, to name the first offender
        if not all(map(math.isfinite, times)):
            for t in times:
                if not math.isfinite(t):
                    raise DataError(f"non-finite observation time {t}")
        if not all(map(operator.lt, times, times[1:])):
            for a, b in zip(times, times[1:]):
                if not b > a:
                    raise DataError(f"observation times must strictly increase ({a} then {b})")
        if set(map(type, counts)) != {int} or min(counts) < 0:
            for k in counts:
                if not isinstance(k, (int,)) or isinstance(k, bool):
                    raise DataError(f"counts must be integers, got {k!r}")
                if k < 0:
                    raise DataError(f"counts must be nonnegative, got {k}")
        if counts[0] < 1:
            raise DataError("initial count must be positive")
        if 0 in counts and any(counts[counts.index(0):]):
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GapGroup:
    """The transitions of a panel that share one inter-observation gap.

    tau is the mean of the members' gaps; src and dst are the counts at
    the start and end of each member, in panel order (read-only int64),
    and src_sum is the sum of src.
    """

    tau: float
    src: np.ndarray
    dst: np.ndarray
    src_sum: int


@dataclass(frozen=True, eq=False)
class Transitions:
    """A panel's step table, built once from flat arrays.

    gap, src and dst hold every step of every trajectory, steps out of 0
    included, in panel order (read-only float64, int64, int64). Beside
    them sit what the rate-free statistics read: the gap range
    (gap_lo, gap_hi) that the spacing tests compare, the sums of the
    source and target counts (src_total, dst_total; steps out of 0 add
    nothing to either), the largest count and the number of trajectories.

    groups are the transitions out of a positive count, grouped by gap.
    Steps out of 0 are absorbed and carry no information, so they are
    dropped. Gaps that agree to SPACING_TOL relative (the default of
    Panel.equal_spacing) form one group, so a float grid such as
    0.1*(j+1), whose differences scatter in the last bits, gives a single
    group. Groups are ordered by increasing gap. Every estimator reads
    the panel through this table: the moments, the quasi-likelihood, the
    starting point of the searches and the transition likelihoods.

    Beside the table sit what the likelihoods read of it, each formed on
    first use and kept for the table's lifetime: the exact likelihood's
    term table (term_table), the moments (gw_moments), and each
    saddlepoint variant's lane table (spa_lanes): per gap group, the
    lanes split into exact and saddlepoint ones, the sums of the
    saddlepoint lanes' k and a, and the rate-free lane arrays (a/k,
    sqrt(a/k), 1 - a/k, k^2, k^3, log k, log a) that the solve, the
    scoring and the derivatives read at every evaluation.

    _saddlepoints holds the last finished sweep of saddlepoint.spa_loglik
    whose total is finite, as {(rates, conditional): each group's law
    and saddlepoints}, for spa_derivatives to read at equal rates and the
    same variant. A plain group's saddlepoints are its x; a conditional
    group's are the terms of its solve's last pass in s = log u, from
    which its derivatives are formed. Only spa_loglik writes it;
    spa_derivatives runs spa_loglik where the slot misses, so a cold
    derivatives call leaves a sweep there too.
    """

    gap: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    groups: tuple[GapGroup, ...]
    gap_lo: float
    gap_hi: float
    src_total: int
    dst_total: int
    count_max: int
    n_traj: int
    _saddlepoints: dict = field(default_factory=dict, init=False, repr=False)
    _spa_lanes: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def term_table(self):
        """The rate-free coefficients of the exact likelihood (an
        exact.TermTable), built on the first exact evaluation only (the
        other estimators never pay for them) and kept for the table's
        lifetime."""
        from .exact import term_table

        return term_table(self.groups)

    @cached_property
    def gw_moments(self):
        """The embedded-process moments (a gw.GwMoments), formed on first
        use and kept for the table's lifetime: the moment fit and the
        start of every likelihood search read the same ones. Raises
        DataError, and keeps nothing, where the gaps are unequal."""
        from .gw import _moments

        return _moments(self)

    def spa_lanes(self, conditional: bool) -> tuple:
        """The saddlepoint variant's lane table (a saddlepoint.lane_table:
        per gap group, the exact lanes' coefficients and the saddlepoint
        lanes), split on the variant's first evaluation and kept for the
        table's lifetime."""
        lanes = self._spa_lanes.get(conditional)
        if lanes is None:
            from .saddlepoint import lane_table

            lanes = self._spa_lanes[conditional] = lane_table(self.groups, conditional)
        return lanes

    def equal_spacing(self, tolerance: float = SPACING_TOL) -> bool:
        """Whether all gaps, steps out of 0 included, agree to the given
        relative tolerance."""
        lo, hi = self.gap_lo, self.gap_hi
        return (hi - lo) <= tolerance * (0.5 * (lo + hi))

    def common_gap(self, tolerance: float = SPACING_TOL) -> float:
        """The shared gap (the mean gap, summed left to right in panel
        order); raises DataError if spacing is unequal."""
        if not self.equal_spacing(tolerance):
            raise DataError(
                f"panel is not equally spaced: gaps range [{self.gap_lo}, {self.gap_hi}]"
            )
        return float(self.gap.cumsum()[-1]) / len(self.gap)

    def pooled_growth(self) -> tuple[float, float]:
        """(omega, tau_bar): the growth rate log(sum dst / sum src) / tau_bar
        of the pooled one-step ratio, with tau_bar the mean gap. On total
        extinction (sum dst == 0) half an individual stands in for the
        targets, so the guess stays finite and negative."""
        n = sum(len(grp.src) for grp in self.groups)
        # weighting by n_g/n, not summing n_g*tau, returns a lone group's
        # tau bit for bit
        tau_bar = sum(grp.tau * (len(grp.src) / n) for grp in self.groups)
        num, den = self.dst_total, self.src_total
        if num > 0:
            return math.log(num / den) / tau_bar, tau_bar
        return math.log(0.5 / den) / tau_bar, tau_bar

    @classmethod
    def from_panel(cls, panel: Panel) -> Transitions:
        trajs = panel.trajectories
        times = np.array(list(chain.from_iterable(tr.times for tr in trajs)))
        try:
            counts = np.array(list(chain.from_iterable(tr.counts for tr in trajs)), dtype=np.int64)
        except OverflowError:
            raise DataError("counts must be below 2**63") from None
        gap, src, dst = times[1:] - times[:-1], counts[:-1], counts[1:]
        if len(trajs) > 1:
            # drop the pairs that join one trajectory's last count to the
            # next one's first
            keep = np.ones(len(gap), dtype=bool)
            keep[np.cumsum([len(tr.counts) for tr in trajs[:-1]]) - 1] = False
            gap, src, dst = gap[keep], src[keep], dst[keep]
        count_max = int(counts.max())
        if count_max * len(src) >= 2**63:
            # the int64 sums of the counts below could wrap
            raise DataError(f"counts up to {count_max} sum past the 64-bit range")
        gap_lo = gap.min()
        if src.all():
            live_gap, live_src, live_dst, live_lo = gap, src, dst, gap_lo
        else:
            live = src > 0
            live_gap, live_src, live_dst = gap[live], src[live], dst[live]
            live_lo = live_gap.min()
        perm, stops = _gap_runs(live_gap, live_lo)
        if perm is not None:
            live_gap, live_src, live_dst = live_gap[perm], live_src[perm], live_dst[perm]
        groups = []
        start = 0
        for stop in stops:
            members = live_src[start:stop]
            groups.append(
                GapGroup(
                    # the gaps left to right, as a loop over the steps adds them
                    tau=float(live_gap[start:stop].cumsum()[-1]) / (stop - start),
                    src=_frozen(members),
                    dst=_frozen(live_dst[start:stop]),
                    src_sum=int(members.sum()),
                )
            )
            start = stop
        return cls(
            _frozen(gap),
            _frozen(src),
            _frozen(dst),
            tuple(groups),
            gap_lo=float(gap_lo),
            gap_hi=float(gap.max()),
            src_total=sum(grp.src_sum for grp in groups),
            dst_total=int(dst.sum()),
            count_max=count_max,
            n_traj=len(trajs),
        )


def _gap_runs(gap: np.ndarray, lo: float) -> tuple[np.ndarray | None, list[int]]:
    """The gap groups of gap, whose smallest value is lo: a permutation
    that puts each group's members together, groups by increasing gap
    and members in panel order (None where one group holds them all),
    and the end of each group in it.

    Walking the gaps in increasing order (stable, so ties keep panel
    order), a gap joins the current run while it agrees with the run's
    smallest gap to SPACING_TOL relative, as Panel.equal_spacing tests a
    gap range; the first that does not starts the next run. Each run's
    test is one vectorized pass over the gaps left, cut at its first
    failure, so the chain is the sequential walk's. Where every gap
    agrees with the smallest there is one run, taken without a sort."""
    if (gap - lo <= SPACING_TOL * 0.5 * (lo + gap)).all():
        return None, [len(gap)]
    order = np.argsort(gap, kind="stable")
    sorted_gap = gap[order]
    stops = []
    start = 0
    while start < len(order):
        lo = sorted_gap[start]
        rest = sorted_gap[start:]
        agree = rest - lo <= SPACING_TOL * 0.5 * (lo + rest)
        # agree[0] holds, so argmin is 0 only when every gap left agrees
        start += int(agree.argmin()) or len(agree)
        stops.append(start)
    # each step's run, then the steps ordered by run, stably
    run = np.empty(len(order), dtype=np.intp)
    run[order] = np.repeat(np.arange(len(stops)), np.diff(stops, prepend=0))
    return np.argsort(run, kind="stable"), stops


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
        """The panel's step table and gap groups (built once)."""
        return Transitions.from_panel(self)

    def equal_spacing(self, tolerance: float = SPACING_TOL) -> bool:
        """Whether all gaps, within and across trajectories, agree to the
        given relative tolerance."""
        return self.transitions.equal_spacing(tolerance)

    def common_gap(self, tolerance: float = SPACING_TOL) -> float:
        """The shared inter-observation gap (the mean gap); raises if
        spacing is unequal."""
        return self.transitions.common_gap(tolerance)
