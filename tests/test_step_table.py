"""The panel's step table is built from flat arrays, and the spacing
tests, the moments, the pooled growth guess, the trajectory checks and
the simulator's gap laws read arrays or whole tuples; these tests hold
each to the Python walk it replaced, kept in legacy_kernels, bit for bit.
"""

import math

import legacy_kernels as legacy
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdrates.errors import DataError
from bdrates.gw import gw_moments
from bdrates.simulate import SimConfig, _gap_laws
from bdrates.types import SPACING_TOL, Panel, Rates, Trajectory

# gaps are drawn as base * (1 + rel): the small rel values chain across
# SPACING_TOL (3e-10, 6e-10 and 9e-10 join a run started at 0, 1.2e-9
# starts the next, which 2e-9 joins), the large ones split the groups
BASES = (0.1, 0.25, 0.3, 1.0)
RELS = (0.0, 3e-10, -3e-10, 6e-10, 9e-10, 1.2e-9, 2e-9, 1e-6, 0.5)


@st.composite
def trajectories(draw, dt=None):
    """One trajectory: on the float grid dt*(j+1), or with gaps drawn
    from BASES and RELS; its counts may die out and stay at 0."""
    n = draw(st.integers(1, 9))
    if dt is None:
        gaps = [b * (1.0 + r) for b, r in draw(
            st.lists(st.tuples(st.sampled_from(BASES), st.sampled_from(RELS)),
                     min_size=n, max_size=n)
        )]
        times = [0.0]
        for g in gaps:
            times.append(times[-1] + g)
    else:
        times = [0.0] + [dt * (j + 1) for j in range(n)]
    top = draw(st.sampled_from((3, 60, 10**6, 10**12)))
    counts = [draw(st.integers(1, top))]
    for _ in range(n):
        dies = draw(st.integers(0, 3)) == 0
        counts.append(0 if counts[-1] == 0 or dies else draw(st.integers(1, top)))
    return Trajectory(tuple(times), tuple(counts))


@st.composite
def panels(draw):
    """A panel of 1-4 trajectories, on one shared float grid (equally
    spaced) or on drawn gaps."""
    dt = draw(st.sampled_from((None, None, 0.1, 0.2, 0.25)))
    m = draw(st.integers(1, 4))
    return Panel(tuple(draw(trajectories(dt)) for _ in range(m)))


def _bits(x: float) -> str:
    return float(x).hex()


def _same_moments(got, ref) -> bool:
    return (
        [_bits(v) for v in (got.m_hat, got.sigma2_hat, got.delta_t)]
        == [_bits(v) for v in (ref.m_hat, ref.sigma2_hat, ref.delta_t)]
        and (got.n_terms, got.m_traj) == (ref.n_terms, ref.m_traj)
    )


@settings(max_examples=400, deadline=None)
@given(panels())
def test_table_groups_equal_the_step_walk(panel):
    got = panel.transitions.groups
    ref = legacy.transitions_walk(panel)
    assert [_bits(grp.tau) for grp in got] == [_bits(tau) for tau, _, _ in ref]
    for grp, (_, src, dst) in zip(got, ref):
        assert grp.src.dtype == np.int64 and grp.dst.dtype == np.int64
        assert grp.src.tolist() == src.tolist()
        assert grp.dst.tolist() == dst.tolist()
        assert grp.src_sum == sum(src.tolist())


@settings(max_examples=400, deadline=None)
@given(panels())
def test_spacing_moments_and_pooled_growth_equal_the_walks(panel):
    table = panel.transitions
    assert [_bits(g) for g in table.gap.tolist()] == [
        _bits(g) for g in legacy.all_gaps_walk(panel)
    ]
    assert [_bits(v) for v in table.pooled_growth()] == [
        _bits(v) for v in legacy.pooled_growth_walk(panel)
    ]
    for tol in (SPACING_TOL, 1e-3, 0.6):
        assert panel.equal_spacing(tol) == legacy.equal_spacing_walk(panel, tol)
    if legacy.equal_spacing_walk(panel):
        assert _bits(panel.common_gap()) == _bits(legacy.common_gap_walk(panel))
        assert _same_moments(gw_moments(panel), legacy.gw_moments_group_walk(panel))
    else:
        with pytest.raises(DataError) as got:
            panel.common_gap()
        with pytest.raises(DataError) as ref:
            legacy.common_gap_walk(panel)
        assert str(got.value) == str(ref.value)
        with pytest.raises(DataError, match="embedded-process estimator does not apply"):
            gw_moments(panel)


@pytest.mark.parametrize("dt", [0.1, 0.2, 0.25, 0.3, 1.0 / 3.0])
def test_moments_on_float_grids_equal_the_walk(dt):
    # long grids of many trajectories: sums of hundreds of terms, whose
    # order and rounding the moments must keep
    rng = np.random.default_rng(int(dt * 1000))
    times = (0.0,) + tuple(dt * (j + 1) for j in range(40))
    trajs = []
    for _ in range(25):
        counts = [int(rng.integers(1, 50))]
        for _ in range(40):
            counts.append(int(rng.poisson(1.15 * counts[-1])) if counts[-1] else 0)
        trajs.append(Trajectory(times, tuple(counts)))
    panel = Panel(tuple(trajs))
    assert len(panel.transitions.groups) == 1
    assert _same_moments(gw_moments(panel), legacy.gw_moments_group_walk(panel))
    assert _bits(panel.common_gap()) == _bits(legacy.common_gap_walk(panel))


def test_moments_square_with_pythons_float_power():
    # on these two steps x ** 2 and x * x differ in the last bit for one
    # term, and so does their sum: the moments must take the walk's **
    src, dst = (20, 3), (16, 28)
    panel = Panel(tuple(Trajectory((0.0, 1.0), (a, k)) for a, k in zip(src, dst)))
    m_hat = sum(dst) / sum(src)
    by_product = sum(a * ((k / a - m_hat) * (k / a - m_hat)) for a, k in zip(src, dst)) / 2
    ref = legacy.gw_moments_group_walk(panel)
    assert ref.sigma2_hat != by_product
    assert _same_moments(gw_moments(panel), ref)


def test_step_table_holds_every_step_and_the_sums():
    panel = Panel(
        (
            Trajectory((0.0, 0.5, 1.0, 1.5), (3, 1, 0, 0)),
            Trajectory((0.0, 0.25, 1.25), (7, 9, 12)),
        )
    )
    table = panel.transitions
    assert table.gap.tolist() == [0.5, 0.5, 0.5, 0.25, 1.0]
    assert table.src.tolist() == [3, 1, 0, 7, 9]
    assert table.dst.tolist() == [1, 0, 0, 9, 12]
    assert (table.gap_lo, table.gap_hi) == (0.25, 1.0)
    assert (table.src_total, table.dst_total) == (20, 22)
    assert (table.count_max, table.n_traj) == (12, 2)
    assert [grp.tau for grp in table.groups] == [0.25, 0.5, 1.0]
    for arr in (table.gap, table.src, table.dst, *(g.src for g in table.groups)):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_counts_whose_sums_leave_int64_are_refused():
    big = 2**61
    table = Panel((Trajectory((0.0, 1.0, 2.0), (big, big + 1, big + 2)),)).transitions
    assert (table.src_total, table.dst_total) == (2 * big + 1, 2 * big + 3)
    with pytest.raises(DataError, match="sum past the 64-bit range"):
        Panel((Trajectory((0.0, 1.0, 2.0), (2**62, 2**62, 2**62)),)).transitions
    with pytest.raises(DataError, match="below 2\\*\\*63"):
        Panel((Trajectory((0.0, 1.0), (2**63, 1)),)).transitions


@pytest.mark.parametrize(
    "times",
    [
        tuple(0.1 * (j + 1) for j in range(30)),
        tuple(0.2 * (j + 1) for j in range(14)),
        (0.188, 0.3, 0.357, 0.595, 0.767, 0.944, 1.5, 1.5 + 0.188),
    ],
)
def test_gap_laws_equal_the_walk(times):
    config = SimConfig(Rates(7.0, 5.0), 10, times)
    got, ref = _gap_laws(config), legacy.gap_laws_walk(config)
    assert [[_bits(v) for v in law] for law in got] == [[_bits(v) for v in law] for law in ref]


# ---------------------------------------------------------------------------
# trajectory checks


class _Count(int):
    pass


@pytest.mark.parametrize(
    "times,counts,message",
    [
        ((0.0, 1.0), (1, 2, 3), "times and counts must have equal length, got 2 and 3"),
        ((0.0,), (1,), "a trajectory needs at least two observations"),
        ((0.0, float("nan"), float("inf")), (1, 2, 3), "non-finite observation time nan"),
        ((0.0, 1.0, float("-inf")), (1, 2, 3), "non-finite observation time -inf"),
        ((0.0, 1.0, 1.0, 0.5), (1, 2, 3, 4), r"observation times must strictly increase \(1.0 then 1.0\)"),
        ((1.0, 0.5), (1, 2), r"observation times must strictly increase \(1.0 then 0.5\)"),
        ((0.0, 1.0, 2.0), (1, 2.5, -1), "counts must be integers, got 2.5"),
        ((0.0, 1.0, 2.0), (1, -1, 2.5), "counts must be nonnegative, got -1"),
        ((0.0, 1.0), (True, 2), "counts must be integers, got True"),
        ((0.0, 1.0), (1, np.int64(2)), r"counts must be integers, got np.int64\(2\)"),
        ((0.0, 1.0), (0, 1), "initial count must be positive"),
        ((0.0, 1.0, 2.0, 3.0), (2, 0, 0, 3), "zero is absorbing: a zero count cannot be followed by a positive one"),
    ],
)
def test_trajectory_messages(times, counts, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        Trajectory(times, counts)


def test_trajectory_keeps_floats_and_int_subclasses():
    tr = Trajectory((0, "1.5", np.float64(2.0)), (_Count(3), 2, 0))
    assert tr.times == (0.0, 1.5, 2.0)
    assert all(type(t) is float for t in tr.times)
    assert tr.counts == (3, 2, 0)


_ELEMENTS_T = st.sampled_from((0.0, 0.5, 1.0, 1.0, 2.0, -1.0, float("nan"), float("inf")))
_ELEMENTS_K = st.sampled_from((0, 0, 1, 2, 5, -1, 2.0, True, False, np.int64(3)))


@settings(max_examples=400, deadline=None)
@given(st.lists(_ELEMENTS_T, max_size=5), st.lists(_ELEMENTS_K, max_size=5), st.booleans())
def test_trajectory_checks_equal_the_walk(times, counts, sort):
    if sort:
        times = sorted(t for t in times if not math.isnan(t))
        counts = counts[: len(times)]
    try:
        ref = legacy.validate_trajectory_walk(times, counts)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            Trajectory(tuple(times), tuple(counts))
        assert str(got.value) == str(exc)
    else:
        tr = Trajectory(tuple(times), tuple(counts))
        assert (tr.times, tr.counts) == ref
