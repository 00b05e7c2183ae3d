import pytest

from bdrates.errors import DataError, DomainError
from bdrates.types import Panel, Rates, Trajectory


def test_rates_properties():
    r = Rates(7.0, 5.0)
    assert r.omega == 2.0
    assert r.xi == 12.0


def test_rates_accepts_zero_edge():
    assert Rates(3.0, 0.0).mu == 0.0
    assert Rates(0.0, 3.0).lam == 0.0


@pytest.mark.parametrize(
    "lam,mu",
    [(-1.0, 2.0), (2.0, -1.0), (0.0, 0.0), (float("nan"), 1.0), (float("inf"), 1.0)],
)
def test_rates_rejects_bad_pairs(lam, mu):
    with pytest.raises(DomainError):
        Rates(lam, mu)


def test_trajectory_basic():
    tr = Trajectory((0.0, 1.0, 2.0), (3, 5, 2))
    assert len(tr) == 3
    assert tr.n_transitions == 2
    assert tr.gaps() == (1.0, 1.0)


def test_trajectory_absorption_allows_trailing_zeros():
    tr = Trajectory((0.0, 1.0, 2.0), (2, 0, 0))
    assert tr.counts == (2, 0, 0)


@pytest.mark.parametrize(
    "times,counts",
    [
        ((0.0,), (1,)),  # too short
        ((0.0, 1.0), (1, 2, 3)),  # length mismatch
        ((0.0, 0.0), (1, 2)),  # non-increasing times
        ((1.0, 0.5), (1, 2)),  # decreasing times
        ((0.0, 1.0), (1, -1)),  # negative count
        ((0.0, 1.0), (0, 1)),  # zero initial count
        ((0.0, 1.0, 2.0), (1, 0, 3)),  # resurrection after absorption
        ((0.0, 1.0), (1.5, 2)),  # non-integer count
        ((0.0, 1.0), (True, 2)),  # bool is not a count
        ((0.0, float("nan")), (1, 2)),  # non-finite time
    ],
)
def test_trajectory_rejects_bad_input(times, counts):
    with pytest.raises(DataError):
        Trajectory(times, counts)


def test_panel_aggregation():
    p = Panel(
        (
            Trajectory((0.0, 0.5, 1.0), (2, 3, 1)),
            Trajectory((0.0, 0.5), (4, 6)),
        )
    )
    assert len(p) == 2
    assert p.n_transitions == 3
    assert p.transitions.gap.tolist() == [0.5, 0.5, 0.5]
    assert p.equal_spacing()
    assert p.common_gap() == pytest.approx(0.5)


def test_panel_unequal_spacing():
    p = Panel((Trajectory((0.0, 0.5, 1.7), (2, 3, 1)),))
    assert not p.equal_spacing()
    with pytest.raises(DataError):
        p.common_gap()


def test_panel_rejects_empty_and_foreign():
    with pytest.raises(DataError):
        Panel(())
    with pytest.raises(DataError):
        Panel(([0.0, 1.0],))


# ---------------------------------------------------------------------------
# transitions table


def test_transitions_float_grid_is_one_group():
    # 0.1*(j+1) differences scatter over several float values
    times = (0.0,) + tuple(0.1 * (j + 1) for j in range(30))
    counts = tuple(range(10, 41))
    p = Panel((Trajectory(times, counts), Trajectory(times, counts[::-1])))
    assert len(set(p.transitions.gap.tolist())) > 1
    (grp,) = p.transitions.groups
    assert grp.tau == p.common_gap()
    assert grp.src.tolist() == list(counts[:-1]) + list(counts[::-1][:-1])
    assert grp.dst.tolist() == list(counts[1:]) + list(counts[::-1][1:])


def test_transitions_distinct_gaps_split_and_sort():
    p = Panel(
        (
            Trajectory((0.0, 0.2, 0.3, 0.5), (4, 5, 6, 7)),
            Trajectory((0.0, 0.1), (8, 9)),
        )
    )
    taus = [g.tau for g in p.transitions.groups]
    assert taus == pytest.approx([0.1, 0.2])
    short, long_ = p.transitions.groups
    assert short.src.tolist() == [5, 8] and short.dst.tolist() == [6, 9]
    assert long_.src.tolist() == [4, 6] and long_.dst.tolist() == [5, 7]


def test_transitions_keep_gaps_apart_beyond_tolerance():
    # 1e-6 relative apart is far outside the 1e-9 spacing tolerance
    p = Panel((Trajectory((0.0, 1.0, 2.0 + 1e-6), (3, 4, 5)),))
    assert len(p.transitions.groups) == 2
    # 1e-12 relative apart is inside it
    q = Panel((Trajectory((0.0, 1.0, 2.0 + 1e-12), (3, 4, 5)),))
    (grp,) = q.transitions.groups
    assert grp.tau == pytest.approx(1.0 + 0.5e-12, rel=1e-15)


def test_transitions_drop_absorbed_steps_and_are_cached():
    p = Panel((Trajectory((0.0, 1.0, 2.0, 3.0), (2, 1, 0, 0)),))
    table = p.transitions
    assert table is p.transitions
    (grp,) = table.groups
    assert grp.src.tolist() == [2, 1] and grp.dst.tolist() == [1, 0]
    with pytest.raises(ValueError):
        grp.src[0] = 5
