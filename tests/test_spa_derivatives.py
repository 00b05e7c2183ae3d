"""Score and observed information of the saddlepoint log likelihoods
(spa_derivatives) against independent references: mpmath derivatives of
the oracle saddlepoint pmf, central differences of spa_loglik, and
central differences of the analytic score. Then the contract the fits
keep with spa_loglik, and the saddlepoints spa_derivatives reads from
the last spa_loglik sweep."""

import math

import legacy_kernels as legacy
import mpmath as mp
import numpy as np
import pytest
import test_exact_table
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import mp_alpha_beta, mp_log_cond_spa_pmf, mp_log_spa_pmf
from test_newton_search import small_panels

import bdrates.estimate
import bdrates.saddlepoint
from bdrates.errors import BdError, DomainError, SolverError
from bdrates.estimate import fit
from bdrates.exact import geom_params
from bdrates.saddlepoint import (
    _cond_log_spa,
    _cond_psi,
    _log_radius,
    _plain_psi,
    _solve_x,
    spa_derivatives,
    spa_loglik,
)
from bdrates.types import Panel, Rates, Trajectory

# three gap groups (0.3, 0.5, 0.7); k = 0 lanes (1 -> 0), k = 1 lanes
# (5 -> 1, 1 -> 1), conditional k >= 2 lanes, ancestor counts 1 to 9
EDGE = Panel(
    (
        Trajectory((0.0, 0.3, 0.8, 1.5), (5, 1, 0, 0)),
        Trajectory((0.0, 0.5, 0.8, 1.5), (3, 9, 2, 14)),
        Trajectory((0.0, 0.3, 1.0), (1, 1, 4)),
    )
)
PANELS = {"edge": EDGE, **test_exact_table.PANELS}

RATES = {
    "growth": Rates(1.3, 0.9),
    "decline": Rates(0.7, 1.1),
    # omega == 0, where geom_params takes the lam == mu limit, then
    # |omega|/xi = 2.5e-9 and 1e-6 on either side, which take the generic
    # formulas (the first inside the band where the limit used to be taken)
    "critical": Rates(2.0, 2.0),
    "in_band": Rates(2.0 * (1 + 2.5e-9), 2.0 * (1 - 2.5e-9)),
    "above_band": Rates(2.0 * (1 + 1e-6), 2.0 * (1 - 1e-6)),
    "below_band": Rates(2.0 * (1 - 1e-6), 2.0 * (1 + 1e-6)),
}


def _rates(theta) -> Rates:
    return Rates(math.exp(theta[0]), math.exp(theta[1]))


def _central(fun, theta, h=1e-3):
    """Fourth-order central differences of fun (a scalar or a vector) in
    each coordinate of theta, as columns."""
    cols = []
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        cols.append(
            (-fun(theta + 2 * e) + 8 * fun(theta + e) - 8 * fun(theta - e) + fun(theta - 2 * e))
            / (12 * h)
        )
    return np.array(cols).T


def _mp_loglik(panel, rates, variant="plain"):
    """The variant's saddlepoint log likelihood of the panel as an mpmath
    function of (log lam, log mu) near rates: k = 0 lanes score
    a*log(alpha), conditional k = 1 lanes a(1-alpha)(1-beta)alpha^(a-1),
    and the rest mp_log_spa_pmf or mp_log_cond_spa_pmf, each bisected on a
    bracket placed by the float saddlepoint's distance below the radius,
    room: (log R - room - min(0.5, room), log R - room + min(0.5, room/2))
    at the rates evaluated, so that a root that follows a moving radius
    stays inside it."""
    conditional = variant == "conditional"
    lanes = []
    for tr in panel:
        for a, k, t in zip(tr.counts, tr.counts[1:], np.diff(tr.times)):
            if a == 0:
                continue
            room = None
            if k > conditional:
                g = geom_params(t, rates)
                ka = np.array([float(k)]), np.array([float(a)])
                if conditional:
                    _, x, _ = _cond_log_spa(*ka, g, t, rates)
                else:
                    x, _ = _solve_x(*ka, g, t, rates)
                room = _log_radius(g) - float(x[0])
            lanes.append((a, k, t, room))
    log_pmf = mp_log_cond_spa_pmf if conditional else mp_log_spa_pmf

    def loglik(th0, th1):
        lam, mu = mp.exp(th0), mp.exp(th1)
        total = mp.mpf(0)
        for a, k, t, room in lanes:
            alpha, beta = mp_alpha_beta(t, lam, mu)
            if room is None:
                total += a * mp.log(alpha)
                if k:
                    total += mp.log(a * (1 - alpha) * (1 - beta) / alpha)
                continue
            x = -mp.log(beta) - room
            total += log_pmf(k, t, a, lam, mu, x - min(0.5, room), x + min(0.5, room / 2))
        return total

    return loglik


def _mp_score(panel, rates, variant="plain"):
    """d/d(log lam, log mu) of the variant's saddlepoint log likelihood,
    by mpmath differentiation of _mp_loglik."""
    loglik = _mp_loglik(panel, rates, variant)
    # central differences with an explicit step: mpmath's default step is
    # inaccurate at lam == mu, where mp_alpha_beta switches formulas
    th = (mp.log(rates.lam), mp.log(rates.mu))
    h = mp.mpf("1e-20")
    return np.array([float(mp.diff(loglik, th, order, h=h)) for order in ((1, 0), (0, 1))])


def _mp_derivatives(panel, rates, dps):
    """The score and the observed information of the plain saddlepoint log
    likelihood from central differences of _mp_loglik on a 3 x 3 grid of
    step 1e-15 in (log lam, log mu), at dps digits."""
    loglik = _mp_loglik(panel, rates)
    with mp.workdps(dps):
        h = mp.mpf("1e-15")
        th0, th1 = mp.log(rates.lam), mp.log(rates.mu)
        f = {(i, j): loglik(th0 + i * h, th1 + j * h) for i in (-1, 0, 1) for j in (-1, 0, 1)}
        score = [(f[1, 0] - f[-1, 0]) / (2 * h), (f[0, 1] - f[0, -1]) / (2 * h)]
        d00 = (f[1, 0] - 2 * f[0, 0] + f[-1, 0]) / h**2
        d11 = (f[0, 1] - 2 * f[0, 0] + f[0, -1]) / h**2
        d01 = (f[1, 1] - f[1, -1] - f[-1, 1] + f[-1, -1]) / (4 * h**2)
        info = [[-d00, -d01], [-d01, -d11]]
        return np.array([float(v) for v in score]), np.array([[float(v) for v in row] for row in info])


@pytest.mark.parametrize("rname", list(RATES))
@pytest.mark.parametrize("pname", ["edge", "unequal"])
def test_plain_score_matches_mpmath(pname, rname):
    panel, rates = PANELS[pname], RATES[rname]
    score, _ = spa_derivatives(panel, rates, "plain")
    ref = _mp_score(panel, rates)
    assert np.all(np.abs(score - ref) <= 1e-7 * np.max(np.abs(ref)))


@pytest.mark.parametrize("rname", list(RATES))
@pytest.mark.parametrize("pname", ["edge", "unequal"])
def test_conditional_score_matches_mpmath(pname, rname):
    panel, rates = PANELS[pname], RATES[rname]
    score, _ = spa_derivatives(panel, rates, "conditional")
    ref = _mp_score(panel, rates, "conditional")
    assert np.all(np.abs(score - ref) <= 1e-10 * np.max(np.abs(ref)))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("rname", list(RATES))
@pytest.mark.parametrize("pname", list(PANELS))
def test_score_matches_central_differences(pname, rname, variant):
    panel, rates = PANELS[pname], RATES[rname]
    theta = np.log([rates.lam, rates.mu])
    score, _ = spa_derivatives(panel, rates, variant)
    ref = _central(lambda th: spa_loglik(panel, _rates(th), variant), theta)
    assert np.all(np.abs(score - ref) <= 1e-6 * max(1.0, np.max(np.abs(ref))))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("rname", list(RATES))
@pytest.mark.parametrize("pname", list(PANELS))
def test_information_matches_central_differences_of_the_score(pname, rname, variant):
    panel, rates = PANELS[pname], RATES[rname]
    theta = np.log([rates.lam, rates.mu])
    _, info = spa_derivatives(panel, rates, variant)
    ref = -_central(lambda th: spa_derivatives(panel, _rates(th), variant)[0], theta)
    assert np.array_equal(info, info.T)
    assert np.all(np.abs(info - ref) <= 1e-6 * max(1.0, np.max(np.abs(ref))))


def test_derivatives_reject_a_degenerate_law_and_an_unknown_variant(monkeypatch):
    # a degenerate law returns None before anything is solved, and leaves
    # the sweep of another point in the slot
    panel = _fresh(EDGE)
    spa_loglik(panel, RATES["growth"], "plain")
    ((key, sweep),) = panel.transitions._saddlepoints.items()
    solves = _count_solves(monkeypatch)
    assert spa_derivatives(panel, Rates(0.0, 1.0), "plain") is None
    assert spa_derivatives(panel, Rates(1.0, 0.0), "conditional") is None
    assert not solves
    assert list(panel.transitions._saddlepoints) == [key]
    assert panel.transitions._saddlepoints[key] is sweep
    with pytest.raises(DomainError):
        spa_derivatives(EDGE, Rates(1.0, 1.0), "renormalized")


def test_derivatives_near_the_radius_stay_accurate():
    # the collapse panel at a point its search once stalled on: the 1 -> 1
    # saddlepoint lies 1e-12 below the radius, where derivatives taken in
    # x and log(beta) apart cancel to nothing, and where spa_loglik is too
    # rough for central differences
    panel = Panel((Trajectory((0.0, 0.2, 3.4), (25, 1, 1)),))
    rates = _rates([1.74745801, 3.01638623])
    score, _ = spa_derivatives(panel, rates, "plain")
    ref = _mp_score(panel, rates)
    assert np.all(np.abs(score - ref) <= 1e-7 * np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# the plain lanes' closed form against the jets it replaced and against
# mpmath


def _jet_psi(x, g, k, a):
    """psi' and psi'' of plain lanes by implicit differentiation of their
    jets, the derivative path the closed form replaced."""
    return legacy.saddle_terms(legacy.plain_jet(x, g, a))


def test_plain_closed_form_matches_the_jets_over_random_laws():
    rng = np.random.default_rng(19)
    agree = overflow = 0
    for _ in range(1500):
        rates = Rates(*np.exp(rng.uniform(-4.0, 6.0, 2)))
        t = math.exp(rng.uniform(-5.0, 1.5))
        k = rng.integers(1, 600, 8).astype(float)
        a = rng.integers(1, 300, 8).astype(float)
        g = geom_params(t, rates)
        try:
            x, _ = _solve_x(k, a, g, t, rates)
        except SolverError:
            continue
        first, second = _plain_psi(x, g, k, a)
        with np.errstate(all="ignore"):
            ref1, ref2 = _jet_psi(x, g, k, a)
        assert np.all(np.isfinite(first)) and np.all(np.isfinite(second))
        # where the jets overflow (their fourth y-derivative near the
        # radius) only the closed form has a value; psi'' is compared on
        # the scale of psi', since it is a difference that cancels where
        # rho is large
        ok = np.isfinite(ref1) & np.isfinite(ref2)
        assert np.all(np.abs(first - ref1)[ok] <= 1e-11 * ref1[ok])
        assert np.all(np.abs(second - ref2)[ok] <= 1e-11 * ref1[ok])
        agree += int(ok.sum())
        overflow += int((~ok).sum())
    assert agree > 5000 and overflow > 0


# ROADMAP item 2's named panels at their mle rates, and the 2 -> 9 panel
# where 1 - beta of its first gap is e^-489; there the jets overflowed and
# spa_derivatives returned None
HEAVY1 = Panel(
    (
        Trajectory((0.0, 2.0, 3.0, 6.0), (1405, 2946, 0, 0)),
        Trajectory((0.0, 0.03125, 0.53125, 0.5625, 3.5625), (1428, 1, 66, 306, 3)),
    )
)
HEAVY2 = Panel(
    (
        Trajectory((0.0, 3.0, 3.01, 3.0310699869735913), (1, 1, 32, 43)),
        Trajectory((0.0, 0.03125), (1, 1)),
    )
)
WALL = Panel(
    (
        Trajectory((0.0, 0.03125, 1.03125, 2.5098467931584425), (2127, 75, 0, 0)),
        Trajectory((0.0, 1.9661632247672158), (344, 30)),
    )
)
TWO_TO_NINE = Panel((Trajectory((0.0, 1.998053006936432, 2.010204501876863), (2, 9, 482)),))
NAMED = {
    "heavy1": (HEAVY1, Rates(5925.733, 5925.826)),
    "heavy2": (HEAVY2, Rates(422.2108, 422.1777)),
    "heavy3": (test_exact_table.HEAVY3, Rates(13461.32, 13461.37)),
    "wall": (WALL, Rates(15231.19, 15231.32)),
    "crawl": (
        Panel((Trajectory((0.0, 2.982637915912965, 3.0001743130061844), (2363, 1, 2158)),)),
        Rates(30910.782, 30910.784),
    ),
    "2->9": (TWO_TO_NINE, Rates(9356.296, 9356.258)),
    "2->9 at e^-489": (TWO_TO_NINE, Rates(387.52235946843052, 142.93051025564782)),
}


@pytest.mark.parametrize("name", list(NAMED))
def test_plain_derivatives_match_mpmath_on_the_named_panels(name):
    panel, rates = NAMED[name]
    score, info = spa_derivatives(panel, rates, "plain")
    # 1 - beta must keep its digits in mpmath: 60 of them beyond its size
    log1m_beta = min(geom_params(grp.tau, rates).log1m_beta for grp in panel.transitions.groups)
    ref_score, ref_info = _mp_derivatives(panel, rates, 60 + math.ceil(-log1m_beta / math.log(10)))
    assert np.all(np.abs(score - ref_score) <= 1e-8 * np.max(np.abs(ref_score)))
    assert np.all(np.abs(info - ref_info) <= 1e-8 * np.max(np.abs(ref_info)))


@settings(max_examples=60, deadline=None)
@given(
    panel=small_panels(),
    theta=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
)
def test_plain_derivatives_are_finite_wherever_the_jets_were(panel, theta):
    rates = _rates(theta)
    try:
        got = spa_derivatives(_fresh(panel), rates, "plain")
    except BdError as exc:
        got = type(exc)
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(bdrates.saddlepoint, "_plain_psi", _jet_psi)
        try:
            ref = spa_derivatives(_fresh(panel), rates, "plain")
        except BdError as exc:
            ref = type(exc)
    if ref is None or isinstance(ref, type):
        assert got is None or got == ref or all(np.all(np.isfinite(part)) for part in got)
        return
    for part, ref_part in zip(got, ref):
        assert np.all(np.abs(part - ref_part) <= 1e-9 * max(1.0, np.max(np.abs(ref_part))))


# ---------------------------------------------------------------------------
# the conditional lanes' derivatives composed in one variable, and their
# solve's closed-form first Newton step, against the code they replaced


def _legacy_loses_digits(x, g):
    """Where the legacy jets form (1-alpha)(1-beta) e^x within 2^52 of the
    subnormals, so that it or its products are subnormal and lose digits
    that the composition keeps. On the 1 -> 2 lane at t = 1.40625,
    lam = e^6.2421875 and mu = e^-9 (1 - beta = e^-722.8) the legacy score
    is (-725.78664814, 3.00017307), and mpmath's and the composition's
    (-725.78664826, 3.00017306). On 1 -> 2 at t = 0.25, lam = e^-7 and
    mu = e^7.96875 (1 - alpha = e^-722.3, the product e^-708.0) the legacy
    psi'' is 3.7e-11, and mpmath's and the composition's 0."""
    return g.log1m_alpha + g.log1m_beta + x < math.log(np.finfo(float).tiny) + 36.0


def _random_laws(seed, n):
    """Two pinned laws, then n random ones of 8 lanes each, as
    (rates, t, k, a). In the first, T = log(M/p0) of 7 -> 111 is
    subnormal. In the second, 1 - alpha = e^-725 and the plain root of
    234 -> 575 lies in the guard band, where Kc'' at it reads negative: a
    step of -2 from it took the solve to where M - p0 underflows, and the
    lane scored -inf."""
    yield Rates(303.58980999084366, 0.811955588379467), 2.449658003879583, [111.0], [7.0]
    yield Rates(0.33483882769517925, 305.4461415419284), 2.376316830935839, [575.0], [234.0]
    rng = np.random.default_rng(seed)
    for _ in range(n):
        rates = Rates(*np.exp(rng.uniform(-4.0, 6.0, 2)))
        t = math.exp(rng.uniform(-5.0, 1.5))
        yield rates, t, rng.integers(2, 600, 8), rng.integers(1, 300, 8)


def test_conditional_composition_matches_the_legacy_jets_over_random_laws():
    # the closed-form psi of the solve in s = log u against the jets in two
    # variables at the same saddlepoints
    tiny = np.finfo(float).tiny
    agree = limit = 0
    for rates, t, k, a in _random_laws(19, 1500):
        k, a = np.asarray(k, dtype=float), np.asarray(a, dtype=float)
        g = geom_params(t, rates)
        try:
            terms, x, _ = _cond_log_spa(k, a, g, t, rates)
        except SolverError:
            continue
        sub = terms[7] < tiny  # T = log(M/p0)
        # the parent's seed finds the same saddlepoints, to the solve's
        # stopping rules, except on lanes where M - p0 underflows: there
        # the solve in x refuses the group, or stops where Kc' is far from
        # k (7 -> 111 at lam 303.6, mu 0.812, t 2.45: x = -3.40, where
        # mpmath reads Kc' = 1.03; the solve in s stops at x = -0.00905,
        # where it reads 111.0)
        try:
            ref_x, _ = legacy.solve_x_conditional(k, a, g, t, rates)
        except SolverError:
            assert sub.any()
        else:
            assert np.all(np.abs(x - ref_x)[~sub] <= 1e-9 * np.maximum(1.0, np.abs(x[~sub])))
        with np.errstate(all="ignore"):
            first, second = _cond_psi(terms)
            ref1, ref2 = legacy.saddle_terms(legacy.conditional_jet(x, g, a))
        ok = np.isfinite(ref1) & np.isfinite(ref2)
        assert np.all(np.isfinite(first[ok])) and np.all(np.isfinite(second[ok]))
        # where T = log(M/p0) is subnormal, the legacy a q / T divides two
        # subnormals and keeps no digits (psi' read 1.907 on 7 -> 111 at
        # lam 303.6, mu 0.812, t 2.45, where mpmath gives 1); the law given
        # survival is that of one survivor, whose psi is z plus a constant
        assert np.all(np.abs(first[sub] - 1.0) <= 1e-12) and np.all(np.abs(second[sub]) <= 1e-12)
        both = ok & ~_legacy_loses_digits(x, g)
        assert np.all(np.abs(first - ref1)[both] <= 1e-12 * np.abs(ref1[both]))
        assert np.all(np.abs(second - ref2)[both] <= 1e-12 * np.abs(ref1[both]))
        agree += int(both.sum())
        limit += int(sub.sum())
    assert agree > 11000 and limit >= 1


def test_conditional_kernel_matches_the_legacy_kernel_over_random_laws():
    # the solve in s = log u and its closed-form psi against the solve in
    # x, its terms formed from log(M/p0) and the jets composed in E. They
    # refuse the same groups, except that the solve in x refuses, or
    # scores -inf, lanes where M - p0 underflows (T below the smallest
    # float at the root), which the solve in s scores
    tiny = np.finfo(float).tiny
    agree = gained = 0
    for seed in range(19, 41):
        for rates, t, k, a in _random_laws(seed, 150):
            k, a = np.asarray(k, dtype=float), np.asarray(a, dtype=float)
            g = geom_params(t, rates)
            try:
                terms, x, lp = _cond_log_spa(k, a, g, t, rates)
            except SolverError:
                with pytest.raises(SolverError):
                    legacy.log_spa_conditional_halley(k, a, g, t, rates)
                continue
            under = terms[7] < tiny
            try:
                ref_x, ref = legacy.log_spa_conditional_halley(k, a, g, t, rates)
            except SolverError:
                assert under.any() and np.all(np.isfinite(lp))
                gained += 1
                continue
            fin = np.isfinite(ref)
            assert np.all(under[~fin]) and np.all(np.isfinite(lp))
            assert np.all(np.abs(x - ref_x)[fin] <= 1e-9 * np.maximum(1.0, np.abs(x[fin])))
            assert np.all(np.abs(lp - ref)[fin] <= 1e-9 * np.abs(ref[fin]))
            with np.errstate(all="ignore"):
                first, second = _cond_psi(terms)
                ref1, ref2 = legacy.saddle_terms(legacy.conditional_jet_in_e(x, g, a))
            ok = np.isfinite(ref1) & np.isfinite(ref2) & ~under & ~_legacy_loses_digits(x, g)
            assert np.all(np.abs(first - ref1)[ok] <= 1e-12 * np.abs(ref1[ok]))
            assert np.all(np.abs(second - ref2)[ok] <= 1e-12 * np.abs(ref1[ok]))
            agree += int(ok.sum())
    assert agree > 20000 and gained >= 1


def _legacy_conditional(patch):
    """Make the conditional variant solve in x and score from log(M/p0),
    and differentiate its lanes by the jets in two variables; its sweep
    entries then hold (x, g, a) in place of the last pass."""

    def log_spa(k, a, g, t, rates):
        x, lp = legacy.log_spa_conditional_halley(k, a, g, t, rates)
        return (x, g, a), x, lp

    patch.setattr(bdrates.saddlepoint, "_cond_log_spa", log_spa)
    patch.setattr(
        bdrates.saddlepoint,
        "_cond_psi",
        lambda sp: legacy.saddle_terms(legacy.conditional_jet(*sp)),
    )


# the first example is a panel at rho = alpha beta / ((1-alpha)(1-beta))
# near e^2191, where a seed that took sqrt(rho) by math.exp raised
# OverflowError; the next two are those of _legacy_loses_digits, then two
# a -> a lanes near collapse and a lane with T subnormal, where the legacy
# loglik is off by 1e-8 and 6e-4, a panel whose mpmath loglik needs the 48
# digits that 1 - beta of its 1 -> 3 lane cancels, and an a -> a lane where
# Kc'' is 1.1e-16 k^2 (legacy 16.063, mpmath 16.363)
@settings(max_examples=60, deadline=None)
@given(
    panel=small_panels(),
    theta=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
)
@example(
    panel=Panel((Trajectory((0.0, 2.0, 3.0), (1, 2, 0)), Trajectory((0.0, 1.0), (1, 0)))),
    theta=(0.0, 7.0),
)
@example(
    panel=Panel(
        (
            Trajectory((0.0, 1.40625, 2.40625, 3.40625, 4.40625), (1, 2, 0, 0, 0)),
            Trajectory((0.0, 1.0), (1, 0)),
        )
    ),
    theta=(6.2421875, -9.0),
)
@example(panel=Panel((Trajectory((0.0, 0.25), (1, 2)),)), theta=(-7.0, 7.96875))
@example(panel=Panel((Trajectory((0.0, 1.25), (2, 2)),)), theta=(-12.0, -24.0))
@example(panel=Panel((Trajectory((0.0, 0.0625), (2, 2)),)), theta=(0.0, -31.0))
@example(
    panel=Panel((Trajectory((0.0, 1.828125, 2.828125, 3.828125, 4.828125), (1, 17, 0, 0, 0)),)),
    theta=(6.0, -19.0),
)
@example(panel=Panel((Trajectory((0.0, 1.0, 2.0, 4.0, 4.25), (1, 1, 1, 3, 3)),)), theta=(4.0, -37.0))
@example(panel=Panel((Trajectory((0.0, 0.01, 1.01), (3, 3, 0)),)), theta=(-36.0, -27.5))
def test_conditional_derivatives_are_finite_wherever_the_legacy_ones_were(panel, theta):
    rates = _rates(theta)
    outs = []
    for legacy_path in (False, True):
        fresh = _fresh(panel)
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            if legacy_path:
                _legacy_conditional(patch)
            try:
                value = spa_loglik(fresh, rates, "conditional")
                outs.append((value, spa_derivatives(fresh, rates, "conditional")))
            except BdError as exc:
                outs.append(type(exc))
        if not legacy_path:
            sweep = fresh.transitions._saddlepoints.get((rates, True), [])
            lossy = any(
                sp is not None and np.any(_legacy_loses_digits(np.log(sp[2]) + _log_radius(g), g))
                for g, *_, sp in sweep
            )
            # mpmath is the loglik's reference where the legacy keeps too
            # few digits for 1e-9: where Kc'' = (f2 + f1 (1 - u))/u^2 is
            # below 1e-6 k^2 = 1e-6 (f1/u)^2, which it forms as E[N^2] -
            # E[N]^2 (2 -> 2 over t = 1.25 at theta (-12, -24): legacy
            # 7.2763272487, mpmath and the solve in s 7.2763272356), and
            # where T = log(M/p0) is subnormal, which it takes as (M - p0)/M
            # (1 -> 17 over t = 1.83 at theta (6, -19): -737.43748 against
            # -737.43690); with the digits that 1 - alpha, 1 - beta and
            # T >= e^E / 2 cancel
            live = [(g, sp) for g, *_, sp in sweep if sp is not None]
            oracle = any(
                np.any((sp[-1] + sp[-2] * sp[2] < 1e-6 * sp[-2] ** 2) | (sp[7] < 1e-300))
                for _, sp in live
            )
            digits = 30 + max(
                (abs(g.log1m_alpha) + abs(g.log1m_beta) + max(0.0, -np.min(sp[3]))) / math.log(10)
                for g, sp in live
            ) if live else 30
    got, ref = outs
    if isinstance(ref, type) or ref[1] is None:
        if isinstance(got, type):
            assert got == ref
        else:
            assert got[1] is None or all(np.all(np.isfinite(part)) for part in got[1])
        return
    assert not isinstance(got, type) and got[1] is not None
    value = ref[0]
    if oracle:
        with mp.workdps(int(digits)):
            value = float(_mp_loglik(panel, rates, "conditional")(*theta))
    assert abs(got[0] - value) <= 1e-9 * max(1.0, abs(value))
    if lossy:
        return
    for part, ref_part in zip(got[1], ref[1]):
        assert np.all(np.abs(part - ref_part) <= 1e-9 * max(1.0, np.max(np.abs(ref_part))))


# pytest's filter turns a RuntimeWarning into a failure
@settings(max_examples=60, deadline=None)
@given(
    panel=small_panels(),
    theta=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
    variant=st.sampled_from(["plain", "conditional"]),
)
def test_derivatives_are_finite_none_or_a_typed_error(panel, theta, variant):
    try:
        out = spa_derivatives(panel, _rates(theta), variant)
    except BdError:
        return
    if out is not None:
        assert all(np.all(np.isfinite(part)) for part in out)


# ---------------------------------------------------------------------------
# the fits


@pytest.mark.parametrize("method", ["spmle", "spmle_adjusted"])
def test_fits_call_spa_loglik_once_per_counted_evaluation(monkeypatch, method):
    # perfbench's traced run wraps bdrates.estimate.spa_loglik with the
    # signature (panel, rates, variant); its evaluation counts hold only if
    # the objective calls it exactly so, once per evaluation, and nothing
    # else does
    real = bdrates.saddlepoint.spa_loglik
    calls = []

    def counting(panel, rates, variant):
        calls.append((panel, variant))
        return real(panel, rates, variant)

    def refuse(*args, **kwargs):
        raise AssertionError("spa_derivatives must not score the panel through spa_loglik")

    monkeypatch.setattr(bdrates.estimate, "spa_loglik", counting)
    monkeypatch.setattr(bdrates.saddlepoint, "spa_loglik", refuse)
    panel = test_exact_table.PANELS["pooled_float_grid"]
    res = fit(panel, method)
    variant = "conditional" if method == "spmle_adjusted" else "plain"
    assert len(calls) == res.n_obj_evals
    assert all(p is panel and v == variant for p, v in calls)
    assert res.newton_iterations >= 1 and not res.continued



# ---------------------------------------------------------------------------
# the saddlepoints spa_loglik leaves for spa_derivatives


def _fresh(panel):
    """The same panel with its own, empty transitions table."""
    return Panel(panel.trajectories)


def _count_solves(monkeypatch):
    """The calls of either variant's solve."""
    calls = []
    for name in ("_solve_x", "_cond_solve"):
        real = getattr(bdrates.saddlepoint, name)
        monkeypatch.setattr(
            bdrates.saddlepoint, name, lambda *args, real=real: calls.append(args) or real(*args)
        )
    return calls


def _same_bits(got, ref):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, ref))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("rname", ["growth", "decline", "critical"])
@pytest.mark.parametrize("pname", sorted(test_exact_table.PANELS))
def test_derivatives_after_the_loglik_equal_a_cold_call_bit_for_bit(
    monkeypatch, pname, rname, variant
):
    panel, rates = _fresh(test_exact_table.PANELS[pname]), RATES[rname]
    cold = spa_derivatives(_fresh(panel), rates, variant)
    spa_loglik(panel, rates, variant)
    solves = _count_solves(monkeypatch)
    # equal rates, not the same object, find the sweep
    warm = spa_derivatives(panel, Rates(rates.lam, rates.mu), variant)
    assert not solves
    assert _same_bits(warm, cold)


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("rname", ["growth", "decline", "critical"])
@pytest.mark.parametrize("pname", sorted(PANELS))
def test_a_cold_call_leaves_the_sweep_of_the_loglik(pname, rname, variant):
    rates = RATES[rname]
    cold, ref = _fresh(PANELS[pname]), _fresh(PANELS[pname])
    spa_derivatives(cold, rates, variant)
    spa_loglik(ref, rates, variant)
    got, want = cold.transitions._saddlepoints, ref.transitions._saddlepoints
    assert list(got) == list(want) == [(rates, variant == "conditional")]
    ((sweep,), (ref_sweep,)) = got.values(), want.values()
    assert len(sweep) == len(ref_sweep) == len(cold.transitions.groups)
    for (g, coefs, k, a, sp), (rg, rcoefs, rk, ra, rsp) in zip(sweep, ref_sweep):
        assert g == rg and coefs == rcoefs
        assert _same_bits((k, a), (rk, ra))
        # a conditional group holds the last pass of its solve, a plain one x
        if variant == "plain" and sp is not None:
            sp, rsp = (sp,), (rsp,)
        assert (sp is None and rsp is None) or _same_bits(sp, rsp)


@pytest.mark.parametrize("variant", ["plain", "conditional"])
def test_a_sweep_at_other_rates_or_of_the_other_variant_is_not_read(monkeypatch, variant):
    panel = _fresh(test_exact_table.PANELS["unequal"])
    other = "plain" if variant == "conditional" else "conditional"
    rates = RATES["growth"]
    spa_loglik(panel, rates, variant)
    solves = _count_solves(monkeypatch)
    for r, v in [(RATES["decline"], variant), (rates, other)]:
        del solves[:]
        got = spa_derivatives(panel, r, v)
        assert solves, (r, v)
        assert _same_bits(got, spa_derivatives(_fresh(panel), r, v))


@pytest.mark.parametrize("variant", ["plain", "conditional"])
def test_a_loglik_that_raises_leaves_no_sweep(variant):
    # the 0.5 gap group solves; the later 4.05 gap group's root lies inside
    # the guard band (EDGE_INPUTS[0] of test_saddlepoint, where the
    # conditional root of 3 -> 2 is not in the band, but that of 3 -> 1e12 is)
    t = 4.045870995154412
    panel = Panel((Trajectory((0.0, 0.5), (3, 2)), Trajectory((0.0, t), (3, 10**12))))
    bad = Rates(0.015039993583716273, 30.75876642857539)
    spa_loglik(panel, RATES["growth"], variant)
    assert panel.transitions._saddlepoints
    with pytest.raises(SolverError, match="guard band") as raised:
        spa_loglik(panel, bad, variant)
    assert panel.transitions._saddlepoints == {}
    # a cold derivatives call raises the same error and leaves no sweep,
    # also where the slot held one at other rates
    spa_loglik(panel, RATES["growth"], variant)
    with pytest.raises(SolverError) as cold:
        spa_derivatives(panel, bad, variant)
    assert str(cold.value) == str(raised.value)
    assert panel.transitions._saddlepoints == {}


def test_derivatives_are_none_where_the_loglik_is_not_finite():
    # at lam 1e-20, mu 1e-277 the 11 -> 11 lane over t = 2.28 has
    # collapsed to a point mass, K'' underflows, and it scores -inf under
    # the plain variant, but not under the conditional one
    panel = Panel((Trajectory((0.0, 0.5, 2.78), (150, 11, 11)),))
    rates = Rates(1e-20, 1e-277)
    assert spa_derivatives(_fresh(panel), rates, "plain") is None
    assert spa_loglik(panel, rates, "plain") == -math.inf
    assert panel.transitions._saddlepoints == {}
    assert spa_derivatives(panel, rates, "plain") is None
    assert panel.transitions._saddlepoints == {}
    # the conditional variant scores the panel, and leaves its sweep
    assert math.isfinite(spa_loglik(panel, rates, "conditional"))
    assert spa_derivatives(panel, rates, "conditional") is not None


@pytest.mark.parametrize("pname", ["unequal", "single_traj"])
@pytest.mark.parametrize("method", ["spmle", "spmle_adjusted"])
def test_fits_solve_each_group_once_per_counted_evaluation(monkeypatch, method, pname):
    panel = _fresh(test_exact_table.PANELS[pname])
    conditional = method == "spmle_adjusted"
    live = sum(
        bool(bdrates.saddlepoint._lanes(grp.dst, grp.src, conditional)[1].size)
        for grp in panel.transitions.groups
    )
    solves = _count_solves(monkeypatch)
    res = fit(panel, method)
    assert live >= 1 and res.newton_iterations >= 1 and not res.continued
    assert len(solves) == live * res.n_obj_evals


# the most CGF passes one conditional spa_loglik call made during the fit
# of each panel, whose seed's Halley step takes none (the plain call makes
# one per gap group with saddlepoint lanes: the residual check at the
# closed-form root, whose terms it scores)
COND_PASSES = {
    "pooled_float_grid": 1,
    "single_traj": 3,
    "absorbing": 3,
    "unequal": 12,
    "large_counts": 1,
}


@pytest.mark.parametrize("variant", ["plain", "conditional"])
@pytest.mark.parametrize("pname", sorted(test_exact_table.PANELS))
def test_cgf_passes_per_evaluation(monkeypatch, pname, variant):
    panel = _fresh(test_exact_table.PANELS[pname])
    conditional = variant == "conditional"
    live = sum(
        bool(bdrates.saddlepoint._lanes(grp.dst, grp.src, conditional)[1].size)
        for grp in panel.transitions.groups
    )
    # a plain pass evaluates the CGF terms, a conditional one _cond_pass
    name = "_cond_pass" if conditional else "_cgf_terms"
    real_terms, real_loglik = getattr(bdrates.saddlepoint, name), bdrates.estimate.spa_loglik
    passes, per_call = [0], []

    def counting_terms(*args):
        passes[0] += 1
        return real_terms(*args)

    def counting_loglik(panel, rates, variant):
        before = passes[0]
        try:
            return real_loglik(panel, rates, variant)
        finally:
            per_call.append(passes[0] - before)

    monkeypatch.setattr(bdrates.saddlepoint, name, counting_terms)
    monkeypatch.setattr(bdrates.estimate, "spa_loglik", counting_loglik)
    res = fit(panel, "spmle_adjusted" if conditional else "spmle")
    assert len(per_call) == res.n_obj_evals
    if conditional:
        assert max(per_call) <= COND_PASSES[pname]
    else:
        assert set(per_call) == {live}


def test_conditional_derivatives_where_m_minus_p0_is_tiny():
    # a probe of a census fit: M - p0 of the 2 -> 5 and 56 -> 63 lanes is
    # 1e-82 M and 1e-88 M, where the fourth derivative of log(e^t - 1) in
    # t = log(M/p0) overflowed and the derivatives read None
    panel = Panel(
        (
            Trajectory((0.0, 1.806873714817237), (2, 5)),
            Trajectory((0.0, 2.0, 2.03125), (56, 63, 1182)),
        )
    )
    rates = Rates(135.75641630487578, 29.802541097850991)
    theta = np.log([rates.lam, rates.mu])
    score, info = spa_derivatives(panel, rates, "conditional")
    ref = _central(lambda th: spa_loglik(panel, _rates(th), "conditional"), theta)
    assert np.all(np.abs(score - ref) <= 1e-6 * max(1.0, np.max(np.abs(ref))))
    ref = -_central(lambda th: spa_derivatives(panel, _rates(th), "conditional")[0], theta)
    assert np.all(np.abs(info - ref) <= 1e-6 * max(1.0, np.max(np.abs(ref))))
