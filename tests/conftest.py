"""Shared generators and the probe-based brute-force cross-checker.

The brute checker re-evaluates a model's defining clauses at a dense
probe set straight from toggle lists (solvers.brute_*), never touching
the interval machinery, so it is an independent route against
check_membership.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import sigdelay as sd
from sigdelay.solvers import brute_left_value, brute_value, brute_window


# ---------------------------------------------------------------------------
# Random generators (seeded per test)
# ---------------------------------------------------------------------------

def rand_stepfn(rng, n_max=5, denom=2, span=12):
    """Arbitrary step function: independent point and interval values."""
    k = rng.randrange(0, n_max + 1)
    bps = sorted(rng.sample([F(i, denom) for i in range(-span, span)], k))
    at = [rng.randrange(2) for _ in bps]
    right = [rng.randrange(2) for _ in bps]
    return sd.StepFunction(rng.randrange(2), bps, at, right)


def rand_signal(rng, n_max=5, denom=2, span=12):
    k = rng.randrange(0, n_max + 1)
    toggles = sorted(rng.sample([F(i, denom) for i in range(0, span)], k))
    return sd.StepFunction.from_toggles(rng.randrange(2), toggles)


def rand_bdc_params(rng, denom=2, top=4):
    while True:
        m_r = F(rng.randrange(0, top), denom)
        m_f = F(rng.randrange(0, top), denom)
        d_r = m_r + F(rng.randrange(0, top), denom)
        d_f = m_f + F(rng.randrange(0, top), denom)
        p = sd.BdcParams(m_r, d_r, m_f, d_f)
        if sd.cc_bdc(p):
            return p


def rand_time(rng, denom=2, top=6, lo=0):
    return F(rng.randrange(lo, top * denom), denom)


@pytest.fixture
def rng():
    return random.Random(20240811)


def counted_calls(monkeypatch, owner, name) -> list:
    """The argument tuples of every call of ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# Acceptance summary: one line per criterion at the end of the run
# ---------------------------------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"acceptance {number:2d} {status}  {title}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# Brute-force model checking at probe points
# ---------------------------------------------------------------------------

def _probes(reprs, offsets, horizon=None):
    base = {F(0)} if horizon is None else {F(0), horizon}
    for init, toggles in reprs:
        for b in toggles:
            for off in offsets:
                base.add(b + F(off))
    base = sorted(base)
    pts = list(base)
    pts += [(a + b) / 2 for a, b in zip(base, base[1:])]
    pts += [base[0] - 1, base[-1] + 1]
    return sorted(set(pts))


def probe_points(fns, offsets=(0,)):
    """A probe set dense enough to distinguish any two step functions whose
    breakpoints come from the given ones shifted by the given offsets:
    every shifted breakpoint, every midpoint between consecutive ones,
    and a point on each unbounded side."""
    return _probes([(f.leading, f.bps) for f in fns], offsets)


def _rise(xr, t):
    return (1 - brute_left_value(*xr, t)) & brute_value(*xr, t)


def _fall(xr, t):
    return brute_left_value(*xr, t) & (1 - brute_value(*xr, t))


def brute_check(u, x, model, horizon=None) -> bool:
    """Re-judge check_membership's verdict by direct probe evaluation."""
    ur = (u.leading, u.toggles()) if u is not None else None
    xr = (x.leading, x.toggles())

    def win(sig_repr, op, t, a, b, inc_a=True, inc_b=True):
        return brute_window(sig_repr[0], sig_repr[1], op, t + a, t + b, inc_a, inc_b)

    def nwin(sig_repr, t, a, b, inc_a=True, inc_b=True):
        # inf of the complement = 1 - sup
        return 1 - win(sig_repr, "sup", t, a, b, inc_a, inc_b)

    if isinstance(model, sd.Fixed):
        d = model.d
        clauses = [lambda t: brute_value(*xr, t) == brute_value(*ur, t - d)]
        offsets = [0, d]
    elif isinstance(model, sd.Bdc):
        p = model.p
        clauses = [
            lambda t: win(ur, "inf", t, -p.d_r, -p.d_r + p.m_r) <= brute_value(*xr, t),
            lambda t: brute_value(*xr, t) <= win(ur, "sup", t, -p.d_f, -p.d_f + p.m_f),
        ]
        offsets = [0, p.d_r, p.d_r - p.m_r, p.d_f, p.d_f - p.m_f]
    elif isinstance(model, sd.BdcPrime):
        clauses = [
            lambda t: win(ur, "inf", t, -model.d_r, 0, True, False)
            <= brute_value(*xr, t),
            lambda t: brute_value(*xr, t)
            <= win(ur, "sup", t, -model.d_f, 0, True, False),
        ]
        offsets = [0, model.d_r, model.d_f]
    elif isinstance(model, sd.Aic):
        a = model.a
        clauses = [
            lambda t: _rise(xr, t) <= win(xr, "inf", t, 0, a.delta_r),
            lambda t: _fall(xr, t) <= nwin(xr, t, 0, a.delta_f),
        ]
        offsets = [0, -a.delta_r, -a.delta_f]
    elif isinstance(model, sd.AicPrime):
        a = model.a  # half-open hold windows [t, t+delta)
        clauses = [
            lambda t: _rise(xr, t) <= win(xr, "inf", t, 0, a.delta_r, True, False),
            lambda t: _fall(xr, t) <= nwin(xr, t, 0, a.delta_f, True, False),
        ]
        offsets = [0, -a.delta_r, -a.delta_f]
    elif isinstance(model, sd.RicPrime):
        r = model.r  # half-open lookback windows [t-delta, t)
        clauses = [
            lambda t: _rise(xr, t) <= win(ur, "inf", t, -r.delta_r, 0, True, False),
            lambda t: _fall(xr, t) <= nwin(ur, t, -r.delta_f, 0, True, False),
        ]
        offsets = [0, r.delta_r, r.delta_f]
    elif isinstance(model, sd.Ric):
        r = model.r
        clauses = [
            lambda t: _rise(xr, t) <= win(ur, "inf", t, -r.delta_r, -r.delta_r + r.mu_r),
            lambda t: _fall(xr, t) <= nwin(ur, t, -r.delta_f, -r.delta_f + r.mu_f),
        ]
        offsets = [0, r.delta_r, r.delta_r - r.mu_r, r.delta_f, r.delta_f - r.mu_f]
    elif isinstance(model, sd.Dbridc):
        p = model.p
        clauses = [
            lambda t: _rise(xr, t)
            == (1 - brute_left_value(*xr, t)) & win(ur, "inf", t, -p.d_r, -p.d_r + p.m_r),
            lambda t: _fall(xr, t)
            == brute_left_value(*xr, t) & nwin(ur, t, -p.d_f, -p.d_f + p.m_f),
        ]
        offsets = [0, p.d_r, p.d_r - p.m_r, p.d_f, p.d_f - p.m_f]
    elif isinstance(model, sd.SdbridcPrime):
        d = model.d

        def du_in_open(t):
            return any(t - d < s < t for s in ur[1])

        def clause(t):
            lhs = brute_left_value(*xr, t) ^ brute_value(*xr, t)
            rhs = (brute_left_value(*xr, t) ^ brute_left_value(*ur, t)) \
                & (1 - du_in_open(t))
            return lhs == rhs
        clauses = [clause]
        offsets = [0, d]
    elif isinstance(model, sd.WindowAnd):
        clauses = [lambda t: brute_value(*xr, t)
                   == win(ur, "inf", t, -model.d, -model.d + model.m)]
        offsets = [0, model.d, model.d - model.m]
    elif isinstance(model, sd.WindowOr):
        clauses = [lambda t: brute_value(*xr, t)
                   == win(ur, "sup", t, -model.d, -model.d + model.m)]
        offsets = [0, model.d, model.d - model.m]
    elif isinstance(model, (sd.Baidc, sd.Bridc)):
        inner = [sd.Bdc(model.p),
                 sd.Aic(model.a) if isinstance(model, sd.Baidc) else sd.Ric(model.r)]
        return all(brute_check(u, x, m, horizon) for m in inner)
    else:
        raise TypeError(f"brute_check does not handle {model!r}")

    reprs = [xr] + ([ur] if ur is not None else [])
    offs = sorted({o for base in offsets for o in (base, -base)} | {0})
    for t in _probes(reprs, offs, horizon):  # a violation set the horizon cuts contains it
        if horizon is not None and t > horizon:
            continue
        if not all(c(t) for c in clauses):
            return False
    return True
