"""Hamiltonians, canonical equations of motion, and adaptive integration.

Chart-form Hamiltonians (kinetic sign flips between chart families):

    outer:  H = (p_r^2 + L^2/sinh^2 r)/(2 R^2) + (omega^2 R^2/2) tanh^2 r
    inner:  H = -(p_chi^2 + L^2/sin^2 chi)/(2 R^2) - (omega^2 R^2/2) tan^2 chi

with the chart L^2 of invariants.l_squared.  Free mode drops the potential.

Each run is integrated in one representation, chosen from the initial state.
The chart equations of motion are the outer charts' only.  An outer-chart
state with L^2 > 2 R^2 H S_BAND runs on them: at its pericenter p_r = 0 and
the potential is >= 0, so H >= L^2/(2 R^2 s_min) and the shape s = sinh^2 r
never falls below S_BAND, well clear of the degenerate cone |z0| = R (s = 0).
Every other state (every inner-chart start, where L^2 <= 0, and outer orbits
that can come near the cone) runs on the constrained ambient system

    zdot = G^{-1} p,   pdot = -grad V + lambda G z,
    lambda = G^{-1}(p, p) / R^2

throughout (z . grad V = 0, so the multiplier carries no potential term).

A run is one call of `solve_stretch`: DOP853 stepped over the span at the
fixed tolerances REL_TOL and ABS_TOL (2-8 steps per dynamical time), with
solve_ivp's event rules and one DenseSolution over the per-step
interpolants.  The stepper and brentq are ports of scipy's (below), so
the package needs numpy only; each step's dense output is built the first
time something evaluates it; a finished run is read through one batched
reader, DenseSolution.at, in one call by the closure pass and by the roots
of each event function.  In ambient form solve_stretch re-projects the
state onto the shell z.z = R^2 in place about once per dynamical time
(dt_proj) and keeps stepping: the step size and controller state carry
over, so there is no restart (the projection method of Hairer-Lubich-Wanner,
Geometric Numerical Integration, IV.4).  An ambient run is aborted at the
first accepted step whose |z.z - R^2| exceeds CONSTRAINT_RTOL R^2.
Samples are taken at the accepted steps, before any projection; events
(chart crossings, radial turning points, period closures) are
root-polished by brentq on the step's dense output to ~1e-12.

A run's samples form one float table with a row per name in COLUMNS (time,
chart state, ambient state, invariants) and a column per sample.  Chart
samples (and chart-run dense rows) are lifted one at a time (lift_coords on
floats, through math); ambient samples are projected onto the shell and
mapped to their chart one at a time; the invariants are then evaluated once
over the run's (8, n) ambient block.

The time-T map of a bounded orbit is the central inversion
(z0, zvec, p0, pvec) -> (z0, -zvec, p0, -pvec); a PeriodClosure event is
logged whenever the state returns within 1e-6 normalized phase distance of
the initial point or its inversion image, so closures appear at every
multiple of the radial period (full identity at even multiples).
"""

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (
    CONSTRAINT_RTOL,
    TWO_PI,
    ChartId,
    ChartPoint,
    EmbeddingPhase,
    EmbeddingPoint,
    ModelParams,
    PhaseState,
    chart_select,
    lift_coords,
    momentum_lift,
    momentum_project,
)
from .files import atomic_write_text, write_table
from .invariants import invariant_coords, l_squared
# a single-state view kept reachable through this module (bench/tracer.py wraps it)
from .invariants import evaluate_invariants  # noqa: F401


def __getattr__(name):
    # integrate() steps its own solver (solve_stretch) and never calls
    # solve_ivp; the name stays reachable here, loading scipy on first use,
    # for tools that look it up on this module
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


CLOSURE_TOL = 1e-6
# the stepper's tolerances, the only ones CLOSURE_TOL and CONSTRAINT_RTOL are sized at
REL_TOL = 1e-10
ABS_TOL = 1e-12
# chart runs need L^2 > 2 R^2 H S_BAND, which keeps sinh^2 r above S_BAND
S_BAND = 2e-5
# longest span integrate accepts, in dynamical times 1/(omega + sqrt(2|H|)/R);
# runs measured 2-8 steps per dynamical time at REL_TOL and ABS_TOL, so the
# limit is a few million steps; a huge momentum (p1 = 1e154) would step forever
MAX_DYNAMICAL_TIMES = 1e6
# step attempts, accepted or rejected, after which solve_stretch gives up: over
# 100 times the most any test or benchmark run takes (355), 5-6 s of stepping
MAX_STEPS = 50_000


class Mode(Enum):
    FREE = "free"
    OSCILLATOR = "oscillator"


class EventKind(Enum):
    CHART_CROSSING = "ChartCrossing"
    RADIAL_TURNING_POINT = "RadialTurningPoint"
    PERIOD_CLOSURE = "PeriodClosure"


@dataclass(frozen=True)
class Event:
    t: float
    kind: EventKind
    detail: str = ""


@dataclass(frozen=True)
class IntegrationConfig:
    t_span: tuple = (0.0, 10.0)

    def __post_init__(self):
        t0, t1 = self.t_span
        if not (t1 > t0):
            raise ValueError("t_span must have t1 > t0")


class IntegrationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Hamiltonian and equations of motion (chart form)
# ---------------------------------------------------------------------------


def potential(point: ChartPoint, params: ModelParams) -> float:
    """Oscillator potential in chart form; equals the ambient expression."""
    w = 0.5 * params.omega**2 * params.radius**2
    if point.chart.is_outer:
        return w * math.tanh(point.q1) ** 2
    return -w * math.tan(point.q1) ** 2


def hamiltonian(state: PhaseState, params: ModelParams, mode: Mode = Mode.OSCILLATOR) -> float:
    """Energy of a chart phase state.

    The centrifugal term is taken as zero at the coordinate pole when all
    angular momenta vanish (PhaseState construction forbids the rest).
    """
    pt = state.point
    R2 = params.radius**2
    p1 = state.p1
    if state.p2 == 0.0 and state.pphi == 0.0:
        cent = 0.0
    else:
        lsq = l_squared(state)
        if pt.chart.is_outer:
            sh = math.sinh(pt.q1)
            cent = lsq / (sh * sh)
        else:
            sn = math.sin(pt.q1)
            cent = lsq / (sn * sn)
    kin = (p1 * p1 + cent) / (2.0 * R2)
    if not pt.chart.is_outer:
        kin = -kin
    if mode == Mode.FREE:
        return kin
    return kin + potential(pt, params)


def _float_rhs(body):
    """rhs(t, y) = body(*y), evaluated on Python floats when y is an array.

    Float arithmetic raises where numpy scalars give inf or nan (a division
    by zero, or ** out of range); those states are evaluated again on the
    numpy scalars, so results and exceptions are those of the scalar path.
    """

    def rhs(t, y):
        if isinstance(y, np.ndarray):
            try:
                return body(*y.tolist())
            except (ZeroDivisionError, OverflowError):
                pass
        return body(*y)

    return rhs


def _chart_rhs(params: ModelParams, mode: Mode):
    """rhs(t, y) of the canonical equations qdot = dH/dp, pdot = -dH/dq on an
    outer chart, y = (q1, q2, phi, p1, p2, pphi); p_phi is always conserved."""
    R2 = params.radius**2
    w2 = params.omega**2 * R2 if mode == Mode.OSCILLATOR else 0.0

    def outer(q1, q2, phi, p1, p2, pphi):
        sh, ch = math.sinh(q1), math.cosh(q1)
        if p2 == 0.0 and pphi == 0.0:
            dp1 = -w2 * sh / ch**3
            return (p1 / R2, 0.0, 0.0, dp1, 0.0, 0.0)
        sht, cht = math.sinh(q2), math.cosh(q2)
        sh2 = sh * sh
        cht2 = cht * cht
        lsq = pphi * pphi / cht2 - p2 * p2
        return (
            p1 / R2,
            -p2 / (R2 * sh2),
            pphi / (R2 * sh2 * cht2),
            lsq * ch / (R2 * sh2 * sh) - w2 * sh / ch**3,
            pphi * pphi * sht / (R2 * sh2 * cht2 * cht),
            0.0,
        )

    return _float_rhs(outer)


def _radial_force_scale(is_outer: bool, y, params: ModelParams, mode: Mode) -> float:
    """Magnitude scale of the two radial force terms (for near-cancellation tests).
    On an inner chart both terms have the sign of tan chi: the scale is |pdot_chi|."""
    R2 = params.radius**2
    w2 = params.omega**2 * R2 if mode == Mode.OSCILLATOR else 0.0
    if is_outer:
        sh, ch = math.sinh(y[0]), math.cosh(y[0])
        lsq = y[5] ** 2 / math.cosh(y[1]) ** 2 - y[4] ** 2
        cent = abs(lsq) * ch / (R2 * max(abs(sh) ** 3, 1e-300))
        return cent + w2 * abs(sh) / ch**3
    sn, cn = math.sin(y[0]), math.cos(y[0])
    a = y[4] ** 2 + (y[5] ** 2 / math.sinh(y[1]) ** 2 if y[5] != 0.0 else 0.0)
    cent = a * abs(cn) / (R2 * max(abs(sn) ** 3, 1e-300))
    return cent + w2 * abs(sn) / abs(cn) ** 3


def _tracks_turns(is_outer: bool, y, params: ModelParams, mode: Mode) -> bool:
    """Whether a stretch starting at chart state y looks for radial turns.

    A circular orbit keeps p1 = 0 and pdot1 = 0 exactly, which would make a
    turning-event function (p1 on a chart, z0 p0 in ambient form) vanish up
    to rounding all along and report spurious roots; it is skipped then.
    """
    pmag = max(1.0, abs(y[4]), abs(y[5]))
    if abs(y[3]) >= 1e-12 * pmag:
        return True
    fmag = _radial_force_scale(is_outer, y, params, mode)
    d1 = _chart_rhs(params, mode)(0.0, y)[3] if is_outer else fmag
    return abs(d1) >= 1e-9 * max(fmag, 1e-30)


def _ambient_rhs(params: ModelParams, mode: Mode):
    R2 = params.radius**2
    w = 0.5 * params.omega**2 * R2 if mode == Mode.OSCILLATOR else 0.0

    def ambient(z0, z1, z2, z3, p0, p1, p2, p3):
        lam = (-p0 * p0 - p1 * p1 + p2 * p2 + p3 * p3) / R2
        if w != 0.0:
            z0sq = z0 * z0
            v = w * (z2 * z2 + z3 * z3 - z1 * z1) / z0sq
            g0 = -2.0 * v / z0
            g1 = -2.0 * w * z1 / z0sq
            g2 = 2.0 * w * z2 / z0sq
            g3 = 2.0 * w * z3 / z0sq
        else:
            g0 = g1 = g2 = g3 = 0.0
        return (
            -p0,
            -p1,
            p2,
            p3,
            -g0 - lam * z0,
            -g1 - lam * z1,
            -g2 + lam * z2,
            -g3 + lam * z3,
        )

    return _float_rhs(ambient)


# ---------------------------------------------------------------------------
# ambient helpers
# ---------------------------------------------------------------------------


def _project_constraint(y8: np.ndarray, radius: float, t=None) -> np.ndarray:
    """Rescale z onto the shell and remove the normal momentum component.

    Raises IntegrationError when z.z is not positive and finite, so that no
    rescaling reaches the shell z.z = R^2; t, when given, is named.
    """
    z = y8[:4].copy()
    p = y8[4:].copy()
    quad = z[0] * z[0] + z[1] * z[1] - z[2] * z[2] - z[3] * z[3]
    if not 0.0 < quad < math.inf:
        where = "" if t is None else f" at t={float(t)}"
        raise IntegrationError(
            f"cannot project onto the shell: z.z = {quad:.3e}, "
            f"|z|/R = {float(np.linalg.norm(z)) / radius:.3e}{where}"
        )
    z *= radius / math.sqrt(quad)
    gz = np.array([-z[0], -z[1], z[2], z[3]])
    p += (float(z @ p) / radius**2) * gz
    return np.concatenate([z, p])


def _phase_from_y8(y8: np.ndarray) -> EmbeddingPhase:
    return EmbeddingPhase(
        EmbeddingPoint(y8[0], y8[1], y8[2], y8[3]), y8[4], y8[5], y8[6], y8[7]
    )


def _y8_from_phase(ph: EmbeddingPhase) -> np.ndarray:
    return np.concatenate([ph.z.array, ph.momentum_array])


def _lift_chart_rows(chart: ChartId, y6: np.ndarray, radius: float) -> np.ndarray:
    """Wrap phi of the (n, 6) chart rows y6 into [0, 2 pi) in place and return
    their (n, 8) ambient rows.  Each row is lifted alone, on floats through
    math: numpy's transcendental functions differ from math's in the last bit."""
    y6[:, 2] %= TWO_PI
    return np.array([lift_coords(chart, q, radius) for q in y6]).reshape(-1, 8)


def central_inversion(y8: np.ndarray) -> np.ndarray:
    """The time-T map of bounded orbits: (z0, zvec, p0, pvec) -> (z0, -zvec, p0, -pvec)."""
    out = -np.asarray(y8, dtype=float)
    out[0] = -out[0]
    out[4] = -out[4]
    return out


def phase_distance(a: np.ndarray, b: np.ndarray, radius: float) -> float:
    """Normalized sup distance between two ambient phase points."""
    dz = np.max(np.abs(a[:4] - b[:4])) / radius
    pscale = max(1.0, float(np.max(np.abs(b[4:]))))
    dp = np.max(np.abs(a[4:] - b[4:])) / pscale
    return max(float(dz), float(dp))


def _check_drift(t, y8: np.ndarray, radius: float):
    """Raise IntegrationError when |z.z - R^2| exceeds CONSTRAINT_RTOL R^2."""
    R2 = radius * radius
    quad = y8[0] ** 2 + y8[1] ** 2 - y8[2] ** 2 - y8[3] ** 2
    drift = abs(quad - R2)
    if drift > CONSTRAINT_RTOL * R2:
        raise IntegrationError(
            f"constraint drift {drift:.3e} beyond {CONSTRAINT_RTOL:.0e}*R^2 at t={float(t)}"
        )


# ---------------------------------------------------------------------------
# DOP853 and brentq
# ---------------------------------------------------------------------------
#
# The Dormand-Prince 8(5,3) pair with its 7th-order dense output (Hairer,
# Norsett and Wanner, Solving Ordinary Differential Equations I, II.4-II.6)
# and Brent's root finder (Brent, Algorithms for Minimization without
# Derivatives, 1973), ported from scipy 1.17.1: integrate/_ivp/rk.py,
# common.py and dop853_coefficients.py, and optimize/Zeros/brentq.c.  The
# port makes the same floating-point operations in the same order, so its
# steps, samples and roots are bit-identical to scipy's DOP853 and brentq.
# Unlike scipy it builds a step's three extra dense stages only when
# something evaluates that step's interpolant.
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
    0.2, 0.777777777777777777777777777778
])
_A = np.zeros((16, 16))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [
    2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1
]
_A[5, :5] = [
    3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1
]
_A[6, :6] = [
    3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2
]
_A[7, :7] = [
    3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3
]
_A[8, :8] = [
    6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1
]
_A[9, :9] = [
    4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2
]
_A[10, :10] = [
    -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022
]
_A[11, :11] = [
    2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1
]
_A[12, :12] = [
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2
]
_A[13, :13] = [
    5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
    2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3
]
_A[14, :14] = [
    3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
    2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2, 0.0, 0.0, -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1
]
_A[15, :15] = [
    -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
    -4.69762141536116384314449447206, 7.68342119606259904184240953878,
    4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
    -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
    -9.15095847217987001081870187138
]
_D = np.zeros((4, 16))  # the first three dense rows come from the step ends
_D[0] = [
    -0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
    0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
    0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
    -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
    0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
    0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
    -0.44360363875948939664310572000e+1
]
_D[1] = [
    0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
    0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
    -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
    0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
    -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
    -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
    0.35816841486394083752465898540e+2
]
_D[2] = [
    0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
    -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
    0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
    0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
    0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
    -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
    0.11992291136182789328035130030e+2
]
_D[3] = [
    -0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
    -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
    0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
    -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
    0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
    0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
    -0.14972683625798562581422125276e+3
]
_B = _A[12, :12]
_E3 = np.zeros(13)
_E3[:-1] = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]
# (row of A, node) of the stages after the first: 11 for a step, 3 for its
# dense output
_STEP_STAGES = [(_A[s, :s], _C[s]) for s in range(1, 12)]
_DENSE_STAGES = [(_A[s, :s], _C[s]) for s in range(13, 16)]

SAFETY = 0.9
MIN_FACTOR = 0.2  # bounds on the step-size change per step
MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 8  # -1/(q + 1) for the 7th-order error estimator
_EPS = np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
NONFINITE_STEP = "Step size is not finite: the right-hand side is not finite at t0."


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """First step size: Hairer-Norsett-Wanner II.4 (scipy's select_initial_step)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K, h, scale):
    """The two-norm of the 5th- and 3rd-order error estimates, blended."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    # math.sqrt(x.dot(x)) is np.linalg.norm of a 1-D array, without its overhead
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


class _Rhs:
    """fun(t, y) as a float array, with the call count scipy reports as nfev."""

    def __init__(self, fun):
        self.fun = fun
        self.nfev = 0

    def __call__(self, t, y):
        self.nfev += 1
        return np.asarray(self.fun(t, y), dtype=float)

    def into(self, row, t, y):
        """Write fun(t, y) into the array row ``row``."""
        self.nfev += 1
        row[...] = self.fun(t, y)


class _DenseStep:
    """The interpolant of one accepted step, built on its first evaluation.

    K holds the step's 13 stages (the last is f at the step end) in the first
    13 of 16 rows; the first call adds the three extra stages and the
    7-term polynomial of scipy's Dop853DenseOutput.
    """

    __slots__ = ("fun", "t_old", "t", "h", "y_old", "y", "K", "F")

    def __init__(self, fun, t_old, t, y_old, y, K):
        self.fun, self.t_old, self.t, self.y_old, self.y, self.K = fun, t_old, t, y_old, y, K
        self.h = t - t_old
        self.F = None

    def _build(self):
        K, h, y_old = self.K, self.h, self.y_old
        for s, (a, c) in enumerate(_DENSE_STAGES, start=13):
            dy = np.dot(K[:s].T, a) * h
            self.fun.into(K[s], self.t_old + c * h, y_old + dy)
        F = np.empty((7, y_old.size))
        f_old = K[0]
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (K[12] + f_old)
        F[3:] = h * np.dot(_D, K)
        self.F = F

    def __call__(self, t):
        if self.F is None:
            self._build()
        return self._horner((t - self.t_old) / self.h, np.zeros_like(self.y_old))

    def at(self, ts: np.ndarray) -> np.ndarray:
        """The interpolant at each of the times ``ts``, as a (ts.size, n) array.

        Row k equals self(ts[k]) bit for bit: the same operations, by row.
        """
        if self.F is None:
            self._build()
        x = ((ts - self.t_old) / self.h)[:, None]
        return self._horner(x, np.zeros((ts.size, self.y_old.size)))

    def _horner(self, x, y):
        for i, f in enumerate(reversed(self.F)):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old
        return y


class DenseSolution:
    """Piecewise dense solution over consecutive steps (scipy's OdeSolution).

    A time on a step boundary is evaluated on the earlier step; times outside
    [t_min, t_max] use the first or last step.
    """

    def __init__(self, ts, steps):
        self.ts = list(ts)
        self.steps = steps
        self.t_min = ts[0]
        self.t_max = ts[-1]

    def at(self, ts) -> np.ndarray:
        """The solution at each of the times ``ts``, as a (ts.size, n) array.

        Row k equals the step's own interpolant at ts[k] bit for bit; each
        step evaluates all of its times in one pass.
        """
        ts = np.asarray(ts, dtype=float)
        segments = np.clip(np.searchsorted(self.ts, ts, side="left") - 1, 0, len(self.steps) - 1)
        out = np.empty((ts.size, self.steps[0].y_old.size))
        # group the times by step (np.unique would import numpy.ma)
        order = np.argsort(segments, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(segments[order])) + 1) if ts.size else ()
        for rows in groups:
            out[rows] = self.steps[segments[rows[0]]].at(ts[rows])
        return out


def brentq(f, a, b, xtol=2e-12, rtol=4 * _EPS, maxiter=100):
    """Root of f in [a, b], where f(a) and f(b) differ in sign (Brent 1973)."""
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _eval_not_nan(f, xpre), _eval_not_nan(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _eval_not_nan(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _eval_not_nan(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


# ---------------------------------------------------------------------------
# the stepping driver
# ---------------------------------------------------------------------------


class Stretch(NamedTuple):
    """One solver run: the samples, dense solution and event roots integrate reads."""

    t: np.ndarray  # stretch start, then each accepted step end
    y: np.ndarray  # (n, t.size) states at those times, before any projection
    sol: DenseSolution  # dense solution over the stretch
    t_events: list  # root times, one array per event function
    nfev: int
    status: int  # 0 reached the end, -1 solver failure
    message: str
    t_proj: tuple  # times at which the state was projected


def solve_stretch(fun, t_span, y0, events=(), *, rtol, atol, project=None,
                  dt_proj=math.inf, check=None) -> Stretch:
    """Step DOP853 over t_span (t1 > t0), detecting events as solve_ivp does.

    An event function counts on a step when g_old <= 0 <= g_new or g_old >= 0
    >= g_new; its root is found by brentq on the step's dense output with
    xtol = rtol = 4 eps.

    `check(t, y)` sees the state after each accepted step and may raise to
    abort the run.  With `project`, the state is replaced by project(y) at
    the first step end at least dt_proj after the previous projection (or
    the start).  The first-same-as-last stage is recomputed from the
    projected state and the step size is kept, so stepping carries on
    without a restart.  Recorded samples and interpolants are those of the
    unprojected steps.  The run fails (status -1) when the right-hand side
    is not finite at t0, when a step size is too small, or after MAX_STEPS
    step attempts.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError("solve_stretch integrates forward: t_span needs t1 > t0")
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    fun = _Rhs(fun)
    f = fun(t, y)
    if not np.isfinite(f).all():  # no first step size follows from it
        return Stretch(np.array([t]), y[:, None], DenseSolution([t], []),
                       [np.empty(0) for _ in events], fun.nfev, -1, NONFINITE_STEP, ())
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol, atol)

    tol = 4.0 * _EPS
    g = [ev(t, y) for ev in events]
    t_events = [[] for _ in events]
    ts, ys, steps, t_proj = [t], [y], [], []
    t_last_proj = t
    status = None
    message = ""
    attempts = 0
    while status is None:
        # one step: shrink until the error estimate is below 1
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        K = np.empty((16, y.size))
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step fails every comparison
                status, message = -1, TOO_SMALL_STEP
                break
            if attempts >= MAX_STEPS:
                status, message = -1, f"step budget of {MAX_STEPS} attempts exhausted at t={t}"
                break
            attempts += 1
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, (a, c) in enumerate(_STEP_STAGES, start=1):
                dy = np.dot(K[:s].T, a) * h
                fun.into(K[s], t + c * h, y + dy)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = fun(t + h, y_new)
            K[12] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:13], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        if status is not None:
            break
        if t_new - t_bound >= 0:
            status = 0
        step = _DenseStep(fun, t, t_new, y, y_new, K)
        t, y, f = t_new, y_new, f_new
        if check is not None:
            check(t, y)
        steps.append(step)
        g_new = [ev(t, y) for ev in events]
        for i, (a, b) in enumerate(zip(g, g_new)):
            if a <= 0 <= b or a >= 0 >= b:
                t_events[i].append(
                    brentq(lambda s, ev=events[i]: ev(s, step(s)), step.t_old, t,
                           xtol=tol, rtol=tol)
                )
        g = g_new
        ts.append(t)
        ys.append(y)
        if project is not None and status is None and t - t_last_proj >= dt_proj:
            y = project(y)
            f = fun(t, y)
            t_proj.append(t)
            t_last_proj = t
            g = [ev(t, y) for ev in events]
    return Stretch(
        np.array(ts),
        np.array(ys).T,
        DenseSolution(ts, steps),
        [np.asarray(te) for te in t_events],
        fun.nfev,
        status,
        message,
        tuple(t_proj),
    )


# ---------------------------------------------------------------------------
# trajectory container
# ---------------------------------------------------------------------------


# The sample table: one row per name, one column per sample.  t is the
# sample time; q1..pphi the chart coordinates and momenta on the sample's
# chart (Trajectory.charts); z0..z3 and pz0..pz3 the ambient point and its
# covariant momenta; the rest the invariants of invariants.invariant_coords.
COLUMNS = (
    "t", "q1", "q2", "phi", "p1", "p2", "pphi",
    "z0", "z1", "z2", "z3", "pz0", "pz1", "pz2", "pz3",
    "H", "N1", "N2", "N3", "L1", "L2", "L3", "Lsq", "C1", "C2",
    "D11", "D12", "D13", "D22", "D23", "D33",
)
_ROW = {name: i for i, name in enumerate(COLUMNS)}

# the columns of the two CSV exports; "chart" is the chart token of a sample
CSV_COLUMNS = (
    "t", "chart", "q1", "q2", "phi", "p1", "p2", "pphi", "z0", "z1", "z2", "z3",
    "H", "L1", "L2", "L3", "Lsq", "C1", "C2", "D11", "D12", "D13", "D22", "D23", "D33",
)
INVARIANTS_COLUMNS = ("t",) + COLUMNS[_ROW["H"]:]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Immutable integration result: the sample table plus events.

    `table` has one row per name in COLUMNS and one column per sample: the
    start of the span, then each accepted solver step.  `charts[i]` is the
    chart of sample i's chart coordinates (the run's chart on the chart
    path, chart_select of the sample's point in ambient form).  `column`
    reads one row of the table by name.
    """

    table: np.ndarray = field(repr=False)
    charts: tuple = field(repr=False)
    events: tuple
    params: ModelParams
    mode: Mode
    sol: object = field(repr=False, default=None)  # DenseSolution of the run
    chart: Optional[ChartId] = None  # chart the run was integrated on; None in ambient form

    def column(self, name: str) -> np.ndarray:
        return self.table[_ROW[name]]

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    def ambient_at(self, t: float) -> EmbeddingPhase:
        """Evaluate the dense solution at any time inside the span."""
        return _phase_from_y8(_project_constraint(self._y8([t])[0], self.params.radius, t))

    def ambient_points(self, ts) -> np.ndarray:
        """The ambient points at the times ``ts``, as a (4, ts.size) array.

        Column k equals ambient_at(ts[k]).z bit for bit: the points are
        scaled onto the shell in one array operation.
        """
        ts = np.asarray(ts, dtype=float)
        z = self._y8(ts)[:, :4].T
        quad = z[0] * z[0] + z[1] * z[1] - z[2] * z[2] - z[3] * z[3]
        on_shell = (quad > 0.0) & (quad < math.inf)
        if not on_shell.all():
            self.ambient_at(float(ts[np.argmin(on_shell)]))  # raises as it does alone
        return z * (self.params.radius / np.sqrt(quad))

    def _y8(self, ts) -> np.ndarray:
        """The (ts.size, 8) ambient rows of the dense solution, before projection."""
        ts = np.asarray(ts, dtype=float)
        for t in (ts.min(), ts.max()) if ts.size else ():
            if not (self.sol.t_min - 1e-12 <= t <= self.sol.t_max + 1e-12):
                raise ValueError(f"t = {t} outside the integrated span")
        y = self.sol.at(ts)
        return y if self.chart is None else _lift_chart_rows(self.chart, y, self.params.radius)

    # ---- export ----

    def _write(self, path: str, names):
        write_table(path, names, [[c.value for c in self.charts] if name == "chart"
                                  else self.column(name) for name in names])

    def to_csv(self, path: str):
        self._write(path, CSV_COLUMNS)

    def to_invariants_csv(self, path: str):
        self._write(path, INVARIANTS_COLUMNS)

    def events_as_dicts(self):
        return [{"t": e.t, "kind": e.kind.value, "detail": e.detail} for e in self.events]

    def write_events_json(self, path: str):
        atomic_write_text(path, json.dumps(self.events_as_dicts(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# the integrator
# ---------------------------------------------------------------------------


def _solve(kind: str, *args, **kwargs) -> Stretch:
    """solve_stretch at REL_TOL and ABS_TOL, its failures raised as IntegrationError.
    A float power or division in the RHS raises where numpy gives inf; caught here,
    it costs no step."""
    try:
        sol = solve_stretch(*args, rtol=REL_TOL, atol=ABS_TOL, **kwargs)
    except (OverflowError, ZeroDivisionError) as exc:
        raise IntegrationError(f"{kind} integration failed: {type(exc).__name__} "
                               "while stepping") from None
    if sol.status < 0:
        raise IntegrationError(f"{kind} integration failed: {sol.message}")
    return sol


def integrate(
    initial: PhaseState,
    params: ModelParams,
    cfg: IntegrationConfig,
    mode: Mode = Mode.OSCILLATOR,
) -> Trajectory:
    """Integrate the canonical equations over cfg.t_span in one representation.

    An outer-chart state with L^2 > 2 R^2 H S_BAND runs on the outer chart
    equations; its orbit keeps sinh^2 r above S_BAND.  Every other state runs
    on the constrained ambient equations, which carry an orbit through the
    degenerate cone |z0| = R.  Either way the span is one solve_stretch run.
    """
    R = params.radius
    R2 = R * R
    t0, t1 = cfg.t_span

    try:
        y80 = _y8_from_phase(momentum_lift(initial, params))
        if not np.all(np.isfinite(y80)):
            raise OverflowError
        h0val = hamiltonian(initial, params, mode)
        if not math.isfinite(h0val):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        # math.cosh and the like raise where numpy gives inf, and float
        # division raises where a denominator (sinh^2 q1, R^2) underflows to 0
        raise IntegrationError("non-finite initial data") from None
    rate = params.omega + math.sqrt(2.0 * abs(h0val)) / R
    n_dyn = (t1 - t0) * rate
    if n_dyn > MAX_DYNAMICAL_TIMES:
        raise IntegrationError(f"span of {n_dyn:.3g} dynamical times exceeds the "
                               f"limit of {MAX_DYNAMICAL_TIMES:g}")
    chart = initial.point.chart
    start = np.array(
        [initial.point.q1, initial.point.q2, initial.point.phi,
         initial.p1, initial.p2, initial.pphi],
        dtype=float,
    )
    try:
        track_turns = _tracks_turns(chart.is_outer, start, params, mode)
    except (OverflowError, ZeroDivisionError) as exc:  # a float power in the force
        raise IntegrationError(f"initial force evaluation failed: {type(exc).__name__} "
                               "before stepping") from None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing z.z passes
        _check_drift(t0, y80, R)  # a lift off the shell fails before the first step
    events = []

    if chart.is_outer and l_squared(initial) > 2.0 * R2 * h0val * S_BAND:
        rhs = _chart_rhs(params, mode)

        def ev_turn(tt, yy):
            return yy[3]

        sol = _solve("chart", rhs, (t0, t1), start, [ev_turn] if track_turns else [])
        roots = sol.t_events[0][sol.t_events[0] > t0] if track_turns else np.empty(0)
        for t_ev, yev in zip(roots, sol.sol.at(roots)):
            # shape minimum iff d(shape)/dt turns up: sign carried by pdot1
            events.append(_turning_point(t_ev, rhs(float(t_ev), yev)[3] > 0.0))
    else:
        chart = None
        rhs = _ambient_rhs(params, mode)
        # re-project onto the shell about once per dynamical time; otherwise
        # the quadratic-form drift grows secularly with the span
        dt_proj = min(t1 - t0, 1.0 / max(rate, 1e-6))

        def ev_cross(tt, yy):
            return yy[0] * yy[0] - R2

        def ev_turn_amb(tt, yy):
            return yy[0] * yy[4]

        # the drift is checked at each step: an escaping orbit fails as soon
        # as it leaves the shell, not after the whole span
        sol = _solve(
            "ambient", rhs, (t0, t1), y80, [ev_cross, ev_turn_amb] if track_turns else [ev_cross],
            project=lambda y8: _project_constraint(y8, R), dt_proj=dt_proj,
            check=lambda t, y8: _check_drift(t, y8, R)
        )
        for t_ev, yev in zip(sol.t_events[0], sol.sol.at(sol.t_events[0])):
            side = "outer->inner" if yev[0] * yev[4] > 0.0 else "inner->outer"
            # zdot0 = -p0: z0^2 decreasing when z0*p0 > 0
            events.append(Event(float(t_ev), EventKind.CHART_CROSSING, side))
        roots = sol.t_events[1][sol.t_events[1] > t0] if track_turns else np.empty(0)
        for t_ev, yev in zip(roots, sol.sol.at(roots)):
            if abs(yev[0]) <= 1e-9 * R:
                continue  # z0 = 0 root of z0*p0, not a radial turning
            # sdotdot = -2 z0 pdot0 / R^2 at p0 = 0
            events.append(_turning_point(t_ev, yev[0] * rhs(float(t_ev), yev)[4] < 0.0))

    # ---- sample table -----------------------------------------------------
    # per sample: t, the chart state and the ambient state, in COLUMNS order
    if chart is not None:
        q = sol.y.T.copy()
        y8 = _lift_chart_rows(chart, q, R)
        for t_i, row in zip(sol.t, y8):
            _check_drift(t_i, row, R)
        charts = [chart] * sol.t.size
        head = np.vstack([sol.t, q.T, y8.T])
    else:  # the stepper's check hook has seen every ambient sample
        rows, charts = [], []
        for t_i, yvec in zip(sol.t, sol.y.T):
            y8 = _project_constraint(yvec, R, t_i)
            ph = _phase_from_y8(y8)
            charts.append(chart_select(ph.z, params))
            st = momentum_project(ph, charts[-1], params)
            rows.append((t_i, st.point.q1, st.point.q2, st.point.phi, st.p1, st.p2, st.pphi, *y8))
        head = np.array(rows).T
    y8 = head[_ROW["z0"]:]
    # products such as N_i N_k in D may overflow at huge R; such a table is refused
    with np.errstate(over="ignore", invalid="ignore"):
        h, _, gens, d = invariant_coords(y8[:4], y8[4:], params, mode.value)
        table = np.vstack([head, h, *gens.n, *gens.l, gens.l_squared(), gens.casimir1(),
                           gens.casimir2(), *d])
    bad = np.argwhere(~np.isfinite(table))  # row-major: first column, then first sample
    if bad.size:
        row, col = bad[0]
        t_bad = table[0, col]
        raise IntegrationError(f"non-finite {COLUMNS[row]} in the sample table at t={t_bad}")
    table.flags.writeable = False

    # ---- period-closure pass ---------------------------------------------
    traj = Trajectory(table, tuple(charts), tuple(events), params, mode, sol.sol, chart)
    t_est = measure_period(traj)
    if t_est is not None:
        x0 = _project_constraint(y80, R, t0)
        xi = central_inversion(x0)
        # k = 1, 2, ... while k T ends in the span, up to a rounding slack in T
        tks = []
        while t0 + (len(tks) + 1) * t_est <= t1 + 1e-9 * t_est:
            tks.append(min(t0 + (len(tks) + 1) * t_est, t1))
        for k, (tk, yk) in enumerate(zip(tks, traj._y8(tks)), start=1):
            yk = _project_constraint(yk, R, tk)
            dist = min(phase_distance(yk, x0, R), phase_distance(yk, xi, R))
            if dist < CLOSURE_TOL:
                events.append(Event(float(tk), EventKind.PERIOD_CLOSURE, f"k={k}"))
    return replace(traj, events=tuple(sorted(events, key=lambda e: e.t)))


def _turning_point(t, s_min: bool) -> Event:
    return Event(float(t), EventKind.RADIAL_TURNING_POINT, "pericenter" if s_min else "apocenter")


def _period_from_events(events) -> Optional[float]:
    turns = [e for e in events if e.kind == EventKind.RADIAL_TURNING_POINT]
    for which in ("pericenter", "apocenter"):
        ts = [e.t for e in turns if e.detail == which]
        if len(ts) >= 2:
            return (ts[-1] - ts[0]) / (len(ts) - 1)
    if len(turns) >= 2:
        # the kinds alternate, one turning point every half period
        return 2.0 * (turns[-1].t - turns[0].t) / (len(turns) - 1)
    return None


def measure_period(traj: Trajectory) -> Optional[float]:
    """Radial period from the turning events, or the circular rate.

    With two turning points of one kind (pericenter or apocenter) the period
    is their mean spacing.  Otherwise, with n >= 2 turning points of either
    kind, it is 2 (t_last - t_first)/(n - 1), since the kinds alternate every
    half period.  Circular orbits have no p_r sign changes; for them the
    period is the time to advance the azimuth by pi (the closure angle of
    bounded orbits).  A vanishing radial momentum throughout the window
    forces uniform rotation, so the azimuthal rate of the first sample is
    exact.  Returns None for unbounded motion, and for windows with fewer
    than two turning points (for a circular orbit: shorter than the period).
    """
    t = _period_from_events(traj.events)
    if t is not None:
        return t
    # circular fallback: p1 stays at zero throughout
    p1max = np.max(np.abs(traj.column("p1")))
    pscale = max(1.0, np.max(np.abs(traj.column("pphi"))))
    if p1max < 1e-8 * pscale:
        q1, q2, pphi = (traj.column(name)[0] for name in ("q1", "q2", "pphi"))
        rate = 0.0
        if pphi != 0.0:  # phidot = p_phi/(R^2 a^2 b^2)
            if traj.charts[0].is_outer:
                a, b = math.sinh(q1), math.cosh(q2)  # sinh r, cosh tau
            else:
                a, b = math.sin(q1), math.sinh(q2)  # sin chi, sinh mu
            rate = abs(pphi / (traj.params.radius**2 * (a * a) * (b * b)))
        window = traj.times[-1] - traj.times[0]
        if rate > 0.0 and window * rate >= math.pi:
            return math.pi / rate
    return None
