import math

import numpy as np
import numpy.testing as npt
import pytest

from hyposc.geometry import (
    ChartId,
    ChartPoint,
    EmbeddingPoint,
    ModelParams,
    PhaseState,
    chart_select,
    constraint_residual,
    embed,
    momentum_lift,
    momentum_project,
    unembed,
)
from oracles import beltrami, generators

ASINH1 = math.asinh(1.0)


def _random_points(n, seed=0):
    # inner q2 drawn >= 0: the chart's canonical representative (mu < 0 maps
    # to (mu, phi) -> (-mu, phi + pi) on the surface)
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        if rng.random() < 0.5:
            chart = ChartId.OUTER_PLUS if rng.random() < 0.5 else ChartId.OUTER_MINUS
            q1 = rng.uniform(0.0, 2.5)
            q2 = rng.uniform(-2.0, 2.0)
        else:
            chart = ChartId.INNER_PLUS if rng.random() < 0.5 else ChartId.INNER_MINUS
            q1 = rng.uniform(-1.4, 1.4)
            q2 = rng.uniform(0.0, 2.0)
        pts.append(ChartPoint(chart, q1, q2, rng.uniform(0.0, 2 * math.pi)))
    return pts


# ---------------------------------------------------------------------------
# params and point containers
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega=-0.5)
    with pytest.raises(ValueError):
        ModelParams(radius=0.0)
    ModelParams(omega=0.0)  # free motion allowed


def test_chart_point_validation():
    with pytest.raises(ValueError):
        ChartPoint(ChartId.OUTER_PLUS, -0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ChartPoint(ChartId.INNER_PLUS, math.pi / 2, 0.0, 0.0)
    # phi is normalized into [0, 2 pi)
    pt = ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, -math.pi / 2)
    assert 0.0 <= pt.phi < 2 * math.pi
    npt.assert_allclose(pt.phi, 3 * math.pi / 2, rtol=1e-15)


def test_pole_forbids_angular_momenta():
    pole = ChartPoint(ChartId.OUTER_PLUS, 0.0, 0.0, 0.0)
    PhaseState(pole, 0.3, 0.0, 0.0)
    with pytest.raises(ValueError):
        PhaseState(pole, 0.3, 0.1, 0.0)
    with pytest.raises(ValueError):
        PhaseState(pole, 0.3, 0.0, 0.1)


# ---------------------------------------------------------------------------
# embed / unembed
# ---------------------------------------------------------------------------


def test_embed_outer_pole(params):
    z = embed(ChartPoint(ChartId.OUTER_PLUS, 0.0, 0.7, 1.1), params)
    npt.assert_allclose([z.z0, z.z1, z.z2, z.z3], [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_embed_outer_point(params):
    z = embed(ChartPoint(ChartId.OUTER_PLUS, ASINH1, 0.0, 0.0), params)
    npt.assert_allclose(
        [z.z0, z.z1, z.z2, z.z3], [math.sqrt(2.0), 0.0, 1.0, 0.0], rtol=1e-15, atol=1e-15
    )


def test_embed_inner_point(params):
    z = embed(ChartPoint(ChartId.INNER_PLUS, math.pi / 4, 0.0, 0.0), params)
    s = math.sqrt(0.5)
    npt.assert_allclose([z.z0, z.z1, z.z2, z.z3], [s, s, 0.0, 0.0], rtol=1e-15, atol=1e-15)


def test_embed_negative_sheet(params):
    z = embed(ChartPoint(ChartId.OUTER_MINUS, ASINH1, 0.0, 0.0), params)
    npt.assert_allclose(z.z0, -math.sqrt(2.0), rtol=1e-15)
    assert chart_select(z, params) == ChartId.OUTER_MINUS


def test_embed_satisfies_constraint(params):
    for pt in _random_points(60):
        z = embed(pt, params)
        assert abs(constraint_residual(z, params)) < 1e-13


def test_embed_scales_with_radius():
    par = ModelParams(omega=1.0, radius=50.0)
    pt = ChartPoint(ChartId.OUTER_PLUS, 1.1, -0.4, 2.0)
    z = embed(pt, par)
    assert abs(constraint_residual(z, par)) < 1e-13 * par.radius**2
    npt.assert_allclose(z.z0, 50.0 * math.cosh(1.1), rtol=1e-15)


def test_chart_select_examples(params):
    assert chart_select(EmbeddingPoint(2.0, 0.0, math.sqrt(3.0), 0.0), params) == ChartId.OUTER_PLUS
    s = math.sqrt(0.5)
    assert chart_select(EmbeddingPoint(s, s, 0.0, 0.0), params) == ChartId.INNER_PLUS
    assert chart_select(EmbeddingPoint(-2.0, 0.0, math.sqrt(3.0), 0.0), params) == ChartId.OUTER_MINUS
    # |z0| = R ties resolve to the outer family
    assert chart_select(EmbeddingPoint(1.0, 0.0, 0.0, 0.0), params) == ChartId.OUTER_PLUS


def test_chart_select_rejects_off_surface(params):
    with pytest.raises(ValueError):
        chart_select(EmbeddingPoint(2.0, 0.0, 0.0, 0.0), params)


def test_unembed_round_trip(params):
    for pt in _random_points(60, seed=3):
        back = unembed(embed(pt, params), pt.chart, params)
        npt.assert_allclose(back.q1, pt.q1, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(back.q2, pt.q2, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(
            math.remainder(back.phi - pt.phi, 2 * math.pi), 0.0, atol=1e-12
        )


def test_unembed_pole_convention(params):
    pt = unembed(EmbeddingPoint(1.0, 0.0, 0.0, 0.0), ChartId.OUTER_PLUS, params)
    assert (pt.q1, pt.q2, pt.phi) == (0.0, 0.0, 0.0)


def test_unembed_near_pole_takes_radius_from_transverse_part(params):
    # |z0| / R rounds to 1 here, so acosh alone gives r = 0 and the point
    # looked like a cone point
    pt = unembed(EmbeddingPoint(1.0, 0.0, -6.9e-12, 0.0), ChartId.OUTER_PLUS, params)
    npt.assert_allclose(pt.q1, 6.9e-12, rtol=1e-15)
    assert pt.q2 == 0.0
    npt.assert_allclose(pt.phi, math.pi, rtol=1e-15)
    inner = unembed(EmbeddingPoint(1.0, 3e-12, 0.0, 0.0), ChartId.INNER_PLUS, params)
    npt.assert_allclose(inner.q1, 3e-12, rtol=1e-15)
    for src in (ChartPoint(ChartId.OUTER_PLUS, 1e-6, 0.4, 0.3),
                ChartPoint(ChartId.INNER_MINUS, -2e-6, 0.7, 1.1)):
        back = unembed(embed(src, params), src.chart, params)
        npt.assert_allclose([back.q1, back.q2, back.phi], [src.q1, src.q2, src.phi],
                            rtol=1e-9)


@pytest.mark.parametrize("z", [(1.0, 0.5, 0.5, 0.0), (1.0, 0.1, 0.06, 0.08),
                               (-1.0, 3.0, 1.8, -2.4)])
def test_unembed_cone_points_raise(z, params):
    for chart in ChartId:
        if chart.sheet_sign * z[0] > 0.0:
            with pytest.raises(ValueError, match="degenerate cone"):
                unembed(EmbeddingPoint(*z), chart, params)


def test_unembed_canonicalizes_negative_mu(params):
    src = ChartPoint(ChartId.INNER_PLUS, 0.8, -0.9, 0.3)
    back = unembed(embed(src, params), ChartId.INNER_PLUS, params)
    npt.assert_allclose(back.q1, src.q1, rtol=1e-12)
    npt.assert_allclose(back.q2, 0.9, rtol=1e-12)
    npt.assert_allclose(back.phi, 0.3 + math.pi, rtol=1e-12)


def test_unembed_wrong_sheet_raises(params):
    z = embed(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.2, 0.3), params)
    with pytest.raises(ValueError):
        unembed(z, ChartId.OUTER_MINUS, params)


# ---------------------------------------------------------------------------
# momentum lift / projection
# ---------------------------------------------------------------------------


def test_momentum_lift_radial(params):
    p_r = 0.7
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, 0.0), p_r, 0.0, 0.0)
    ph = momentum_lift(st, params)
    npt.assert_allclose(
        [ph.p0, ph.p1, ph.p2, ph.p3],
        [-math.sinh(1.0) * p_r, 0.0, math.cosh(1.0) * p_r, 0.0],
        rtol=1e-15,
        atol=1e-15,
    )


def test_momentum_lift_azimuthal(params):
    q = 1.3
    st = PhaseState(ChartPoint(ChartId.OUTER_PLUS, 1.0, 0.0, math.pi / 2), 0.0, 0.0, q)
    ph = momentum_lift(st, params)
    npt.assert_allclose(ph.p2, -q / math.sinh(1.0), rtol=1e-15)
    npt.assert_allclose([ph.p0, ph.p1, ph.p3], [0.0, 0.0, 0.0], atol=1e-15)


def test_momentum_lift_tangency(params):
    rng = np.random.default_rng(11)
    for pt in _random_points(40, seed=12):
        if pt.q1 == 0.0 or abs(math.sin(pt.q1)) < 1e-3:
            continue
        st = PhaseState(pt, *rng.uniform(-2.0, 2.0, size=3))
        ph = momentum_lift(st, params)
        scale = max(1.0, max(abs(st.p1), abs(st.p2), abs(st.pphi)))
        z = ph.z
        assert abs(z.z0 * ph.p0 + z.z1 * ph.p1 + z.z2 * ph.p2 + z.z3 * ph.p3) < 1e-12 * scale


def test_momentum_project_round_trip(params):
    rng = np.random.default_rng(21)
    for pt in _random_points(40, seed=22):
        if abs(math.sin(pt.q1)) < 1e-3 or (not pt.chart.is_outer and abs(pt.q2) < 1e-3):
            continue
        st = PhaseState(pt, *rng.uniform(-2.0, 2.0, size=3))
        back = momentum_project(momentum_lift(st, params), pt.chart, params)
        npt.assert_allclose(
            [back.p1, back.p2, back.pphi], [st.p1, st.p2, st.pphi], rtol=1e-9, atol=1e-9
        )


# ---------------------------------------------------------------------------
# projective map and chart changes
# ---------------------------------------------------------------------------


def test_beltrami_examples(params):
    x = beltrami(EmbeddingPoint(2.0, 0.0, math.sqrt(3.0), 0.0), params)
    npt.assert_allclose(x, (0.0, math.sqrt(3.0) / 2.0, 0.0), rtol=1e-15, atol=1e-15)
    x = beltrami(EmbeddingPoint(math.sqrt(2.0), 0.0, 1.0, 0.0), params)
    npt.assert_allclose(x, (0.0, math.sqrt(0.5), 0.0), rtol=1e-15, atol=1e-15)


def test_beltrami_undefined_on_cone(params):
    with pytest.raises(ValueError):
        beltrami(EmbeddingPoint(0.0, 1.0, 1.0, 1.0), params)


def test_phase_transition_preserves_generators(params):
    st = PhaseState(ChartPoint(ChartId.INNER_PLUS, 0.9, 0.4, 1.0), 0.3, -0.2, 0.5)
    ph = momentum_lift(st, params)
    moved = momentum_project(ph, chart_select(ph.z, params), params)
    g0 = generators(st, params)
    g1 = generators(moved, params)
    npt.assert_allclose(g1.l + g1.n, g0.l + g0.n, rtol=1e-12, atol=1e-12)
