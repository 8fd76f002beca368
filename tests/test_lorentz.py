"""Minkowski linear algebra: quadratic form, isometries, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzgeo import verify
from btzgeo.errors import InvalidIsometryError
from btzgeo.lorentz import (
    MINKOWSKI_METRIC,
    LorentzIsometry,
    boost_tx,
    classify_isometry,
    classify_vector,
    fixed_null_direction,
    hyperboloid_embed,
    minkowski_inner,
    q_form,
    rotation_about_t_axis,
)

# standard parabolic with unit deck parameter: I + N + N^2/2 for the
# nilpotent N fixing (1, 1, 0)
PARABOLIC = np.array(
    [[1.5, -0.5, -1.0], [0.5, 0.5, -1.0], [-1.0, 1.0, 1.0]]
)


@st.composite
def isometries(draw):
    g = LorentzIsometry.identity()
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            g = g @ rotation_about_t_axis(draw(st.floats(0.0, 2.0 * math.pi)))
        else:
            g = g @ boost_tx(draw(st.floats(-0.75, 0.75)))
    return g


# a residual check written ``residual > tol`` is false for NaN, so these
# need a finiteness check of their own
NON_FINITE = [
    np.full((3, 3), math.nan),
    np.diag([math.inf, 1.0, 1.0]),
    np.diag([1.0, 1.0, math.nan]),
]


class TestQuadraticForm:
    def test_signature(self):
        assert q_form([1.0, 0.0, 0.0]) == -1.0
        assert q_form([0.0, 1.0, 0.0]) == 1.0
        assert q_form([0.0, 0.0, 1.0]) == 1.0

    def test_polarization(self):
        u = np.array([0.3, -1.2, 0.5])
        v = np.array([2.0, 0.1, -0.7])
        lhs = minkowski_inner(u, v)
        rhs = 0.5 * (q_form(u + v) - q_form(u) - q_form(v))
        assert abs(lhs - rhs) < 1e-12

    def test_vector_classes(self):
        assert classify_vector([0.0, 0.0, 0.0]) == "zero"
        assert classify_vector([1.0, 0.0, 0.0]) == "timelike-future"
        assert classify_vector([-2.0, 0.5, 0.5]) == "timelike-past"
        assert classify_vector([0.0, 1.0, 1.0]) == "spacelike"
        assert classify_vector([1.0, 1.0, 0.0]) == "lightlike-future"
        assert classify_vector([-1.0, 0.0, 1.0]) == "lightlike-past"


class TestHyperboloid:
    def test_known_point(self):
        out = hyperboloid_embed(0.5, 0.0)
        expected = np.array([2.0, 1.0, 0.0]) / math.sqrt(3.0)
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_origin(self):
        assert np.array_equal(hyperboloid_embed(0.0, 0.0), [1.0, 0.0, 0.0])

    @given(
        st.floats(-0.85, 0.85),
        st.floats(-0.85, 0.85),
    )
    @settings(max_examples=50)
    def test_lands_on_unit_sheet(self, x, y):
        if x * x + y * y >= 0.99:
            return
        v = hyperboloid_embed(x, y)
        assert abs(q_form(v) + 1.0) < 1e-9
        assert v[0] >= 1.0 - 1e-12

    def test_rejects_outside_disc(self):
        with pytest.raises(ValueError):
            hyperboloid_embed(1.0, 0.3)


class TestLorentzIsometry:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvalidIsometryError):
            LorentzIsometry(2.0 * np.eye(3))

    def test_rejects_orientation_reversal(self):
        with pytest.raises(InvalidIsometryError):
            LorentzIsometry(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_time_reversal(self):
        # PT has det +1 but flips the time orientation
        with pytest.raises(InvalidIsometryError):
            LorentzIsometry(np.diag([-1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("linear", NON_FINITE)
    def test_rejects_non_finite_entries(self, linear):
        with pytest.raises(InvalidIsometryError, match="non-finite"):
            LorentzIsometry(linear)

    @pytest.mark.parametrize("make", [
        lambda: LorentzIsometry(np.diag([1e200, 1.0, 1.0])),
        lambda: boost_tx(356.0),
        lambda: boost_tx(800.0),
        lambda: boost_tx(np.array([0.5, -800.0])),
    ])
    def test_rejects_entries_too_large_to_check(self, make):
        # the squared scale and the residual overflow: a domain error, and
        # no RuntimeWarning (pytest turns those into errors here)
        with pytest.raises(InvalidIsometryError, match="non-finite"):
            make()

    def test_accepts_a_large_boost(self):
        g = boost_tx(350.0)
        assert g.linear[0, 0] == math.cosh(350.0)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 4), (2, 3, 2)])
    def test_rejects_a_bad_shape(self, shape):
        with pytest.raises(ValueError, match="expected a 3x3 matrix"):
            LorentzIsometry(np.ones(shape))

    @pytest.mark.parametrize("bad, message", [
        (2.0 * np.eye(3), "not eta-orthogonal"),
        (np.diag([1.0, 1.0, -1.0]), r"det\(L\) = -1.0"),
        (np.diag([-1.0, -1.0, 1.0]), "time orientation reversed"),
        (np.diag([1.0, 1.0, math.nan]), "non-finite"),
    ])
    def test_one_bad_matrix_rejects_the_stack(self, bad, message):
        good = boost_tx(0.4).linear
        stack = np.stack([[good, good, bad], [good, 2.0 * np.eye(3), good]])
        # stack order is C order: the bad matrix at [0, 2] comes first
        with pytest.raises(InvalidIsometryError, match=message):
            LorentzIsometry(stack)
        with pytest.raises(InvalidIsometryError, match=message):
            LorentzIsometry(bad)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3), (0,)])
    def test_factor_stacks_match_the_scalar_formulas(self, shape):
        x = np.random.default_rng(5).uniform(-2.0, 2.0, shape)
        rot = rotation_about_t_axis(x).linear
        boost = boost_tx(x).linear
        assert rot.shape == boost.shape == shape + (3, 3)
        for idx in np.ndindex(shape):
            v = float(x[idx])
            c, s = math.cos(v), math.sin(v)
            assert rot[idx].tolist() == [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
            c, s = math.cosh(v), math.sinh(v)
            assert boost[idx].tolist() == [[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]

    def test_stack_products_and_inverse_act_matrix_by_matrix(self):
        x = np.random.default_rng(6).uniform(-1.0, 1.0, (4, 2))
        a, b = rotation_about_t_axis(x), boost_tx(x)
        prod, inv = (a @ b).linear, a.inverse().linear
        for idx in np.ndindex(x.shape):
            one_a = rotation_about_t_axis(x[idx])
            one_b = boost_tx(x[idx])
            assert np.array_equal(prod[idx], (one_a @ one_b).linear)
            assert np.array_equal(inv[idx], one_a.inverse().linear)
        assert np.array_equal(a.apply_linear([1.0, 2.0, 3.0])[1, 0],
                              rotation_about_t_axis(x[1, 0]).apply_linear([1.0, 2.0, 3.0]))

    def test_inverse_closed_form(self):
        g = boost_tx(0.6) @ rotation_about_t_axis(1.1)
        eta = MINKOWSKI_METRIC
        assert np.array_equal(g.inverse().linear, eta @ g.linear.T @ eta)

    def test_rotation_composition(self):
        g = rotation_about_t_axis(0.4) @ rotation_about_t_axis(0.8)
        expect = rotation_about_t_axis(1.2)
        assert np.max(np.abs(g.linear - expect.linear)) <= 1e-9

    @given(isometries(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=50)
    def test_preserves_form(self, g, t, x, y):
        v = np.array([t, x, y])
        assert abs(q_form(g.apply_linear(v)) - q_form(v)) < 1e-10 * (
            1.0 + float(np.dot(v, v))
        )

    @given(isometries())
    @settings(max_examples=50)
    def test_inverse_cancels(self, g):
        assert np.max(np.abs((g.inverse() @ g).linear - np.eye(3))) < 1e-12


class TestClassification:
    def test_identity(self):
        assert classify_isometry(LorentzIsometry.identity())["kind"] == "identity"

    def test_elliptic_angle(self):
        info = classify_isometry(rotation_about_t_axis(1.3))
        assert info["kind"] == "elliptic"
        assert abs(info["angle"] - 1.3) < 1e-12

    def test_elliptic_angle_folds(self):
        # rotations by phi and 2 pi - phi are conjugate; the class reports
        # the representative in (0, pi]
        info = classify_isometry(rotation_about_t_axis(2.0 * math.pi - 1.3))
        assert abs(info["angle"] - 1.3) < 1e-12

    def test_half_turn(self):
        info = classify_isometry(rotation_about_t_axis(math.pi))
        assert info["kind"] == "elliptic"
        assert abs(info["angle"] - math.pi) < 1e-12

    def test_hyperbolic_stretch(self):
        info = classify_isometry(boost_tx(0.9))
        assert info["kind"] == "hyperbolic"
        assert abs(info["stretch"] - math.exp(0.9)) < 1e-12

    def test_parabolic(self):
        info = classify_isometry(LorentzIsometry(PARABOLIC))
        assert info["kind"] == "parabolic"
        assert abs(info["trace"] - 3.0) < 1e-12

    @given(st.floats(0.1, math.pi - 0.1), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=40)
    def test_class_is_conjugacy_invariant(self, phi, psi):
        g = rotation_about_t_axis(phi)
        h = rotation_about_t_axis(psi) @ boost_tx(0.5)
        conj = h @ g @ h.inverse()
        info = classify_isometry(conj)
        assert info["kind"] == "elliptic"
        assert abs(info["angle"] - phi) < 1e-9

    @pytest.mark.parametrize("linear", NON_FINITE)
    def test_raw_non_finite_matrix_raises(self, linear):
        # a raw matrix is not classified; LorentzIsometry is where it is checked
        with pytest.raises(TypeError, match="expected a LorentzIsometry, got ndarray"):
            classify_isometry(linear)
        with pytest.raises(InvalidIsometryError, match="non-finite"):
            classify_isometry(LorentzIsometry(linear))

    def test_stack_raises(self):
        stack = rotation_about_t_axis(np.array([0.3, 1.3]))
        with pytest.raises(ValueError, match="expected one isometry"):
            classify_isometry(stack)


class TestFixedNullDirection:
    def test_parabolic_fixed_ray(self):
        v = fixed_null_direction(LorentzIsometry(PARABOLIC))
        assert np.max(np.abs(v - np.array([1.0, 1.0, 0.0]))) < 1e-9

    def test_rejects_elliptic(self):
        with pytest.raises(ValueError):
            fixed_null_direction(rotation_about_t_axis(0.7))


@pytest.mark.parametrize("call, fragment", [
    pytest.param(
        # parabolic to the 1e-9 trace test, yet its fixed direction is not null
        lambda: fixed_null_direction(
            boost_tx(3.0) @ rotation_about_t_axis(2e-5) @ boost_tx(3.0).inverse()
        ),
        "fixed direction is not null", id="fixed-not-null",
    ),
    pytest.param(lambda: fixed_null_direction(LorentzIsometry(np.stack([PARABOLIC] * 2))),
                 "expected one isometry", id="fixed-stack"),
    pytest.param(lambda: rotation_about_t_axis(math.inf),
                 "rotation angle must be finite, got inf", id="rotation-inf"),
    pytest.param(lambda: rotation_about_t_axis(np.array([0.5, math.nan])),
                 "rotation angle must be finite", id="rotation-nan-entry"),
])
def test_input_guards(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)


class TestRandomIsometries:
    @staticmethod
    def loop_reference(rng, n):
        # one validated product per factor, in the draw order of the stack
        out = []
        for _ in range(n):
            g = LorentzIsometry.identity()
            for _ in range(4):
                if rng.random() < 0.5:
                    g = g @ rotation_about_t_axis(rng.uniform(0.0, 2.0 * math.pi))
                else:
                    g = g @ boost_tx(rng.uniform(-0.75, 0.75))
            out.append(g.linear)
        return np.stack(out)

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_stack_replays_the_loop(self, seed):
        stack = verify._random_isometries(np.random.default_rng(seed), 50)
        reference = self.loop_reference(np.random.default_rng(seed), 50)
        assert np.array_equal(stack.linear, reference)

    @pytest.fixture
    def built(self, monkeypatch):
        shapes = []
        validate = LorentzIsometry.__post_init__

        def counting(self):
            shapes.append(np.shape(self.linear))
            validate(self)

        monkeypatch.setattr(LorentzIsometry, "__post_init__", counting)
        return shapes

    @pytest.mark.parametrize("n", [1, 50, 500])
    def test_three_validations_whatever_n(self, built, n):
        verify._random_isometries(np.random.default_rng(0), n)
        assert built == [(n, 4, 3, 3), (n, 4, 3, 3), (n, 3, 3)]

    def test_a_verify_run_validates_few_isometries(self, built):
        # 562 per run when each sample factor and product was its own object
        verify.run_suites(list(verify.SUITES), 7)
        assert len(built) <= 70
