"""Bracket products: values, integrals, norms, symmetry."""

import math

import numpy as np
import pytest

from qha.algebra import (
    AlgebraElement,
    ParameterError,
    p_norm,
    power,
    random_element,
    random_positive_element,
    stack,
    trace,
    weighted_sum,
)
from qha.actions import (
    WaveletAction,
    WaveletDesign,
    conjugation_action,
    left_translation_action,
)
from qha.bracket import (
    bracket,
    bracket_symmetry_defect,
    function_p_norm,
)
from qha.duflo import run_check, run_suite, suite_entry
from qha.groups import cyclic, probability_haar
from qha.scenarios import BUILTIN_IDS, ScenarioSpec, build_scenario, builtin

from helpers import loop_bump_vector, nodes_of, weyl_heisenberg

FINITE_BUILTINS = tuple(sid for sid in BUILTIN_IDS if not sid.startswith("affine-wavelet"))


def _delta(act, t):
    blocks = np.zeros(act.shape.blocks_shape, dtype=complex)
    blocks[t, 0, 0] = 1.0
    return AlgebraElement(act.shape, blocks)


class TestBracketValues:
    def test_identity_pair_is_constant_trace(self):
        act = conjugation_action(*weyl_heisenberg(2))
        one = act.shape.identity()
        assert np.allclose(bracket(one, one, act), trace(one))

    def test_translation_indicator(self):
        act = left_translation_action(cyclic(2))
        d = _delta(act, 0)
        assert np.allclose(bracket(d, d, act), [1.0, 0.0])

    def test_rank_one_inner_products(self):
        # matrix-coefficient form: the bracket of rank-one projections is the
        # squared modulus of the vector inner product, checked directly
        G, U = weyl_heisenberg(3)
        act = conjugation_action(G, U)
        rng = np.random.default_rng(0)
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        eta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = AlgebraElement(act.shape, [np.outer(xi, xi.conj())])
        y = AlgebraElement(act.shape, [np.outer(eta, eta.conj())])
        values = bracket(x, y, act)
        for g in G.elements():
            ip = np.vdot(U[g] @ eta, xi)  # <xi, U_g eta>
            assert values[g] == pytest.approx(abs(ip) ** 2, abs=1e-11)

    def test_path_pair_consistency_all_builtins(self):
        # for positive pairs trace((g.y)* x) equals trace(x^{1/2}(g.y)x^{1/2});
        # the quadrature scenario is sampled on a node subset
        for sid in FINITE_BUILTINS + ("affine-wavelet:coarse",):
            scn = build_scenario(builtin(sid))
            rng = scn.rng("path-pair")
            x = scn.action.random_positive(rng)
            y = scn.action.random_positive(rng)
            root = power(x, 0.5)
            vals = scn.action.bracket_values(x, y)
            scale = 1 + np.abs(vals).max()
            nodes = nodes_of(scn.action)
            stride = max(1, len(nodes) // 40)
            for i in range(0, len(nodes), stride):
                other = trace(root @ scn.action.apply(nodes[i], y) @ root)
                assert abs(vals[i] - other) <= 1e-11 * scale, sid

    def test_positive_pairs_give_nonnegative_values(self):
        for sid in FINITE_BUILTINS + ("affine-wavelet:coarse",):
            scn = build_scenario(builtin(sid))
            rng = scn.rng("positivity")
            x = scn.action.random_positive(rng)
            y = scn.action.random_positive(rng)
            vals = scn.action.bracket_values(x, y)
            scale = np.abs(vals).max()
            assert np.abs(vals.imag).max() <= 1e-10 * scale, sid
            assert vals.real.min() >= -1e-10 * scale, sid

    def test_covariance(self):
        # <h.x|y>(g) = <x|y>(h^{-1} g) on finite groups
        act = conjugation_action(*weyl_heisenberg(2))
        rng = np.random.default_rng(1)
        x = random_element(act.shape, rng)
        y = random_element(act.shape, rng)
        base = bracket(x, y, act)
        G = act.group
        for h in G.elements():
            moved = bracket(act.apply(h, x), y, act)
            for g in G.elements():
                assert moved[g] == pytest.approx(base[G.compose(G.inverse(h), g)], abs=1e-10)

class TestBracketIntegral:
    def test_translation_delta(self):
        act = left_translation_action(cyclic(2))
        d = _delta(act, 0)
        assert weighted_sum(bracket(d, d, act), act.haar.weights) == pytest.approx(1.0)

    def test_wh_rank_one_double_sum_oracle(self):
        # oracle: the exhaustive double sum over all group elements and matrix
        # entries, for a unit vector, equals n * ||xi||^4 = n
        n = 4
        G, U = weyl_heisenberg(n)
        act = conjugation_action(G, U)
        rng = np.random.default_rng(2)
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi = xi / np.linalg.norm(xi)
        x = AlgebraElement(act.shape, [np.outer(xi, xi.conj())])
        oracle = 0.0
        for g in G.elements():
            oracle += abs(np.vdot(U[g] @ xi, xi)) ** 2
        val = weighted_sum(bracket(x, x, act), act.haar.weights)
        assert val.real == pytest.approx(oracle, rel=1e-12)
        assert val.real == pytest.approx(float(n), rel=1e-10)

    def test_traceless_gives_zero(self):
        act = conjugation_action(*weyl_heisenberg(3))
        rng = np.random.default_rng(3)
        x = random_element(act.shape, rng)
        x = x - (trace(x) / trace(act.shape.identity())) * act.shape.identity()
        y = random_positive_element(act.shape, rng)
        val = act.bracket_integral(y, x)
        # conjugate-linear slot: traceless y-argument kills the integral
        val2 = act.bracket_integral(x, y)
        assert abs(val2) <= 1e-10 * (1 + abs(trace(y)))


class TestFunctionNorm:
    def test_constant_probability(self):
        G, U = weyl_heisenberg(2)
        act = conjugation_action(G, U, haar=probability_haar(G))
        one = act.shape.identity()
        values = bracket((1 / 2.0) * one, one, act)
        for r in (1.0, 2.0, 3.0, math.inf):
            assert function_p_norm(values, act.haar.weights, r) == pytest.approx(1.0)

    def test_indicator_counting(self):
        act = left_translation_action(cyclic(2))
        values = bracket(_delta(act, 0), _delta(act, 0), act)
        assert function_p_norm(values, act.haar.weights, 2.0) == pytest.approx(1.0)

    def test_norm_scales_with_the_weights(self):
        # ||f||_r against c w is c^{1/r} times the norm against w; the sup ignores w
        act = conjugation_action(*weyl_heisenberg(3))
        rng = np.random.default_rng(6)
        values = bracket(random_element(act.shape, rng), random_element(act.shape, rng), act)
        w = act.haar.weights
        for r in (1.0, 1.5, 2.0, math.inf):
            scale = 1.0 if r == math.inf else 3.0 ** (1.0 / r)
            assert function_p_norm(values, 3.0 * w, r) == pytest.approx(scale * function_p_norm(values, w, r),
                                                                         rel=1e-13)

    def test_rejects_small_exponent(self):
        act = left_translation_action(cyclic(2))
        values = bracket(_delta(act, 0), _delta(act, 0), act)
        with pytest.raises(ParameterError):
            function_p_norm(values, act.haar.weights, 0.9)

    def test_refinement_consistency_on_quadrature(self):
        # grid-refinement oracle: the same continuum pair gives consistent
        # function norms across two quadrature resolutions
        base = WaveletDesign(steps_per_octave=8, octaves=4, max_shift=8,
                             b_extent=4.0, n_b=64, support_octaves=0.5)
        vals = []
        for design in (base, base.scaled(2)):
            act = WaveletAction(design)

            def state(center, width):
                v = loop_bump_vector(act, center, width)
                v = v / np.linalg.norm(v)  # same continuum state at every grid
                return AlgebraElement(act.shape, [np.outer(v, v.conj())])

            x = state(0.0, 0.15)
            y = state(0.1, 0.2)
            vals.append(function_p_norm(bracket(x, y, act), act.haar.weights, 2.0))
        assert abs(vals[0] - vals[1]) <= 1e-2 * abs(vals[1])


class TestSymmetry:
    def test_positive_pair_defect_small(self):
        act = conjugation_action(*weyl_heisenberg(3))
        rng = np.random.default_rng(4)
        x = random_positive_element(act.shape, rng)
        y = random_positive_element(act.shape, rng)
        assert bracket_symmetry_defect(x, y, act) <= 1e-10

    def test_translation_scenario(self):
        act = left_translation_action(cyclic(5))
        rng = np.random.default_rng(5)
        x = random_positive_element(act.shape, rng)
        y = random_positive_element(act.shape, rng)
        assert bracket_symmetry_defect(x, y, act) <= 1e-12

    @pytest.mark.parametrize("sid", FINITE_BUILTINS)
    def test_general_pair_defect_at_roundoff(self, sid):
        # <x|y>(g^{-1}) = conj(<y|x>(g)) for non-hermitian x and y too.  Each
        # value sums K = t n^2 + 1 weighted products of the entries of x and
        # of g.y, and forming g.y = U y U* adds 2n roundings of at most
        # |U| |y| |U*|, whose Frobenius norm is n ||y||_F: the value is off by
        # at most (K + 2 n^2) u ||x||_2 ||y||_2 (gamma_k ~ k u, the action
        # keeping ||.||_2), and the defect, a difference of two values, by
        # twice that, relative to max |<x|y>|
        act = build_scenario(ScenarioSpec(sid)).action
        rng = np.random.default_rng(8)
        x, y = (random_element(act.shape, rng, trials=3) for _ in range(2))
        t, n, _ = act.shape.blocks_shape
        u = np.finfo(float).eps / 2
        scale = p_norm(x, 2.0) * p_norm(y, 2.0) / np.abs(act.bracket_values(x, y)).max(axis=-1)
        assert (bracket_symmetry_defect(x, y, act) <= 2 * (t * n * n + 1 + 2 * n * n) * u * scale).all()

    def test_general_pair_defect_needs_the_conjugate(self):
        # without the conjugate the identity holds only where the bracket is
        # real: general draws miss it by order one
        for sid in ("wh:4", "irrep:s3:std", "translation:cyclic(6)", "twisted-dual:4:1",
                    "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2"):
            act = build_scenario(ScenarioSpec(sid)).action
            rng = np.random.default_rng(8)
            x, y = act.random_element(rng), act.random_element(rng)
            vxy = act.bracket_values(x, y)
            plain = np.abs(vxy[act.group.inverse_table] - act.bracket_values(y, x)).max()
            assert plain > 0.1 * np.abs(vxy).max(), sid

    def test_trivial_group(self):
        act = left_translation_action(cyclic(1))
        one = act.shape.identity()
        assert bracket_symmetry_defect(one, one, act) == 0.0

    def test_wavelet_general_pair_defect_at_roundoff(self, monkeypatch):
        # the inverse of a quadrature node is not a node, so both sides are
        # formed through apply at the sampled nodes: no bracket kernel runs.
        # Each value sums K^2 products of the entries of x and of a moved y,
        # whose entries take two phases of a few roundings each: as in the
        # finite bound, the defect is at most 2 (K^2 + 16) u ||x||_2 ||y||_2
        # relative to the largest value, and a stack gives its trials' values
        act = WaveletAction(WaveletDesign(steps_per_octave=8, octaves=4, max_shift=8,
                                          b_extent=2.0, n_b=32, support_octaves=0.5))

        def no_brackets(*args):
            raise AssertionError("bracket kernel evaluated for the sampled symmetry defect")

        monkeypatch.setattr(act, "bracket_values", no_brackets)
        rng = np.random.default_rng(6)
        xs, ys = ([act.random_element(rng) for _ in range(3)] for _ in range(2))
        singles = [bracket_symmetry_defect(x, y, act) for x, y in zip(xs, ys)]
        assert bracket_symmetry_defect(stack(xs), stack(ys), act).tolist() == singles
        u, K = np.finfo(float).eps / 2, act.grid_size
        for x, y, defect in zip(xs, ys, singles):
            g_inv = [act.group.inverse(g) for g in act.sample_elements]
            largest = max(abs(trace(act.apply(h, y).adjoint() @ x)) for h in g_inv)
            assert 0.0 < defect <= 2 * (K * K + 16) * u * p_norm(x, 2.0) * p_norm(y, 2.0) / largest

    @pytest.mark.parametrize("preset", ["default", "fine"])
    def test_sampled_inverses_leave_the_node_grid(self, preset):
        # (a, b)^{-1} = (1/a, -b/a): 1/a is on the log-symmetric a axis, -b/a
        # is off the b axis whenever a != 1; apply there undoes apply at the node
        act = build_scenario(ScenarioSpec(f"affine-wavelet:{preset}")).action
        group = act.group
        x = act.random_element(np.random.default_rng(2))
        for g in act.sample_elements:
            a_inv, b_inv = group.inverse(g)
            assert np.abs(group.a_nodes - a_inv).min() <= 1e-15
            assert (np.abs(group.b_nodes - b_inv).min() > 1e-4) == (abs(g[0] - 1.0) > 1e-9)
            back = act.apply(group.inverse(g), act.apply(g, x))
            assert (back - x).max_abs_entry() <= 1e-15 * x.max_abs_entry()

    def test_wavelet_row_is_measured_without_the_node_grid(self):
        # the row passes at roundoff on both presets (1.67e-16 and 1.78e-16
        # at seed 1729), and a suite run still forms no node array
        for preset in ("default", "fine"):
            scn = build_scenario(ScenarioSpec(f"affine-wavelet:{preset}"))
            reports = run_suite(scn)
            assert "nodes" not in vars(scn.action.group)
            (row,) = [r for r in reports if r.name == "bracket-symmetry"]
            assert row.passed and not row.skipped and row.tol_abs == 1e-10
            assert 0.0 < row.lhs < 1e-15

    @pytest.mark.parametrize("preset", ["default", "fine"])
    def test_mutant_that_skips_the_inverse_fails_the_wavelet_row(self, preset, monkeypatch):
        # applying g where g^{-1} belongs, on the suite's own draws
        scn = build_scenario(ScenarioSpec(f"affine-wavelet:{preset}"))
        monkeypatch.setattr(scn.action.group, "inverse", lambda p: np.asarray(p, dtype=float))
        (row,) = run_check(suite_entry("bracket-symmetry"), scn, None, scn.rng("symmetry"), 1)
        assert not row.passed and row.lhs > 0.1

