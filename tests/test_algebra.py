"""Block algebra: trace, norms, spectral powers, stacked block batching."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qha.algebra
from qha.algebra import (
    AlgebraElement,
    AlgebraShape,
    DomainError,
    NotPositiveError,
    ParameterError,
    ShapeMismatchError,
    _singular_values,
    eigh_blocks,
    eigvalsh_blocks,
    op_norm,
    p_norm,
    power,
    random_element,
    random_positive_element,
    sup_distance,
    trace,
    trace_pairing,
)
from qha.actions import WaveletAction, WaveletDesign
from qha.duflo import ALT_POWERS, HOLDER_GRID, DufloEstimate, run_suite
from qha.scenarios import ScenarioSpec, build_scenario

M2 = AlgebraShape(2, (1.0,))
PAIR = AlgebraShape(2, (0.25, 0.75))
BIG = AlgebraShape(3, (1.0, 0.5))


def diag2(a, b, shape=M2):
    return AlgebraElement(shape, [np.diag([a, b]).astype(complex)])


class TestShape:
    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatchError):
            AlgebraShape(2, ())

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ShapeMismatchError):
            AlgebraShape(2, (0.0,))

    def test_rejects_bad_dim(self):
        with pytest.raises(ShapeMismatchError):
            AlgebraShape(0, (1.0,))

    def test_element_needs_the_block_axis(self):
        with pytest.raises(ShapeMismatchError):
            AlgebraElement(M2, np.eye(2))

    def test_element_rejects_non_square_blocks(self):
        with pytest.raises(ShapeMismatchError):
            AlgebraElement(BIG, np.zeros((2, 3, 2)))

    def test_total_dim(self):
        assert BIG.total_dim == 9 + 9

    def test_basis_spans(self):
        basis = list(BIG.basis())
        assert len(basis) == BIG.total_dim
        vecs = np.array([e.vec() for e in basis])
        assert np.linalg.matrix_rank(vecs) == BIG.total_dim


class TestTrace:
    def test_identity_m2(self):
        assert trace(M2.identity()) == pytest.approx(2.0)

    def test_identity_weighted(self):
        # two 2 x 2 blocks with weights [0.25, 0.75]: 0.25 * 2 + 0.75 * 2 = 2
        assert trace(PAIR.identity()) == pytest.approx(2.0)

    def test_traceless_diag(self):
        assert trace(diag2(1.0, -1.0)) == pytest.approx(0.0)

    def test_linear(self):
        rng = np.random.default_rng(0)
        x, y = random_element(BIG, rng), random_element(BIG, rng)
        lhs = trace(2.0 * x + (1 - 1j) * y)
        assert lhs == pytest.approx(2.0 * trace(x) + (1 - 1j) * trace(y))

    def test_positive_on_squares(self):
        rng = np.random.default_rng(1)
        x = random_element(BIG, rng)
        val = trace(x.adjoint() @ x)
        assert val.real > 0 and abs(val.imag) < 1e-12 * val.real

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            M2.identity() + BIG.identity()

    def test_pairing_is_the_trace_of_the_product(self):
        rng = np.random.default_rng(2)
        a, b = random_element(BIG, rng), random_element(BIG, rng)
        assert trace_pairing(a, b) == pytest.approx(trace(a @ b), rel=1e-13)
        assert trace_pairing(a, b) == pytest.approx(trace_pairing(b, a), rel=1e-13)

    def test_pairing_does_not_depend_on_the_layout(self):
        # an F-ordered D^{-1} with the same entries gives the same bits,
        # against a C-ordered element, its adjoint view and a stack of them
        shape = AlgebraShape(97, (0.25, 0.75))
        rng = np.random.default_rng(3)
        d, y = random_positive_element(shape, rng), random_element(shape, rng)
        f = AlgebraElement(shape, np.asfortranarray(d.blocks))
        assert f.blocks.flags.f_contiguous and np.array_equal(f.blocks, d.blocks)
        ys = AlgebraElement(shape, np.stack([y.blocks, y.adjoint().blocks]))
        for b in (y, y.adjoint(), ys):
            assert np.array_equal(trace_pairing(f, b), trace_pairing(d, b))
        assert np.array_equal(trace_pairing(d, ys), [trace_pairing(d, y), trace_pairing(d, y.adjoint())])

    def test_pairing_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            trace_pairing(M2.identity(), PAIR.identity())


class TestPNorm:
    def test_diag_p2(self):
        assert p_norm(diag2(3.0, 4.0), 2.0) == pytest.approx(5.0)

    def test_diag_sup(self):
        assert p_norm(diag2(3.0, 4.0), math.inf) == pytest.approx(4.0)

    def test_weighted_p1(self):
        shape = AlgebraShape(2, (0.5,))
        assert p_norm(diag2(1.0, 1.0, shape), 1.0) == pytest.approx(1.0)

    def test_rejects_small_exponent(self):
        with pytest.raises(ParameterError):
            p_norm(M2.identity(), 0.5)

    def test_zero(self):
        assert p_norm(BIG.zero(), 3.0) == 0.0

    def test_p2_is_weighted_frobenius_without_svd(self, monkeypatch):
        # squared singular values sum to squared entries, block by block
        shape = AlgebraShape(4, (1.0, 0.5, 2.0, 0.25))
        x = random_element(shape, np.random.default_rng(32))
        ref = sum(w * np.sum(np.linalg.svd(b, compute_uv=False) ** 2)
                  for w, b in zip(shape.trace_weights, x.blocks)) ** 0.5

        def no_svd(*args, **kwargs):
            raise AssertionError("p = 2 must not take an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert p_norm(x, 2.0) == pytest.approx(ref, rel=1e-14)


class TestPositiveSqrt:
    def test_diagonal(self):
        s = power(diag2(4.0, 9.0), 0.5)
        assert sup_distance(s, diag2(2.0, 3.0)) < 1e-12

    def test_zero(self):
        assert sup_distance(power(M2.zero(), 0.5), M2.zero()) == 0.0

    def test_reassembly(self):
        # derived check: the square of the root reproduces the input
        x = AlgebraElement(M2, [np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)])
        s = power(x, 0.5)
        assert sup_distance(s @ s, x) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            power(diag2(1.0, -1.0), 0.5)

    def test_clamps_noise(self):
        x = diag2(1.0, -1e-14)
        s = power(x, 0.5)
        assert sup_distance(s @ s, diag2(1.0, 0.0)) < 1e-12


class TestPower:
    def test_domain_error(self):
        with pytest.raises(DomainError):
            power(diag2(0.0, 1.0), -0.5)

    def test_rejects_non_hermitian(self):
        x = AlgebraElement(M2, [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
        with pytest.raises(NotPositiveError):
            power(x, 2.0)

    def test_power_composes(self):
        rng = np.random.default_rng(3)
        x = random_positive_element(BIG, rng)
        half = power(x, 0.5)
        assert sup_distance(half @ half, x) < 1e-10 * op_norm(x)
        inv = power(x, -1.0)
        assert sup_distance(inv @ x, BIG.identity()) < 1e-8


# Several blocks with distinct weights, which catch a weight paired with the
# wrong block.
WEIGHTED = AlgebraShape(3, (1.0, 0.5, 2.0, 0.25, 3.0))


def _block_spectra(x):
    return [np.linalg.eigh(0.5 * (b + b.conj().T)) for b in x.blocks]


def _per_block(x, f):
    """Reference functional calculus, one eigendecomposition per block."""
    return AlgebraElement(x.shape, [(v * f(w)) @ v.conj().T for w, v in _block_spectra(x)])


class TestSizeClasses:
    """Stacked spectral work over all blocks against a per-block reference."""

    def test_basis_is_vec_order(self):
        # vec and basis run block by block, row-major inside each block
        vecs = np.array([e.vec() for e in WEIGHTED.basis()])
        assert np.array_equal(vecs, np.eye(WEIGHTED.total_dim))

    def test_trace_and_norms(self):
        x = random_element(WEIGHTED, np.random.default_rng(30))
        w = WEIGHTED.trace_weights
        ref_trace = sum(wk * np.trace(b) for wk, b in zip(w, x.blocks))
        assert abs(trace(x) - ref_trace) <= 1e-14 * abs(ref_trace)
        sv = [np.linalg.svd(b, compute_uv=False) for b in x.blocks]
        ref_op = max(s[0] for s in sv)
        assert op_norm(x) == pytest.approx(ref_op, rel=1e-14)
        assert p_norm(x, math.inf) == pytest.approx(ref_op, rel=1e-14)
        for p in (1.0, 4 / 3, 2.0):
            ref = sum(wk * np.sum(s ** p) for wk, s in zip(w, sv)) ** (1.0 / p)
            assert p_norm(x, p) == pytest.approx(ref, rel=1e-13)

    def test_spectral_functions(self):
        x = random_positive_element(WEIGHTED, np.random.default_rng(31))
        tol = 1e-12 * x.max_abs_entry()
        assert sup_distance(power(x, 0.5), _per_block(x, np.sqrt)) <= tol
        for t in (-0.5, 0.25, 2.0):
            ref = _per_block(x, lambda w: w ** t)
            assert sup_distance(power(x, t), ref) <= 1e-10 * ref.max_abs_entry()
        assert eigh_blocks(x)[0].min() > 0

    def test_duflo_estimate_power(self):
        d_inv = random_positive_element(WEIGHTED, np.random.default_rng(32))
        est = DufloEstimate(d_inverse=d_inv)
        for t in (-0.5, 0.5, 1.0):
            ref = _per_block(d_inv, lambda w: w ** (-t))
            assert sup_distance(est.power(t), ref) <= 1e-10 * ref.max_abs_entry()


# A commutative algebra: 1 x 1 blocks with distinct weights.
SCALAR = AlgebraShape(1, (1.0, 0.5, 2.0, 0.25, 3.0))
# numpy.linalg routines that call LAPACK
LAPACK_ROUTINES = ("svd", "eigh", "eigvalsh", "eig", "eigvals", "cholesky", "solve", "inv",
                   "qr", "lstsq", "pinv", "det", "slogdet")


class TestScalarBlocks:
    """1 x 1 blocks read their spectra off the entries, with no LAPACK call."""

    @staticmethod
    def entries(seed):
        # a stack of 64 trials whose entries span 58 binades, so that a
        # slip in scaling shows
        rng = np.random.default_rng(seed)
        z = random_element(SCALAR, rng, trials=64).blocks
        return z * np.exp(rng.uniform(-20.0, 20.0, z.shape))

    def test_singular_values_match_lapack(self):
        # LAPACK turns the entry a + ib real by a reflector of modulus
        # w sqrt((a/w)^2 + (b/w)^2), w = max(|a|, |b|) (dlapy3): the
        # quotients, their squares and the sum carry 4u under the root, which
        # halves it, and the root and the product by w add u each, 4u in all.
        # np.abs is hypot, within u.  So the two agree to 5u |z|.
        z = self.entries(50)
        ref = np.linalg.svd(z, compute_uv=False)
        s = _singular_values(z)
        assert s.shape == ref.shape
        assert (np.abs(s - ref) <= 5 * (np.finfo(float).eps / 2) * np.abs(z[..., 0])).all()

    def test_eigenpairs_match_lapack(self):
        # LAPACK's hermitian solvers take a 1 x 1 block's real entry and the
        # eigenvector 1 without arithmetic (their n = 1 quick return), and
        # the hermitian part (z + conj z) / 2 of a 1 x 1 block is its real
        # part exactly: no rounding on either side
        z = self.entries(51)
        x = AlgebraElement(SCALAR, z.real + 1e-12j * z.imag)
        h = 0.5 * (x.blocks + x.blocks.conj())
        w, v = eigh_blocks(x)
        ref_w, ref_v = np.linalg.eigh(h)
        assert w.shape == ref_w.shape and v.shape == ref_v.shape
        assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)
        assert np.array_equal(eigvalsh_blocks(x), np.linalg.eigvalsh(h))
        assert np.array_equal(w, z.real[..., 0])

    @pytest.mark.parametrize("sid", ["translation:cyclic(64)", "irrep:cyclic(8):chi3", "wh:2"])
    def test_suite_takes_no_lapack_call_on_scalar_blocks(self, sid, monkeypatch):
        # every numpy.linalg routine records the shape it is called on; the
        # 2 x 2 blocks of wh:2 show that the suite's calls are seen
        calls = []
        for name in LAPACK_ROUTINES:
            def counted(a, *args, _f=getattr(np.linalg, name), **kwargs):
                calls.append(np.shape(a))
                return _f(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        reports = run_suite(build_scenario(ScenarioSpec(sid)))
        assert all(r.passed for r in reports)
        assert [shape for shape in calls if shape[-1:] == (1,)] == []
        assert calls or sid != "wh:2"


class TestSupportBlocks:
    """A block with zero rows or columns takes its SVD on its nonzero rows and
    columns only."""

    # LAPACK's SVD is backward stable: the computed values are the exact ones
    # of A + E with ||E||_2 <= p(n) u ||A||_2, and we take p(n) = c n with
    # c = 4.  By Weyl's inequality |sigma_i(A + E) - sigma_i(A)| <= ||E||_2
    # (Golub and Van Loan, Matrix Computations, 8.6), so the values of the
    # whole block and of its support (an exact copy of the nonzero entries,
    # whose other values are exact zeros) each lie within c n u ||A||_2 of
    # the exact ones, and within c n eps ||A||_2 of each other.
    C = 4

    @staticmethod
    def blocks(seed, n, trials=24):
        # Gaussian blocks over about 12 binades with rows and columns zeroed
        # at random, each trial at its own rate: square and rectangular
        # supports, full and nearly empty ones, and a trial with no support
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((trials, 1, n, n)) + 1j * rng.standard_normal((trials, 1, n, n))
        b *= np.exp(rng.uniform(-4.0, 4.0, (trials, 1, 1, 1)))
        for k, rate in enumerate(np.linspace(0.0, 0.95, trials - 1)):
            b[k, 0, rng.random(n) < rate] = 0.0
            b[k, 0, :, rng.random(n) < rng.uniform(0.0, rate)] = 0.0
        b[-1] = 0.0
        return b

    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_singular_values_match_the_whole_block(self, n):
        b = self.blocks(60 + n, n)
        ref = np.linalg.svd(b, compute_uv=False)
        s = _singular_values(b)
        assert s.shape == ref.shape
        assert (np.diff(s, axis=-1) <= 0).all()
        bound = self.C * n * np.finfo(float).eps * ref[..., :1]
        assert (np.abs(s - ref) <= bound).all()
        assert not s[-1].any()
        rows, cols = (b != 0).any(axis=-1), (b != 0).any(axis=-2)
        rank = np.minimum(rows.sum(axis=-1), cols.sum(axis=-1))
        assert [not row[r:].any() for row, r in zip(s.reshape(-1, n), rank.ravel())] == [True] * len(b)

    def test_a_stack_gives_each_trial_its_own_values(self):
        # each block is taken on its own support, never on a union across
        # trials; a stack of full blocks takes one call, as a lone block does
        b = self.blocks(70, 9)
        s = _singular_values(b)
        assert all(s[i].tobytes() == _singular_values(b[i]).tobytes() for i in range(len(b)))
        full = np.random.default_rng(71).standard_normal((6, 2, 9, 9)) + 0j
        assert _singular_values(full).tobytes() == np.linalg.svd(full, compute_uv=False).tobytes()
        mixed = np.concatenate([full[:, :1], b[:6]], axis=1)
        assert _singular_values(mixed)[:, 0].tobytes() == _singular_values(full[:, 0]).tobytes()

    @pytest.mark.parametrize("sid", ["affine-wavelet:default", "wh:4", "irrep:s3:std",
                                     "twisted-dual:4:1"])
    def test_suite_svds_take_the_support(self, sid, monkeypatch):
        # every SVD call is recorded with the stack it was made for: the
        # finite draws are Gaussian, so each stack takes one call of its own
        # full (..., n, n) shape, as before; a wavelet element takes one call
        # on its nonzero rows and columns, one trial at a time
        asked = []

        def singular_values(b, _f=qha.algebra._singular_values):
            asked.append((b, []))
            return _f(b)

        def svd(a, *args, _f=np.linalg.svd, **kwargs):
            asked[-1][1].append(np.shape(a))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(qha.algebra, "_singular_values", singular_values)
        monkeypatch.setattr(np.linalg, "svd", svd)
        scn = build_scenario(ScenarioSpec(sid))
        assert all(r.passed for r in run_suite(scn))
        assert asked
        for b, shapes in asked:
            n = b.shape[-1]
            rows, cols = ((b != 0).any(axis=a).reshape(-1, n).sum(axis=-1) for a in (-1, -2))
            if sid.startswith("affine-wavelet"):
                assert (rows < n).any() or (cols < n).any()
                assert shapes == [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if r]
            else:
                assert (rows == n).all() and (cols == n).all() and shapes == [b.shape]
        if sid.startswith("affine-wavelet"):
            assert len(asked) == sum(len(shapes) for _, shapes in asked)
            assert max(max(shape) for _, shapes in asked for shape in shapes) < scn.action.shape.block_dim


@pytest.mark.parametrize("shape", [M2, AlgebraShape(1, (1.0,) * 5),
                                   AlgebraShape(3, (1.0, 0.5))],
                         ids=["one-block", "diagonal", "two-equal-blocks"])
def test_random_element_draws_block_by_block(shape):
    # the stacked draw consumes the stream as the per-block draws in block
    # order do, so every seed keeps its values
    x = random_element(shape, np.random.default_rng(40))
    rng = np.random.default_rng(40)
    n = shape.block_dim
    ref = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
           for _ in shape.trace_weights]
    assert all(np.array_equal(b, r) for b, r in zip(x.blocks, ref))


class TestInvariants:
    def test_traciality_seeded(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = random_element(BIG, rng), random_element(BIG, rng)
            bound = 1e-11 * (1.0 + p_norm(x, 2.0) * p_norm(y, 2.0))
            assert abs(trace(x @ y) - trace(y @ x)) <= bound

    def test_faithfulness(self):
        # trace(x* x) dominates the square of the largest entry
        rng = np.random.default_rng(12)
        wmin = min(BIG.trace_weights)
        for _ in range(50):
            x = random_element(BIG, rng)
            assert trace(x.adjoint() @ x).real >= wmin * x.max_abs_entry() ** 2 - 1e-12
        z = BIG.zero()
        assert trace(z.adjoint() @ z) == 0.0 and op_norm(z) <= 1e-10

    # the Hölder and sandwich-power (Araki-Lieb-Thirring) inequalities over
    # the exponent grids of the report's holder-inequality and alt-inequality
    # rows, which read neither D nor the action
    def test_holder_seeded(self):
        rng = np.random.default_rng(13)
        for i in range(200):
            x, y = random_element(BIG, rng), random_element(BIG, rng)
            p, q, r = HOLDER_GRID[i % len(HOLDER_GRID)]
            assert p_norm(x @ y, r) <= p_norm(x, p) * p_norm(y, q) + 1e-9

    def test_sandwich_power_seeded(self):
        # trace((b a b)^r) <= trace(b^r a^r b^r) for positive a, b, integer r
        rng = np.random.default_rng(14)
        for i in range(200):
            a = random_positive_element(M2, rng)
            b = random_positive_element(M2, rng)
            r = ALT_POWERS[i % len(ALT_POWERS)]
            bab = b @ a @ b
            lhs_el = bab
            for _ in range(r - 1):
                lhs_el = lhs_el @ bab
            ar = a
            br = b
            for _ in range(r - 1):
                ar = ar @ a
                br = br @ b
            lhs = trace(lhs_el).real
            rhs = trace(br @ ar @ br).real
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    def test_holder_and_sandwich_power_on_wavelet_draws(self):
        # the wavelet's bump elements, whose norms take their SVD on the
        # bumps' supports, at the report rows' relative bound 1e-9
        act = WaveletAction(WaveletDesign())
        rng = np.random.default_rng(15)
        for _ in range(2):
            for p, q, r in HOLDER_GRID:
                x, y = act.random_element(rng), act.random_element(rng)
                assert p_norm(x @ y, r) <= p_norm(x, p) * p_norm(y, q) * (1 + 1e-9)
            for r in ALT_POWERS:
                a, b = act.random_positive(rng), act.random_positive(rng)
                ar, br = (AlgebraElement(act.shape, np.linalg.matrix_power(z.blocks, r)) for z in (a, b))
                lhs = trace(AlgebraElement(act.shape, np.linalg.matrix_power((b @ a @ b).blocks, r))).real
                assert lhs <= trace(br @ ar @ br).real * (1 + 1e-9)

@st.composite
def small_elements(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    re = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    im = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    mat = (np.array(re) + 1j * np.array(im)).reshape(n, n)
    shape = AlgebraShape(n, (1.0,))
    return AlgebraElement(shape, mat[None])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_elements())
def test_adjoint_square_is_positive(x):
    xx = x.adjoint() @ x
    assert eigh_blocks(xx)[0].min() >= -1e-10 * (1 + op_norm(xx))
    s = power(xx, 0.5)
    assert sup_distance(s @ s, xx) <= 1e-9 * (1.0 + op_norm(xx))
