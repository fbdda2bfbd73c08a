"""Stacks of trials: each kernel gives every trial of a stack the value it
gives that trial alone, bit for bit, and stacking stays within its memory."""

import math
import tracemalloc

import numpy as np
import pytest

from qha.actions import ConjugationAction
from qha.algebra import (
    STACK_BYTES,
    AlgebraElement,
    ParameterError,
    op_norm,
    p_norm,
    stack,
    stack_size,
    trace,
    trace_pairing,
    weighted_sum,
)
from qha.bracket import bracket, function_p_norm
from qha.scenarios import build_scenario, builtin

from helpers import (
    loop_bracket_values,
    loop_function_p_norm,
    loop_p_norm,
    loop_trace,
)

EXPONENTS = (1.0, 4 / 3, 2.0, 4.0, math.inf)
TRIALS = 7


def _stacks(sid, kinds=("general", "general"), trials=TRIALS):
    scn = build_scenario(builtin(sid))
    return scn, scn.action.random_trials(scn.rng("stacks"), kinds, trials)


@pytest.mark.parametrize("sid", ["wh:4", "irrep:s3:std", "translation:cyclic(64)",
                                 "cosets:cyclic(6):cyclic(3)", "twisted-dual:4:1",
                                 "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2"])
class TestAlgebraKernels:
    @pytest.mark.parametrize("p", EXPONENTS)
    def test_p_norm_per_trial(self, sid, p):
        _, (x, _) = _stacks(sid)
        norms = p_norm(x, p)
        assert norms.shape == (TRIALS,)
        assert norms.tolist() == [loop_p_norm(x.trial(i), p) for i in range(TRIALS)]
        assert norms.tolist() == [p_norm(x.trial(i), p) for i in range(TRIALS)]

    def test_p_norm_with_one_exponent_per_trial(self, sid):
        _, (x, _) = _stacks(sid)
        ps = [EXPONENTS[i % len(EXPONENTS)] for i in range(TRIALS)]
        assert p_norm(x, ps).tolist() == [loop_p_norm(x.trial(i), p) for i, p in enumerate(ps)]

    def test_trace_and_pairing_per_trial(self, sid):
        _, (x, y) = _stacks(sid)
        assert trace(x).tolist() == [loop_trace(x.trial(i)) for i in range(TRIALS)]
        assert trace_pairing(x, y.adjoint()).tolist() == [
            trace_pairing(x.trial(i), y.trial(i).adjoint()) for i in range(TRIALS)]

    def test_op_norm_and_products_per_trial(self, sid):
        _, (x, y) = _stacks(sid, ("positive", "general"))
        assert op_norm(x).tolist() == [op_norm(x.trial(i)) for i in range(TRIALS)]
        assert all(np.array_equal((x @ y).blocks[i], (x.trial(i) @ y.trial(i)).blocks)
                   for i in range(TRIALS))

    def test_brackets_per_trial(self, sid):
        scn, (x, y) = _stacks(sid)
        values = scn.action.bracket_values(x, y)
        assert values.shape == (TRIALS, scn.action.haar.weights.size)
        assert np.array_equal(bracket(x, y, scn.action), values)
        for i in range(TRIALS):
            assert np.array_equal(values[i], scn.action.bracket_values(x.trial(i), y.trial(i)))
        assert scn.action.bracket_integral(x, y).tolist() == [
            complex(np.dot(scn.action.haar.weights, v)) for v in values]

    @pytest.mark.parametrize("r", EXPONENTS)
    def test_function_p_norm_per_trial(self, sid, r):
        scn, (x, y) = _stacks(sid)
        values, w = bracket(x, y, scn.action), scn.action.haar.weights
        assert function_p_norm(values, w, r).tolist() == [loop_function_p_norm(v, w, r) for v in values]
        rs = [EXPONENTS[i % len(EXPONENTS)] for i in range(TRIALS)]
        assert function_p_norm(values, w, rs).tolist() == [
            loop_function_p_norm(v, w, r) for v, r in zip(values, rs)]
        assert weighted_sum(values, w).tolist() == [complex(np.dot(w, v)) for v in values]


@pytest.mark.parametrize("kinds", [("general", "general"), ("positive", "general")])
def test_wavelet_p_norm_per_trial(kinds):
    # each trial of a wavelet stack has its own nonzero rows and columns, and
    # takes its singular values on them alone
    _, (x, y) = _stacks("affine-wavelet:default", kinds)
    supports = {((b != 0).any(axis=-1).tobytes(), (b != 0).any(axis=-2).tobytes()) for b in y.blocks}
    assert len(supports) == TRIALS
    for z in (x, y):
        for p in EXPONENTS:
            assert p_norm(z, p).tolist() == [loop_p_norm(z.trial(i), p) for i in range(TRIALS)]
        ps = [EXPONENTS[i % len(EXPONENTS)] for i in range(TRIALS)]
        assert p_norm(z, ps).tolist() == [p_norm(z.trial(i), p) for i, p in enumerate(ps)]
        assert op_norm(z).tolist() == [op_norm(z.trial(i)) for i in range(TRIALS)]

@pytest.mark.parametrize("sid", ["translation:cyclic(64)", "cosets:cyclic(6):cyclic(3)",
                                 "twisted-dual:8:0", "twisted-dual:24:0", "broken-measure",
                                 "induced:cyclic(4)xcyclic(4):cyclic(2)xcyclic(2):translation",
                                 "irrep:s3:trivial", "irrep:s3:sign",
                                 *(f"irrep:cyclic(8):chi{j}" for j in range(8))])
def test_one_by_one_bracket_per_trial(sid):
    # the gather of 1x1 blocks: a trial of the stack gets the value of the
    # single-element loop and of the kernel's own call on that trial alone
    scn, (x, y) = _stacks(sid)
    assert isinstance(scn.action, ConjugationAction) and scn.action.shape.block_dim == 1
    values = scn.action.bracket_values(x, y)
    for i in range(TRIALS):
        assert np.array_equal(values[i], loop_bracket_values(scn.action, x.trial(i), y.trial(i)))
        assert np.array_equal(values[i], scn.action.bracket_values(x.trial(i), y.trial(i)))


@pytest.mark.parametrize("sid", ["wh:4", "wh:16", "irrep:s3:std", "twisted-dual:4:1",
                                 "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2"])
def test_conjugation_bracket_per_trial(sid):
    # the per-trial loop of the class-by-class quadratic form
    scn, (x, y) = _stacks(sid)
    assert isinstance(scn.action, ConjugationAction)
    values = scn.action.bracket_values(x, y)
    for i in range(TRIALS):
        assert np.array_equal(values[i], loop_bracket_values(scn.action, x.trial(i), y.trial(i)))


def test_single_elements_keep_scalar_values():
    scn, (x, y) = _stacks("wh:3")
    x0, y0 = x.trial(0), y.trial(0)
    assert x0.trials is None and x.trials == TRIALS
    assert type(trace(x0)) is complex and type(p_norm(x0, 4 / 3)) is float
    assert type(op_norm(x0)) is float and type(scn.action.bracket_integral(x0, y0)) is complex
    assert scn.action.bracket_values(x0, y0).shape == (scn.action.haar.weights.size,)
    assert np.array_equal(stack([x0, x.trial(1)]).blocks, x.blocks[:2])


def test_stacks_reject_bad_exponents_and_shapes():
    _, (x, _) = _stacks("wh:3")
    with pytest.raises(ParameterError):
        p_norm(x, [1.0, 0.5] + [1.0] * (TRIALS - 2))
    with pytest.raises(Exception):
        AlgebraElement(x.shape, x.blocks[None])


def _peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# The stacked conjugation bracket keeps the per-trial pieces of classes
# below STACK_BYTES; what it adds is its (trials, nodes) output.
STACKED_PEAK_FACTOR = 1.5


def test_stacked_conjugation_bracket_memory():
    scn, (x, y) = _stacks("wh:16", trials=12)
    single = _peak(lambda: scn.action.bracket_values(x.trial(0), y.trial(0)))
    stacked = _peak(lambda: scn.action.bracket_values(x, y))
    assert stacked <= STACKED_PEAK_FACTOR * single


def test_stacked_permutation_bracket_stays_below_the_stack_budget():
    scn, (x, y) = _stacks("translation:cyclic(64)", trials=12)
    gather = 16 * scn.action._src.size
    assert stack_size(gather) * gather < 128 * 1024
    single = _peak(lambda: scn.action.bracket_values(x.trial(0), y.trial(0)))
    stacked = _peak(lambda: scn.action.bracket_values(x, y))
    assert stacked <= STACKED_PEAK_FACTOR * single + 2 * stack_size(gather) * gather


def test_wavelet_stack_holds_one_trial_at_a_time():
    scn, (x, y) = _stacks("affine-wavelet:default", trials=3)
    single = _peak(lambda: scn.action.bracket_values(x.trial(0), y.trial(0)))
    stacked = _peak(lambda: scn.action.bracket_values(x, y))
    # the trials' kernels run one after another: the stacked call holds one
    # trial's temporaries and the rows of values it has finished
    assert stacked <= single + 3 * scn.action.haar.weights.size * 16 * 2


@pytest.mark.parametrize("kinds", [("general", "general"), ("positive", "general")])
def test_wavelet_bracket_stays_within_its_pieces(kinds):
    # one call holds its (n_a, n_b) output, the real accumulator of the same
    # size and at most four pieces below STACK_BYTES: A, W, a part of W and T
    scn, (x, y) = _stacks("affine-wavelet:default", kinds, trials=1)
    act = scn.action
    act.phases  # built once per action, on first use
    peak = _peak(lambda: act.bracket_values(x.trial(0), y.trial(0)))
    assert peak <= 2 * act.n_a * act.n_b * 16 + 4 * STACK_BYTES
