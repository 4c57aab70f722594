import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shortcutdiff.tape import _VJP, PRIMITIVES, VALUES, ShapeError, Tape, Var, _affine


def central_diff(f, x, h=1e-5):
    """Independent finite-difference oracle: grad of scalar f at flat x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    for j in range(flat.size):
        e = np.zeros_like(flat)
        e[j] = h
        up = f((flat + e).reshape(x.shape))
        dn = f((flat - e).reshape(x.shape))
        g.ravel()[j] = (up - dn) / (2 * h)
    return g


def tape_grad(build, x):
    """Gradient of the scalar build(tape, var) at x via the tape."""
    t = Tape()
    v = t.variable(x)
    out = build(t, v)
    return t.backward(out)[v]


def tape_value(build, x, recording=True):
    t = Tape(recording=recording)
    v = t.variable(x) if recording else t.constant(x)
    return build(t, v).value


# One scalar-valued probe per primitive, differentiated w.r.t. its first input.
def _probe_cases(rng):
    w = rng.standard_normal(6)
    m = rng.standard_normal((3, 4))
    v4 = rng.standard_normal(4)
    b3 = rng.standard_normal(3)
    wred = rng.standard_normal(3)

    def reduce_vec(t, y, r):
        return t.sum(t.mul(y, t.constant(r)))

    return {
        "add": (rng.standard_normal(6),
                lambda t, x: reduce_vec(t, t.add(x, t.constant(w)), np.arange(1.0, 7.0))),
        "sub": (rng.standard_normal(6),
                lambda t, x: reduce_vec(t, t.sub(x, t.constant(w)), np.arange(1.0, 7.0))),
        "scale": (rng.standard_normal(6),
                  lambda t, x: t.sum(t.scale(x, -2.5))),
        "lincomb": (rng.standard_normal(6),
                    lambda t, x: reduce_vec(t, t.lincomb(x, -1.5, t.constant(w), 0.75),
                                            np.arange(1.0, 7.0))),
        "mul": (rng.standard_normal(6),
                lambda t, x: t.sum(t.mul(x, t.constant(w)))),
        "affine": (m,
                   lambda t, x: reduce_vec(
                       t, t.affine(x, t.constant(v4), t.constant(b3)), wred)),
        "tanh": (rng.standard_normal(6),
                 lambda t, x: t.sum(t.tanh(x))),
        "sum": (rng.standard_normal(6), lambda t, x: t.sum(x)),
        "sqnorm": (rng.standard_normal(6), lambda t, x: t.sqnorm(x)),
        # keep inputs away from the clamp kinks at +-0.9
        "clamp": (np.array([-1.5, -0.5, 0.0, 0.4, 1.2, 2.0]),
                  lambda t, x: t.sum(t.clamp(x, -0.9, 0.9))),
        "exp": (rng.standard_normal(6),
                lambda t, x: t.sum(t.exp(x))),
        "log": (rng.uniform(0.5, 3.0, 6),
                lambda t, x: t.sum(t.log(x))),
    }


@pytest.mark.parametrize("prim", PRIMITIVES)
def test_gradcheck_against_central_differences(prim):
    rng = np.random.default_rng(1234)
    for _ in range(3):
        x, build = _probe_cases(rng)[prim]
        ad = tape_grad(build, x)
        fd = central_diff(lambda xx: float(tape_value(build, xx)), x)
        np.testing.assert_allclose(ad, fd, rtol=1e-6, atol=1e-9)


def test_mul_scalar_broadcast_gradients():
    rng = np.random.default_rng(7)
    xv = rng.standard_normal(5)
    t = Tape()
    a = t.variable(2.0)
    x = t.variable(xv)
    out = t.sum(t.mul(a, x))
    g = t.backward(out)
    np.testing.assert_allclose(g[a], np.sum(xv))
    np.testing.assert_allclose(g[x], np.full(5, 2.0))


def test_product_rule_example():
    t = Tape()
    x = t.variable(2.0)
    y = t.constant(3.0)
    out = t.mul(x, y)
    assert out.value == 6.0
    assert t.backward(out)[x] == 3.0


def test_clamp_saturated_example():
    t = Tape()
    x = t.variable(1.5)
    out = t.clamp(x, -1.0, 1.0)
    assert out.value == 1.0
    assert t.backward(out)[x] == 0.0


def test_clamp_boundary_subgradient_is_zero():
    t = Tape()
    x = t.variable(1.0)
    out = t.clamp(x, -1.0, 1.0)
    assert t.backward(out)[x] == 0.0


def test_tanh_at_zero():
    t = Tape()
    x = t.variable(0.0)
    out = t.tanh(x)
    assert out.value == 0.0
    assert t.backward(out)[x] == 1.0


def test_backward_half_square():
    t = Tape()
    x = t.variable(3.0)
    out = t.scale(t.sqnorm(x), 0.5)
    assert t.backward(out)[x] == 3.0


def test_backward_two_watched():
    t = Tape()
    x = t.variable(2.0)
    y = t.variable(3.0)
    out = t.add(t.mul(x, y), y)
    g = t.backward(out)
    assert g[x] == 3.0
    assert g[y] == 3.0


def test_backward_all_paths_stopped_gives_zero():
    t = Tape()
    x = t.variable(4.0)
    out = t.sqnorm(t.constant(x.value))
    np.testing.assert_array_equal(t.backward(out)[x], 0.0)


def test_untouched_watched_gets_zeros():
    t = Tape()
    x = t.variable(np.ones(3))
    y = t.variable(2.0)
    out = t.sqnorm(y)
    g = t.backward(out)
    np.testing.assert_array_equal(g[x], np.zeros(3))


def test_backward_rejects_non_scalar():
    t = Tape()
    x = t.variable(np.ones(3))
    out = t.scale(x, 2.0)
    with pytest.raises(ShapeError):
        t.backward(out)


def test_node_count_semantics():
    t = Tape()
    assert t.node_count() == 0
    a = t.variable(1.0)
    b = t.constant(2.0)
    t.add(a, b)
    assert t.node_count() == 1
    with t.paused():
        for _ in range(5):
            t.add(a, b)
    assert t.node_count() == 1


def test_constant_only_ops_are_not_recorded():
    t = Tape()
    a = t.constant(np.ones(3))
    b = t.constant(np.ones(3))
    out = t.add(a, b)
    assert t.node_count() == 0
    assert not out.live


def test_recording_off_values_bit_identical():
    rng = np.random.default_rng(99)
    x = rng.standard_normal((3, 4))

    def build(t, v):
        h = t.tanh(t.affine(v, t.constant(rng.standard_normal(4)),
                            t.constant(rng.standard_normal(3))))
        return t.sqnorm(h)

    rng = np.random.default_rng(99)  # same constants in both runs
    on = tape_value(build, x, recording=True)
    rng = np.random.default_rng(99)
    off = tape_value(build, x, recording=False)
    assert float(on) == float(off)


def test_backward_is_linear_single_path_exact():
    # f and g each touch the leaf once, so a*grad(f) + b*grad(g) is the
    # identical float expression the combined backward evaluates.
    xv = np.array([0.3, -0.7, 1.1])
    a, b = 2.5, -1.25

    def grad(build):
        t = Tape()
        x = t.variable(xv)
        return t.backward(build(t, x))[x]

    gf = grad(lambda t, x: t.sqnorm(x))
    gg = grad(lambda t, x: t.sum(x))
    combined = grad(lambda t, x: t.add(t.scale(t.sqnorm(x), a),
                                       t.scale(t.sum(x), b)))
    np.testing.assert_array_equal(combined, a * gf + b * gg)


def test_backward_linearity_general():
    rng = np.random.default_rng(5)
    xv = rng.standard_normal(4)
    a, b = 0.7, 3.1

    def build_f(t, x):
        return t.sqnorm(t.tanh(x))

    def build_g(t, x):
        return t.sum(t.mul(x, x))

    def grad(build):
        t = Tape()
        x = t.variable(xv)
        return t.backward(build(t, x))[x]

    combined = grad(lambda t, x: t.add(t.scale(build_f(t, x), a),
                                       t.scale(build_g(t, x), b)))
    np.testing.assert_allclose(combined, a * grad(build_f) + b * grad(build_g),
                               rtol=1e-14, atol=1e-14)


def test_shape_errors_name_primitive_and_shapes():
    t = Tape()
    a = t.variable(np.ones(3))
    b = t.constant(np.ones(4))
    with pytest.raises(ShapeError, match=r"add.*\(3,\).*\(4,\)"):
        t.add(a, b)
    m = t.constant(np.ones((2, 3)))
    with pytest.raises(ShapeError, match=r"affine.*\(2, 3\).*\(4,\)"):
        t.affine(m, t.constant(np.ones(4)), t.constant(np.ones(2)))
    with pytest.raises(ShapeError, match="affine"):
        t.affine(m, t.constant(np.ones(3)), t.constant(np.ones(5)))


def test_cross_tape_use_rejected():
    t1, t2 = Tape(), Tape()
    x = t1.variable(1.0)
    with pytest.raises(ValueError, match="different tape"):
        t2.scale(x, 2.0)


# Every primitive on its Var operands, with operand shapes it accepts; the
# ownership tests put a foreign operand in each position in turn.
PRIMITIVE_CALLS = {
    "add": ([(3,), (3,)], lambda t, a, b: t.add(a, b)),
    "sub": ([(3,), (3,)], lambda t, a, b: t.sub(a, b)),
    "scale": ([(3,)], lambda t, a: t.scale(a, 2.0)),
    "lincomb": ([(3,), (3,)], lambda t, a, b: t.lincomb(a, 2.0, b, -0.5)),
    "mul": ([(3,), (3,)], lambda t, a, b: t.mul(a, b)),
    "affine": ([(2, 3), (3,), (2,)], lambda t, w, x, b: t.affine(w, x, b)),
    "tanh": ([(3,)], lambda t, a: t.tanh(a)),
    "sum": ([(3,)], lambda t, a: t.sum(a)),
    "sqnorm": ([(3,)], lambda t, a: t.sqnorm(a)),
    "clamp": ([(3,)], lambda t, a: t.clamp(a, -0.5, 0.5)),
    "exp": ([(3,)], lambda t, a: t.exp(a)),
    "log": ([(3,)], lambda t, a: t.log(a)),
}
OPERAND_POSITIONS = [(prim, pos) for prim in PRIMITIVES
                     for pos in range(len(PRIMITIVE_CALLS[prim][0]))]


@pytest.mark.parametrize("prim, pos", OPERAND_POSITIONS)
def test_a_foreign_operand_is_rejected_before_anything_is_recorded(prim, pos):
    shapes, apply = PRIMITIVE_CALLS[prim]
    t, other = Tape(), Tape()
    operands = [t.variable(np.ones(s)) for s in shapes]
    t.add(t.variable(1.0), t.variable(2.0))  # a node recorded before
    foreign = [*operands]
    foreign[pos] = other.variable(np.ones(shapes[pos]))
    with pytest.raises(ValueError, match=f"^{prim}: operand belongs to a different tape$"):
        apply(t, *foreign)
    plain = [*operands]
    plain[pos] = np.ones(shapes[pos])
    with pytest.raises(TypeError, match=f"^{prim}: expected Var, got ndarray$"):
        apply(t, *plain)
    assert t.node_count() == 1 and other.node_count() == 0
    apply(t, *operands)  # the same call on this tape's Vars records its node
    assert t.node_count() == 2 and t.nodes[-1].op == prim


def test_lincomb_keeps_the_bits_of_the_composition_it_replaces():
    # a DDIM step x - (1/N) u was sub and scale, and a field's f x + c net
    # was add of two scales; values and both cotangents keep their bits
    rng = np.random.default_rng(31)
    for shape in ((), (2,), (2, 5)):
        for n in (1, 7, 50, 200):
            x, u, w = (rng.standard_normal(shape) * 3 for _ in range(3))
            f, c = rng.standard_normal(2)
            for ca, cb, old_build in (
                    (1.0, -(1.0 / n), lambda t, a, b: t.sub(a, t.scale(b, 1.0 / n))),
                    (f, c, lambda t, a, b: t.add(t.scale(a, f), t.scale(b, c)))):
                runs = []
                for build in (lambda t, a, b: t.lincomb(a, ca, b, cb), old_build):
                    t = Tape()
                    a, b = t.variable(x), t.variable(u)
                    y = build(t, a, b)
                    g = t.backward(t.sum(t.mul(y, t.constant(w))))
                    runs.append([y.value.tobytes(), g[a].tobytes(), g[b].tobytes()])
                assert runs[0] == runs[1]
                assert VALUES.lincomb(x, ca, u, cb).tobytes() == runs[0][0]
    with pytest.raises(ShapeError, match=r"lincomb.*\(2,\).*\(3,\)"):
        VALUES.lincomb(np.ones(2), 1.0, np.ones(3), 1.0)


def test_log_rejects_nonpositive():
    t = Tape()
    with pytest.raises(ValueError, match="log"):
        t.log(t.variable(np.array([1.0, 0.0])))


def test_a_dropped_tape_is_freed_without_the_cycle_collector():
    t = Tape()
    x = t.variable(np.ones(3))
    t.backward(t.sqnorm(t.tanh(t.scale(x, 2.0))))
    ref = weakref.ref(t)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del t
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_values_are_immutable():
    t = Tape()
    x = t.variable(np.ones(3))
    with pytest.raises(ValueError):
        x.value[0] = 5.0


# ------------------------------------------------------ saved operands

def test_recorded_nodes_save_the_operands_own_read_only_arrays():
    rng = np.random.default_rng(3)
    t = Tape()
    w = t.variable(rng.standard_normal((3, 4)))
    x = t.variable(rng.standard_normal(4))
    b = t.constant(rng.standard_normal(3))
    p = t.variable(rng.uniform(0.5, 2.0, 3))
    y = t.affine(w, x, b)
    t.mul(y, p)
    t.sqnorm(y)
    t.log(p)
    operands = {"affine": (w, x), "mul": (y, p), "sqnorm": (y,), "log": (p,)}
    assert [n.op for n in t.nodes] == list(operands)
    for node in t.nodes:
        for saved, var in zip(node.saved, operands[node.op]):
            assert saved is var.value
            assert not saved.flags.writeable


# ------------------------------------------------------------- Values

def test_values_presents_the_tape_interface_without_nodes():
    assert VALUES.nodes == ()
    assert VALUES.node_count() == 0
    x = VALUES.constant([1.0, 2.0])
    assert isinstance(x, np.ndarray) and x.dtype == np.float64
    with VALUES.paused() as inner:
        assert inner is VALUES
    assert all(callable(getattr(VALUES, p)) for p in PRIMITIVES)


def test_values_runs_the_tape_checks():
    a, b = VALUES.constant(np.ones(2)), VALUES.constant(np.ones(3))
    for prim in ("add", "sub", "mul"):
        with pytest.raises(ShapeError, match=prim):
            getattr(VALUES, prim)(a, b)
    with pytest.raises(ShapeError, match="affine"):
        VALUES.affine(VALUES.constant(np.ones((2, 3))), a, a)
    with pytest.raises(ShapeError, match="affine"):
        VALUES.affine(VALUES.constant(np.ones((2, 3))), b, b)
    with pytest.raises(ValueError, match="log"):
        VALUES.log(VALUES.constant([1.0, 0.0]))
    with pytest.raises(ValueError, match="clamp"):
        VALUES.clamp(a, 1.0, -1.0)


# Property test over random shapes and values: each primitive gives the same
# bits on VALUES, a recording Tape and a non-recording Tape, and its VJP
# matches central differences.

CLAMP_LO, CLAMP_HI = -0.9, 0.9


def _draw_array(data, shape, lo=-2.0, hi=2.0, avoid=()):
    elements = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    if avoid:  # keep away from kinks, where differences straddle two branches
        elements = elements.filter(lambda v: all(abs(v - k) > 1e-3 for k in avoid))
    return data.draw(arrays(np.float64, shape, elements=elements))


def _draw_case(data, prim):
    """(operands, apply) for one primitive; apply(tape, *operands) -> result."""
    n, m, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    shape = data.draw(st.sampled_from([(), (n,), (m, k)]))
    if prim in ("add", "sub"):
        return ([_draw_array(data, shape), _draw_array(data, shape)],
                lambda t, a, b: getattr(t, prim)(a, b))
    if prim == "scale":
        c = data.draw(st.floats(-3.0, 3.0))
        return [_draw_array(data, shape)], lambda t, a: t.scale(a, c)
    if prim == "lincomb":  # ca = 1 takes the path that adds a itself
        ca = data.draw(st.sampled_from([1.0, -0.5, 2.25]))
        cb = data.draw(st.floats(-3.0, 3.0))
        return ([_draw_array(data, shape), _draw_array(data, shape)],
                lambda t, a, b: t.lincomb(a, ca, b, cb))
    if prim == "mul":
        sa, sb = data.draw(st.sampled_from([(shape, shape), ((), shape), (shape, ())]))
        return [_draw_array(data, sa), _draw_array(data, sb)], lambda t, a, b: t.mul(a, b)
    if prim == "affine":
        rhs = data.draw(st.sampled_from([(k,), (k, n)]))
        ops = [_draw_array(data, (m, k)), _draw_array(data, rhs),
               _draw_array(data, (m,) + rhs[1:])]
        return ops, lambda t, w, x, b: t.affine(w, x, b)
    if prim == "clamp":
        return ([_draw_array(data, shape, avoid=(CLAMP_LO, CLAMP_HI))],
                lambda t, a: t.clamp(a, CLAMP_LO, CLAMP_HI))
    if prim == "log":
        return [_draw_array(data, shape, lo=0.5, hi=3.0)], lambda t, a: t.log(a)
    return [_draw_array(data, shape)], lambda t, a: getattr(t, prim)(a)


@pytest.mark.parametrize("prim", PRIMITIVES)
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_primitive_property_values_bits_and_vjp(prim, data):
    operands, apply = _draw_case(data, prim)

    rec = Tape()
    leaves = [rec.variable(o) for o in operands]
    y_rec = apply(rec, *leaves)
    off = Tape(recording=False)
    y_off = apply(off, *[off.constant(o) for o in operands])
    y_val = np.asarray(apply(VALUES, *[VALUES.constant(o) for o in operands]))
    assert rec.node_count() == 1 and off.node_count() == 0
    assert y_val.shape == y_rec.shape == y_off.shape
    assert y_val.tobytes() == y_rec.value.tobytes() == y_off.value.tobytes()

    weights = _draw_array(data, y_rec.shape)
    out = rec.mul(y_rec, rec.constant(weights))
    grads = rec.backward(rec.sum(out) if out.shape else out)
    for j, leaf in enumerate(leaves):
        def f(v, j=j):
            ops = [v if i == j else o for i, o in enumerate(operands)]
            return float(np.sum(apply(VALUES, *ops) * weights))
        np.testing.assert_allclose(grads[leaf], central_diff(f, operands[j]),
                                   rtol=1e-6, atol=1e-8)

    # with some operands constant, each live operand keeps its bits and the
    # rule gives no cotangent for a constant one
    live = data.draw(st.lists(st.booleans(), min_size=len(operands),
                              max_size=len(operands)).filter(any))
    mixed = Tape()
    mixed_leaves = [mixed.variable(o) if on else mixed.constant(o)
                    for o, on in zip(operands, live)]
    y_mix = apply(mixed, *mixed_leaves)
    assert mixed.node_count() == 1 and y_mix.value.tobytes() == y_rec.value.tobytes()
    out = mixed.mul(y_mix, mixed.constant(weights))
    mixed_grads = mixed.backward(mixed.sum(out) if out.shape else out)
    for leaf, full, on in zip(mixed_leaves, leaves, live):
        if on:
            assert mixed_grads[leaf].tobytes() == grads[full].tobytes()
    cotangents = _VJP[prim](mixed.nodes[0], np.asarray(weights))
    assert [c is not None for c in cotangents] == live


def test_backward_reports_a_kept_intermediate_as_a_tape_started_there():
    rng = np.random.default_rng(8)
    w1, w2 = rng.standard_normal((5, 3)), rng.standard_normal((2, 5))
    b1, b2, c = rng.standard_normal(5), rng.standard_normal(2), rng.standard_normal(5)

    def head(t, h):  # two consumers of h: its cotangent sums both
        return t.add(t.sqnorm(t.affine(t.constant(w2), h, t.constant(b2))),
                     t.sum(t.mul(h, t.constant(c))))

    t = Tape()
    x = t.variable(rng.standard_normal(3))
    h = t.tanh(t.affine(t.constant(w1), x, t.constant(b1)))
    j = head(t, h)
    kept = t.backward(j, keep=(h,))
    assert kept[x].tobytes() == t.backward(j)[x].tobytes()

    second = Tape()
    h2 = second.variable(h.value)
    assert kept[h].tobytes() == second.backward(head(second, h2))[h2].tobytes()


# affine with a (m,) bias on a (k, n) input adds the bias to every column;
# its VJP sums the bias gradient over the columns.

@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_affine_column_bias_property_values_bits_and_vjp(data):
    m, k, n = (data.draw(st.integers(1, 5)) for _ in range(3))
    operands = [_draw_array(data, (m, k)), _draw_array(data, (k, n)),
                _draw_array(data, (m,))]

    rec = Tape()
    leaves = [rec.variable(o) for o in operands]
    y_rec = rec.affine(*leaves)
    y_val = VALUES.affine(*[VALUES.constant(o) for o in operands])
    assert y_rec.shape == y_val.shape == (m, n)
    assert y_val.tobytes() == y_rec.value.tobytes()
    np.testing.assert_array_equal(y_val, operands[0] @ operands[1]
                                  + operands[2][:, None])

    weights = _draw_array(data, (m, n))
    grads = rec.backward(rec.sum(rec.mul(y_rec, rec.constant(weights))))
    for j, leaf in enumerate(leaves):
        def f(v, j=j):
            ops = [v if i == j else o for i, o in enumerate(operands)]
            return float(np.sum(VALUES.affine(*ops) * weights))
        np.testing.assert_allclose(grads[leaf], central_diff(f, operands[j]),
                                   rtol=1e-6, atol=1e-8)

    bad = data.draw(st.sampled_from([(m + 1,), (m, n + 1), (m + 1, n), (m, n, 1)]))
    w, x = operands[0], operands[1]
    with pytest.raises(ShapeError, match="affine: bias"):
        VALUES.affine(w, x, np.zeros(bad))
    with pytest.raises(ShapeError, match="affine: bias"):
        rec.affine(rec.constant(w), rec.constant(x), rec.constant(np.zeros(bad)))


# affine forms w x and its VJP products g x^T and w^T g with np.dot; each
# must keep the bits of the `@` expression for every operand layout.

def _layouts(a):
    """a as read-only C-ordered, F-ordered and transposed-view operands."""
    out = [np.ascontiguousarray(a), np.asfortranarray(a),
           np.ascontiguousarray(a.T).T][:3 if a.ndim == 2 else 1]
    for v in out:
        v.flags.writeable = False
    return out


AFFINE_DOT_SHAPES = [((64, 2), None)] + [((m, k), n) for m, k in
                                         ((64, 64), (2, 64), (64, 3))
                                         for n in (1, 8, 50, 96)]


@pytest.mark.parametrize("w_shape, n", AFFINE_DOT_SHAPES)
def test_affine_dot_products_keep_the_bits_of_matmul(w_shape, n):
    rng = np.random.default_rng(w_shape[0] * 1000 + w_shape[1] * 10 + (n or 0))
    m, k = w_shape
    x_shape = (k,) if n is None else (k, n)
    w0, x0 = rng.standard_normal(w_shape), rng.standard_normal(x_shape)
    b = rng.standard_normal(m)
    g = rng.standard_normal((m,) if n is None else (m, n))
    b_col = b if n is None else b[:, None]
    key = object()
    for w in _layouts(w0):
        for x in _layouts(x0):
            # a tape copies its operands to C order, so the layouts go to the
            # forward and the VJP rule directly
            parents = tuple(Var(key, v, True) for v in (w, x, b))
            node = Var(key, None, True, "affine", parents, (w, x, b.shape))
            want = w @ x + b_col
            y = _affine(w, x, b)
            assert y.tobytes() == VALUES.affine(w, x, b).tobytes() == want.tobytes()
            gw, gx, _ = _VJP["affine"](node, g)
            assert gw.tobytes() == (np.outer(g, x) if n is None else g @ x.T).tobytes()
            assert gx.tobytes() == (w.T @ g).tobytes()


def test_a_tape_and_values_agree_on_a_read_only_f_ordered_weight():
    # np.dot of an F-ordered w can differ in the last bits from its C-ordered
    # copy, so a tape must copy such a constant to C order as VALUES does
    rng = np.random.default_rng(23)
    differ = 0
    for _ in range(100):
        w = np.asfortranarray(rng.standard_normal((64, 64)))
        w.flags.writeable = False
        x, b = rng.standard_normal(64), rng.standard_normal(64)
        t = Tape()
        y = t.affine(t.constant(w), t.variable(x), t.constant(b))
        differ += y.value.tobytes() != VALUES.affine(VALUES.constant(w), x, b).tobytes()
    assert differ == 0
    frozen = Tape().constant(w).value
    assert frozen.flags.c_contiguous and not frozen.flags.writeable
    assert Tape().constant(frozen).value is frozen  # a C-ordered one is shared
