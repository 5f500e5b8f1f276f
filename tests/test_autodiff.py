"""Unit tests for the autodiff core: forward values against independent
oracles, backward passes against central finite differences."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uspc import autodiff as ad
from uspc.autodiff import Tensor
from uspc.errors import ConfigError, GraphError, ShapeError, TrainingDiverged
from uspc.layers import Ctx, Dropout
from uspc.optim import AdamState, ParamStore

from conftest import clip_and_adam, grad_check, matmul, mean_all, sum_all


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    b = Tensor(rand((2, 3), 0))
    out = matmul(Tensor(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_zeros():
    out = matmul(Tensor(np.zeros((2, 3))), Tensor(rand((3, 4), 1)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_hand_expanded():
    # dot products expanded by hand: row1 = (1*5+2*7, 1*6+2*8)
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch_mentions_both_shapes():
    with pytest.raises(ShapeError, match=r"2, 3.*4, 2"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_backward_formulas():
    a = Tensor(rand((3, 4), 2), requires_grad=True)
    b = Tensor(rand((4, 2), 3), requires_grad=True)
    out = matmul(a, b)
    g = rand((3, 2), 4)
    loss = sum_all(ad.mul(out, Tensor(g)))
    ad.backward(loss)
    np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)


# ---------------------------------------------------------------- conv1d


def naive_conv1d(x, w, b=None):
    """Sliding-window triple loop, zero padding."""
    t, cin = x.shape
    k, _, cout = w.shape
    pad = k // 2
    out = np.zeros((t, cout))
    for i in range(t):
        for j in range(k):
            src = i + j - pad
            if 0 <= src < t:
                for c in range(cout):
                    out[i, c] += x[src] @ w[j, :, c]
    if b is not None:
        out += b
    return out


def test_conv1d_k1_identity_channel_map():
    x = Tensor(rand((5, 3), 5))
    w = Tensor(np.eye(3)[None, :, :])  # K=1 identity map
    out = ad.conv1d(x, w)
    np.testing.assert_allclose(out.data, x.data, atol=1e-15)


def test_conv1d_zero_input():
    out = ad.conv1d(Tensor(np.zeros((4, 2))), Tensor(rand((3, 2, 6), 6)))
    np.testing.assert_array_equal(out.data, np.zeros((4, 6)))


def test_conv1d_matches_naive_oracle():
    x = rand((4, 3), 7)
    w = rand((3, 3, 5), 8)
    b = rand(5, 9)
    out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, naive_conv1d(x, w, b), atol=1e-12)


def test_conv1d_even_kernel_rejected():
    with pytest.raises(ConfigError):
        ad.conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2, 2))))


def test_conv1d_output_length_preserved():
    out = ad.conv1d(Tensor(rand((11, 4), 10)), Tensor(rand((3, 4, 4), 11)))
    assert out.shape == (11, 4)


# ---------------------------------------------------------------- layer_norm


def two_pass_layer_norm(x, gain, bias, eps):
    out = np.empty_like(x)
    for i, row in enumerate(x):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        out[i] = (row - mu) / np.sqrt(var + eps) * gain + bias
    return out


def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((2, 4), 3.7))
    out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-6)
    np.testing.assert_allclose(out.data, np.zeros((2, 4)), atol=1e-9)


def test_layer_norm_already_normalized_row():
    out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        eps=1e-14)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-7)


def test_layer_norm_matches_two_pass_oracle():
    x = rand((6, 9), 12)
    gain = rand(9, 13)
    bias = rand(9, 14)
    out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps=1e-6)
    np.testing.assert_allclose(out.data, two_pass_layer_norm(x, gain, bias, 1e-6),
                               atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_layer_norm_row_statistics(seed):
    x = rand((4, 8), seed) * (1.0 + seed % 5)
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-12)
    mu = out.data.mean(axis=1)
    var = out.data.var(axis=1)
    assert np.all(np.abs(mu) < 1e-10)
    assert np.all(np.abs(var - 1.0) < 1e-6)


# ---------------------------------------------------------------- cross entropy


def test_cross_entropy_uniform_is_log_k():
    logits = Tensor(np.zeros((3, 32)))
    loss = ad.softmax_cross_entropy(logits, np.array([0, 7, 31]))
    assert abs(loss.item() - np.log(32)) < 1e-12


def test_cross_entropy_saturated_is_near_zero():
    logits = np.zeros((2, 5))
    logits[0, 2] = 1000.0
    logits[1, 4] = 1000.0
    loss = ad.softmax_cross_entropy(Tensor(logits), np.array([2, 4]))
    assert loss.item() < 1e-12


def test_cross_entropy_matches_direct_formula():
    logits = rand((3, 5), 20) * 0.5  # small magnitudes, unstabilized oracle is safe
    targets = np.array([1, 4, 0])
    expect = 0.0
    for row, t in zip(logits, targets):
        p = np.exp(row) / np.exp(row).sum()
        expect += -np.log(p[t])
    expect /= 3
    loss = ad.softmax_cross_entropy(Tensor(logits), targets)
    assert abs(loss.item() - expect) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 4]))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_cross_entropy_nonnegative(seed):
    g = np.random.default_rng(seed)
    logits = g.standard_normal((4, 6)) * 3
    targets = g.integers(0, 6, size=4)
    assert ad.softmax_cross_entropy(Tensor(logits), targets).item() >= 0.0


# ---------------------------------------------------------------- mse


def test_mse_identical_is_zero():
    a = rand((3, 3), 30)
    assert ad.mse(Tensor(a), Tensor(a.copy())).item() == 0.0


def test_mse_hand_value():
    assert ad.mse(Tensor([0.0, 0.0]), Tensor([3.0, 4.0])).item() == 12.5


def test_mse_scalar_inputs():
    assert ad.mse(Tensor(1.0), Tensor(-1.0)).item() == 4.0


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------- dropout


def test_dropout_rate_zero_identity():
    x = Tensor(rand((4, 4), 40))
    out = ad.dropout(x, 0.0, [np.random.default_rng(0)])
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_eval_identity():
    x = Tensor(rand((4, 4), 41))
    out = Dropout("drop", 0.9)(x, Ctx())
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_deterministic_given_rng_state():
    from uspc.rng import NamedRng
    rng = NamedRng(7)
    x = Tensor(np.ones((8, 8)))
    a = ad.dropout(x, 0.5, [rng.generator("dropout/layer0", step=3)])
    b = ad.dropout(x, 0.5, [rng.generator("dropout/layer0", step=3)])
    np.testing.assert_array_equal(a.data, b.data)
    # survivors are scaled by 1/(1-rate)
    surv = a.data[a.data != 0]
    assert np.allclose(surv, 2.0)


def test_dropout_rate_one_rejected():
    with pytest.raises(ConfigError):
        ad.dropout(Tensor(np.ones(3)), 1.0, [np.random.default_rng(0)])


# ---------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    x = Tensor(rand((3, 2), 50), requires_grad=True)
    ad.backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))


def test_backward_mse_hand_derivative():
    x = Tensor([2.0], requires_grad=True)
    ad.backward(ad.mse(x, Tensor([0.0])))
    np.testing.assert_allclose(x.grad, [4.0])


def test_backward_accumulates_without_reset():
    x = Tensor(rand(4, 51), requires_grad=True)
    ad.backward(sum_all(x))
    first = x.grad.copy()
    ad.backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, 2 * first)


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    x = Tensor(rand((3, 4), 55), requires_grad=True)
    w = Tensor(rand((4, 2), 56), requires_grad=True)
    x_values = x.data.copy()
    h = ad.relu(ad.linear(x, w))
    loss = sum_all(h)
    ad.backward(loss)
    assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)
    assert np.array_equal(x.data, x_values)
    # the held nodes' values and gradients are freed; shapes and the graph
    # stay readable after the pass
    assert h.data is None and loss.data is None
    assert h.grad is None and loss.grad is None
    assert h.shape == (3, 2) and loss.shape == () and h._parents


def test_backward_frees_an_interior_array_the_caller_does_not_hold():
    x = Tensor(rand((3, 4), 63), requires_grad=True)
    w = Tensor(rand((4, 2), 64), requires_grad=True)
    h = ad.relu(ad.linear(x, w))
    interior = weakref.ref(h.data)
    loss = sum_all(h)
    del h
    ad.backward(loss)
    # the held loss names the spent relu node, without its values
    assert interior() is None
    assert loss._parents and loss._parents[0]._backward is ad._consumed
    with pytest.raises(GraphError, match="detach"):
        ad.backward(loss)


def test_backward_frees_the_data_of_a_held_node():
    x = Tensor(rand((3, 4), 65), requires_grad=True)
    w = Tensor(rand((4, 2), 66), requires_grad=True)
    h = ad.relu(ad.linear(x, w))
    kept = h.detach()  # read before backward
    again = sum_all(ad.mul(h, Tensor(np.ones((3, 2)))))
    ad.backward(sum_all(h))
    assert h.data is None and h.shape == (3, 2)
    assert np.array_equal(kept.data, np.maximum(x.data @ w.data, 0.0))
    assert len(h._parents) == 1 and h._parents[0]._backward is ad._consumed
    with pytest.raises(GraphError, match="detach"):
        ad.backward(again)
    assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)


@pytest.mark.parametrize("how", ["release", "backward"])
def test_detach_of_a_freed_node_raises(how):
    x = Tensor(rand((3, 4), 67), requires_grad=True)
    h = ad.relu(x)
    if how == "release":
        ad.release(h)
    else:
        ad.backward(sum_all(h))
    with pytest.raises(GraphError, match="detach"):
        h.detach()
    assert x.detach().data is x.data  # a leaf keeps its values


def test_backward_on_leaf_loss_leaves_its_gradient_at_one():
    x = Tensor(2.0, requires_grad=True)
    ad.backward(x)
    assert x.grad == 1.0


def test_backward_twice_through_a_consumed_graph_raises():
    x = Tensor(rand((3, 2), 57), requires_grad=True)
    shared = ad.relu(x)
    loss = sum_all(shared)
    second = mean_all(ad.mul(shared, shared))
    values = shared.detach()  # cut off before backward frees the node
    ad.backward(loss)
    with pytest.raises(GraphError, match="detach"):
        ad.backward(loss)
    with pytest.raises(GraphError, match="detach"):
        ad.backward(second)
    y = Tensor(rand((3, 2), 58), requires_grad=True)
    ad.backward(sum_all(ad.mul(values, y)))
    np.testing.assert_array_equal(y.grad, np.maximum(x.data, 0.0))


def test_backward_reaching_a_consumed_node_changes_no_gradient():
    # the fresh nodes' rules would run before the consumed one's; backward
    # must raise before any of them adds to a leaf gradient.  The second
    # consumer is built before the first pass frees relu_out's values.
    x = Tensor(rand((3,), 61), requires_grad=True)
    relu_out = ad.relu(x)
    w = Tensor(rand((3,), 62), requires_grad=True)
    second = sum_all(ad.mul(relu_out, w))
    ad.backward(sum_all(relu_out))
    x_grad = x.grad.copy()
    with pytest.raises(GraphError, match="detach"):
        ad.backward(second)
    assert w.grad is None
    np.testing.assert_array_equal(x.grad, x_grad)


def test_backward_memory_does_not_grow_with_depth():
    # each rule's gradient is freed once it has run, so backward's peak
    # above its starting level is a few activations, not one per node
    x = Tensor(rand((256, 64), 59), requires_grad=True)
    activation = x.data.nbytes
    ws = [Tensor(rand((64, 64), 60 + i) / 8.0) for i in range(20)]
    tracemalloc.start()
    try:
        h = x
        for w in ws:
            h = ad.relu(ad.linear(h, w))
        loss = sum_all(h)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak - start < 5 * activation, (peak - start) / activation


def test_backward_rejects_nonscalar():
    x = Tensor(rand((2, 2), 52), requires_grad=True)
    with pytest.raises(GraphError):
        ad.backward(ad.relu(x))


def test_backward_deterministic_bitwise():
    def run():
        x = Tensor(rand((5, 5), 53), requires_grad=True)
        w = Tensor(rand((5, 5), 54), requires_grad=True)
        h = ad.layer_norm(matmul(x, w), Tensor(np.ones(5)), Tensor(np.zeros(5)))
        ad.backward(ad.mse(ad.relu(h), Tensor(np.zeros((5, 5)))))
        return x.grad.copy(), w.grad.copy()

    (gx1, gw1), (gx2, gw2) = run(), run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_a_rule_that_writes_into_its_upstream_gradient_raises():
    x = Tensor(rand(3, 57), requires_grad=True)

    def doubling_in_place(g):
        g *= 2.0
        x.accumulate_grad(g)

    doubled = ad._make_node(x.data * 2.0, (x,), doubling_in_place)
    # mul's rule hands on a fresh, writable array: backward makes it read-only
    with pytest.raises(ValueError, match="read-only"):
        ad.backward(sum_all(ad.mul(doubled, Tensor(rand(3, 58)))))
    assert x.grad is None


def test_add_hands_both_parents_its_upstream_gradient_without_a_copy():
    a = Tensor(rand((3, 2), 59), requires_grad=True)
    b = Tensor(rand((3, 2), 60), requires_grad=True)
    upstream = rand((3, 2), 61)
    ad.backward(sum_all(ad.mul(ad.add(a, b), Tensor(upstream))))
    assert np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, upstream)
    assert not a.grad.flags.writeable


def test_a_gradient_home_takes_the_bytes_of_the_sum_in_place():
    # x reaches the loss three times: the first gradient is copied over the
    # home's old values and the later ones are added into it, with the bytes
    # a pass without a home gives
    data, upstream = rand((3, 2), 62), rand((3, 2), 63)
    grads = []
    for home in (None, np.full((3, 2), np.nan)):
        x = Tensor(data, requires_grad=True)
        x.home = home
        y = ad.add(ad.mul(x, x), x)
        ad.backward(sum_all(ad.mul(y, Tensor(upstream))))
        assert (x.grad is home) == (home is not None)
        grads.append(x.grad.tobytes())
    assert grads[0] == grads[1]


def test_diamond_graph_gradient():
    # y = sum(x*x + x) -> dy/dx = 2x + 1 through two paths into one add
    x = Tensor([1.5, -2.0], requires_grad=True)
    ad.backward(sum_all(ad.add(ad.mul(x, x), x)))
    np.testing.assert_allclose(x.grad, 2 * x.data + 1)


# ---------------------------------------------------------------- release


def test_released_node_keeps_its_shape_and_frees_its_values():
    x = Tensor(rand((6, 4), 67), requires_grad=True)
    h = ad.linear(x, Tensor(rand((4, 3), 68), requires_grad=True))
    values = weakref.ref(h.data)
    ad.release(h)
    assert values() is None
    assert h.data is None and h.shape == (6, 3)


def test_a_rule_that_reads_a_released_value_raises():
    x = Tensor(rand((6, 4), 69), requires_grad=True)
    h = ad.linear(x, Tensor(rand((4, 3), 70), requires_grad=True))
    loss = sum_all(ad.mul(h, h))  # mul's rule reads both inputs, and has no recipe
    ad.release(h)
    with pytest.raises(TypeError):
        ad.backward(loss)
    assert x.grad is None


def test_release_refuses_a_parameter():
    store = ParamStore()
    w = store.param("w", rand((4, 3), 71))
    with pytest.raises(GraphError):
        ad.release(w)
    assert np.isfinite(w.data).all()


REMADE_OPS = {
    "layer_norm": lambda t, g, b: ad.layer_norm(t, g, b),
    "dropout_add_norm": lambda t, g, b: ad.dropout_add_norm(
        t, ad.mul(t, t), g, b, 0.5, (np.random.default_rng(s) for s in (1, 2)),
        np.array([0, 2, 6])),
    "attention_core": lambda t, g, b: ad.attention_core(
        t, ad.mul(t, g), ad.add(t, b), 2, np.array([0, 2, 6])),
}


@pytest.mark.parametrize("op", sorted(REMADE_OPS))
def test_a_released_value_with_a_recipe_is_remade_for_the_rule_that_reads_it(op):
    # linear's rule reads its input, so w's gradient is bytes-equal only if
    # the released value is remade with the forward's bytes before that
    # rule runs; it is freed again once the walk reaches its own node
    grads, remade = [], []
    for releasing in (True, False):
        x = Tensor(rand((6, 4), 72), requires_grad=True)
        gain, bias = (Tensor(rand(4, s), requires_grad=True) for s in (73, 74))
        w = Tensor(rand((4, 3), 75), requires_grad=True)
        h = REMADE_OPS[op](x, gain, bias)
        loss = sum_all(ad.mul(ad.linear(h, w), Tensor(rand((6, 3), 76))))
        if releasing:
            ad.release(h)
            remake = h._backward.remake

            def recorded():
                values = remake()
                remade.append(weakref.ref(values))
                return values

            h._backward.remake = recorded
        ad.backward(loss)
        assert h.data is None and h.shape == (6, 4)
        grads.append([t.grad.tobytes() for t in (x, gain, bias, w)])
    assert len(remade) == 1 and remade[0]() is None
    assert grads[0] == grads[1]


@pytest.mark.parametrize("op", sorted(REMADE_OPS))
def test_a_recipe_holds_no_array_its_closure_does_not(op):
    x = Tensor(rand((6, 4), 77), requires_grad=True)
    gain, bias = (Tensor(rand(4, s), requires_grad=True) for s in (78, 79))
    rule = REMADE_OPS[op](x, gain, bias)._backward

    def captured(fn):
        return {id(c.cell_contents) for c in fn.__closure__
                if isinstance(c.cell_contents, (np.ndarray, list))}

    assert captured(rule.remake) and captured(rule.remake) <= captured(rule)


# ---------------------------------------------------------------- grad_check


def test_grad_check_sum_of_squares():
    x = Tensor(rand(6, 60))
    err = grad_check(lambda t: sum_all(ad.mul(t, t)), x)
    assert err < 1e-7


def test_grad_check_matmul_layernorm_chain():
    w = Tensor(rand((4, 4), 61))
    gain = Tensor(rand(4, 62))
    bias = Tensor(rand(4, 63))

    def f(t):
        return mean_all(ad.relu(ad.layer_norm(matmul(t, w), gain, bias)))

    err = grad_check(f, Tensor(rand((3, 4), 64)))
    assert err < 1e-4


def test_grad_check_attention_core():
    wq = Tensor(rand((6, 6), 65))
    wk = Tensor(rand((6, 6), 66))
    wv = Tensor(rand((6, 6), 67))

    def f(t):
        out = ad.attention_core(matmul(t, wq), matmul(t, wk),
                                matmul(t, wv), n_heads=2)
        return mean_all(ad.mul(out, out))

    err = grad_check(f, Tensor(rand((5, 6), 68)))
    assert err < 1e-4


def test_grad_check_gather_and_pool():
    idx = np.array([0, 2, 2, 1])

    def f(t):
        return sum_all(ad.mul(ad.gather_rows(t, idx), ad.gather_rows(t, idx)))

    err = grad_check(f, Tensor(rand((3, 4), 69)))
    assert err < 1e-6


# ---------------------------------------------------------------- packed segments

OFFSETS = np.array([0, 2, 5, 6])   # three segments of 2, 3 and 1 rows


def _segments(a, offsets=OFFSETS):
    return [a[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


def test_conv1d_segments_match_separate_calls():
    x, w, b = rand((6, 3), 80), rand((3, 3, 4), 81), rand(4, 82)
    packed = ad.conv1d(Tensor(x), Tensor(w), Tensor(b), OFFSETS).data
    alone = np.concatenate([naive_conv1d(seg, w, b) for seg in _segments(x)])
    np.testing.assert_allclose(packed, alone, atol=1e-12)


def test_attention_segments_match_separate_calls():
    x = rand((6, 4), 83)
    packed = ad.attention_core(Tensor(x), Tensor(x), Tensor(x), 2, OFFSETS).data
    alone = np.concatenate([ad.attention_core(Tensor(seg), Tensor(seg), Tensor(seg), 2).data
                            for seg in _segments(x)])
    np.testing.assert_allclose(packed, alone, atol=1e-12)


def test_segment_losses_are_means_of_segment_losses():
    a, b = rand((6, 4), 84), rand((6, 4), 85)
    targets = np.array([0, 3, 1, 2, 2, 0])
    seg_mse = [ad.mse(Tensor(x), Tensor(y)).item()
               for x, y in zip(_segments(a), _segments(b))]
    seg_ce = [ad.softmax_cross_entropy(Tensor(x), t).item()
              for x, t in zip(_segments(a), _segments(targets))]
    assert ad.mse(Tensor(a), Tensor(b), OFFSETS).item() == pytest.approx(
        np.mean(seg_mse), abs=1e-14)
    assert ad.softmax_cross_entropy(Tensor(a), targets, OFFSETS).item() == pytest.approx(
        np.mean(seg_ce), abs=1e-14)


def test_segment_mean_rows():
    x = rand((6, 4), 86)
    out = ad.segment_mean(Tensor(x), OFFSETS).data
    np.testing.assert_array_equal(out, np.stack([seg.mean(axis=0) for seg in _segments(x)]))
    np.testing.assert_array_equal(ad.segment_mean(Tensor(x)).data, x.mean(axis=0)[None])


def test_dropout_segment_masks_are_each_streams_own_draw():
    from uspc.rng import NamedRng
    rng = NamedRng(7)
    x = Tensor(np.ones((6, 5)))
    gens = lambda: [rng.generator(f"dropout/layer/{u}", step=3) for u in "abc"]  # noqa: E731
    packed = ad.dropout(x, 0.5, gens(), offsets=OFFSETS).data
    alone = [ad.dropout(Tensor(np.ones((hi - lo, 5))), 0.5, [gen]).data
             for gen, lo, hi in zip(gens(), OFFSETS[:-1], OFFSETS[1:])]
    np.testing.assert_array_equal(packed, np.concatenate(alone))


def test_segment_offsets_must_split_the_rows():
    with pytest.raises(ShapeError, match="do not split 6 rows"):
        ad.conv1d(Tensor(rand((6, 3), 87)), Tensor(rand((3, 3, 2), 88)), None,
                  np.array([0, 4, 5]))


@pytest.mark.parametrize("op", ["conv1d", "attention", "segment_mean", "mse", "cross_entropy"])
def test_grad_check_segmented_ops(op):
    w = Tensor(rand((3, 4, 3), 89))
    b = Tensor(rand(3, 90))
    other = Tensor(rand((6, 4), 91))
    targets = np.array([1, 0, 3, 3, 2, 1])
    v = Tensor(rand(4, 92))
    fns = {
        "conv1d": lambda t: mean_all(ad.relu(ad.conv1d(t, w, b, OFFSETS))),
        "attention": lambda t: mean_all(ad.mul(ad.attention_core(t, t, t, 2, OFFSETS),
                                                  ad.attention_core(t, t, t, 2, OFFSETS))),
        "segment_mean": lambda t: sum_all(ad.mul(ad.segment_mean(t, OFFSETS),
                                                    ad.mul(ad.segment_mean(t, OFFSETS), v))),
        "mse": lambda t: ad.mse(t, other, OFFSETS),
        "cross_entropy": lambda t: ad.softmax_cross_entropy(t, targets, OFFSETS),
    }
    assert grad_check(fns[op], Tensor(rand((6, 4), 93))) < 1e-4


def test_straight_through_excluded_from_grad_check_by_contract():
    # The STE pass-through is checked exactly instead: grad(c) == upstream g.
    c = Tensor(rand((4, 3), 70), requires_grad=True)
    values = rand((4, 3), 71)
    out = ad.straight_through(c, values)
    np.testing.assert_array_equal(out.data, values)
    g = rand((4, 3), 72)
    ad.backward(sum_all(ad.mul(out, Tensor(g))))
    np.testing.assert_array_equal(c.grad, g)


# ---------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_params():
    store = ParamStore()
    p = store.param("w", rand((3, 3), 80))
    before = p.data.copy()
    state = AdamState.for_params(store)
    state.lr = 0.01
    clip_and_adam(state, {"w": np.zeros_like(p.data)})
    np.testing.assert_array_equal(p.data, before)
    assert state.t == 1


def test_adam_first_step_hand_expansion():
    store = ParamStore()
    p = store.param("w", np.array(0.0))
    state = AdamState.for_params(store)
    state.lr = 0.001
    clip_and_adam(state, {"w": np.array(1.0)})
    # m_hat = v_hat = 1 after bias correction; delta = -lr / (1 + eps)
    expected = -0.001 / (1.0 + 1e-8)
    assert abs(float(p.data) - expected) < 1e-15


def test_adam_two_steps_match_reference_trace():
    # step-by-step trace computed with plain floats
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    theta, m, v = 0.5, 0.0, 0.0
    g1, g2 = 0.3, -0.2
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    store = ParamStore()
    p = store.param("w", np.array(0.5))
    state = AdamState.for_params(store)
    state.lr = lr
    clip_and_adam(state, {"w": np.array(g1)})
    clip_and_adam(state, {"w": np.array(g2)})
    assert abs(float(p.data) - theta) < 1e-14


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_adam_lr_zero_is_identity(seed):
    store = ParamStore()
    p = store.param("w", rand((2, 2), seed))
    before = p.data.copy()
    state = AdamState.for_params(store)
    state.lr = 0.0
    clip_and_adam(state, {"w": rand((2, 2), seed + 1)})
    np.testing.assert_array_equal(p.data, before)


def _optimizer_state(store, state):
    return state.t, {n: (p.data.copy(), state.m[n].copy(), state.v[n].copy())
                     for n, p in store.items()}


def _assert_same_state(store, state, before):
    t, arrays = before
    assert state.t == t
    for n, p in store.items():
        for got, want in zip((p.data, state.m[n], state.v[n]), arrays[n]):
            np.testing.assert_array_equal(got, want)


def test_adam_nan_gradient_names_parameter():
    store = ParamStore()
    store.param("encoder.w", np.zeros(2))
    state = AdamState.for_params(store)
    before = _optimizer_state(store, state)
    with pytest.raises(TrainingDiverged, match="encoder.w"):
        clip_and_adam(state, {"encoder.w": np.array([np.nan, 0.0])})
    _assert_same_state(store, state, before)


def test_adam_nonfinite_gradient_changes_nothing():
    # the bad gradient sits in the second parameter, after one that would
    # update; one good step first so the moments are non-zero
    store = ParamStore()
    store.param("a", rand((2, 3), 81))
    store.param("b", rand((3,), 82))
    state = AdamState.for_params(store)
    state.lr = 0.01
    clip_and_adam(state, {"a": rand((2, 3), 83), "b": rand((3,), 84)})
    before = _optimizer_state(store, state)
    with pytest.raises(TrainingDiverged, match="'b'"):
        clip_and_adam(state, {"a": rand((2, 3), 85), "b": np.array([0.0, np.nan, 0.0])})
    assert before[0] == 1
    _assert_same_state(store, state, before)


def test_clip_global_norm():
    # the norm comes back unclipped; Adam runs on the gradients scaled to
    # norm 1 in the block
    store = ParamStore()
    store.param("a", np.zeros(2))
    store.param("b", np.zeros(2))
    state = AdamState.for_params(store)
    norm = clip_and_adam(state, {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])},
                         max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    joined = np.concatenate([state.g["a"], state.g["b"]])
    assert abs(np.linalg.norm(joined) - 1.0) < 1e-12


def test_clip_noop_when_under_limit():
    store = ParamStore()
    store.param("a", np.zeros(2))
    state = AdamState.for_params(store)
    grad = np.array([0.1, 0.2])
    clip_and_adam(state, {"a": grad}, max_norm=1.0)
    np.testing.assert_array_equal(state.g["a"], grad)
