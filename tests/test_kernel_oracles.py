"""The fused kernels against plain reference implementations, bitwise.

Each reference below is the straightforward formulation: conv1d as per-tap
GEMMs over a zero-padded layout, attention as a loop over segments and
heads, layer norm through `.mean`, dropout drawing a fresh Philox stream per
segment, the repeated-row backward through np.add.at, Linear as a matmul
node plus a bias node, and Adam and clipping with plain temporaries.  The
kernels must agree with them byte for byte, forward and backward.
"""

import numpy as np
import pytest

from uspc import autodiff as ad
from uspc import training
from uspc.autodiff import Tensor
from uspc.corpus import CorpusSpec, gen_corpus
from uspc.errors import TrainingDiverged
from uspc.layers import Ctx, Dropout, segment_offsets
from uspc.optim import AdamState, ParamStore
from uspc.rng import NamedRng, _name_key

from conftest import clip_and_adam, small_train_config


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def layout(seed, n_segments=None):
    """Random segment lengths in 1..7 with at least one 1-row segment."""
    rng = np.random.default_rng(seed)
    n = n_segments or int(rng.integers(1, 6))
    lengths = rng.integers(1, 8, size=n)
    lengths[rng.integers(n)] = 1
    return segment_offsets(lengths)


def spans(offsets):
    return list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def grads_through(out, g):
    """Backward from `out` with upstream gradient `g` (sum(out * g))."""
    ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))


# ---------------------------------------------------------------- references


def ref_conv1d(x, w, b, offsets, g):
    """Per-tap GEMMs over a layout where each segment has its own padding."""
    k = w.shape[0]
    pad = k // 2
    segs = spans(offsets)
    t, cin = x.shape
    cout = w.shape[2]
    span = t + 2 * pad * (len(segs) - 1)
    windows = [(lo, hi, lo + 2 * pad * i) for i, (lo, hi) in enumerate(segs)]
    xp = np.zeros((span + 2 * pad, cin))
    for lo, hi, s in windows:
        xp[s + pad:s + pad + hi - lo] = x[lo:hi]
    full = np.zeros((span, cout))
    for j in range(k):
        full += xp[j:j + span] @ w[j]
    out = np.concatenate([full[s:s + hi - lo] for lo, hi, s in windows])
    out += b
    g_full = np.zeros((span, cout))
    for lo, hi, s in windows:
        g_full[s:s + hi - lo] = g[lo:hi]
    dk = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dk[j] = xp[j:j + span].T @ g_full
        dxp[j:j + span] += g_full @ w[j].T
    dx = np.concatenate([dxp[s + pad:s + pad + hi - lo] for lo, hi, s in windows])
    return out, dx, dk, g.sum(axis=0)


def ref_attention(q, k, v, n_heads, offsets, g):
    """Loop over segments and heads."""
    t, d = q.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    blocks = [(slice(lo, hi), slice(h * dh, (h + 1) * dh))
              for lo, hi in spans(offsets) for h in range(n_heads)]
    out = np.empty((t, d))
    dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for seg, sl in blocks:
        s = (q[seg, sl] @ k[seg, sl].T) * scale
        s -= s.max(axis=-1, keepdims=True)
        e = np.exp(s)
        p = e / e.sum(axis=-1, keepdims=True)
        out[seg, sl] = p @ v[seg, sl]
        gh = g[seg, sl]
        dv[seg, sl] = p.T @ gh
        dp = gh @ v[seg, sl].T
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        dq[seg, sl] = (ds @ k[seg, sl]) * scale
        dk[seg, sl] = (ds.T @ q[seg, sl]) * scale
    return out, dq, dk, dv


def ref_normalize(x, eps, g):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    m1 = g.mean(axis=-1, keepdims=True)
    m2 = (g * xhat).mean(axis=-1, keepdims=True)
    return xhat, inv * (g - m1 - xhat * m2)


def ref_layer_norm(x, gain, bias, eps, g):
    xhat, _ = ref_normalize(x, eps, g)
    out = xhat * gain + bias
    gx = g * gain
    _, dx = ref_normalize(x, eps, gx)
    return out, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def fresh_philox(seed, name, step):
    key = np.array([seed, _name_key(name)], dtype=np.uint64)
    counter = np.array([step, 0, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def ref_adam(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    if lr != 0.0:
        p -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)


# ---------------------------------------------------------------- conv1d


@pytest.mark.parametrize("kernel_size", [1, 3, 5])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("x_grad", [True, False])
def test_conv1d_matches_padded_per_tap_reference(kernel_size, seed, x_grad):
    offsets = layout(seed)
    t = int(offsets[-1])
    x = Tensor(rand((t, 5), seed), requires_grad=x_grad)
    w = Tensor(rand((kernel_size, 5, 4), seed + 100), requires_grad=True)
    b = Tensor(rand(4, seed + 200), requires_grad=True)
    g = rand((t, 4), seed + 300)
    out = ad.conv1d(x, w, b, offsets)
    grads_through(out, g)
    want, dx, dk, db = ref_conv1d(x.data, w.data, b.data, offsets, g)
    assert same_bytes(out.data, want)
    assert same_bytes(w.grad, dk) and same_bytes(b.grad, db)
    if x_grad:
        assert same_bytes(x.grad, dx)
    else:
        assert x.grad is None


@pytest.mark.parametrize("lengths", [[8, 15, 13], [1, 40, 3, 57, 1, 30]])
def test_conv1d_model_width_segments_match_reference(lengths):
    # 32 channels: a GEMM with a transposed operand rounds some rows
    # differently at different row counts below about 38 rows, so the
    # input gradient must keep the padded layout's row count
    offsets = segment_offsets(lengths)
    t = int(offsets[-1])
    x = Tensor(rand((t, 32), 1), requires_grad=True)
    w = Tensor(rand((3, 32, 32), 2), requires_grad=True)
    b = Tensor(rand(32, 3), requires_grad=True)
    g = rand((t, 32), 4)
    out = ad.conv1d(x, w, b, offsets)
    grads_through(out, g)
    want, dx, dk, db = ref_conv1d(x.data, w.data, b.data, offsets, g)
    assert same_bytes(out.data, want) and same_bytes(x.grad, dx)
    assert same_bytes(w.grad, dk) and same_bytes(b.grad, db)


# ---------------------------------------------------------------- attention


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_matches_per_head_reference(seed, n_heads):
    offsets = layout(seed)
    t = int(offsets[-1])
    q, k, v = (Tensor(rand((t, 8), seed + i), requires_grad=True) for i in range(3))
    g = rand((t, 8), seed + 10)
    out = ad.attention_core(q, k, v, n_heads, offsets)
    grads_through(out, g)
    want, dq, dk, dv = ref_attention(q.data, k.data, v.data, n_heads, offsets, g)
    assert same_bytes(out.data, want)
    assert same_bytes(q.grad, dq) and same_bytes(k.grad, dk) and same_bytes(v.grad, dv)


def test_attention_self_and_constant_inputs_match_reference():
    # q = k = v is one array (numpy takes another GEMM path for x @ x.T);
    # a constant k and v take no gradient
    offsets = layout(7, n_segments=4)
    t = int(offsets[-1])
    x = Tensor(rand((t, 6), 1), requires_grad=True)
    g = rand((t, 6), 2)
    out = ad.attention_core(x, x, x, 2, offsets)
    grads_through(out, g)
    want, dq, dk, dv = ref_attention(x.data, x.data, x.data, 2, offsets, g)
    assert same_bytes(out.data, want)
    assert same_bytes(x.grad, (dq + dk) + dv)   # accumulated in q, k, v order

    q = Tensor(x.data, requires_grad=True)
    k, v = Tensor(rand((t, 6), 3)), Tensor(rand((t, 6), 4))
    grads_through(ad.attention_core(q, k, v, 3, offsets), g)
    _, dq, _, _ = ref_attention(q.data, k.data, v.data, 3, offsets, g)
    assert same_bytes(q.grad, dq)
    assert k.grad is None and v.grad is None


# ---------------------------------------------------------------- norms


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("x_grad", [True, False])
def test_layer_norm_matches_mean_reference(seed, x_grad):
    x = Tensor(rand((7, 9), seed) * 3.0 + 1.0, requires_grad=x_grad)
    gain = Tensor(rand(9, seed + 1), requires_grad=True)
    bias = Tensor(rand(9, seed + 2), requires_grad=True)
    g = rand((7, 9), seed + 3)
    out = ad.layer_norm(x, gain, bias, 1e-6)
    grads_through(out, g)
    want, dx, dgain, dbias = ref_layer_norm(x.data, gain.data, bias.data, 1e-6, g)
    assert same_bytes(out.data, want)
    assert same_bytes(gain.grad, dgain) and same_bytes(bias.grad, dbias)
    assert same_bytes(x.grad, dx) if x_grad else x.grad is None


# ---------------------------------------------------------------- linear


@pytest.mark.parametrize("x_grad", [True, False])
def test_linear_matches_matmul_plus_bias_nodes(x_grad):
    x0, w0, b0, g = rand((9, 6), 1), rand((6, 4), 2), rand(4, 3), rand((9, 4), 4)
    x, w, b = Tensor(x0, requires_grad=x_grad), Tensor(w0, requires_grad=True), \
        Tensor(b0, requires_grad=True)
    out = ad.linear(x, w, b)
    grads_through(out, g)
    rx, rw, rb = Tensor(x0, requires_grad=x_grad), Tensor(w0, requires_grad=True), \
        Tensor(b0, requires_grad=True)
    ref = ad.add(ad.matmul(rx, rw), rb)
    grads_through(ref, g)
    assert same_bytes(out.data, ref.data)
    assert same_bytes(w.grad, rw.grad) and same_bytes(b.grad, rb.grad)
    assert same_bytes(x.grad, rx.grad) if x_grad else x.grad is None


# ---------------------------------------------------------------- repeat_rows


@pytest.mark.parametrize("width", [1, 2, 16])
@pytest.mark.parametrize("seed", range(4))
def test_repeat_rows_backward_matches_add_at(width, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 12, size=9)
    counts[0] = 0
    counts[3] = 1
    a = Tensor(rand((9, width), seed), requires_grad=True)
    g = rand((int(counts.sum()), width), seed + 1)
    g[::3] = -0.0                      # runs summing to -0.0 must give +0.0
    g[counts[:3].sum():counts[:4].sum()] = -0.0
    idx = np.repeat(np.arange(9), counts)
    out = ad.repeat_rows(a, counts)
    grads_through(out, g)
    want = np.zeros_like(a.data)
    np.add.at(want, idx, g)
    assert same_bytes(out.data, a.data[idx])
    assert same_bytes(a.grad, want)


@pytest.mark.parametrize("counts, width, zeros", [([100], 1, False), ([0, 11, 2], 1, False),
                                                  ([3, 3], 4, True), ([3], 1, True)])
def test_repeat_rows_backward_matches_add_at_edge_layouts(counts, width, zeros):
    # a single one-wide run longer than 8 rows (numpy would sum a one-wide
    # block pairwise), and longest runs whose rows are all -0.0
    counts = np.array(counts)
    a = Tensor(rand((counts.size, width), 5), requires_grad=True)
    g = rand((int(counts.sum()), width), 6)
    if zeros:
        g[:counts[0]] = -0.0
    else:
        # 2**53 + 1 rounds back to 2**53: a sum in row order drops every
        # later 1.0, a pairwise sum keeps some
        g[:counts.max()] = 1.0
        g[0] = 2.0 ** 53
    out = ad.repeat_rows(a, counts)
    grads_through(out, g)
    want = np.zeros_like(a.data)
    np.add.at(want, np.repeat(np.arange(counts.size), counts), g)
    assert same_bytes(a.grad, want)


def test_constants_take_no_gradient():
    p = Tensor(rand((3, 4), 1), requires_grad=True)
    c = Tensor(rand((3, 4), 2))
    w = Tensor(rand((4, 2), 3))
    ad.backward(ad.sum_all(ad.matmul(ad.add(ad.reshape(p, (3, 4)), c), w)))
    assert c.grad is None and w.grad is None
    assert p.grad is not None


# ---------------------------------------------------------------- dropout


@pytest.mark.parametrize("seed", range(4))
def test_dropout_matches_fresh_stream_per_segment(seed):
    offsets = layout(seed)
    t = int(offsets[-1])
    uids = tuple(f"u{i}" for i in range(len(offsets) - 1))
    rng = NamedRng(seed)
    ctx = Ctx(training=True, step=seed + 3, uids=uids, offsets=offsets, rng=rng)
    x = Tensor(rand((t, 6), seed), requires_grad=True)
    g = rand((t, 6), seed + 1)
    out = Dropout("layer", 0.3)(x, ctx)
    grads_through(out, g)
    draws = np.concatenate([fresh_philox(seed, f"dropout/layer/{u}", seed + 3).random((hi - lo, 6))
                            for u, (lo, hi) in zip(uids, spans(offsets))])
    keep = draws >= 0.3
    scale = 1.0 / (1.0 - 0.3)
    assert same_bytes(out.data, x.data * keep * scale)
    assert same_bytes(x.grad, g * keep * scale)


def test_repeated_utterance_in_a_packed_batch_gets_its_own_fresh_mask(tmp_path):
    # a speech pool of 8 with 3 speech utterances per step wraps mid-batch,
    # so some packed batch holds one utterance twice
    spec = CorpusSpec(n_speakers=2, utts_per_speaker=4, labeled_fraction=1.0,
                      n_test_speakers=0, p_vocab=16, min_phonemes=3, max_phonemes=4,
                      min_duration=1, max_duration=2)
    records, _, _ = gen_corpus(tmp_path, seed=2, spec=spec)
    batches = []
    real_step = training.joint_step

    def spy(paired, unpaired, model, opt, cfg, step, **kw):
        batches.append((step, [rec.id for rec in unpaired]))
        return real_step(paired, unpaired, model, opt, cfg, step, **kw)

    training.joint_step = spy
    try:
        cfg = small_train_config(max_steps=8, batch_paired=1, batch_unpaired=3)
        model, _, _ = training.train(cfg, records)
    finally:
        training.joint_step = real_step
    step, uids = next((s, u) for s, u in batches if len(set(u)) < len(u))
    lengths = [len(next(r for r in records if r.id == u).mel) for u in uids]
    offsets = segment_offsets(lengths)
    ctx = Ctx(training=True, step=step, uids=tuple(uids), offsets=offsets, rng=model.rng)
    x = Tensor(np.ones((int(offsets[-1]), 4)))
    mask = Dropout("content_encoder.block0.drop1", 0.5)(x, ctx).data
    for uid, (lo, hi) in zip(uids, spans(offsets)):
        want = fresh_philox(cfg.seed, f"dropout/content_encoder.block0.drop1/{uid}",
                            step).random((hi - lo, 4)) >= 0.5
        assert same_bytes(mask[lo:hi], want * 2.0)
    first = uids.index(next(u for u in uids if uids.count(u) > 1))
    second = uids.index(uids[first], first + 1)
    assert same_bytes(mask[offsets[first]:offsets[first + 1]],
                      mask[offsets[second]:offsets[second + 1]])


def test_init_shuffle_and_reseed_draws_equal_fresh_streams():
    rng = NamedRng(11)
    # interleaved requests: each request resets its stream
    gen = rng.generator("data/shuffle_speech", 4)
    gen.random(5)
    rng.generator("codebook/reseed", 2).integers(0, 9, size=3)
    assert same_bytes(rng.generator("data/shuffle_speech", 4).permutation(13),
                      fresh_philox(11, "data/shuffle_speech", 4).permutation(13))
    assert same_bytes(rng.normal("init/w", (3, 4), 0.5),
                      fresh_philox(11, "init/w", 0).standard_normal((3, 4)) * 0.5)
    assert same_bytes(rng.generator("codebook/reseed", 2).integers(0, 9, size=3),
                      fresh_philox(11, "codebook/reseed", 2).integers(0, 9, size=3))
    assert same_bytes(rng.generator("codebook/data_init", 0).choice(20, 5, replace=False),
                      fresh_philox(11, "codebook/data_init", 0).choice(20, 5, replace=False))


def test_stream_cache_starts_over_past_its_bound(monkeypatch):
    from uspc import rng as rng_module
    monkeypatch.setattr(rng_module, "MAX_CACHED_STREAMS", 2)
    rng = NamedRng(5)
    for name in ("a", "b", "c", "a", "d", "b"):
        assert same_bytes(rng.generator(name, 7).random(4), fresh_philox(5, name, 7).random(4))
    assert len(rng._streams) <= 2


# ---------------------------------------------------------------- adam, clip


@pytest.mark.parametrize("lr", [0.01, 0.0])
def test_adam_matches_reference_for_scalar_and_array_params(lr):
    # zero-initialised parameters hold exactly minus the first update
    store = ParamStore()
    init = {"s": np.array(0.0), "v": rand(5, 1), "w": np.zeros((3, 4))}
    for name, value in init.items():
        store.param(name, value.copy())
    state = AdamState.for_params(store, lr=lr)
    ref = {n: [v.copy(), np.zeros_like(v), np.zeros_like(v)] for n, v in init.items()}
    for t in range(1, 4):
        grads = {name: rand(p.data.shape, 10 * t + i) for i, (name, p) in enumerate(store.items())}
        for name, g in grads.items():
            ref_adam(ref[name][0], g, ref[name][1], ref[name][2], t, lr)
        clip_and_adam(store, state, grads)
    for name, p in store.items():
        assert same_bytes(p.data, ref[name][0])
        assert same_bytes(state.m[name], ref[name][1])
        assert same_bytes(state.v[name], ref[name][2])


def test_adam_nonfinite_scalar_gradient_changes_nothing():
    store = ParamStore()
    store.param("w", rand((2, 2), 1))
    store.param("s", np.array(0.5))
    state = AdamState.for_params(store, lr=0.01)
    clip_and_adam(store, state, {"w": rand((2, 2), 2), "s": np.array(0.3)})
    before = {n: (p.data.copy(), state.m[n].copy(), state.v[n].copy())
              for n, p in store.items()}
    with pytest.raises(TrainingDiverged, match="'s'"):
        clip_and_adam(store, state, {"w": rand((2, 2), 3), "s": np.array(np.inf)})
    assert state.t == 1
    for n, p in store.items():
        for got, want in zip((p.data, state.m[n], state.v[n]), before[n]):
            assert same_bytes(got, want)


def test_clip_matches_reference_on_backward_gradients():
    # backward's gradients, copied into the block and scaled there on
    # Adam's pass
    store = ParamStore()
    w = store.param("w", rand((4, 3), 1))
    b = store.param("b", rand(3, 2))
    state = AdamState.for_params(store, lr=0.01)
    x = Tensor(rand((5, 4), 3))
    ad.backward(ad.mse(ad.linear(x, w, b), Tensor(rand((5, 3), 4))))
    want = {n: p.grad.copy() for n, p in store.items()}
    total = sum(float((g * g).sum()) for g in want.values())
    norm = clip_and_adam(store, state, want, max_norm=1e-3)
    assert norm == float(np.sqrt(total))
    for n in store:
        assert same_bytes(state.g[n], want[n] * (1e-3 / norm))
