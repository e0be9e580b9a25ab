"""Straight-line numpy reference of the narrow-band network forward pass.

Written independently of the autodiff engine, directly from the documented
layer contract, with explicit per-head / per-position loops.  Used as the
oracle for the engine-backed forward.
"""

import numpy as np

LN_EPS = 1e-5


def layer_norm_ref(x, gamma, beta):
    out = np.empty_like(x)
    for t in range(x.shape[1]):
        col = x[:, t]
        mu = col.mean()
        var = col.var()
        out[:, t] = gamma * (col - mu) / np.sqrt(var + LN_EPS) + beta
    return out


def group_norm_ref(x, gamma, beta, groups):
    c = x.shape[0]
    cg = c // groups
    out = np.empty_like(x)
    for g in range(groups):
        block = x[g * cg : (g + 1) * cg]
        mu = block.mean()
        var = block.var()
        out[g * cg : (g + 1) * cg] = (block - mu) / np.sqrt(var + LN_EPS)
    return gamma[:, None] * out + beta[:, None]


def silu_ref(x):
    return x / (1.0 + np.exp(-x))


def conv1d_ref(x, w, b, pad_left, pad_right, groups=1):
    c_out, c_in_g, k = w.shape
    xp = np.pad(x, ((0, 0), (pad_left, pad_right)))
    t_out = xp.shape[1] - k + 1
    og = c_out // groups
    y = np.zeros((c_out, t_out))
    for o in range(c_out):
        g = o // og
        for i in range(c_in_g):
            for kk in range(k):
                y[o] += w[o, i, kk] * xp[g * c_in_g + i, kk : kk + t_out]
        y[o] += b[o]
    return y


def conv_transpose1d_ref(x, w, b, out_len):
    c_in, c_out, k = w.shape
    t_in = x.shape[1]
    y = np.zeros((c_out, t_in + k - 1))
    for o in range(c_out):
        for j in range(y.shape[1]):
            for kk in range(k):
                t = j - kk
                if 0 <= t < t_in:
                    for i in range(c_in):
                        y[o, j] += w[i, o, kk] * x[i, t]
        y[o] += b[o]
    return y[:, :out_len]


def sinusoid_table_ref(t_len, dim):
    offsets = np.arange(-(t_len - 1), t_len, dtype=float)
    half = dim // 2
    table = np.zeros((len(offsets), dim))
    for e, d in enumerate(offsets):
        for i in range(half):
            angle = d / (10000.0 ** (2.0 * i / dim))
            table[e, i] = np.sin(angle)
            table[e, half + i] = np.cos(angle)
    return table


def rpsa_ref(xn, p, prefix, heads):
    h1, t_len = xn.shape
    dh = h1 // heads
    q = p[f"{prefix}.wq"] @ xn
    k = p[f"{prefix}.wk"] @ xn
    v = p[f"{prefix}.wv"] @ xn
    rel = p[f"{prefix}.wr"] @ sinusoid_table_ref(t_len, h1).T  # (H1, 2T-1)
    out = np.zeros((h1, t_len))
    attn = np.zeros((heads, t_len, t_len))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[sl], k[sl], v[sl]
        u, vbias = p[f"{prefix}.u"][h], p[f"{prefix}.v"][h]
        rh = rel[sl]
        logits = np.zeros((t_len, t_len))
        for qi in range(t_len):
            for ki in range(t_len):
                content = float((qh[:, qi] + u) @ kh[:, ki])
                position = float((qh[:, qi] + vbias) @ rh[:, (ki - qi) + (t_len - 1)])
                logits[qi, ki] = (content + position) / np.sqrt(dh)
        for qi in range(t_len):
            e = np.exp(logits[qi] - logits[qi].max())
            attn[h, qi] = e / e.sum()
        for qi in range(t_len):
            acc = np.zeros(dh)
            for ki in range(t_len):
                acc += attn[h, qi, ki] * vh[:, ki]
            out[sl, qi] = acc
    return p[f"{prefix}.wo"] @ out, attn


def forward_ref(x, params, cfg, collect_attention=False):
    """Evaluate the documented block equations on a single (2M, T) sequence."""
    p = {name: t.numpy() for name, t in params.items()}
    t_len = x.shape[1]
    h = conv1d_ref(x, p["in_conv.w"], p["in_conv.b"], cfg.io_kernel - 1, 0)
    attn_all = []
    for i in range(cfg.blocks):
        b = f"block{i}"
        a = layer_norm_ref(h, p[f"{b}.attn_norm.gamma"], p[f"{b}.attn_norm.beta"])
        a, attn = rpsa_ref(a, p, f"{b}.attn", cfg.heads)
        attn_all.append(attn)
        h = h + a

        f = layer_norm_ref(h, p[f"{b}.ff_norm.gamma"], p[f"{b}.ff_norm.beta"])
        f = silu_ref(p[f"{b}.ff_in.w"] @ f + p[f"{b}.ff_in.b"][:, None])
        for j in range(cfg.conv_blocks):
            f = conv1d_ref(f, p[f"{b}.conv{j}.w"], p[f"{b}.conv{j}.b"],
                           cfg.conv_kernel // 2, cfg.conv_kernel // 2, cfg.groups)
            f = group_norm_ref(f, p[f"{b}.conv{j}.norm.gamma"],
                               p[f"{b}.conv{j}.norm.beta"], cfg.groups)
            f = silu_ref(f)
        f = p[f"{b}.ff_out.w"] @ f + p[f"{b}.ff_out.b"][:, None]
        h = f + h
    out = conv_transpose1d_ref(h, p["out_conv.w"], p["out_conv.b"], t_len)
    if collect_attention:
        return out, attn_all
    return out
