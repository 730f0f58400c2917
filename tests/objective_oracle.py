"""A test-side oracle of one objective step, on (T, H, W, n) arrays.

These are the formulas the objective used before it moved to feature-major
buffers: probabilities from ``to_probabilities``, p*log(p) with the
0*log(0) = 0 convention, the softmax gradient of -I folded analytically, the
linear-penalty gradient through ``probability_vjp``, the constraint penalty
and its gradient.  The transport residual takes its bilinear corners straight
from the flow and spreads its gradient with ``np.add.at``, without the warp
plan.  The convolution and its tap adjoint are the package's own: their
reference is in test_features.py.

The warp plan's ``gather`` and ``scatter`` give two more references of the
motion term, which the objective takes from the matrix G alone:
``whole_clip_gram`` builds G from the whole clip's transport matrix, and
``streamed_motion`` evaluates M and its activation gradient along the plan.
"""

import numpy as np

from cogaction import spatial_parsimony, temporal_parsimony
from cogaction.action import ActionBreakdown, spatial_parsimony_gradient
from cogaction.features import (
    convolution_tap_gradient,
    convolve_features,
    probability_vjp,
    to_probabilities,
)


def xlogx(probs):
    """Elementwise p*log(p) with the 0*log(0) = 0 convention."""
    safe = np.where(probs > 0.0, probs, 1.0)
    return safe * np.log(safe)


def neg_index_act_gradient(act, probs, q, frame_measure, mode):
    """Activation-space gradient of -I."""
    log_q = np.log(np.where(q > 0.0, q, 1.0))[None, None, None, :]
    if mode == "softmax":
        weighted = frame_measure[:, None, None, None] * (probs * log_q - xlogx(probs))
        return weighted - probs * weighted.sum(axis=-1, keepdims=True)
    probs_grad = frame_measure[:, None, None, None] * (log_q - np.log(probs))
    return probability_vjp(act, probs, probs_grad)


def constraint_penalty(act, measure):
    sum_dev = act.sum(axis=3) - 1.0
    low = np.maximum(0.0, -act)
    high = np.maximum(0.0, act - 1.0)
    per_site = sum_dev * sum_dev + (low * low + high * high).sum(axis=3)
    return float(np.dot(measure, per_site.sum(axis=(1, 2))))


def constraint_penalty_act_gradient(act, measure):
    sum_dev = act.sum(axis=3) - 1.0
    grad = 2.0 * sum_dev[..., None] - 2.0 * np.maximum(0.0, -act) \
        + 2.0 * np.maximum(0.0, act - 1.0)
    return measure[:, None, None, None] * grad


def bilinear_corners(flow):
    """(frame, row, col, weight) of the four corners each residual site samples
    in the next frame, each (T-1, H, W)."""
    frames, height, width = flow.data.shape[:3]
    rows = np.arange(height)[None, :, None] + flow.data[:-1, :, :, 1]
    cols = np.arange(width)[None, None, :] + flow.data[:-1, :, :, 0]
    r0, c0 = np.floor(rows).astype(int), np.floor(cols).astype(int)
    fr, fc = rows - r0, cols - c0
    nxt = np.broadcast_to(np.arange(1, frames)[:, None, None], rows.shape)
    return [(nxt, np.mod(r0 + dr, height), np.mod(c0 + dc, width), weight)
            for dr, dc, weight in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                                   (1, 0, fr * (1 - fc)), (1, 1, fr * fc))]


def objective_step(bank, bank_prev, data, flow, weights, lam, dtau):
    """(breakdown, tap gradient) of one step, as ``action_value_and_gradient``."""
    act = np.ascontiguousarray(convolve_features(bank, data))
    height, width = act.shape[1:3]
    measure = weights.frame_measure(height, width)
    residual_measure = weights.residual_measure(height, width)
    linear = bank.mode == "linear-penalty"

    probs = to_probabilities(act, bank.mode)
    s_cond = float(np.dot(measure, (-xlogx(probs).sum(axis=3)).sum(axis=(1, 2))))
    q = np.einsum("t,thwi->i", measure, probs)
    s_marg = float(-xlogx(q).sum())
    info = s_marg - s_cond

    corners = bilinear_corners(flow)
    advected = sum(weight[..., None] * act[t, r, c] for t, r, c, weight in corners)
    residual = advected - act[:-1]
    motion = float(np.dot(residual_measure, (residual * residual).sum(axis=(1, 2, 3))))
    spatial = spatial_parsimony(bank)
    temporal = temporal_parsimony(bank, bank_prev, dtau)
    penalty = constraint_penalty(act, measure) if linear else 0.0
    total = (-info + lam.motion * motion + lam.spatial * spatial + lam.temporal * temporal
             + lam.constraint * penalty)
    breakdown = ActionBreakdown(s_marg, s_cond, info, motion, spatial, temporal, penalty, total)

    act_grad = neg_index_act_gradient(act, probs, q, measure, bank.mode)
    grad = 2.0 * lam.motion * residual_measure[:, None, None, None] * residual
    act_grad[:-1] -= grad
    for t, r, c, weight in corners:
        np.add.at(act_grad, (t, r, c), weight[..., None] * grad)
    if linear:
        act_grad += lam.constraint * constraint_penalty_act_gradient(act, measure)
    tap_grad = convolution_tap_gradient(data, act_grad, bank.kernel)
    tap_grad += lam.spatial * spatial_parsimony_gradient(bank.taps)
    tap_grad += lam.temporal * (bank.taps - bank_prev.taps) / (dtau * dtau)
    return breakdown, tap_grad


def whole_clip_gram(plan, patches, residual_measure):
    """G = Ds Ds^T of a (rows, T*H*W) patch matrix: every patch row gathered
    from frames 1..T-1 at once, minus its frames 0..T-2, and a last row, the
    residual of a constant 1; each frame's columns scaled by the square root
    of its ``residual_measure``."""
    sites = plan.weight.shape[1:]
    frames = patches.reshape((len(patches), sites[0] + 1) + sites[1:])
    scaled = np.empty((len(patches) + 1,) + sites)
    plan.gather(frames[:, 1:], scaled[:-1])
    scaled[:-1] -= frames[:, :-1]
    plan.gather(np.ones((1,) + sites), scaled[-1:])
    scaled[-1] -= 1.0
    scaled *= np.sqrt(residual_measure)[:, None, None]
    flat = scaled.reshape(len(scaled), -1)
    return flat @ flat.T


def streamed_motion(plan, act, residual_measure):
    """M of feature-major (n, T, H, W) activations by the plan's gather, and
    its gradient in the activations by the plan's scatter."""
    residual = np.empty_like(act[:, 1:])
    plan.gather(act[:, 1:], residual)
    residual -= act[:, :-1]
    motion = float(np.dot(residual_measure, np.einsum("ithw,ithw->t", residual, residual)))
    residual *= 2.0 * residual_measure[:, None, None]
    grad = np.zeros_like(act)
    grad[:, :-1] -= residual
    plan.scatter(residual, grad[:, 1:])
    return motion, grad
