"""The learning objective: information index, motion-invariance term, parsimony.

Every evaluation produces an ActionBreakdown holding the individual terms and
the composite value

    A = -I + lam_motion * M + lam_spatial * P + lam_temporal * K
        (+ lam_constraint * C_pen in linear-penalty mode)

where I = S(Y) - S(Y | site) is the information index of the per-pixel symbol
distribution, M integrates the squared motion-transport residual, P penalizes
rough tap grids, K penalizes fast tap change between optimizer iterates, and
C_pen penalizes simplex violations of the raw activations.

The space-time measure is h(t) / (sum_t h(t) * H * W): pixel-uniform with a
per-frame temporal factor, normalized to total mass 1.  All reductions use a
fixed accumulation order, so repeated evaluations are bit-identical.

Public fields are (T, H, W, n).  The objective itself works feature-major, on
(n, T, H, W) buffers that ``ActionInputs`` owns, one set per layer, so that
every reduction over the features runs over contiguous rows.  Each step
computes log p once; in softmax mode log p = a - logsumexp(a) stays finite
where p underflows, which gives 0 log 0 = 0 without a special case.

The motion term is a quadratic form in the taps.  Every layer builds the
form's matrix G, (K*K*m + 1)^2, once (``_WarpPlan.gram``), and its steps
take M and M's tap gradient from G alone: no step holds a transport
residual or gathers and scatters along the flow.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The step computes the probability map, its adjoint and the entropies in
# place: it calls none of probability_vjp, to_probabilities,
# conditional_entropy and symbol_marginal.  The benchmark under perfbench/
# still uses them by name: its tracer patches these four in this module, and
# cognitive_action, action_value_and_gradient, term_gradients and
# cli._windowed_eval in theirs; its output checks call evaluate_bank and
# stack_layers.  All of them stay until the benchmark moves to other seams.
from .features import (  # noqa: F401
    CLAMP_EPS,
    FilterBank,
    _flat_taps,
    _unflat_taps,
    as_grid,
    clip_patches,
    convolution_tap_gradient,
    convolve_features,
    probability_vjp,
    to_probabilities,
)
from .flow import VelocityField, require_matching


@dataclass(frozen=True)
class TemporalWeights:
    """Per-frame weights h(t) >= 0 defining the temporal factor of the measure."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"temporal weights must be a 1-D array of length >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("temporal weights must be finite and non-negative")
        if arr.sum() <= 0.0:
            raise ValueError("temporal weights must not be all zero")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @classmethod
    def uniform(cls, frames: int) -> "TemporalWeights":
        return cls(np.ones(frames, dtype=np.float64))

    @classmethod
    def exponential(cls, frames: int, gamma: float) -> "TemporalWeights":
        """Discounted weights h(t) = gamma^(T-1-t): recent frames weigh most."""
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"discount factor must be in (0, 1], got {gamma}")
        return cls(gamma ** np.arange(frames - 1, -1, -1, dtype=np.float64))

    @property
    def frames(self) -> int:
        return self.weights.size

    def frame_measure(self, height: int, width: int) -> np.ndarray:
        """Per-frame site measure; sums to 1 over all (t, x)."""
        return self.weights / (self.weights.sum() * height * width)

    def residual_measure(self, height: int, width: int) -> np.ndarray:
        """Site measure renormalized over the T-1 frames carrying a residual."""
        head = self.weights[:-1]
        total = head.sum()
        if total <= 0.0:
            raise ValueError("temporal weights put no mass on frames 0..T-2")
        return head / (total * height * width)


@dataclass(frozen=True)
class Multipliers:
    """Non-negative weights of the objective terms."""

    motion: float = 0.0
    spatial: float = 0.0
    temporal: float = 0.0
    constraint: float = 0.0

    def __post_init__(self):
        for name in ("motion", "spatial", "temporal", "constraint"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"multiplier {name} must be finite and >= 0, got {value}")
            object.__setattr__(self, name, value)


BREAKDOWN_CSV_HEADER = "step,S_Y,S_cond,I,M,P,K,C_pen,A"


@dataclass(frozen=True)
class ActionBreakdown:
    """All terms of one objective evaluation, in nats / squared units."""

    marginal_entropy: float
    conditional_entropy: float
    info_index: float
    motion: float
    spatial: float
    temporal: float
    penalty: float
    total: float

    def values(self) -> tuple[float, ...]:
        return (self.marginal_entropy, self.conditional_entropy, self.info_index,
                self.motion, self.spatial, self.temporal, self.penalty, self.total)

    def csv_row(self, step: int) -> str:
        return ",".join([str(step)] + [f"{v:.17g}" for v in self.values()])


# ---------------------------------------------------------------------------
# Entropies of the symbol variable under the site measure.

def _check_field_weights(field: np.ndarray, weights: TemporalWeights) -> np.ndarray:
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"field must be (T, H, W, n), got shape {arr.shape}")
    if arr.shape[0] != weights.frames:
        raise ValueError(
            f"temporal weights cover {weights.frames} frames, field has {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("field must be finite")
    return arr


def conditional_entropy(field: np.ndarray, weights: TemporalWeights) -> float:
    """Measure-weighted mean per-site entropy of the symbol distribution, nats;
    0 log 0 = 0."""
    arr = _check_field_weights(field, weights)
    safe = np.where(arr > 0.0, arr, 1.0)
    per_frame = -(safe * np.log(safe)).sum(axis=3).sum(axis=(1, 2))
    measure = weights.frame_measure(arr.shape[1], arr.shape[2])
    return float(np.dot(measure, per_frame))


def _simplex_marginal(q: np.ndarray) -> np.ndarray:
    if abs(q.sum() - 1.0) > 1e-9:
        raise ValueError(f"symbol marginal sums to {q.sum():.12g}, not 1: field off the simplex")
    return q


def symbol_marginal(field: np.ndarray, weights: TemporalWeights) -> np.ndarray:
    """Marginal symbol distribution q_i = sum_site measure * p_i."""
    arr = _check_field_weights(field, weights)
    measure = weights.frame_measure(arr.shape[1], arr.shape[2])
    return _simplex_marginal(np.einsum("t,thwi->i", measure, arr))


# ---------------------------------------------------------------------------
# Motion-invariance term.
#
# The transport condition says a feature's value is carried along pixel
# trajectories.  Discretely: the value at x + v(x, t) in frame t+1 must equal
# the value at x in frame t.  The residual samples frame t+1 at the advected
# position (bilinear, toroidal wrap), which makes integer-velocity transport
# exact for any bank because convolution commutes with translation.  The
# residual is evaluated on raw activations; both probability maps are
# pointwise, so transported activations imply transported probabilities.
#
# The activations are the flipped taps times the patch matrix P, plus the bias
# 1/n, and the gather is linear, so the residual of the activations is
# x_i = [flipped taps_i, 1/n] times the transport matrix D of P.  With D's
# columns scaled by the square root of their frame's residual measure, M is
# sum_i x_i^T G x_i for G = D D^T, and its gradient in the taps is 2 (G x_i)
# without the last entry.  G is summed one frame pair's block of D at a
# time, so no layer holds D, and every layer, kept or streamed, takes M
# from G.

class _WarpPlan:
    """Bilinear corners of the advected samples as flat sites ``t*H*W + row*W + col``
    of frames 1..T-1, and their weights; both (corner, T-1, H, W).  Corners
    the flow gives no weight anywhere are dropped: integer flow keeps one.

    ``gram`` builds the motion term's matrix, which is all a step reads.
    ``gather`` and ``scatter`` apply the transport and its adjoint to
    feature-major fields, (n, T-1, H, W), one feature's contiguous rows at a
    time.  The package no longer calls them: the tests use them as the
    transport oracle of ``gram``, and the benchmark's tracer patches them by
    name."""

    def __init__(self, flow: VelocityField):
        data = flow.data
        t_res, height, width = data.shape[0] - 1, data.shape[1], data.shape[2]
        if t_res < 1:
            raise ValueError("need at least 2 frames for a motion residual")
        rows = np.arange(height, dtype=np.float64)[None, :, None] + data[:-1, :, :, 1]
        cols = np.arange(width, dtype=np.float64)[None, None, :] + data[:-1, :, :, 0]
        r0 = np.floor(rows)
        c0 = np.floor(cols)
        fr = rows - r0
        fc = cols - c0
        r0 = r0.astype(np.int64)
        c0 = c0.astype(np.int64)
        # built from (T-1, H, W) pieces: broadcasting over the corner axis
        # instead makes (4, T-1, H, W) integer temporaries
        frame_row = height * np.arange(t_res)[:, None, None]
        row0 = (np.mod(r0, height) + frame_row) * width
        row1 = (np.mod(r0 + 1, height) + frame_row) * width
        c0m = np.mod(c0, width)
        c1m = np.mod(c0 + 1, width)
        index = np.stack((row0 + c0m, row0 + c1m, row1 + c0m, row1 + c1m))
        weight = np.stack(((1.0 - fr) * (1.0 - fc), (1.0 - fr) * fc, fr * (1.0 - fc), fr * fc))
        used = weight.reshape(4, -1).any(axis=1)
        self.index, self.weight = (index, weight) if used.all() else (index[used], weight[used])
        # ``gram`` takes corners with np.take(mode="clip"), which would clamp
        # a bad index silently: each must lie in its own frame
        if not np.all(self.index // (height * width) == np.arange(t_res)[:, None, None]):
            raise ValueError("warp plan has a corner outside its frame")

    def gather(self, tail: np.ndarray, out: np.ndarray) -> None:
        """Write the advected samples of ``tail`` (frames 1..T-1) into ``out``."""
        for row, dest in zip(tail, out):
            flat = row.reshape(-1)
            np.multiply(self.weight[0], flat[self.index[0]], out=dest)
            for index, weight in zip(self.index[1:], self.weight[1:]):
                dest += weight * flat[index]

    def scatter(self, grad: np.ndarray, out: np.ndarray) -> None:
        """Adjoint of ``gather``: add a residual-shaped gradient, spread onto
        frames 1..T-1, into ``out``.

        Each site sums its contributions corner by corner, then in residual
        site order: one ``bincount`` per feature."""
        index = self.index.ravel()
        for row, dest in zip(grad, out):
            dest += np.bincount(index, (self.weight * row).ravel(), row.size).reshape(row.shape)

    def gram(self, grid: np.ndarray, kernel: int, residual_measure: np.ndarray) -> np.ndarray:
        """G = Ds Ds^T, (K*K*m + 1)^2, of a (T, H, W, m) grid, summed over
        frame pairs.  A frame's patch rows, (H*W, K*K*m + 1), are the patch
        matrix's columns for its sites, each with a last entry 1 for the
        bias, taken from a wrap-padded copy of that one frame.  Frame pair
        t's block of the transport matrix D is, at each site, frame t+1's
        rows at the site's corners, weighted and summed, minus frame t's row:
        a constant 1 leaves sum_k w_k - 1.  So ``[flat taps, 1/n] @ D`` is
        the advected residual of the activations ``flat taps @ P + 1/n`` in
        exact arithmetic, for any n.  With integer flow both, and G, are
        exactly 0 on an exactly translating clip.  Ds is D with each frame's
        block scaled by the square root of its ``residual_measure``.

        Two frames' rows and the gathered rows of at most 1,024 sites are
        held at a time, never the whole clip's D."""
        frames, height, width, channels = grid.shape
        sites = height * width
        reach = (kernel - 1) // 2
        columns = kernel * kernel * channels + 1
        corners = len(self.index)
        chunk = min(sites, 1024)
        pair = np.empty((2, height, width, columns))
        pair[..., -1] = 1.0
        taken = np.empty(corners * chunk * columns)
        block = np.empty((chunk, columns))
        gram = np.zeros((columns, columns))
        wrap_rows = np.arange(-reach, height + reach) % height
        wrap_cols = np.arange(-reach, width + reach) % width
        padded = np.empty((height + 2 * reach, width + 2 * reach, channels))
        # [r, c, u, v, j] = padded[r + u, c + v, j]: entry (u, v, j) of site (r, c)
        windows = sliding_window_view(padded, (kernel, kernel), (0, 1)).transpose(0, 1, 3, 4, 2)

        def fill(t: int, out: np.ndarray) -> np.ndarray:
            """Frame t's patch rows, written into ``out``, (H, W, K*K*m + 1)."""
            padded[...] = grid[t][wrap_rows[:, None], wrap_cols]
            out[..., :-1].reshape(windows.shape)[...] = windows
            return out.reshape(sites, columns)

        now = fill(0, pair[0])
        for t in range(frames - 1):
            nxt = fill(t + 1, pair[(t + 1) % 2])
            index = self.index[:, t].reshape(corners, sites) - t * sites
            weight = self.weight[:, t].reshape(corners, sites)
            scale = np.sqrt(residual_measure[t])
            for start in range(0, sites, chunk):
                stop = min(start + chunk, sites)
                rows = block[:stop - start]
                gathered = taken[:corners * len(rows) * columns].reshape(corners, len(rows), columns)
                # the plan checked every index against its frame
                np.take(nxt, index[:, start:stop], axis=0, out=gathered, mode="clip")
                np.einsum("cs,csk->sk", weight[:, start:stop], gathered, out=rows)
                rows -= now[start:stop]
                rows *= scale
                gram += rows.T @ rows
            now = nxt
        return gram


# ---------------------------------------------------------------------------
# Parsimony terms on the tap grid.

def spatial_parsimony(bank) -> float:
    """Half the summed squared first differences of the taps along both kernel
    axes; neighbor pairs inside the support only (no wrap across the edge)."""
    taps = bank.taps if isinstance(bank, FilterBank) else np.asarray(bank, dtype=np.float64)
    da = taps[:, :, 1:] - taps[:, :, :-1]
    db = taps[:, :, :, 1:] - taps[:, :, :, :-1]
    return 0.5 * (float((da * da).sum()) + float((db * db).sum()))


def spatial_parsimony_gradient(taps: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(taps)
    da = taps[:, :, 1:] - taps[:, :, :-1]
    grad[:, :, :-1, :] -= da
    grad[:, :, 1:, :] += da
    db = taps[:, :, :, 1:] - taps[:, :, :, :-1]
    grad[:, :, :, :-1] -= db
    grad[:, :, :, 1:] += db
    return grad


def temporal_parsimony(bank_now, bank_prev, dtau: float) -> float:
    """Half the squared tap velocity between consecutive optimizer iterates."""
    if dtau <= 0.0:
        raise ValueError(f"temporal-parsimony step must be > 0, got {dtau}")
    now = bank_now.taps if isinstance(bank_now, FilterBank) else np.asarray(bank_now)
    prev = bank_prev.taps if isinstance(bank_prev, FilterBank) else np.asarray(bank_prev)
    if now.shape != prev.shape:
        raise ValueError(f"bank shapes differ: {now.shape} vs {prev.shape}")
    delta = (now - prev) / dtau
    return 0.5 * float((delta * delta).sum())


# ---------------------------------------------------------------------------
# Constraint penalty on raw feature-major activations (linear-penalty mode only).

def _constraint_penalty(act: np.ndarray, measure: np.ndarray, scratch: np.ndarray) -> float:
    """The penalty's value; ``scratch``, of the activations' shape, is overwritten."""
    sum_dev = act.sum(axis=0) - 1.0
    excess = np.subtract(act, np.clip(act, 0.0, 1.0, out=scratch), out=scratch)
    per_frame = np.einsum("thw,thw->t", sum_dev, sum_dev) + np.einsum("ithw,ithw->t", excess, excess)
    return float(np.dot(measure, per_frame))


def _constraint_penalty_act_gradient(act: np.ndarray, measure: np.ndarray, scale: float,
                                     out: np.ndarray) -> None:
    """Add ``scale`` times the penalty's gradient in the activations to ``out``."""
    sum_dev = act.sum(axis=0) - 1.0
    factor = (2.0 * scale) * measure[:, None, None]
    for row, dest in zip(act, out):
        excess = row - np.clip(row, 0.0, 1.0)
        excess += sum_dev
        excess *= factor
        dest += excess


# ---------------------------------------------------------------------------
# Composite objective and its analytic tap gradient.
#
# ``ActionInputs`` holds what stays fixed while a layer learns: its inputs,
# the motion term's matrix G, the grid's patch matrix when the clip is kept,
# and the step's workspace.  One step (``_evaluate``) runs in place on
# feature-major (n, T, H, W) buffers: activations and probabilities.  The
# gradient of -I is written over log p (``act`` in softmax mode, ``probs`` in
# linear-penalty mode; ``probs`` zeroed when -I is left out), and the
# constraint penalty's gradient adds into that one buffer.  One convolution
# adjoint maps it to the taps, and the tap-space terms are added after it:
# the motion term's 2 x G, and the parsimony gradients.  The returned
# breakdown and tap gradient never alias the workspace, which the next
# evaluation overwrites.

class ActionInputs:
    """The fixed inputs of one objective, checked and built once for banks
    of ``bank``'s shape (n, K): the input grid, its ``frame_measure`` under
    ``weights``, the motion term's matrix ``gram`` (``_WarpPlan.gram`` of
    ``flow``'s warp plan, which is then dropped), the grid's ``patches``, and
    the step's workspace.  ``patches`` is None when the clip exceeds the
    patch budget; the convolution of such a streamed clip builds its patches
    chunk by chunk on every step.  The workspace is ``act`` and ``probs``,
    (n, T, H, W), and ``site``, three (T, H, W) arrays.

    The grid must not change after construction, and an evaluation rejects
    a bank of another n or K."""

    def __init__(self, data, flow: VelocityField, weights: TemporalWeights, bank: FilterBank):
        self.grid = as_grid(data)
        frames, height, width = self.grid.shape[:3]
        require_matching(flow, frames, height, width)
        if weights.frames != frames:
            raise ValueError(f"temporal weights cover {weights.frames} frames, grid has {frames}")
        if not np.all(np.isfinite(self.grid)):
            raise ValueError("input grid must be finite")
        self.frame_measure = weights.frame_measure(height, width)
        n, kernel = bank.n, bank.kernel
        self.bank_shape = (n, kernel)
        # G before the step's buffers: its build's temporaries are freed first
        self.gram = _WarpPlan(flow).gram(self.grid, kernel,
                                         weights.residual_measure(height, width))
        self.patches = clip_patches(self.grid, kernel)
        self.act = np.empty((n, frames, height, width))
        self.probs = np.empty((n, frames, height, width))
        self.site = np.empty((3, frames, height, width))


def _entropies(act: np.ndarray, probs: np.ndarray, site: np.ndarray, measure: np.ndarray,
               mode: str) -> tuple[np.ndarray, float, float]:
    """Probabilities of the activations in ``act``, in place, and the entropies.

    log p is computed once and serves the conditional entropy, the marginal
    and ``site[0]``: c = sum_i p_i (log q_i - log p_i), which the gradient of
    -I reads.  Softmax leaves log p = (a - max a) - log sum exp(a - max a) in
    ``act`` and p in ``probs``; log p stays finite where p underflows to 0, so
    0 log 0 = 0 holds without a special case.  Linear-penalty keeps the raw
    activations in ``act`` (its penalty and its projection's adjoint read
    them), leaves log p in ``probs`` and the clamped sum in ``site[1]``.
    Returns (log q, S(Y), S(Y | site)).
    """
    cross, total, plogp = site
    n, frames = act.shape[:2]
    if mode == "softmax":
        np.max(act, axis=0, out=plogp)
        act -= plogp
        np.exp(act, out=probs)
        np.sum(probs, axis=0, out=total)
        probs /= total
        act -= np.log(total, out=total)
        np.einsum("i...,i...->...", probs, act, out=plogp)
    else:
        np.clip(act, CLAMP_EPS, 1.0, out=probs)
        np.sum(probs, axis=0, out=total)
        probs /= total
    q = _simplex_marginal(probs.reshape(n, frames, -1).sum(axis=2) @ measure)
    log_q = np.log(np.where(q > 0.0, q, 1.0))
    np.matmul(log_q, probs.reshape(n, -1), out=cross.reshape(-1))
    if mode != "softmax":
        plogp.fill(0.0)
        for row in probs:
            log_row = np.log(row)
            row *= log_row
            plogp += row
            row[...] = log_row
    cross -= plogp
    s_cond = -float(np.dot(measure, plogp.reshape(frames, -1).sum(axis=1)))
    return log_q, -float((q * log_q).sum()), s_cond


def _neg_index_act_gradient(act: np.ndarray, probs: np.ndarray, site: np.ndarray,
                            log_q: np.ndarray, measure: np.ndarray, mode: str) -> np.ndarray:
    """Activation-space gradient of -I, in place on what ``_entropies`` left.

    In probability space d(-I)/dp_i = measure * (log q_i - log p_i).  Through
    the softmax it is measure * p_i * (log q_i - log p_i - c), written over
    log p in ``act``; through the clamp-and-renormalize projection it is
    measure * (log q_i - log p_i - c) / sum(clamp) where the clamp is
    inactive and 0 elsewhere, written over log p in ``probs``.  Returns the
    buffer that holds it.
    """
    cross, total, factor = site
    out = act if mode == "softmax" else probs
    np.subtract(log_q[:, None, None, None], out, out=out)
    out -= cross
    if mode == "softmax":
        out *= probs
        out *= measure[:, None, None]
        return out
    np.divide(measure[:, None, None], total, out=factor)
    out *= factor
    out[~((act > CLAMP_EPS) & (act < 1.0))] = 0.0
    return out


def _motion_form(bank: FilterBank, gram: np.ndarray) -> tuple[float, np.ndarray]:
    """M = sum_i x_i^T G x_i over the rows x_i = [flat taps_i, 1/n], and x G.

    A sum of squares cannot be negative, but the form can round below 0 on
    a nearly invariant bank; M is held at 0 there."""
    x = np.empty((bank.n, len(gram)))
    x[:, :-1] = _flat_taps(bank.taps)
    x[:, -1] = 1.0 / bank.n
    gx = x @ gram
    return max(float((x * gx).sum()), 0.0), gx


def _evaluate(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
              lam: Multipliers, dtau: float, grad: bool = False, index: bool = True):
    """One objective step on the workspace of ``inputs``: the breakdown, and
    with ``grad`` the gradient in the taps (else None).  ``index = False``
    leaves -I out of the gradient, so that a term's gradient can be taken
    alone.

    ``inputs`` checked the grid, flow and weights, and a bank of another n or
    K than it was built for is rejected first.  The calls below reject the
    other bad inputs where they first use them: the convolution a channel
    count that differs from the bank's, the temporal parsimony a previous bank
    of another shape and ``dtau <= 0``.
    """
    if (bank.n, bank.kernel) != inputs.bank_shape:
        raise ValueError(f"a bank of (n, K) = {(bank.n, bank.kernel)} on inputs built for "
                         f"(n, K) = {inputs.bank_shape}")
    patches, act, probs, site = inputs.patches, inputs.act, inputs.probs, inputs.site
    linear = bank.mode == "linear-penalty"
    convolve_features(bank, inputs.grid, out=act.transpose(1, 2, 3, 0), patches=patches)

    motion, gram_taps = _motion_form(bank, inputs.gram)
    penalty = _constraint_penalty(act, inputs.frame_measure, probs) if linear else 0.0

    log_q, s_marg, s_cond = _entropies(act, probs, site, inputs.frame_measure, bank.mode)
    info = s_marg - s_cond

    spatial = spatial_parsimony(bank)
    temporal = temporal_parsimony(bank, bank_prev, dtau)
    total = (-info + lam.motion * motion + lam.spatial * spatial + lam.temporal * temporal
             + lam.constraint * penalty)
    breakdown = ActionBreakdown(s_marg, s_cond, info, motion, spatial, temporal, penalty, total)
    if not grad:
        return breakdown, None

    if index:
        act_grad = _neg_index_act_gradient(act, probs, site, log_q, inputs.frame_measure,
                                           bank.mode)
    else:
        act_grad = probs
        act_grad.fill(0.0)
    # the penalty's gradient costs a full pass: skipped at a zero multiplier
    if linear and lam.constraint != 0.0:
        _constraint_penalty_act_gradient(act, inputs.frame_measure, lam.constraint, act_grad)

    tap_grad = convolution_tap_gradient(inputs.grid, act_grad.transpose(1, 2, 3, 0),
                                        bank.kernel, patches=patches)
    tap_grad += _unflat_taps((2.0 * lam.motion) * gram_taps[:, :-1], bank.kernel)
    tap_grad += lam.spatial * spatial_parsimony_gradient(bank.taps)
    tap_grad += lam.temporal * (bank.taps - bank_prev.taps) / (dtau * dtau)
    return breakdown, tap_grad


def cognitive_action(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
                     lam: Multipliers, dtau: float) -> ActionBreakdown:
    """Evaluate every objective term at the given bank."""
    return _evaluate(bank, bank_prev, inputs, lam, dtau)[0]


def action_value_and_gradient(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
                              lam: Multipliers, dtau: float):
    """One step serving both the breakdown and the gradient in the taps."""
    return _evaluate(bank, bank_prev, inputs, lam, dtau, grad=True)


def term_gradients(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
                   dtau: float) -> dict[str, np.ndarray]:
    """Tap gradients of the individual term values (not multiplier-weighted).

    Keys: info_index, motion, spatial, temporal, penalty.  Intended for
    oracle comparisons against finite differences of the breakdown fields.
    The motion gradient is 2 x G, with no step of its own.
    """
    def tap_gradient(lam: Multipliers, index: bool = False) -> np.ndarray:
        return _evaluate(bank, bank_prev, inputs, lam, dtau, grad=True, index=index)[1]

    return {
        "info_index": -tap_gradient(Multipliers(), index=True),
        "motion": _unflat_taps(2.0 * _motion_form(bank, inputs.gram)[1][:, :-1], bank.kernel),
        "spatial": spatial_parsimony_gradient(bank.taps),
        "temporal": (bank.taps - bank_prev.taps) / (dtau * dtau),
        "penalty": (tap_gradient(Multipliers(constraint=1.0))
                    if bank.mode == "linear-penalty" else np.zeros_like(bank.taps)),
    }
