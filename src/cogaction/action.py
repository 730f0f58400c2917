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
every reduction over the features runs over contiguous rows.  In softmax
mode no step writes log p: sum_i p_i log p_i is sum_i p_i (a_i - max a) -
log Z, which is finite where p underflows, so 0 log 0 = 0 holds without a
special case.

The motion term is a quadratic form in the taps.  Every layer builds the
form's matrix G, (K*K*m + 1)^2, once, straight from the flow one frame pair
at a time (``_motion_gram``), and its steps take M and M's tap gradient from
G alone: no step holds a transport residual or gathers and scatters along
the flow.

Every tap-space term reads the bank's affine rows x = [flipped flat taps,
1/n] (``FilterBank._row``): M from x G, the spatial parsimony from the
differences x E along both kernel axes, the temporal parsimony from
x - x_prev.  ``spatial_parsimony``, ``spatial_parsimony_gradient`` and
``temporal_parsimony`` are their forms on the (n, m, K, K) taps, which the
tests hold the step to; the step calls none of them.
"""

from dataclasses import dataclass

import numpy as np

# The step computes the probability map, its adjoint, the entropies and the
# parsimony terms in place: it calls none of probability_vjp,
# to_probabilities, conditional_entropy, symbol_marginal, spatial_parsimony,
# spatial_parsimony_gradient and temporal_parsimony, and the package builds
# no _WarpPlan.  The benchmark under perfbench/ still uses them by name: its
# tracer patches these seven and _WarpPlan's __init__, gather and scatter in
# this module, and cognitive_action, action_value_and_gradient,
# term_gradients and cli._windowed_eval in theirs; its output checks call
# evaluate_bank and stack_layers.  All of them stay until the benchmark
# moves to other seams.
from .features import (  # noqa: F401
    CLAMP_EPS,
    FilterBank,
    _frame_rows,
    _patch_blocks,
    _unflat_view,
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

    def csv_row(self, *lead) -> str:
        """The given leading fields (a step, or a layer and a phase), then the terms."""
        return ",".join([str(v) for v in lead] + [f"{v:.17g}" for v in self.values()])


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
    if not abs(np.add.reduce(q) - 1.0) <= 1e-9:  # a NaN sum fails too
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
# time, from that pair's patch rows and bilinear corners, so no layer holds
# D or the whole clip's corners, and every layer, kept or streamed, takes M
# from G.

def _bilinear_corners(velocity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bilinear corners of the samples that an (F, H, W, 2) block of flow
    advects each site to, wrapped: their flat sites ``row*W + col`` in the
    frame, and their weights, both (corner, F, H, W).  Corners the block gives
    no weight anywhere are dropped: integer flow keeps one."""
    height, width = velocity.shape[1:3]
    # the sampled rows and columns, then their fractional parts
    fr = np.arange(height, dtype=np.float64)[:, None] + velocity[..., 1]
    fc = np.arange(width, dtype=np.float64) + velocity[..., 0]
    r0, c0 = np.floor(fr), np.floor(fc)
    fr -= r0
    fc -= c0
    r0, c0 = r0.astype(np.int64), c0.astype(np.int64)
    index = np.empty((4,) + fr.shape, dtype=np.int64)
    weight = np.empty((4,) + fr.shape)
    for corner, (dr, dc) in enumerate(np.ndindex(2, 2)):
        np.multiply(fr if dr else 1.0 - fr, fc if dc else 1.0 - fc, out=weight[corner])
        np.add(np.mod(r0 + dr, height) * width, np.mod(c0 + dc, width), out=index[corner])
    kept = weight.reshape(4, -1).any(axis=1)
    return (index, weight) if kept.all() else (index[kept], weight[kept])


class _WarpPlan:
    """Bilinear corners of the advected samples as flat sites ``t*H*W + row*W + col``
    of frames 1..T-1, and their weights; both (corner, T-1, H, W), from
    ``_bilinear_corners`` of the whole clip's flow.

    ``gather`` and ``scatter`` apply the transport and its adjoint to
    feature-major fields, (n, T-1, H, W), one feature's contiguous rows at a
    time.  The package does not build a plan: the tests use it as the
    transport oracle of ``_motion_gram``, and the benchmark's tracer patches
    it by name."""

    def __init__(self, flow: VelocityField):
        frames, height, width = flow.data.shape[:3]
        if frames < 2:
            raise ValueError("need at least 2 frames for a motion residual")
        self.index, self.weight = _bilinear_corners(flow.data[:-1])
        self.index += height * width * np.arange(frames - 1)[:, None, None]

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


def _motion_gram(grid: np.ndarray, flow: VelocityField, kernel: int,
                 residual_measure: np.ndarray) -> np.ndarray:
    """G = Ds Ds^T, (K*K*m + 1)^2, of a (T, H, W, m) grid, summed over
    frame pairs.  A frame's patch rows, (H*W, K*K*m + 1), are the patch
    matrix's columns for its sites, each with a last entry 1 for the
    bias, copied from the frame's ``_frame_rows``.  Frame pair t's block
    of the transport matrix D is, at each site, frame t+1's rows at the
    site's ``_bilinear_corners`` under the pair's flow, weighted and summed,
    minus frame t's row: a constant 1 leaves sum_k w_k - 1.  So
    ``[flat taps, 1/n] @ D`` is the advected residual of the activations
    ``flat taps @ P + 1/n`` in exact arithmetic, for any n.  With integer
    flow both, and G, are exactly 0 on an exactly translating clip.  Ds is D
    with each frame's block scaled by the square root of its
    ``residual_measure``.

    Two frames' patch rows, one frame's row patches, one pair's corners and
    the gathered rows of at most 1,024 sites are held at a time, never the
    whole clip's D or its corners."""
    _, height, width, channels = grid.shape
    sites = height * width
    columns = kernel * kernel * channels + 1
    chunk = min(sites, 1024)
    pair = np.empty((2, sites, columns))
    pair[..., -1] = 1.0
    # [i, r, c, u, v*m + j]: entry (u, v, j) of site (r, c) of frame t, i = t % 2
    pair_patches = pair[..., :-1].reshape(2, height, width, kernel, -1)
    taken = np.empty(4 * chunk * columns)
    block = np.empty((chunk, columns))
    gram = np.zeros((columns, columns))
    for frame, patch_rows in enumerate(_frame_rows(grid, kernel)):
        blocks = _patch_blocks(patch_rows, kernel, height, width)
        pair_patches[frame % 2] = blocks.transpose(2, 3, 0, 1)
        if frame == 0:
            continue
        t = frame - 1
        now, nxt = pair[t % 2], pair[frame % 2]
        index, weight = (a.reshape(len(a), sites) for a in _bilinear_corners(flow.data[t:frame]))
        corners = len(index)
        scale = np.sqrt(residual_measure[t])
        for start in range(0, sites, chunk):
            stop = min(start + chunk, sites)
            rows = block[:stop - start]
            gathered = taken[:corners * len(rows) * columns].reshape(corners, len(rows), columns)
            # every corner lies in its frame, so "clip" clamps none
            np.take(nxt, index[:, start:stop], axis=0, out=gathered, mode="clip")
            np.einsum("cs,csk->sk", weight[:, start:stop], gathered, out=rows)
            rows -= now[start:stop]
            rows *= scale
            gram += rows.T @ rows
        del index, weight  # before the next pair's are built
    return gram


# ---------------------------------------------------------------------------
# Parsimony terms on the tap grid.

def spatial_parsimony(bank) -> float:
    """Half the summed squared first differences of the taps along both kernel
    axes; neighbor pairs inside the support only (no wrap across the edge)."""
    taps = bank.taps if isinstance(bank, FilterBank) else np.asarray(bank, dtype=np.float64)
    da = taps[:, :, 1:] - taps[:, :, :-1]
    db = taps[:, :, :, 1:] - taps[:, :, :, :-1]
    return 0.5 * (float(np.add.reduce(da * da, axis=None))
                  + float(np.add.reduce(db * db, axis=None)))


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
    return 0.5 * float(np.add.reduce(delta * delta, axis=None))


def _difference_matrix(kernel: int, channels: int) -> np.ndarray:
    """The fixed matrix E, (K*K*m + 1, 2*K*(K-1)*m), whose columns hold one
    -1 and one +1: x E is the first difference of each neighbour pair of
    taps along both kernel axes, once, for affine rows x.  The bias entry
    meets only zeros.  So the spatial parsimony is half the sum of squares
    of x E and its gradient in x is (x E) E^T; E's entries are exact, so each
    difference is rounded once, as ``spatial_parsimony`` rounds it."""
    index = np.arange(kernel * kernel * channels).reshape(kernel, kernel, channels)
    lower = np.concatenate([index[:-1].ravel(), index[:, :-1].ravel()])
    upper = np.concatenate([index[1:].ravel(), index[:, 1:].ravel()])
    diff = np.zeros((index.size + 1, lower.size))
    pairs = np.arange(lower.size)
    diff[lower, pairs] = -1.0
    diff[upper, pairs] = 1.0
    return diff


# ---------------------------------------------------------------------------
# Constraint penalty on raw feature-major activations (linear-penalty mode only).

def _constraint_penalty(act: np.ndarray, measure: np.ndarray, site: np.ndarray) -> float:
    """The penalty's value.  Leaves sum_i a_i - 1 in ``site[0]`` and
    overwrites the activations in ``act`` with their excess a - clip(a, 0, 1),
    for ``_constraint_penalty_act_gradient``; ``site[1]`` is scratch."""
    sum_dev, clipped = site[:2]
    np.add.reduce(act, axis=0, out=sum_dev)
    sum_dev -= 1.0
    for row in act:
        np.minimum(np.maximum(row, 0.0, out=clipped), 1.0, out=clipped)  # np.clip
        row -= clipped
    per_frame = np.einsum("thw,thw->t", sum_dev, sum_dev) + np.einsum("ithw,ithw->t", act, act)
    return float(np.dot(measure, per_frame))


def _constraint_penalty_act_gradient(excess: np.ndarray, sum_dev: np.ndarray,
                                     measure: np.ndarray, scale: float, out: np.ndarray) -> None:
    """Add ``scale`` times the penalty's gradient in the activations,
    2 measure (excess + sum_dev), to ``out``, from what ``_constraint_penalty``
    left; ``excess`` is overwritten."""
    excess += sum_dev
    excess *= (2.0 * scale) * measure[:, None, None]
    out += excess


# ---------------------------------------------------------------------------
# Composite objective and its analytic tap gradient.
#
# ``ActionInputs`` holds what stays fixed while a layer learns: its inputs,
# the motion term's matrix G, the spatial parsimony's difference matrix E,
# the grid's patch matrix when the clip is kept, and the step's workspace.
# One step (``_evaluate``) runs in place on feature-major (n, T, H, W)
# buffers: activations and probabilities.  In
# softmax mode ``act`` keeps a' = a - max a and ``probs`` measure * p, made
# from exp(a') by one multiply with s = measure / Z; the entropies read
# sum_i p_i log p_i as sum_i p_i a'_i - log Z, and no log p is written.  The
# gradient of -I, (measure p)(log q - a' + k), is written over a' in three
# sweeps.  In linear-penalty mode it is written over log p in ``probs``, and
# the constraint penalty, last, turns ``act`` into the activations' excess
# and adds its gradient, from the same excess and sum over the features,
# into ``probs``.  ``probs`` is zeroed when -I is left out.  One convolution
# adjoint maps the buffer to the taps, and the tap-space terms' gradients,
# summed in the layout of the affine rows x, are added after it in one
# unflattened view.  The returned breakdown and tap gradient never alias the
# workspace, which the next evaluation overwrites.

class ActionInputs:
    """The fixed inputs of one objective, checked and built once for banks
    of ``bank``'s shape (n, K): the input grid, its ``frame_measure`` under
    ``weights`` and that measure's ``_inverse``, the motion term's matrix
    ``gram`` (``_motion_gram`` of ``flow``, one frame pair at a time), the
    spatial parsimony's ``differences`` (``_difference_matrix``), the grid's
    ``patches`` (``clip_patches``, with their ones row), and the step's
    workspace.  ``patches`` is None when the clip exceeds the
    patch budget; the convolution of such a streamed clip builds its row
    patches frame by frame on every step.  The workspace is ``act`` and
    ``probs``, (n, T, H, W), and ``site``, three (T, H, W) arrays.

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
        self.inverse_measure = _inverse(self.frame_measure)
        n, kernel = bank.n, bank.kernel
        self.bank_shape = (n, kernel)
        # G before the step's buffers: its build's temporaries are freed first
        self.gram = _motion_gram(self.grid, flow, kernel, weights.residual_measure(height, width))
        self.differences = _difference_matrix(kernel, self.grid.shape[3])
        self.patches = clip_patches(self.grid, kernel)
        self.act = np.empty((n, frames, height, width))
        self.probs = np.empty((n, frames, height, width))
        self.site = np.empty((3, frames, height, width))


def _entropies(act: np.ndarray, probs: np.ndarray, site: np.ndarray, measure: np.ndarray,
               mode: str) -> tuple[np.ndarray, float, float]:
    """Probabilities of the activations in ``act``, in place, and the entropies.
    Returns (log q, S(Y), S(Y | site)).

    Softmax leaves a' = a - max a in ``act``, measure * p in ``probs`` and
    measure * sum_i p_i a'_i in ``site[0]``.  With Z = sum_i exp(a'_i), one
    multiply by s = measure / Z takes exp(a') to measure * p, so no sweep
    divides by Z, and q is the sum of measure * p over the sites.
    -sum_i p_i log p_i is log Z - sum_i p_i a'_i, so no log p is written;
    where p underflows to 0, p a' is 0, so 0 log 0 = 0 holds without a
    special case.  Linear-penalty keeps the raw activations in ``act`` (its
    penalty and its projection's adjoint read them), leaves log p in
    ``probs``, and in ``site`` c = sum_i p_i (log q_i - log p_i) and the
    clamped sum.
    """
    # each sum over the features adds the rows in order, one reduction over
    # the contiguous rows; each measure-weighted site sum is one einsum
    n = len(act)
    if mode == "softmax":
        mean_a, total, scale = site
        np.maximum.reduce(act, axis=0, out=mean_a)
        act -= mean_a
        np.exp(act, out=probs)
        np.add.reduce(probs, axis=0, out=total)
        np.divide(measure[:, None, None], total, out=scale)
        probs *= scale
        log_z = np.log(total, out=total)
        np.einsum("i...,i...->...", probs, act, out=mean_a)
        s_cond = (float(np.einsum("t,thw->", measure, log_z))
                  - float(np.add.reduce(mean_a, axis=None)))
        q = _simplex_marginal(np.add.reduce(probs.reshape(n, -1), axis=1))
        log_q = np.log(np.where(q > 0.0, q, 1.0))
        return log_q, -float(np.add.reduce(q * log_q)), s_cond
    cross, total, plogp = site
    # np.clip(act, CLAMP_EPS, 1.0), as two ufuncs: a fraction of its call overhead
    np.minimum(np.maximum(act, CLAMP_EPS, out=probs), 1.0, out=probs)
    np.add.reduce(probs, axis=0, out=total)
    probs /= total
    q = _simplex_marginal(np.einsum("ithw,t->i", probs, measure))
    log_q = np.log(np.where(q > 0.0, q, 1.0))
    np.matmul(log_q, probs.reshape(n, -1), out=cross.reshape(-1))
    plogp.fill(0.0)
    for row in probs:
        log_row = np.log(row)
        row *= log_row
        plogp += row
        row[...] = log_row
    cross -= plogp
    s_cond = -float(np.einsum("t,thw->", measure, plogp))
    return log_q, -float(np.add.reduce(q * log_q)), s_cond


def _inverse(measure: np.ndarray) -> np.ndarray:
    """1 / measure, and 0 where that is not finite: a frame of measure 0 or
    below the normal range carries no probability mass."""
    return np.divide(1.0, measure, out=np.zeros_like(measure),
                     where=measure >= np.finfo(measure.dtype).tiny)


def _neg_index_act_gradient(act: np.ndarray, probs: np.ndarray, site: np.ndarray,
                            log_q: np.ndarray, measure: np.ndarray, inverse_measure: np.ndarray,
                            mode: str) -> np.ndarray:
    """Activation-space gradient of -I, in place on what ``_entropies`` left.

    In probability space d(-I)/dp_i = measure * (log q_i - log p_i).  Through
    the softmax it is measure * p_i * (log q_i - log p_i - c), with
    c = sum_i p_i (log q_i - log p_i); as log p_i = a'_i - log Z, that is
    (measure p_i) (log q_i - a'_i + k) for k = log Z - c
    = sum_i p_i (a'_i - log q_i), written over a' in ``act`` in three
    sweeps.  ``probs`` and ``site[0]`` hold measure * p and
    measure * sum_i p_i a'_i, so k is measure * k times
    ``inverse_measure``, the measure's ``_inverse``.  Through the
    clamp-and-renormalize projection it is measure * (log q_i - log p_i - c)
    / sum(clamp) where the clamp is inactive and 0 elsewhere, written over
    log p in ``probs``.  Returns the
    buffer that holds it.
    """
    if mode == "softmax":
        k, cross = site[:2]
        np.matmul(log_q, probs.reshape(len(probs), -1), out=cross.reshape(-1))
        k -= cross
        k *= inverse_measure[:, None, None]
        np.subtract(k, act, out=act)
        act += log_q[:, None, None, None]
        act *= probs
        return act
    cross, total, factor = site
    np.subtract(log_q[:, None, None, None], probs, out=probs)
    probs -= cross
    np.divide(measure[:, None, None], total, out=factor)
    probs *= factor
    probs[~((act > CLAMP_EPS) & (act < 1.0))] = 0.0
    return probs


def _tap_terms(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
               dtau: float) -> tuple[tuple[float, float, float], tuple[np.ndarray, ...]]:
    """The motion and parsimony terms from the affine rows x = ``bank._row``:
    M = sum_i x_i G x_i^T, P half the sum of squares of the differences
    x E, K half the sum of squares of x - x_prev over dtau^2.  Returns
    (M, P, K) and (x G, x E, x - x_prev), for ``_tap_row_gradients``.

    A sum of squares cannot be negative, but M's form can round below 0 on
    a nearly invariant bank; M is held at 0 there."""
    if dtau <= 0.0:
        raise ValueError(f"temporal-parsimony step must be > 0, got {dtau}")
    if bank_prev.taps.shape != bank.taps.shape:
        raise ValueError(f"bank shapes differ: {bank.taps.shape} vs {bank_prev.taps.shape}")
    x = bank._row
    gx = x @ inputs.gram
    diffs = x @ inputs.differences
    step = x - bank_prev._row
    values = (max(float(np.add.reduce(x * gx, axis=None)), 0.0),
              0.5 * float(np.add.reduce(diffs * diffs, axis=None)),
              0.5 * float(np.add.reduce(step * step, axis=None)) / (dtau * dtau))
    return values, (gx, diffs, step)


def _tap_row_gradients(products: tuple[np.ndarray, ...], inputs: ActionInputs,
                       dtau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unweighted gradients of M, P and K in the layout of the affine
    rows, from what ``_tap_terms`` returned: 2 x G, (x E) E^T and
    (x - x_prev) / dtau^2.  Their last column, the bias's, is not a tap."""
    gx, diffs, step = products
    return 2.0 * gx, diffs @ inputs.differences.T, step / (dtau * dtau)


def _evaluate(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
              lam: Multipliers, dtau: float, grad: bool = False, index: bool = True):
    """One objective step on the workspace of ``inputs``: the breakdown, and
    with ``grad`` the gradient in the taps (else None).  ``index = False``
    leaves -I out of the gradient, so that a term's gradient can be taken
    alone.

    ``inputs`` checked the grid, flow and weights, and a bank of another n or
    K than it was built for is rejected first.  The calls below reject the
    other bad inputs where they first use them: the convolution a channel
    count that differs from the bank's, the tap-space terms a previous bank
    of another shape and ``dtau <= 0``.
    """
    if (bank.n, bank.kernel) != inputs.bank_shape:
        raise ValueError(f"a bank of (n, K) = {(bank.n, bank.kernel)} on inputs built for "
                         f"(n, K) = {inputs.bank_shape}")
    patches, act, probs, site = inputs.patches, inputs.act, inputs.probs, inputs.site
    measure = inputs.frame_measure
    convolve_features(bank, inputs.grid, out=act.transpose(1, 2, 3, 0), patches=patches)

    (motion, spatial, temporal), products = _tap_terms(bank, bank_prev, inputs, dtau)
    log_q, s_marg, s_cond = _entropies(act, probs, site, measure, bank.mode)
    info = s_marg - s_cond

    act_grad = None
    if grad and index:
        act_grad = _neg_index_act_gradient(act, probs, site, log_q, measure,
                                           inputs.inverse_measure, bank.mode)
    elif grad:
        act_grad = probs
        act_grad.fill(0.0)
    penalty = 0.0
    if bank.mode == "linear-penalty":
        # last, as it overwrites the activations
        penalty = _constraint_penalty(act, measure, site)
        # the penalty's gradient costs a full pass: skipped at a zero multiplier
        if act_grad is not None and lam.constraint != 0.0:
            _constraint_penalty_act_gradient(act, site[0], measure, lam.constraint, act_grad)

    total = (-info + lam.motion * motion + lam.spatial * spatial + lam.temporal * temporal
             + lam.constraint * penalty)
    breakdown = ActionBreakdown(s_marg, s_cond, info, motion, spatial, temporal, penalty, total)
    if not grad:
        return breakdown, None

    tap_grad = convolution_tap_gradient(inputs.grid, act_grad.transpose(1, 2, 3, 0),
                                        bank.kernel, patches=patches)
    motion_grad, spatial_grad, temporal_grad = _tap_row_gradients(products, inputs, dtau)
    row_grad = lam.motion * motion_grad + lam.spatial * spatial_grad + lam.temporal * temporal_grad
    tap_grad += _unflat_view(row_grad[:, :-1], bank.kernel)
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
    The motion and parsimony gradients are the step's
    (``_tap_row_gradients``), with no step of their own.
    """
    def tap_gradient(lam: Multipliers, index: bool = False) -> np.ndarray:
        return _evaluate(bank, bank_prev, inputs, lam, dtau, grad=True, index=index)[1]

    info_index = -tap_gradient(Multipliers(), index=True)
    row_grads = _tap_row_gradients(_tap_terms(bank, bank_prev, inputs, dtau)[1], inputs, dtau)
    return {
        "info_index": info_index,
        **{name: _unflat_view(row_grad[:, :-1], bank.kernel).copy()
           for name, row_grad in zip(("motion", "spatial", "temporal"), row_grads)},
        "penalty": (tap_gradient(Multipliers(constraint=1.0))
                    if bank.mode == "linear-penalty" else np.zeros_like(bank.taps)),
    }
