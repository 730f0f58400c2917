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
"""

from dataclasses import dataclass

import numpy as np

from .features import (
    FilterBank,
    as_grid,
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

def _xlogx(probs: np.ndarray) -> np.ndarray:
    """Elementwise p*log(p) with the 0*log(0) = 0 convention."""
    safe = np.where(probs > 0.0, probs, 1.0)
    return safe * np.log(safe)


def _neg_xlogx_sum(probs: np.ndarray, axis=None) -> np.ndarray:
    """-sum p*log(p) with the 0*log(0) = 0 convention."""
    return -_xlogx(probs).sum(axis=axis)


def _check_field_weights(field: np.ndarray, weights: TemporalWeights) -> np.ndarray:
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"field must be (T, H, W, n), got shape {arr.shape}")
    if arr.shape[0] != weights.frames:
        raise ValueError(
            f"temporal weights cover {weights.frames} frames, field has {arr.shape[0]}"
        )
    return arr


def conditional_entropy(field: np.ndarray, weights: TemporalWeights) -> float:
    """Measure-weighted mean per-site entropy of the symbol distribution, nats."""
    arr = _check_field_weights(field, weights)
    site = _neg_xlogx_sum(arr, axis=3)
    per_frame = site.sum(axis=(1, 2))
    measure = weights.frame_measure(arr.shape[1], arr.shape[2])
    return float(np.dot(measure, per_frame))


def symbol_marginal(field: np.ndarray, weights: TemporalWeights) -> np.ndarray:
    """Marginal symbol distribution q_i = sum_site measure * p_i."""
    arr = _check_field_weights(field, weights)
    measure = weights.frame_measure(arr.shape[1], arr.shape[2])
    q = np.einsum("t,thwi->i", measure, arr)
    if abs(q.sum() - 1.0) > 1e-9:
        raise ValueError(f"symbol marginal sums to {q.sum():.12g}, not 1: field off the simplex")
    return q


def marginal_entropy(field: np.ndarray, weights: TemporalWeights) -> float:
    """Entropy of the marginal symbol distribution, nats."""
    return float(_neg_xlogx_sum(symbol_marginal(field, weights)))


def information_index(field: np.ndarray, weights: TemporalWeights) -> float:
    """Marginal minus conditional entropy: dominant yet diverse features score high."""
    return marginal_entropy(field, weights) - conditional_entropy(field, weights)


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

class _WarpPlan:
    """Bilinear corners of the advected samples as flat sites ``t*H*W + row*W + col``
    of frames 1..T-1, and their weights; both (corner, T-1, H, W).  Corners
    the flow gives no weight anywhere are dropped: integer flow keeps one."""

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

    def gather(self, tail: np.ndarray) -> np.ndarray:
        """Advected samples of ``tail`` (frames 1..T-1, shape (T-1, H, W, n))."""
        flat = tail.reshape(-1, tail.shape[3])
        out = np.zeros(tail.shape, dtype=np.float64)
        for index, weight in zip(self.index, self.weight):
            out += weight[..., None] * flat[index]
        return out

    def scatter(self, grad: np.ndarray) -> np.ndarray:
        """Adjoint of ``gather``: spread a residual-shaped gradient onto frames 1..T-1.

        Each site sums its contributions corner by corner, then in residual
        site order.  One ``bincount`` per feature, written straight into the
        output, keeps the index and the temporaries small."""
        index = self.index.ravel()
        out = np.empty((self.index[0].size, grad.shape[3]))
        for f in range(grad.shape[3]):
            out[:, f] = np.bincount(index, (self.weight * grad[..., f]).ravel(), len(out))
        return out.reshape(grad.shape)


def motion_residual(act: np.ndarray, flow: VelocityField) -> np.ndarray:
    """Transport residual r_i(x, t) for t = 0..T-2, shape (T-1, H, W, n)."""
    arr = np.asarray(act, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"activation field must be (T, H, W, n), got shape {arr.shape}")
    require_matching(flow, arr.shape[0], arr.shape[1], arr.shape[2])
    plan = _WarpPlan(flow)
    return plan.gather(arr[1:]) - arr[:-1]


def motion_term(act: np.ndarray, flow: VelocityField, weights: TemporalWeights) -> float:
    """Integrated squared transport residual under the renormalized measure."""
    arr = _check_field_weights(act, weights)
    residual = motion_residual(arr, flow)
    measure = weights.residual_measure(arr.shape[1], arr.shape[2])
    per_frame = (residual * residual).sum(axis=(1, 2, 3))
    return float(np.dot(measure, per_frame))


# ---------------------------------------------------------------------------
# Parsimony terms on the tap grid.

def spatial_parsimony(bank) -> float:
    """Half the summed squared first differences of the taps along both kernel
    axes; neighbor pairs inside the support only (no wrap across the edge)."""
    taps = bank.taps if isinstance(bank, FilterBank) else np.asarray(bank, dtype=np.float64)
    da = np.diff(taps, axis=2)
    db = np.diff(taps, axis=3)
    return 0.5 * (float((da * da).sum()) + float((db * db).sum()))


def spatial_parsimony_gradient(taps: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(taps)
    da = np.diff(taps, axis=2)
    grad[:, :, :-1, :] -= da
    grad[:, :, 1:, :] += da
    db = np.diff(taps, axis=3)
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
# Constraint penalty on raw activations (linear-penalty mode only).

def _constraint_penalty(act: np.ndarray, measure: np.ndarray) -> float:
    sum_dev = act.sum(axis=3) - 1.0
    low = np.maximum(0.0, -act)
    high = np.maximum(0.0, act - 1.0)
    per_site = sum_dev * sum_dev + (low * low + high * high).sum(axis=3)
    return float(np.dot(measure, per_site.sum(axis=(1, 2))))


def _constraint_penalty_act_gradient(act: np.ndarray, measure: np.ndarray) -> np.ndarray:
    sum_dev = act.sum(axis=3) - 1.0
    grad = 2.0 * sum_dev[..., None] - 2.0 * np.maximum(0.0, -act) \
        + 2.0 * np.maximum(0.0, act - 1.0)
    return measure[:, None, None, None] * grad


# ---------------------------------------------------------------------------
# Composite objective and its analytic tap gradient.
#
# ``ActionInputs`` holds what stays fixed while a layer learns.  One forward
# sweep (``_evaluate``) computes every term and keeps the arrays the adjoints
# read.  The activation-space gradient of -I comes in a new array the caller
# owns (adding it into a zeroed buffer instead costs a training step an extra
# pass over the activations); the motion and penalty gradients are added into
# such a buffer.  One convolution adjoint maps a buffer to the taps.

class ActionInputs:
    """The fixed inputs of one objective, checked and derived once: the input
    grid, the space-time measures of ``weights`` and the warp plan of ``flow``."""

    def __init__(self, data, flow: VelocityField, weights: TemporalWeights):
        self.grid = as_grid(data)
        frames, height, width = self.grid.shape[:3]
        require_matching(flow, frames, height, width)
        self.weights = weights
        self.frame_measure = weights.frame_measure(height, width)
        self.residual_measure = weights.residual_measure(height, width)
        self.plan = _WarpPlan(flow)


@dataclass(frozen=True)
class _Forward:
    """What one forward sweep keeps for the activation-space term gradients."""

    inputs: ActionInputs
    act: np.ndarray
    probs: np.ndarray
    marginal: np.ndarray
    residual: np.ndarray
    mode: str

    def neg_index_gradient(self) -> np.ndarray:
        return _neg_index_act_gradient(self.act, self.probs, self.marginal,
                                       self.inputs.frame_measure, self.mode)

    def add_motion_gradient(self, out: np.ndarray, scale: float = 1.0) -> None:
        grad = (2.0 * scale) * self.inputs.residual_measure[:, None, None, None] * self.residual
        out[:-1] -= grad
        out[1:] += self.inputs.plan.scatter(grad)

    def add_penalty_gradient(self, out: np.ndarray, scale: float = 1.0) -> None:
        out += scale * _constraint_penalty_act_gradient(self.act, self.inputs.frame_measure)


def _evaluate(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
              lam: Multipliers, dtau: float) -> tuple[ActionBreakdown, _Forward]:
    """The forward sweep shared by every entry point.

    ``inputs`` checked the grid and flow.  The calls below reject the other bad
    inputs where they first use them: the convolution a channel count that
    differs from the bank's, the entropies weights for another frame count,
    the temporal parsimony a previous bank of another shape and ``dtau <= 0``.
    """
    act = convolve_features(bank, inputs.grid)
    probs = to_probabilities(act, bank.mode)

    s_cond = conditional_entropy(probs, inputs.weights)
    q = symbol_marginal(probs, inputs.weights)
    s_marg = float(_neg_xlogx_sum(q))
    info = s_marg - s_cond

    residual = inputs.plan.gather(act[1:]) - act[:-1]
    motion = float(np.dot(inputs.residual_measure, (residual * residual).sum(axis=(1, 2, 3))))

    spatial = spatial_parsimony(bank)
    temporal = temporal_parsimony(bank, bank_prev, dtau)
    penalty = _constraint_penalty(act, inputs.frame_measure) if bank.mode == "linear-penalty" else 0.0

    total = (-info + lam.motion * motion + lam.spatial * spatial + lam.temporal * temporal
             + lam.constraint * penalty)
    breakdown = ActionBreakdown(s_marg, s_cond, info, motion, spatial, temporal, penalty, total)
    return breakdown, _Forward(inputs, act, probs, q, residual, bank.mode)


def cognitive_action(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
                     lam: Multipliers, dtau: float) -> ActionBreakdown:
    """Evaluate every objective term at the given bank."""
    return _evaluate(bank, bank_prev, inputs, lam, dtau)[0]


def action_value_and_gradient(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
                              lam: Multipliers, dtau: float):
    """One forward pass serving both the breakdown and the gradient in the taps."""
    breakdown, forward = _evaluate(bank, bank_prev, inputs, lam, dtau)
    act_grad = forward.neg_index_gradient()
    if lam.motion != 0.0:
        forward.add_motion_gradient(act_grad, lam.motion)
    if bank.mode == "linear-penalty" and lam.constraint != 0.0:
        forward.add_penalty_gradient(act_grad, lam.constraint)

    grad = convolution_tap_gradient(inputs.grid, act_grad, bank.kernel)
    if lam.spatial != 0.0:
        grad += lam.spatial * spatial_parsimony_gradient(bank.taps)
    if lam.temporal != 0.0:
        grad += lam.temporal * (bank.taps - bank_prev.taps) / (dtau * dtau)
    return breakdown, grad


def _neg_index_act_gradient(act: np.ndarray, probs: np.ndarray, q: np.ndarray,
                            frame_measure: np.ndarray, mode: str) -> np.ndarray:
    """Activation-space gradient of -I.

    In probability space d(-I)/dp = measure * (log q - log p).  For the
    softmax path the product with p is folded in analytically (p*log p with
    the 0*log(0) = 0 convention), so symbols whose probability underflows to
    zero contribute their correct limit instead of NaN.
    """
    log_q = np.log(np.where(q > 0.0, q, 1.0))[None, None, None, :]
    if mode == "softmax":
        weighted = frame_measure[:, None, None, None] * (probs * log_q - _xlogx(probs))
        return weighted - probs * weighted.sum(axis=-1, keepdims=True)
    probs_grad = frame_measure[:, None, None, None] * (log_q - np.log(probs))
    return probability_vjp(act, probs, probs_grad)


def term_gradients(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
                   dtau: float) -> dict[str, np.ndarray]:
    """Tap gradients of the individual term values (not multiplier-weighted).

    Keys: info_index, motion, spatial, temporal, penalty.  Intended for
    oracle comparisons against finite differences of the breakdown fields.
    """
    _, forward = _evaluate(bank, bank_prev, inputs, Multipliers(), dtau)

    def tap_gradient(add_term) -> np.ndarray:
        act_grad = np.zeros_like(forward.act)
        add_term(act_grad)
        return convolution_tap_gradient(inputs.grid, act_grad, bank.kernel)

    return {
        "info_index": -convolution_tap_gradient(inputs.grid, forward.neg_index_gradient(),
                                                bank.kernel),
        "motion": tap_gradient(forward.add_motion_gradient),
        "spatial": spatial_parsimony_gradient(bank.taps),
        "temporal": (bank.taps - bank_prev.taps) / (dtau * dtau),
        "penalty": (tap_gradient(forward.add_penalty_gradient)
                    if bank.mode == "linear-penalty" else np.zeros_like(bank.taps)),
    }
