"""The objective step's own entropies of a given probability field.

A K=1 identity bank in softmax mode fed the grid log p has activations
log p + 1/n, whose softmax is p again: the step then works on the
probabilities p.  Every p must be > 0, since the step's grid must be finite.
"""

import numpy as np

from cogaction import ActionInputs, FilterBank, Multipliers, cognitive_action, constant_flow


def identity_probe(field, weights):
    """The step's breakdown of the (T, H, W, n) probability field ``field``;
    its motion term is that of log p under zero flow."""
    n = field.shape[3]
    bank = FilterBank(np.eye(n)[:, :, None, None])
    inputs = ActionInputs(np.log(field), constant_flow((0, 0), *field.shape[:3]), weights, bank)
    return cognitive_action(bank, bank, inputs, Multipliers(), 1.0)
