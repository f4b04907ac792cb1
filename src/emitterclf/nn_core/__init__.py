"""From-scratch neural network kernel (numpy, float64).

Grouped LSTM/GRU layers (one forward and one reverse step loop, which both
cells drive) with masking for variable-length batches, full BPTT,
fully-connected / embedding / dropout layers, stable softmax,
median-frequency class weighting, weighted cross-entropy with fused
gradient, Adam, and global-norm gradient clipping.
"""

from .layers import (
    dropout,
    embedding_backward,
    embedding_forward,
    fc_backward,
    fc_forward,
    init_embedding,
    init_fc,
    relu_backward,
    relu_forward,
    softmax,
)
from .loss import median_frequency_weights, weighted_cross_entropy
from .optim import Adam, clip_gradients, global_grad_norm
from .recurrent import (
    gru_backward,
    gru_forward,
    init_gru_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
)

__all__ = [
    "softmax",
    "fc_forward",
    "fc_backward",
    "init_fc",
    "dropout",
    "relu_forward",
    "relu_backward",
    "embedding_forward",
    "embedding_backward",
    "init_embedding",
    "median_frequency_weights",
    "weighted_cross_entropy",
    "Adam",
    "clip_gradients",
    "global_grad_norm",
    "lstm_forward",
    "lstm_backward",
    "init_lstm_params",
    "gru_forward",
    "gru_backward",
    "init_gru_params",
]
