"""Dropout multilayer perceptron trained by full-batch gradient descent.

ReLU hidden layers with inverted dropout (masked units zeroed, survivors
scaled by 1/(1-rate) whenever a mask is applied, at training and at
prediction alike). The training objective is mean NLL plus an L2 penalty on
the full parameter vector. After each gradient step the validation NLL is
recorded and the best parameter configuration is restored at the end.

Posterior samples are K dropout masks frozen after fit, so the same
"parameters" theta_j couple predictions at different inputs.
"""

import numpy as np

from ..errors import FitError, TrainingDivergedError, ValidationError
from ..rng import rng_from
from .base import Model, as_inputs, dataset_arrays


def _relu(z):
    return np.maximum(z, 0.0)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class DropoutMLP(Model):
    def __init__(self, num_features, num_classes, hidden=(16,), dropout_rate=0.1,
                 learning_rate=0.01, max_steps=200, weight_decay=0.0,
                 val_fraction=0.1, num_samples=10, seed=0):
        if num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValidationError("dropout rate must lie in [0, 1)")
        self.num_features = int(num_features)
        if self.num_features < 1:
            raise ValidationError(f"num_features must be >= 1, got {self.num_features}")
        self.num_classes = int(num_classes)
        self.hidden = tuple(int(h) for h in hidden)
        if any(h < 1 for h in self.hidden):
            raise ValidationError(f"hidden layer widths must be >= 1, got {list(self.hidden)}")
        self.dropout_rate = float(dropout_rate)
        self.learning_rate = float(learning_rate)
        self.max_steps = int(max_steps)
        self.weight_decay = float(weight_decay)
        self.val_fraction = float(val_fraction)
        self.num_samples = int(num_samples)
        if self.num_samples < 1:
            raise ValidationError("num_samples must be >= 1")
        self.seed = int(seed)
        self._fit_count = 0
        self.params = None
        self._masks = None

    # --- core network ----------------------------------------------------

    def _init_params(self):
        """Seeded He initialization, identical on every refit."""
        rng = rng_from(self.seed, 0)
        sizes = (self.num_features,) + self.hidden + (self.num_classes,)
        params = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            W = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            b = np.zeros(fan_out)
            params.append([W, b])
        return params

    def _forward(self, X, params, masks=None):
        """Forward pass; masks, when given, is one 0/1 vector per hidden layer."""
        keep = 1.0 - self.dropout_rate
        acts = [X]
        h = X
        for li, (W, b) in enumerate(params[:-1]):
            h = _relu(h @ W + b)
            if masks is not None and self.dropout_rate > 0.0:
                h = h * masks[li] / keep
            acts.append(h)
        W, b = params[-1]
        logits = h @ W + b
        return _softmax(logits), acts

    def _loss_and_grads(self, X, y, params, masks):
        probs, acts = self._forward(X, params, masks)
        n = len(y)
        nll = -np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean()
        sq = sum(float((W ** 2).sum() + (b ** 2).sum()) for W, b in params)
        loss = nll + 0.5 * self.weight_decay * sq

        keep = 1.0 - self.dropout_rate
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grads = [None] * len(params)
        for li in range(len(params) - 1, -1, -1):
            W, b = params[li]
            h_in = acts[li]
            gW = h_in.T @ delta + self.weight_decay * W
            gb = delta.sum(axis=0) + self.weight_decay * b
            grads[li] = [gW, gb]
            if li > 0:
                delta = delta @ W.T
                if masks is not None and self.dropout_rate > 0.0:
                    delta = delta * masks[li - 1] / keep
                delta = delta * (acts[li] > 0.0)
        return loss, grads

    def _nll(self, X, y, params):
        probs, _ = self._forward(X, params)
        return float(-np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300)).mean())

    def _sample_masks(self, rng, count):
        keep = 1.0 - self.dropout_rate
        return [
            [rng.binomial(1, keep, size=h).astype(float) for h in self.hidden]
            for _ in range(count)
        ]

    # --- Model contract ---------------------------------------------------

    def fit(self, examples):
        X, y = dataset_arrays(examples, self.num_features)
        if len(examples) == 0:
            raise FitError("cannot train on an empty training set")
        if np.any(y >= self.num_classes):
            raise FitError(f"label {y.max()} out of range for C={self.num_classes}")
        self._fit_count += 1
        rng = rng_from(self.seed, self._fit_count)

        n = len(y)
        n_val = max(1, int(np.floor(self.val_fraction * n)))
        if n_val >= n:
            # too little data for a real split: validate on the training set
            X_tr, y_tr, X_val, y_val = X, y, X, y
        else:
            perm = rng.permutation(n)
            val_idx, tr_idx = perm[:n_val], perm[n_val:]
            X_tr, y_tr = X[tr_idx], y[tr_idx]
            X_val, y_val = X[val_idx], y[val_idx]

        params = self._init_params()
        best = ([p.copy() for W_b in params for p in W_b], self._nll(X_val, y_val, params))
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.max_steps):
                masks = self._sample_masks(rng, 1)[0] if self.dropout_rate > 0 else None
                loss, grads = self._loss_and_grads(X_tr, y_tr, params, masks)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite training loss: {loss}")
                for (W, b), (gW, gb) in zip(params, grads):
                    W -= self.learning_rate * gW
                    b -= self.learning_rate * gb
                val_nll = self._nll(X_val, y_val, params)
                if not np.isfinite(val_nll):
                    raise TrainingDivergedError(f"non-finite validation NLL: {val_nll}")
                if val_nll < best[1]:
                    best = ([p.copy() for W_b in params for p in W_b], val_nll)

        flat = best[0]
        self.params = [[flat[2 * i], flat[2 * i + 1]] for i in range(len(params))]
        self._masks = self._sample_masks(rng, self.num_samples)
        return self

    def conditionals(self, X):
        if self.params is None:
            raise FitError("model is not fitted")
        X = as_inputs(X, self.num_features)
        rows = [self._forward(X, self.params, masks=m)[0] for m in self._masks]
        return np.stack(rows).transpose(1, 0, 2)
