"""Baseline classifiers.

The paper chose the SVM because "it performed the best among the
algorithms we tried".  These are the standard alternatives such a study
tries, implemented from scratch so the classifier-choice ablation
(`repro orchestrate --studies ablations`) can reproduce that comparison.

All baselines share the :class:`SVC` label conventions: training labels may
be boolean or {0,1} or {-1,+1}; ``predict_bool`` returns ``True`` for the
positive ("altered") class.
"""

from __future__ import annotations

import numpy as np

from repro.ml.svm import _canonical_labels

__all__ = ["KNearestNeighbors", "LogisticRegression", "NearestCentroid"]


class LogisticRegression:
    """L2-regularized logistic regression trained by batch gradient descent."""

    def __init__(
        self,
        learning_rate: float = 0.1,
        l2: float = 1e-3,
        n_iter: int = 500,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.learning_rate = float(learning_rate)
        self.l2 = float(l2)
        self.n_iter = int(n_iter)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Batch gradient descent on the regularized log-loss."""
        X = np.asarray(X, dtype=np.float64)
        target = (_canonical_labels(y) + 1.0) / 2.0  # {0, 1}
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(self.n_iter):
            z = X @ w + b
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
            grad_w = X.T @ (p - target) / n + self.l2 * w
            grad_b = float(np.mean(p - target))
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
        self.coef_ = w
        self.intercept_ = b
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """The linear logit; >= 0 means the positive class."""
        if self.coef_ is None:
            raise RuntimeError("LogisticRegression is not fitted")
        return np.atleast_2d(np.asarray(X, dtype=np.float64)) @ self.coef_ + self.intercept_

    def predict_bool(self, X: np.ndarray) -> np.ndarray:
        """Thresholded labels (``True`` = positive class)."""
        return self.decision_function(X) >= 0.0


class KNearestNeighbors:
    """k-nearest-neighbour majority vote with Euclidean distance."""

    def __init__(self, k: int = 5) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNearestNeighbors":
        """Memorize the training set."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[0] < self.k:
            raise ValueError("need at least k training samples")
        self._X = X
        self._y = _canonical_labels(y)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Mean neighbour label in [-1, 1]; >= 0 means positive class."""
        if self._X is None or self._y is None:
            raise RuntimeError("KNearestNeighbors is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        sq = (
            np.sum(X**2, axis=1)[:, None]
            - 2.0 * X @ self._X.T
            + np.sum(self._X**2, axis=1)[None, :]
        )
        nearest = np.argpartition(sq, self.k - 1, axis=1)[:, : self.k]
        return np.mean(self._y[nearest], axis=1)

    def predict_bool(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote labels (``True`` = positive class)."""
        return self.decision_function(X) >= 0.0


class NearestCentroid:
    """Classify by the nearer class centroid -- the simplest baseline."""

    def __init__(self) -> None:
        self.centroid_pos_: np.ndarray | None = None
        self.centroid_neg_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NearestCentroid":
        """Compute the two class centroids."""
        X = np.asarray(X, dtype=np.float64)
        labels = _canonical_labels(y)
        if not (np.any(labels > 0) and np.any(labels < 0)):
            raise ValueError("training data must contain both classes")
        self.centroid_pos_ = X[labels > 0].mean(axis=0)
        self.centroid_neg_ = X[labels < 0].mean(axis=0)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Negative-centroid distance minus positive-centroid distance."""
        if self.centroid_pos_ is None or self.centroid_neg_ is None:
            raise RuntimeError("NearestCentroid is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        d_pos = np.linalg.norm(X - self.centroid_pos_, axis=1)
        d_neg = np.linalg.norm(X - self.centroid_neg_, axis=1)
        return d_neg - d_pos

    def predict_bool(self, X: np.ndarray) -> np.ndarray:
        """``True`` where the positive centroid is nearer."""
        return self.decision_function(X) >= 0.0
