from .base import (
    LabelledExample,
    Model,
    PredictiveEnsemble,
    dataset_arrays,
    reweight_ensemble,
)
from .dirichlet import DirichletHistogramClassifier
from .finite import FiniteHypothesisModel
from .forest import BootstrapForest
from .mlp import DropoutMLP

__all__ = [
    "LabelledExample",
    "Model",
    "PredictiveEnsemble",
    "dataset_arrays",
    "reweight_ensemble",
    "DirichletHistogramClassifier",
    "FiniteHypothesisModel",
    "BootstrapForest",
    "DropoutMLP",
]
