"""Recommender factorization toolkit.

Classical SVD completion with item-based prediction, learned factor models
(Funk-SVD, SVD++), an ItemCF baseline, factorization machines (FM, FFM),
a pluggable optimizer framework, negative sampling, ensembles, evaluation
metrics, JSON model persistence, and a command line interface.
"""

__version__ = "0.1.0"

from .data import (
    CsvSchema,
    RatingDataset,
    impute,
    negative_sample,
    parse_csv,
    split,
    to_dense,
)
from .ensemble import BlendModel, bag_train, blend_predict, stack_fit, vote_recommend
from .errors import LatentRecError
from .factor import (
    FactorModel,
    ItemCfModel,
    TrainConfig,
    funk_train,
    itemcf_similarity,
    svdpp_train,
)
from .fm import (
    ColumnSpec,
    EncoderSpec,
    FeatureVector,
    FfmModel,
    FmModel,
    SampleBatch,
    encode,
    ffm_train,
    fm_train,
)
from .linalg import rank_by_energy, rank_by_ratio, svd, truncate
from .metrics import MetricReport, mae, rmse, topn_metrics
from .persist import ModelBundle, load_model, save_model
from .svdcf import SvdCfModel, round_to_scale

__all__ = [
    "__version__",
    "BlendModel",
    "ColumnSpec",
    "CsvSchema",
    "EncoderSpec",
    "FactorModel",
    "FeatureVector",
    "FfmModel",
    "FmModel",
    "ItemCfModel",
    "LatentRecError",
    "MetricReport",
    "ModelBundle",
    "RatingDataset",
    "SampleBatch",
    "SvdCfModel",
    "TrainConfig",
    "bag_train",
    "blend_predict",
    "encode",
    "ffm_train",
    "fm_train",
    "funk_train",
    "impute",
    "itemcf_similarity",
    "load_model",
    "mae",
    "negative_sample",
    "parse_csv",
    "rank_by_energy",
    "rank_by_ratio",
    "rmse",
    "round_to_scale",
    "save_model",
    "split",
    "stack_fit",
    "svd",
    "svdpp_train",
    "to_dense",
    "topn_metrics",
    "truncate",
    "vote_recommend",
]
