"""hdsem: high-dimensional bipolar vector semantics.

Deterministic bit-packed sign vectors, bundle-sum set membership with
closed-form precision/recall analytics, and three applications built on
integer bundles of them: word context embeddings, sentence retrieval,
and a 1-NN spam filter.
"""

from .context import (
    ContextModel,
    build_context_model,
    context_arithmetic,
    context_similarity,
    context_stats,
    similar_words,
)
from .core import (
    DEFAULT_SEED,
    FilterAnalytics,
    normal_cdf,
    orthogonality_bound,
    predict_filter_analytics,
)
from .errors import DataError
from .experiments import (
    MembershipSimConfig,
    RhoCurveConfig,
    membership_sim,
    rho_curve,
)
from .sentences import build_sentence_index, query_sentences, split_sentences
from .spam import classify_many, cross_validate, ingest_lingspam, train_filter
from .textpipe import (
    PipelineConfig,
    Vocabulary,
    build_vocabulary,
    load_stopwords,
    preprocess,
    strip_gutenberg_boilerplate,
    tokenize,
)

__version__ = "0.2.0"

__all__ = [
    "DEFAULT_SEED",
    "ContextModel",
    "DataError",
    "FilterAnalytics",
    "MembershipSimConfig",
    "PipelineConfig",
    "RhoCurveConfig",
    "Vocabulary",
    "build_context_model",
    "build_sentence_index",
    "build_vocabulary",
    "classify_many",
    "context_arithmetic",
    "context_similarity",
    "context_stats",
    "cross_validate",
    "ingest_lingspam",
    "load_stopwords",
    "membership_sim",
    "normal_cdf",
    "orthogonality_bound",
    "predict_filter_analytics",
    "preprocess",
    "query_sentences",
    "rho_curve",
    "similar_words",
    "split_sentences",
    "strip_gutenberg_boilerplate",
    "tokenize",
    "train_filter",
    "__version__",
]
