"""Tools that make distributional vectors tell synonyms from antonyms.

Two routes over one corpus: re-weighting sparse LMI features by
synonym/antonym contrast, and training skip-gram embeddings with a
per-context contrast term. Plus the ranking/correlation metrics to compare
them.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    CooccurrenceCounts,
    CorpusError,
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
    read_corpus,
)
from .embeddings import (  # noqa: F401
    EmbeddingModel,
    NoiseDistribution,
    TrainingConfig,
    TrainingError,
    build_noise_distribution,
    sgns_objective,
    train_dlce,
    train_sgns,
)
from .evaluation import (  # noqa: F401
    EvalError,
    MetricReport,
    RelationPairSet,
    SimilarityPairSet,
    auc,
    average_precision,
    eval_ap,
    eval_auc,
    eval_spearman,
    median_report,
    spearman,
)
from .lexicon import (  # noqa: F401
    ContrastLexicon,
    LexiconError,
    enrich_antonyms,
    load_lexicon,
)
from .reduction import ReductionError, SvdResult, truncated_svd  # noqa: F401
from .vectors import DenseEmbeddings, VectorsError, read_embeddings, write_embeddings  # noqa: F401
from .weighting import (  # noqa: F401
    WeightedMatrix,
    WeightingError,
    build_feature_index,
    compute_lmi,
    compute_weight_sa,
)
