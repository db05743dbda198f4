"""Patent technology-trend mining toolkit.

Pipeline stages: boolean-query corpus filtering, corpus-derived stopword
candidates, skip-gram embedding training, per-document keyword extraction
by cosine similarity, per-industry top-keyword selection, 2-D PCA
projection, threshold clustering, and report/plot emission.
"""

__version__ = "0.1.0"

from .corpus import Corpus, CorpusError, PatentDocument, load_corpus, save_corpus
from .embedding import (
    EmbeddingModel,
    ModelFormatError,
    TrainConfig,
    TrainingDiverged,
    Vocabulary,
    build_vocab,
    cosine_similarity,
    generate_pairs,
    load_model,
    save_model,
    train,
)
from .keywords import (
    Embedder,
    ExtractionResult,
    FileEmbedder,
    KeywordScore,
    ReferenceEmbedder,
    extract_keywords,
)
from .pipeline import (
    CurationRequired,
    PipelineConfig,
    PipelineStageError,
    TrendReport,
    resolve_config,
    run_pipeline,
)
from .query import And, Or, Phrase, QueryExpr, QueryParseError, eval_query, parse_query, serialize_query
from .svgplot import emit_scatter_svg
from .textprep import (
    StopwordList,
    TokenStream,
    filter_stopwords,
    load_base_stopwords,
    load_stopword_list,
    tokenize,
)
from .trends import (
    ClusterAssignment,
    KeywordFrequencyTable,
    PcaBasis,
    ProjectedPoint,
    aggregate_keywords,
    cluster_points,
    fit_pca,
    generate_stopword_candidates,
    pairwise_distances,
    project,
    select_top_percent,
)
