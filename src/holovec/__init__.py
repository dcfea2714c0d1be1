"""Holographic compression of annotated word embeddings.

Binds a token's embedding, POS tag, and NER type into one fixed-dimension
vector via circular convolution, decodes them back out via circular
correlation plus cleanup, and analyzes orthogonality and neighborhood
preservation of the compressed space.
"""

__version__ = "0.1.0"

from .analysis import (
    NeighborhoodReport,
    OrthogonalityReport,
    classify_neighborhoods,
    k_nearest,
    pairwise_cosine_stats,
    sample_orthogonality,
)
from .codebook import (
    DEFAULT_DIMENSION,
    DEFAULT_SEED,
    Codebook,
    VectorSpace,
    build_codebook,
    default_ner_types,
    default_pos_tags,
    load_codebook,
    save_codebook,
)
from .decoder import (
    DecodedToken,
    decode_vocabulary,
)
from .encoder import (
    AnnotatedToken,
    CompressedVocabulary,
    build_vocabulary,
    composite_key,
    load_vocabulary,
    lookup_filler,
    read_annotations,
    read_vectors,
    write_sidecar,
    write_vocabulary,
)
from .errors import (
    DimensionMismatchError,
    HolovecError,
    IntegrityError,
    ParseError,
    UnknownKeyError,
    UnknownTagError,
)
from .hrr import (
    circular_convolve,
    circular_convolve_fft,
    circular_correlate_fft,
    random_vector,
)

__all__ = [
    "AnnotatedToken",
    "Codebook",
    "CompressedVocabulary",
    "DecodedToken",
    "DEFAULT_DIMENSION",
    "DEFAULT_SEED",
    "DimensionMismatchError",
    "HolovecError",
    "IntegrityError",
    "NeighborhoodReport",
    "OrthogonalityReport",
    "ParseError",
    "UnknownKeyError",
    "UnknownTagError",
    "VectorSpace",
    "build_codebook",
    "build_vocabulary",
    "circular_convolve",
    "circular_convolve_fft",
    "circular_correlate_fft",
    "classify_neighborhoods",
    "composite_key",
    "decode_vocabulary",
    "default_ner_types",
    "default_pos_tags",
    "k_nearest",
    "load_codebook",
    "load_vocabulary",
    "lookup_filler",
    "pairwise_cosine_stats",
    "random_vector",
    "read_annotations",
    "read_vectors",
    "sample_orthogonality",
    "save_codebook",
    "write_sidecar",
    "write_vocabulary",
]
