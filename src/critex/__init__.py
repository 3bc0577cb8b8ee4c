"""critex: structure clinical-trial free text into entity-attribute relations.

The library turns record text (eligibility criteria, result summaries) into
(entity, attribute, relation) triples by combining a knowledge base of
concept constraints with syntactic proximity, and evaluates output against
Brat gold annotations.
"""

from .attributes import (
    AttributeKind,
    AttributeMention,
    AttributeShape,
    Comparator,
    TimeUnit,
    attribute_shape,
    extract_attributes,
)
from .entities import EntityMention, link_abbreviations, recognize_entities
from .errors import (
    CritexError,
    CycleDetected,
    DanglingRef,
    DuplicateConceptId,
    MalformedAnn,
    MalformedJsonl,
    MalformedKb,
    MalformedPrediction,
    MalformedText,
    ParseMismatch,
    RecordMismatch,
    SpanMismatch,
    UnknownConcept,
)
from .io_eval import (
    ElementType,
    EvalReport,
    GoldAnnotation,
    MatchMode,
    RelationPair,
    StructuredRecord,
    evaluate,
    from_json,
    read_brat,
    read_brat_dir,
    read_corpus,
    to_json,
)
from .kb import (
    Category,
    CompatibilityWeights,
    KbEntry,
    KnowledgeBase,
    ValuePattern,
    compatibility_terms,
    import_tsv,
    load_kb,
    mine_kb_candidates,
    save_kb,
)
from .linker import Relation
from .pipeline import PipelineConfig, annotate_record
from .resources import bundled_kb_path, mini_corpus_dir
from .segmentation import SentenceRecord, SplitMode, Token, TokenShape, split_records, tokenize
from .syntax import DependencyParse

__version__ = "0.1.0"

__all__ = [
    "AttributeKind", "AttributeMention", "AttributeShape", "Comparator",
    "TimeUnit", "attribute_shape", "extract_attributes",
    "EntityMention", "link_abbreviations", "recognize_entities",
    "CritexError", "CycleDetected", "DanglingRef", "DuplicateConceptId",
    "MalformedAnn", "MalformedJsonl", "MalformedKb", "MalformedPrediction",
    "MalformedText",
    "ParseMismatch", "RecordMismatch", "SpanMismatch", "UnknownConcept",
    "ElementType", "EvalReport", "GoldAnnotation",
    "MatchMode", "RelationPair", "StructuredRecord", "evaluate",
    "from_json", "read_brat", "read_brat_dir", "read_corpus", "to_json",
    "Category", "CompatibilityWeights", "KbEntry", "KnowledgeBase",
    "ValuePattern", "compatibility_terms", "import_tsv", "load_kb",
    "mine_kb_candidates", "save_kb",
    "Relation",
    "PipelineConfig", "annotate_record",
    "bundled_kb_path", "mini_corpus_dir",
    "SentenceRecord", "SplitMode", "Token", "TokenShape", "split_records",
    "tokenize",
    "DependencyParse",
]
