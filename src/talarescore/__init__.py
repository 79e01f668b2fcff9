"""Rhythm-aware lattice rescoring for tabla stroke sequences."""

from .core import (
    SENTINEL,
    SENTINEL_ID,
    DeviationConfig,
    StrokeSequence,
    StrokeVocabulary,
    TalaSpec,
    TihaiSpec,
    builtin_tala,
    builtin_talas,
    default_tihai,
    default_vocabulary,
    generate_sequence,
)
from .dynamic_model import init_alpha
from .errors import (
    LatticeFormatError,
    ModelFormatError,
    RescoreError,
    TalarescoreError,
    VocabularyError,
    VocabularyMismatchError,
)
from .eval import BenchmarkReport, BenchmarkSuiteConfig, EditStats, run_benchmark, ser, standard_suite
from .lattice import (
    Arc,
    Lattice,
    LatticeGenConfig,
    generate_lattice,
    load_lattice,
    save_lattice,
    viterbi_acoustic,
)
from .model import RhythmModel, load_model, save_model, train_model
from .rescorer import (
    ExpandedLattice,
    RescoreConfig,
    RescoreDiagnostics,
    path_score,
    path_terms,
    rescore,
    viterbi_expanded,
)
from .static_prior import TalaIndependentPrior

__version__ = "0.1.0"
