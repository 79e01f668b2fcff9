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
from .dynamic_model import DirichletState, init_alpha, predict, update
from .errors import (
    LatticeFormatError,
    ModelFormatError,
    RescoreError,
    TalarescoreError,
    VocabularyError,
    VocabularyMismatchError,
)
from .eval import BenchmarkReport, BenchmarkSuiteConfig, EditStats, run_benchmark, ser, standard_suite
from .fusion import acoustic_confidence, combine, jsd, lambda_k
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
    rescore,
    viterbi_expanded,
)
from .static_prior import (
    NGramPrior,
    TalaIndependentPrior,
    TalaPosteriorTable,
    train_prior,
    train_tala_table,
)

__version__ = "0.1.0"
