"""Exception types shared across the package."""


class TalarescoreError(Exception):
    """Base class for all errors raised by talarescore."""


class VocabularyError(TalarescoreError):
    """Bad stroke vocabulary, unknown symbol, or id out of range."""


class VocabularyMismatchError(TalarescoreError):
    """Two components disagree about the stroke vocabulary."""


class LatticeFormatError(TalarescoreError):
    """Malformed lattice file or structurally invalid lattice."""


class ModelFormatError(TalarescoreError):
    """Malformed model file."""


class RescoreError(TalarescoreError):
    """Rescoring failed, e.g. an arc's rescored weight is not finite."""
