"""Exception types raised by the workbench.

All of these derive from ValueError so that callers who only care about
"bad input" can catch one base class.
"""


class EmptyFeaturesError(ValueError):
    """No feature frames survive framing / voicing / VAD selection."""


class NoActiveSpeechError(ValueError):
    """Active-speech-level measurement found no active samples."""


class DegenerateVectorError(ValueError):
    """A vector required to be nonzero (e.g. for cosine scoring) is zero."""


class AlignmentError(ValueError):
    """Score sets or masks that must align (same trials/frames) do not."""


class HygieneError(ValueError):
    """Train/test contamination: a model was asked to score its own training data."""


class UsageError(ValueError):
    """A command line that names no known command, lacks a required flag or
    gives a flag a value it does not take."""
