"""Exception types shared across the package."""


class ProtoAudioError(Exception):
    """Base class for all errors raised by this package.

    `exit_code` is the CLI's exit status for the error (2 config, 3 data,
    4 numerical), inherited by subclasses. None marks a fault of the program,
    which the CLI lets end in a traceback."""
    exit_code = None


# -- audio ingestion / synthesis ------------------------------------------

class UnsupportedFormatError(ProtoAudioError):
    """Audio container is readable but not mono 16-bit PCM at 16 kHz."""
    exit_code = 3


class CorruptContainerError(ProtoAudioError):
    """File is not a parseable RIFF/WAVE container."""
    exit_code = 3


class InvalidProfileError(ProtoAudioError):
    """Timbre profile or synthesis request violates its constraints."""


# -- DSP frontend ----------------------------------------------------------

class DomainError(ProtoAudioError, ValueError):
    """Input outside the mathematical domain of a transform."""


class ConfigError(ProtoAudioError):
    """Configuration values are inconsistent or unusable."""
    exit_code = 2


# -- tensor core -----------------------------------------------------------

class ShapeMismatchError(ProtoAudioError):
    """Operands have incompatible shapes; message names both."""
    exit_code = 4


class NonFiniteValueError(ProtoAudioError):
    """An op produced NaN/Inf while checked mode was active, or a training
    step's loss or gradient was non-finite (train()'s guard)."""
    exit_code = 4


class NonScalarLossError(ProtoAudioError):
    """backward() was asked to differentiate a non-scalar."""


class TapeConsumedError(ProtoAudioError):
    """backward() already ran through this tape and released its nodes."""


# -- encoders --------------------------------------------------------------

class DimensionMismatchError(ShapeMismatchError):
    """Embedding/feature widths disagree between pipeline stages."""


class KernelTooLongError(ProtoAudioError):
    """Convolution kernel longer than the signal it filters."""
    exit_code = 3


# -- episodic machinery ----------------------------------------------------

class InsufficientClassesError(ProtoAudioError):
    """Split has fewer classes than an episode needs."""
    exit_code = 3


class InsufficientExamplesError(ProtoAudioError):
    """A class has fewer clips than n_shot + n_query (names the class), or a
    synthetic corpus was asked for fewer than one clip per class."""
    exit_code = 3


# -- dataset kit -----------------------------------------------------------

class ManifestError(ProtoAudioError):
    """Base for manifest parsing/validation failures."""
    exit_code = 3


class ManifestParseError(ManifestError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicatePathError(ManifestError):
    def __init__(self, line_no: int, path: str):
        super().__init__(f"line {line_no}: duplicate clip path {path!r}")
        self.line_no = line_no
        self.path = path


class EmptyLabelSetError(ManifestError):
    def __init__(self, line_no: int):
        super().__init__(f"line {line_no}: empty label set")
        self.line_no = line_no


class TooFewClassesError(ProtoAudioError):
    """Not enough qualifying classes for the requested operation."""
    exit_code = 3


# -- training / persistence -------------------------------------------------

class CorruptCheckpointError(ProtoAudioError):
    """Checkpoint archive failed structural or checksum validation."""
    exit_code = 3


class CheckpointMismatchError(ProtoAudioError):
    """Checkpoint header disagrees with the requested encoder spec."""
    exit_code = 3


class CorruptHistoryError(ProtoAudioError):
    """A line of history.jsonl is not an episode record; names the file and line."""
    exit_code = 3


class SplitMismatchError(ProtoAudioError):
    """The splits a run's manifest gives now disagree with the run's saved
    splits/ files; names the part and the classes that differ."""
    exit_code = 3


class MissingRunError(ProtoAudioError):
    """Run directory does not exist or lacks required artifacts."""
    exit_code = 3
