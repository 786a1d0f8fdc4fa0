"""Exception types shared across the package."""


class ProtoAudioError(Exception):
    """Base class for all errors raised by this package."""


# -- audio ingestion / synthesis ------------------------------------------

class UnsupportedFormatError(ProtoAudioError):
    """Audio container is readable but not mono 16-bit PCM at 16 kHz."""


class CorruptContainerError(ProtoAudioError):
    """File is not a parseable RIFF/WAVE container."""


class InvalidProfileError(ProtoAudioError):
    """Timbre profile or synthesis request violates its constraints."""


# -- DSP frontend ----------------------------------------------------------

class DomainError(ProtoAudioError, ValueError):
    """Input outside the mathematical domain of a transform."""


class ConfigError(ProtoAudioError):
    """Configuration values are inconsistent or unusable."""


# -- tensor core -----------------------------------------------------------

class ShapeMismatchError(ProtoAudioError):
    """Operands have incompatible shapes; message names both."""


class NonFiniteValueError(ProtoAudioError):
    """An op produced NaN/Inf while checked mode was active, or a training
    step's loss or gradient was non-finite (train()'s guard; exit 4)."""


class NonScalarLossError(ProtoAudioError):
    """backward() was asked to differentiate a non-scalar."""


class TapeConsumedError(ProtoAudioError):
    """backward() already ran through this tape and released its nodes."""


# -- encoders --------------------------------------------------------------

class DimensionMismatchError(ShapeMismatchError):
    """Embedding/feature widths disagree between pipeline stages."""


class KernelTooLongError(ProtoAudioError):
    """Convolution kernel longer than the signal it filters."""


# -- episodic machinery ----------------------------------------------------

class InsufficientClassesError(ProtoAudioError):
    """Split has fewer classes than an episode needs."""


class InsufficientExamplesError(ProtoAudioError):
    """A class has fewer clips than n_shot + n_query (names the class), or a
    synthetic corpus was asked for fewer than one clip per class."""


# -- dataset kit -----------------------------------------------------------

class ManifestError(ProtoAudioError):
    """Base for manifest parsing/validation failures."""


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


# -- training / persistence -------------------------------------------------

class CorruptCheckpointError(ProtoAudioError):
    """Checkpoint archive failed structural or checksum validation."""


class CheckpointMismatchError(ProtoAudioError):
    """Checkpoint header disagrees with the requested encoder spec."""


class MissingRunError(ProtoAudioError):
    """Run directory does not exist or lacks required artifacts."""
