"""Exception types shared across the package, and the UTF-8 decoding that raises them."""


class UspcError(Exception):
    """Base class for all package errors."""


class ShapeError(UspcError, ValueError):
    """Tensor dimensions are incompatible with an operation."""


class ConfigError(UspcError, ValueError):
    """A configuration value is outside its legal range."""


class GraphError(UspcError, ValueError):
    """Misuse of the compute graph (e.g. backward from a non-scalar)."""


class DataError(UspcError, ValueError):
    """A corpus record or batch violates its contract."""


class PairingError(UspcError, ValueError):
    """Paired text/speech sequences disagree in length."""


class IntegrityError(UspcError, ValueError):
    """A stored record fails validation on load."""


class FormatError(UspcError, ValueError):
    """A serialized file has the wrong magic, version or layout."""


class UndefinedMetricError(UspcError, ValueError):
    """A metric has no defined value for these inputs."""


class TrainingDiverged(UspcError, RuntimeError):
    """Training aborted on a non-finite loss."""


def decode_utf8(raw: bytes, where: str, error: type[UspcError]) -> str:
    """`raw` as text; bytes that are not UTF-8 raise `error` naming `where`."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
