"""Exception types raised across the counting pipeline, the JSON and text
integer rules, and the bounded quoting of rejected values in error messages."""


class HeadcountError(Exception):
    """Base class for all package errors."""


class ParseError(HeadcountError):
    """Malformed image file (bad magic, header, or truncated pixel data)."""


class UnsupportedFormat(HeadcountError):
    """Recognized but unsupported image variant (e.g. maxval != 255)."""


class EmptySequence(HeadcountError):
    """A frame source yielded no frames."""


class TruncatedStream(HeadcountError):
    """Raw frame file size is not a multiple of the frame size."""


class ConfigError(HeadcountError):
    """Parameter outside its valid range, or inconsistent configuration."""


class ShapeError(HeadcountError):
    """Frame/mask geometry does not match the consuming stage."""


class NotFound(HeadcountError):
    """Requested component id does not exist."""


class DegenerateBlob(HeadcountError):
    """Blob too small or collinear for the requested shape metric."""


class OrderError(HeadcountError):
    """Frames fed to a stateful stage out of index order."""


class UndefinedAccuracy(HeadcountError):
    """Accuracy ratio undefined: true count 0 but counted > 0, or beyond a float."""


def quote(value) -> str:
    """``repr(value)`` for an error message, cut short: a rejected value can
    be as long as its file or flag, so a ``bytes`` or ``str`` value past 20
    bytes or characters shows only those and its length, and any other
    value likewise its repr."""
    if not isinstance(value, (bytes, str)):
        text = repr(value)
        return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"
    if len(value) <= 20:
        return repr(value)
    unit = "bytes" if isinstance(value, bytes) else "characters"
    return f"{value[:20]!r}... ({len(value)} {unit})"


def json_integer(name: str, value) -> int:
    """``value`` if it is a JSON integer: an ``int``, never a ``bool``, that
    fits in 64 bits. ConfigError naming ``name`` otherwise."""
    if type(value) is int and -2**63 <= value < 2**63:
        return value
    raise ConfigError(f"{name} must be a 64-bit integer, got {quote(value)}")


def digits(text) -> int:
    """int(text) of a ``str`` or ``bytes`` of ASCII digits only: int() alone
    would also take " +1_0" and fullwidth digits. ValueError otherwise, and
    past the interpreter's digit limit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)
