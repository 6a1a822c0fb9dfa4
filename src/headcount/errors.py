"""Exception types raised across the counting pipeline, the JSON field and
text integer rules, and the bounded quoting of rejected values in error
messages."""


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


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", list: "array",
               dict: "object"}


def json_value(key: str, value, kind: type, nullable: bool = False):
    """``value`` if it has the JSON type ``kind``: a boolean is never a number,
    an integer is a number too (as a float) and must fit in 64 bits, and null
    passes only where ``nullable``. ConfigError naming ``key`` otherwise."""
    if type(value) is int and kind in (int, float):
        if -2**63 <= value < 2**63:
            return kind(value)
        raise ConfigError(f"{key} must be a 64-bit integer, got {quote(value)}")
    if type(value) is kind or (value is None and nullable):
        return value
    raise ConfigError(f"{key} must be a JSON {_JSON_TYPES[kind]}, got {quote(value)}")


def json_object(owner: str, doc, keys) -> dict:
    """``doc`` if it is a JSON object with no key outside ``keys``, so that
    a misspelled key is not dropped unread. ConfigError naming ``owner``."""
    unknown = set(json_value(owner, doc, dict)) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {owner} keys: {quote(sorted(unknown))}")
    return doc


def digits(text) -> int:
    """int(text) of a ``str`` or ``bytes`` of ASCII digits only: int() alone
    would also take " +1_0" and fullwidth digits. ValueError otherwise, and
    past the interpreter's digit limit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)
