"""The audit options, declared once.

Each option an audit takes — a :meth:`Session.audit
<repro.api.session.Session.audit>` keyword, a ``POST /audit`` field, a
``repro witness``/``repro client`` flag, a fleet sub-request field — is
one :class:`AuditOption` in :data:`OPTIONS`: name, default, validator
and normalizer, the one message a malformed value gets, and doc line.
:func:`resolve` validates raw values in table order and then against
the engine's capabilities, :func:`to_spec` builds a wire spec, and
:func:`format_option_table` documents the table for the README.

A rejection is an :class:`OptionError` carrying its HTTP status: 400
for a malformed value, 422 where a well-formed value conflicts with the
engine or with itself.  A missing or ``None`` value means the default.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .errors import UnknownEngineError
from .registry import engines, get_engine

__all__ = [
    "MAX_PRECISION_BITS",
    "OPTION",
    "OPTIONS",
    "PRECISION_BITS_ERROR",
    "U_ERROR",
    "AuditOption",
    "OptionError",
    "check_precision_bits",
    "format_option_table",
    "parse_roundoff",
    "resolve",
    "to_spec",
]


#: The widest significand a run can simulate.  Approximate arithmetic
#: runs in binary64; a wider format would be judged against a bound
#: that binary64's own rounding already exceeds — a bogus verdict.
MAX_PRECISION_BITS = 53

#: The one message every surface rejects an unusable significand width
#: with (``precision_bits`` and each ``sweep_bits`` width).
PRECISION_BITS_ERROR = (
    f"precision_bits must be an integer in [1, {MAX_PRECISION_BITS}]: "
    "binary64 arithmetic cannot simulate a wider significand"
)

#: The bound ``coeff · u/(1−u)`` means something only for 0 < u < 1.
U_ERROR = (
    "u must be a finite unit roundoff with 0 < u < 1, given as a number "
    "or a string like '2^-53'"
)


class OptionError(ValueError):
    """An audit option value no run can honor; ``status`` is the HTTP
    status the audit server answers with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def check_precision_bits(bits: object) -> int:
    """``bits`` as an int if a run can honor that width, else OptionError."""
    if (
        isinstance(bits, bool)
        or not isinstance(bits, numbers.Integral)
        or not 1 <= int(bits) <= MAX_PRECISION_BITS
    ):
        raise OptionError(PRECISION_BITS_ERROR)
    return int(bits)


def parse_roundoff(text: object) -> float:
    """A unit roundoff from ``'2^-53'``, ``'2**-53'`` or a number;
    only a finite ``0 < u < 1`` passes."""
    try:
        if isinstance(text, str):
            base, marker, exponent = text.strip().partition("^")
            if not marker:
                base, marker, exponent = text.strip().partition("**")
            u = float(base) ** float(exponent) if marker else float(base)
        elif isinstance(text, (int, float)):
            u = float(text)
        else:
            raise TypeError(text)
        if not 0.0 < u < 1.0:  # also rejects nan (and a complex power)
            raise ValueError(u)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise OptionError(U_ERROR) from None
    return u


def _engine(name: object) -> str:
    if not isinstance(name, str):
        raise TypeError(name)
    get_engine(name)  # the registry's UnknownEngineError, uniform everywhere
    return name


def _positive_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(value)
    if value < 1:
        raise ValueError(value)
    return int(value)


def _flag(value: object) -> bool:
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _sweep_bits(value: object) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise TypeError(value)
    widths = [check_precision_bits(bits) for bits in value]
    if any(a >= b for a, b in zip(widths, widths[1:])):
        raise OptionError(
            f"sweep precision widths must be strictly increasing (got {widths})",
            422,
        )
    return tuple(widths)


@dataclass(frozen=True)
class AuditOption:
    """One audit option, as every surface sees it."""

    name: str
    #: the Session.audit default (``None``: the session's or server's)
    default: Any
    #: a TypeError/ValueError it raises becomes ``message``, at ``status``
    parse: Callable[[Any], Any]
    message: str
    doc: str
    status: int = 400
    #: when a well-formed value is refused with 422 (for the docs)
    conflict: str = ""
    #: the EngineCaps flag a true value needs, and the 422 message
    needs: str = ""
    needs_message: str = ""
    #: argparse keywords of the shared witness/client flag, if any
    flag: Optional[Mapping[str, Any]] = None

    def normalize(self, value: Any) -> Any:
        """The normalized value; ``None`` is the default."""
        if value is None:
            return self.default
        try:
            return self.parse(value)
        except (OptionError, UnknownEngineError):
            raise
        except (TypeError, ValueError, OverflowError):
            raise OptionError(self.message, self.status) from None


#: Every audit option, in validation order.
OPTIONS: Tuple[AuditOption, ...] = (
    AuditOption(
        "engine", "ir", _engine,
        "engine must be a string naming a registered engine",
        "audit engine: any registered name (default `ir`); an unknown "
        "name is rejected with the registered set",
        flag={"default": "ir"},
    ),
    AuditOption(
        "workers", None, _positive_int,
        "workers must be a positive integer",
        "worker processes of multi-process engines",
        flag={"type": int, "default": 1},
    ),
    AuditOption(
        "precision_bits", None, check_precision_bits, PRECISION_BITS_ERROR,
        f"simulated significand width, an integer in [1, {MAX_PRECISION_BITS}] "
        "(default 53 = binary64)",
        flag={"default": "53"},
    ),
    AuditOption(
        "u", None, parse_roundoff, U_ERROR,
        "unit roundoff of the bound check: a number or a string like "
        "`2^-24`, finite with 0 < u < 1 (default `2^-precision_bits`)",
        flag={"default": None},
    ),
    AuditOption(
        "rows", False, _flag, "rows must be a boolean",
        "materialize the schema-v5 per-row witness section",
        conflict="on an engine without per-row witnesses",
        needs="rows",
        needs_message=(
            "engine {engine!r} cannot materialize per-row witnesses; "
            "rows/stream need one of: {capable}"
        ),
        flag={"action": "store_true"},
    ),
    AuditOption(
        "stream", False, _flag, "stream must be a boolean",
        "stream the rows as NDJSON (header, one line per row, trailer) "
        "instead of one buffered payload",
        conflict="on an engine without per-row witnesses",
        flag={"action": "store_true"},
    ),
    AuditOption(
        "sweep_bits", None, _sweep_bits,
        "sweep_bits must be a non-empty list of significand widths",
        "the `sweep` engine's width ladder (default 11, 24, 53); other "
        "engines ignore it",
        conflict="unless strictly increasing",
    ),
)

#: The options by name.
OPTION: Dict[str, AuditOption] = {option.name: option for option in OPTIONS}

_NO_DEFAULTS: Mapping[str, Any] = {}


def resolve(
    values: Mapping[str, Any], defaults: Mapping[str, Any] = _NO_DEFAULTS
) -> Dict[str, Any]:
    """Every option of one audit, validated and normalized.

    A missing or ``None`` value in ``values`` takes ``defaults[name]``,
    else the table default; other keys are ignored.  ``stream`` implies
    ``rows``.  Raises :class:`OptionError` or the registry's
    :class:`~repro.api.errors.UnknownEngineError`.
    """
    resolved: Dict[str, Any] = {}
    for option in OPTIONS:
        value = values.get(option.name)
        if value is None:
            value = defaults.get(option.name)
        resolved[option.name] = option.normalize(value)
    resolved["rows"] = resolved["rows"] or resolved["stream"]
    engine = resolved["engine"]
    caps = get_engine(engine).caps
    for option in OPTIONS:
        if option.needs and resolved[option.name] and not getattr(caps, option.needs):
            capable = ", ".join(
                name for name, e in engines().items() if getattr(e.caps, option.needs)
            )
            raise OptionError(
                option.needs_message.format(engine=engine, capable=capable), 422
            )
    return resolved


def to_spec(
    source: str,
    inputs: Mapping[str, Any],
    name: Optional[str] = None,
    **options: Any,
) -> Dict[str, Any]:
    """The ``POST /audit`` spec of one audit; options that are ``None``
    or ``False`` are left to the server's defaults."""
    spec: Dict[str, Any] = {"source": source, "name": name, "inputs": inputs}
    for option in OPTIONS:
        value = options.get(option.name)
        if value is not None and value is not False:
            spec[option.name] = list(value) if isinstance(value, tuple) else value
    return spec


def format_option_table() -> str:
    """:data:`OPTIONS` as Markdown; the README embeds it verbatim (a
    test keeps the two in sync)."""
    lines = [
        "| field | meaning | refused with |",
        "|-------|---------|--------------|",
    ]
    for option in OPTIONS:
        refused = str(option.status)
        if option.conflict:
            refused += f"; 422 {option.conflict}"
        lines.append(f"| `{option.name}` | {option.doc} | {refused} |")
    return "\n".join(lines)
