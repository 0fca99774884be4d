"""The paper's bit layout written out as text, from ``decimal.Decimal`` alone.

An executable spec that the tests hold the codec to; like ``perfbench/oracle.py``,
it imports nothing from lexdec. A finite, non-zero ``±m * 10**e``, with ``m`` in
[1, 10), is the sign header (``10`` positive, ``00`` negative), the exponent field
of ``|e|`` (flipped when the two signs differ), ``m``'s leading digit on 4 bits,
then its other digits in groups of three, the last padded with zeros, each group
on 10 bits; a negative value writes the digits of ``10 - m``. Trimmed, the trailing
zero bits go; prefix-free, a bit follows the leading digit and each group, 1 while
another group follows. A fixed-width key is the canonical encoding cut or zero-padded.
"""

from decimal import Decimal

SPECIALS = {"-Infinity": "00", "-0": "01", "0": "10", "Infinity": "11", "NaN": "111"}
FLIP = str.maketrans("01", "10")
NINES = str.maketrans("0123456789", "9876543210")


def exponent_field(exponent: int, invert: bool) -> str:
    """The field of the exponent magnitude ``exponent``, flipped when ``invert``."""
    tail = bin(exponent + 2)[3:]  # k's bits after its leading one
    field = "1" * len(tail) + "0" + tail
    return field.translate(FLIP) if invert else field


def fields(value) -> list[str]:
    """The fields of ``value``, a ``Decimal`` or its text; a special has one."""
    d = Decimal(value)
    if not d.is_finite() or d.is_zero():
        return [SPECIALS[str(d.normalize())]]
    negative, digits, exponent = d.as_tuple()
    text = "".join(map(str, digits)).rstrip("0")  # normalize() rounds at 28 digits
    e = exponent + len(digits) - 1
    if negative:  # 10 - m: nines' complement, plus one in the last digit, never a 9
        text = text[:-1].translate(NINES) + str(10 - int(text[-1]))
    rest = text[1:] + "0" * (-len(text[1:]) % 3)
    groups = [format(int(rest[i : i + 3]), "010b") for i in range(0, len(rest), 3)]
    head = ["00" if negative else "10", exponent_field(abs(e), bool(negative) != (e < 0))]
    return head + [format(int(text[0]), "04b")] + groups


def encodings(value, widths=()) -> dict:
    """The encoding of ``value`` in the canonical, trimmed and prefix-free framings,
    and its fixed-width key of each of ``widths`` bits: the canonical encoding cut
    or padded, or ``None`` where the fields before the groups do not fit."""
    parts = fields(value)
    canonical = "".join(parts)
    head = len("".join(parts[:3]))
    keys = {width: (canonical + "0" * width)[:width] if head <= width else None for width in widths}
    if len(parts) == 1:  # a special, the same in every framing
        return dict.fromkeys(("canonical", "trimmed", "prefix_free"), canonical) | keys
    prefix_free = "".join(parts[:3]) + "".join("1" + group for group in parts[3:]) + "0"
    framed = {"canonical": canonical, "trimmed": canonical.rstrip("0"), "prefix_free": prefix_free}
    return framed | keys
