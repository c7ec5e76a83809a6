"""The one grammar of a rational given as text (``errors.rational``): its boundary
inputs, pinned, and a property test over the grammar and its near misses whose
oracle reads the drawn digits with ``unicodedata.digit``."""

import sys
import time
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartics.errors import DomainError, rational

LIMIT = sys.get_int_max_str_digits()
TOO_LONG = (f"cannot parse rational: a numerator or denominator of more than {LIMIT} digits, "
            "the limit of sys.get_int_max_str_digits()")
#: the zero of each digit set drawn: ASCII, Arabic-Indic, extended Arabic-Indic, Devanagari,
#: Bengali, Thai, fullwidth, mathematical bold and Adlam, all in Unicode 13 (Python 3.10)
ZEROS = (0x30, 0x660, 0x6F0, 0x966, 0x9E6, 0xE50, 0xFF10, 0x1D7CE, 0x1E950)
BLANKS = " \t\n\x0b\x0c\r\x1c\x85\xa0\u2003\u3000"
SECONDS = 0.05      # the most one call may take, on any input drawn here


def label(value) -> str:
    """A test id: the value, or for a long one its first 12 characters and its length."""
    text = str(value)
    return text if len(text) <= 20 else f"{text[:12]}..{len(text)}"


def timed(text):
    """``rational(text)``, or the DomainError it raised, and the seconds it took."""
    start = time.perf_counter()
    try:
        result = rational(text)
    except DomainError as exc:
        result = exc
    return result, time.perf_counter() - start


@pytest.mark.parametrize("text, want", [
    # underscores between digits: refused by Fraction on 3.10, read by it on 3.11-3.13
    ("1_0", 10), ("1_0/3", Fraction(10, 3)), ("1.5e1_0", 15 * 10**9), ("-٣_٠", -30),
    # blanks around "/": refused by Fraction on 3.10 and 3.11
    ("3/ 4", Fraction(3, 4)), ("1 /2", Fraction(1, 2)), (" 3 / 4 ", Fraction(3, 4)),
    ("٣/　٤", Fraction(3, 4)),
    # a zero mantissa is 0 whatever its exponent; at 5000 digits Fraction refuses it
    ("0e" + "9" * 5000, 0), ("-0.0e-" + "٩" * 5000, 0), ("0e100000000", 0),
    # long runs of leading or trailing zeros that Fraction refuses: the value is small
    ("0" * 5000 + "1", 1), ("2." + "0" * 5000, 2), ("1/" + "0" * 5000 + "3", Fraction(1, 3)),
], ids=label)
def test_text_read_alike_on_every_python(text, want):
    result, seconds = timed(text)
    assert result == want and type(result) is Fraction
    assert seconds < SECONDS


@pytest.mark.parametrize("text", [
    # a huge exponent in any digit set is refused from its digits: Fraction formed
    # 10**9999999 first when its digits were not ASCII
    "1e" + "٩" * 7, "1e" + "९" * 7, "-2.5E+" + "９" * 12, "1e-" + "٩" * 7, "٣e٩٩٩٩٩٩٩٩٩٩٩٩",
    # a mantissa, numerator or denominator of more than the limit's digits
    "1" * (LIMIT + 1), "1/" + "٣" * (LIMIT + 1), "1." + "1" * LIMIT, "1" * (LIMIT + 1) + "e-1",
    # more significant digits than any value within the limit has: refused before
    # Fraction(Decimal) converts them, which grows with the square of their count
    "0." + "1" * 200_000,
], ids=label)
def test_too_long_text_fails_at_once_with_the_limit(text):
    result, seconds = timed(text)
    assert isinstance(result, DomainError) and str(result) == TOO_LONG
    assert seconds < SECONDS


def test_an_exponent_int_cannot_read_is_refused_naming_the_text():
    # int reads the exponent after a nonzero mantissa, within the limit
    text = "1e" + "٩" * (LIMIT + 1)
    result, seconds = timed(text)
    assert str(result).startswith(f"cannot parse rational {text!r}: ")
    assert str(LIMIT) in str(result) and seconds < SECONDS


# -- the property test ---------------------------------------------------------

def number(run: str) -> int:
    """The value of a run of digits of any script, read with unicodedata.digit."""
    value = 0
    for char in run.replace("_", ""):
        value = 10 * value + unicodedata.digit(char)
    return value


@st.composite
def runs(draw, min_size=1, max_size=5):
    """A run of digits of drawn scripts with single underscores between some of them."""
    values = draw(st.lists(st.integers(0, 9), min_size=min_size, max_size=max_size))
    run = ""
    for i, value in enumerate(values):
        if i and draw(st.booleans()):
            run += "_"
        run += chr(draw(st.sampled_from(ZEROS)) + value)
    return run


@st.composite
def exponents(draw):
    """An exponent's digits: a short run, or one digit repeated to a huge value."""
    if draw(st.booleans()):
        return draw(runs(max_size=3))
    digit = chr(draw(st.sampled_from(ZEROS)) + draw(st.integers(1, 9)))
    return digit * draw(st.sampled_from([7, 12, 40, LIMIT + 1]))


def near_miss(draw, run: str) -> str:
    """*run* with a stray underscore: doubled, leading or trailing."""
    return draw(st.sampled_from(["_" + run, run + "_", run[:1] + "__" + run[1:]]))


@st.composite
def texts(draw):
    """(text, want): want is the Fraction, "long" for the limit's DomainError, or the
    start of the DomainError message that names the text."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    blank = st.text(alphabet=BLANKS, max_size=2)
    lead, trail = draw(blank), draw(blank)
    kind = draw(st.sampled_from(["ratio", "decimal", "near miss"]))
    if kind == "ratio":
        num, den = draw(runs()), draw(runs())
        text = f"{lead}{sign}{num}{draw(blank)}/{draw(blank)}{den}{trail}"
        if not number(den):
            return text, f"cannot parse rational {text!r}: Fraction("
        return text, Fraction(-number(num) if sign == "-" else number(num), number(den))
    whole = draw(runs(min_size=0))
    fraction = draw(st.one_of(st.none(), runs(min_size=0)))
    if not whole and not fraction:
        whole = draw(runs())
    exponent = draw(st.one_of(st.none(), exponents()))
    esign = draw(st.sampled_from(["", "+", "-"]))
    parts = [lead, sign, whole, "" if fraction is None else "." + fraction,
             "" if exponent is None else draw(st.sampled_from("eE")) + esign + exponent, trail]
    if kind == "near miss":
        # one defect: a stray underscore in a run, a blank after the sign or inside a run,
        # two signs, a lone point, a missing denominator or exponent, two forms at once
        defect = draw(st.sampled_from(["underscore", "blank", "signs", "point", "slash",
                                       "exponent", "forms"]))
        if defect == "underscore":
            slot = draw(st.sampled_from([i for i in (2, 3, 4) if parts[i]]))
            run = parts[slot].lstrip(".eE+-")
            head = parts[slot][:len(parts[slot]) - len(run)]
            parts[slot] = head + (near_miss(draw, run) if run else "_")
        elif defect == "blank":     # after the sign, or between two digits
            if draw(st.booleans()):
                parts[1] = (sign or "-") + draw(st.sampled_from(BLANKS))
            else:
                run = draw(runs(min_size=2))
                parts[2] = run[:1] + draw(st.sampled_from(BLANKS)) + run[1:]
        elif defect == "signs":
            parts[1] = draw(st.sampled_from(["+-", "--", "-+", "++"]))
        elif defect == "point":
            parts[2:5] = ["", ".", parts[4]]
        elif defect == "slash":
            parts[2:5] = [whole or "1", "/", ""]
        elif defect == "exponent":
            parts[4] = draw(st.sampled_from("eE")) + esign
        else:   # a denominator after a point or before an exponent
            parts[3] = parts[3] or "."
            parts[4] = "/" + draw(runs()) + parts[4]
        text = "".join(parts)
        return text, f"cannot parse rational {text!r}: Invalid literal for Fraction: {text!r}"
    text = "".join(parts)
    mantissa = number(whole + (fraction or ""))
    if not mantissa:
        return text, Fraction(0)
    if exponent is not None and len(exponent.replace("_", "")) > LIMIT:
        return text, f"cannot parse rational {text!r}: "
    shift = (0 if exponent is None else number(exponent)) * (-1 if esign == "-" else 1)
    shift -= len((fraction or "").replace("_", ""))
    if abs(shift) > LIMIT + 10:     # more than LIMIT digits in the numerator or denominator
        return text, "long"
    value = Fraction(-mantissa if sign == "-" else mantissa) * Fraction(10) ** shift
    if max(abs(value.numerator), value.denominator) >= 10**LIMIT:
        return text, "long"
    return text, value


@settings(max_examples=250)
@given(texts())
def test_grammar_and_its_near_misses(case):
    text, want = case
    result, seconds = timed(text)
    if isinstance(want, Fraction):
        assert result == want, text
    elif want == "long":
        assert str(result) == TOO_LONG, text
    else:
        assert isinstance(result, DomainError) and str(result).startswith(want), (text, result)
    assert seconds < SECONDS, (text, seconds)
