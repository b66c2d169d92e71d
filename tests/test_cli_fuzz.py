"""Fuzz of the codec commands, run in-process through ``cli.main``.

Whatever the flags and literals, a command exits 0 or 2 within a second and
never raises; exit 2 prints nothing on stdout and one ``error:`` line on
stderr.  The draws are derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import time

import pytest
from hypothesis import given, settings, strategies as st

from padic_kas.cli import main

# 2**61 - 1 is prime and below core.PRIME_BOUND; 2**89 - 1 is prime and above it.
PRIMES = (2, 3, 5, 7, 2**61 - 1, 2**89 - 1)
MODULI = st.one_of(st.sampled_from(PRIMES), st.integers(-1, 10**30))
ARITIES = st.one_of(
    st.integers(1, 4), st.sampled_from((-1, 0, 10**7, 10**9)), st.integers(-1, 10**9)
)
# decode and psi also draw n = 10**7 at a prime p, so that some draws pair it
# with a well-formed literal: the input that makes per-stream work slow.
PRIME_ARITIES = st.one_of(ARITIES, st.just(10**7))


@st.composite
def malformed(draw, text):
    """text with one fault: a part short or over, cut short, a stray character, a float digit."""
    i = draw(st.integers(0, len(text)))
    faults = (
        text.replace(":", "", 1),
        text + ":",
        text[:i],
        text[:i] + "x" + text[i + 1 :],
        text + ",1.5",
    )
    return draw(st.sampled_from(faults))


@st.composite
def literals(draw, base, stride, top, size=None, period=1):
    """``base:L:d0,...`` with up to 64 digits: well formed, off base or malformed.

    A well-formed literal has L digits, each 0 or ``stride`` times a value
    in [0, top], and 0 at each position that is not a multiple of
    ``period``; an off one has another base, another L or any digits from -1
    to 10**20.  ``size`` fixes the digit count.
    """
    kind = draw(st.sampled_from(("good", "good", "off", "malformed")))
    good = st.one_of(st.just(0), st.integers(0, max(top, 0)).map(lambda d: d * stride))
    digit = good if kind == "good" else st.one_of(good, st.integers(-1, 10**20))
    if size is None:
        size = draw(st.integers(1 if kind == "good" else 0, 64))
    digits = draw(st.lists(digit, min_size=size, max_size=size))
    if kind == "good":
        digits = [d if i % period == 0 else 0 for i, d in enumerate(digits)]
    length = len(digits)
    if kind == "off":
        base = draw(st.one_of(st.just(base), st.integers(-2, 10**30)))
        length = draw(st.one_of(st.just(length), st.integers(-1, 10**9)))
    text = f"{base}:{length}:" + ",".join(map(str, digits))
    if kind == "malformed":
        text = draw(malformed(text))
    return text


@st.composite
def codec_argv(draw, command):
    p = draw(MODULI)
    if command in ("decode", "psi"):
        n = draw(PRIME_ARITIES if p in PRIMES else ARITIES)
        # psi's well-formed literals are spread-encoded: nonzero only at positions n*i.
        q = n * (p - 1) + 1
        period = max(n, 1) if command == "psi" else 1
        cantor = draw(literals(q, n, p - 1, period=period))
        return [command, f"--p={p}", f"--n={n}", f"--cantor={cantor}"]
    n = draw(ARITIES)
    if command in ("encode", "phi"):
        return [command, f"--p={p}", f"--n={n}", f"--x={draw(literals(p, 1, p - 1))}"]
    if command == "interleave":
        size = draw(st.integers(0, 16))
        coords = draw(st.lists(literals(p, 1, p - 1, size), min_size=1, max_size=4))
        return [command, f"--p={p}", *(f"--coord={c}" for c in coords)]
    # A multiple of n digits, while n is small.
    size = n * draw(st.integers(1, 64 // n)) if 1 <= n <= 4 else None
    return [command, f"--p={p}", f"--n={n}", f"--z={draw(literals(p, 1, p - 1, size))}"]


@pytest.mark.parametrize(
    "command", ["encode", "decode", "phi", "psi", "interleave", "deinterleave"]
)
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_codec_command_exits_cleanly_at_once(command, data):
    argv = data.draw(codec_argv(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
    else:
        assert err.getvalue() == ""
