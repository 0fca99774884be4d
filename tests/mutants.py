"""A standing mutant check: every edit listed here must make the suite fail.

Usage::

    python tests/mutants.py

For each mutant it copies the working tree, less ``.git`` and caches, into a
temporary directory, applies one ``str.replace`` edit to one file of
``src/lexdec`` there, and runs ``pytest -x -q`` on the copy's ``tests/``, the
fast modules first, so that most mutants die within seconds. Hypothesis
keeps its examples database in the copy, which goes with it. First the
unmutated copy must pass the same run, or nothing is run after it. It prints
one line per run: the outcome, the seconds taken, the mutant and the first
test that failed. It exits 1 if a mutant survives, times out, or its edit
no longer matches exactly one place in its file.

Each mutant changes what the library returns for some input, or changes
only its speed on an input that a tier-1 resource test times, so that the
test kills it; a speed-only mutant that no such test reaches belongs to a
resource check, not here. After DeMillo, Lipton and Sayward, "Hints on test
data selection: help for the practicing programmer", IEEE Computer 1978.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The modules that kill most mutants soonest come first; the rest follow.
FAST_MODULES = [
    "test_paper_model.py",
    "test_conformance.py",
    "test_bench.py",
    "test_codec.py",
    "test_decode_fuzz.py",
    "test_exponent_field.py",
    "test_framings.py",
    "test_decimal_values.py",
    "test_bits.py",
]
TIMEOUT_S = 240

# (file under src/lexdec, old text, new text, why)
MUTANTS = [
    (
        "codec.py",
        "return 9 - first, 999 * ones - slots + 1, ones",
        "return 9 - first, slots + ones, ones",
        "the declets' complement to ten becomes a sum, on both sides",
    ),
    (
        "codec.py",
        "    if not ones:\n        return 10 - first, slots, ones\n"
        "    return 9 - first, 999 * ones - slots + 1, ones\n",
        "    return first, slots, ones\n",
        "negative digits stored uncomplemented on both sides: round trips, misorders",
    ),
    (
        "codec.py",
        "if continued and count and not slots & 1023:",
        "if False:",
        "a prefix-free chain may end in a zero declet",
    ),
    (
        "codec.py",
        "        if (first == 0 and not count) or (first == 9 and count):\n"
        "            raise DecodeError(DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, start)\n",
        "        if (first == 0 and not count) or (first == 9 and count):\n"
        "            pass\n",
        "a stored negative significand outside (0, 9] is read",
    ),
    (
        "decimal_values.py",
        "    form.__class__ = ScientificForm\n",
        "",
        "the unchecked builder leaves the form in its mutable twin class",
    ),
    (
        "bench.py",
        "        root += 1\n    return root\n",
        "        root += 1\n    return root + 1\n",
        "_power_of_ten_floor's exact fallback is one too high",
    ),
    (
        "codec.py",
        "bits._value = head << size | groups",
        "bits._value = (head << size | groups) ^ 1 << width + 1 + size",
        "the writer flips a finite encoding's first bit, as perfbench's control does",
    ),
    (
        "codec.py",
        "str(first * _THOUSANDS[count] + slots)",
        "str(first * _THOUSANDS[count - 1] + slots)",
        "the declet printer weights the leading digit by 1000**(count - 1)",
    ),
    (
        "codec.py",
        "_declet_digits(1, slots & ((1 << stride * low) - 1), low, stride)[1:]",
        "_declet_digits(0, slots & ((1 << stride * low) - 1), low, stride)",
        "past a block, the low half is written without its leading zeros",
    ),
    (
        "codec.py",
        "first = bits >> group_bits & 15",
        "first = bits >> group_bits",
        "the tetrade is read with the head's bits above it",
    ),
    (
        "bits.py",
        "    a_length, b_length = a._length, b._length\n"
        "    if a_length != b_length:\n"
        "        return -1 if a_length < b_length else 1\n",
        "",
        "lex_compare calls equal bytes equal, with no length tie-break",
    ),
    (
        "bits.py",
        "(self._value << (-length & 7)).to_bytes(",
        "self._value.to_bytes(",
        "to_bytes packs without the pad shift",
    ),
    (
        "bits.py",
        "        joined._packed = None\n",
        "",
        "a sum starts with no packed-bytes slot set",
    ),
    (
        "bits.py",
        "        bits._packed = None\n",
        "",
        "a string read from bytes starts with no packed-bytes slot set",
    ),
    (
        "codec.py",
        "raise DecodeError(error.kind, position + error.position) from None",
        "raise DecodeError(error.kind, error.position) from None",
        "a fault inside a stream loses its stream offset",
    ),
    (
        "codec.py",
        "chunk_end = 8 * min(start + size // 2, len(data))",
        "chunk_end = 8 * (start + size // 2)",
        "a chunk's end is not clamped to the stream's bytes",
    ),
    (
        "codec.py",
        "        if size > view_bits:\n"
        "            chunk_end = 0  # the next value reads a chunk of its own width\n",
        "",
        "the chunk read for a widened view is kept: the values after it are slow",
    ),
]


def module_order(tests: Path) -> list[str]:
    rest = sorted(p.name for p in tests.glob("test_*.py") if p.name not in FAST_MODULES)
    return [f"tests/{name}" for name in FAST_MODULES + rest]


def first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return None


SKIPPED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", ".benchmarks"
)


def run(file: str, old: str, new: str) -> tuple[str, str, float]:
    """The run's outcome (passed, killed, SURVIVED, TIMEOUT or STALE), the
    first test that failed, and the seconds taken. An empty ``file`` runs
    the unmutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        if file:
            target = copy / "src" / "lexdec" / file
            text = target.read_text()
            if text.count(old) != 1:
                return "STALE", f"edit matches {text.count(old)} places in {file}", 0.0
            target.write_text(text.replace(old, new))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command + module_order(copy / "tests"),
                cwd=copy,
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "TIMEOUT", f"no result in {TIMEOUT_S} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if done.returncode == 0:
            return ("SURVIVED" if file else "passed"), "", seconds
        return "killed", first_failure(done.stdout) or f"pytest exit {done.returncode}", seconds


def main() -> int:
    total = time.perf_counter()
    outcome, by, seconds = run("", "", "")
    print(f"{outcome:8s} {seconds:6.1f} s  the unmutated tree", flush=True)
    if outcome != "passed":
        print("the unmutated tree fails its tests; no mutant was run", file=sys.stderr)
        return 1
    failed = 0
    for file, old, new, why in MUTANTS:
        outcome, by, seconds = run(file, old, new)
        failed += outcome != "killed"
        print(f"{outcome:8s} {seconds:6.1f} s  {file}: {why}\n{'':19s}{by}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed in {time.perf_counter() - total:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
