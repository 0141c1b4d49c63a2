"""Independent reference arithmetic and the per-job correctness gate.

Nothing here imports the package under test: the recursion, the class
count, the maximizing arrangement and the threshold formulas are written
out again from their definitions, so a defect in the workbench cannot pass
its own check.
"""

from __future__ import annotations

import hashlib
import json
import math

INT64_LIMIT = 2**63

# Integer-to-string conversion refuses more decimal digits than this; the
# default of sys.get_int_max_str_digits().  Bounds documents carrying a
# larger integer exit 2 (a known defect the benchmark keeps visible).
STR_DIGITS_LIMIT = 4300
_TEN_TO_LIMIT = 10**STR_DIGITS_LIMIT


def continuant(word) -> int:
    """K(w) by the three-term recursion K_j = w_j K_{j-1} + K_{j-2}."""
    k_prev, k = 0, 1
    for a in word:
        k_prev, k = k, a * k + k_prev
    return k


def multinomial(counts) -> int:
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def class_count(counts) -> int:
    """Members of the Abelian class up to reversal: (raw + palindromic) / 2."""
    if sum(c % 2 for c in counts) > 1:
        palindromes = 0
    else:
        palindromes = multinomial([c // 2 for c in counts])
    return (multinomial(counts) + palindromes) // 2


def max_arrangement(letters, counts) -> tuple:
    """The maximizing arrangement: walk the letters top-down, then bottom-up.

    Letter i (0-based, s letters) contributes a single copy on the way down
    and its remaining run on the way up when s-1-i is even, and the other
    way round when it is odd.
    """
    s = len(letters)
    down, up = [], []
    for i in range(s - 1, -1, -1):
        single, run = [letters[i]], [letters[i]] * (counts[i] - 1)
        down += single if (s - 1 - i) % 2 == 0 else run
    for i in range(s):
        single, run = [letters[i]], [letters[i]] * (counts[i] - 1)
        up += run if (s - 1 - i) % 2 == 0 else single
    return tuple(down + up)


def compositions(n: int, parts: int):
    """Compositions of n into positive parts, lexicographically ascending."""
    if parts == 1:
        yield (n,)
        return
    for head in range(1, n - parts + 2):
        for rest in compositions(n - head, parts - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# Bounds thresholds in floating point.  The float margins on the domain the
# workloads draw from (t <= 3, l <= 20, s within 12 of the admissible s) are
# far wider than double rounding; perfbench/tests checks every point of that
# domain against the certified search.
# ---------------------------------------------------------------------------

def density_threshold_s(t: int, l: int) -> int:
    """Least s >= l-t+1 with ((s-l+t)/(s+1))^(s+1) >= e^-(l-t+1) / 2."""
    c = l - t + 1
    s = c
    while (s + 1) * math.log((s - l + t) / (s + 1)) < -c - math.log(2):
        s += 1
    return s


def growth_exceeds_one(t: int, l: int, s: int) -> bool:
    """(363/800) e^k / (sqrt(2 pi (s+1)) k^(l-t+1)) > 1 with k = s-l+t."""
    k = s - l + t
    log_g = math.log(363 / 800) + k - 0.5 * math.log(2 * math.pi * (s + 1)) - (l - t + 1) * math.log(k)
    return log_g > 0


def smallest_admissible_s(t: int, l: int) -> int:
    s = max(density_threshold_s(t, l), l + 1)
    while not growth_exceeds_one(t, l, s):
        s += 1
    return s


def is_admissible(t: int, l: int, s: int) -> bool:
    return s >= max(density_threshold_s(t, l), l + 1) and growth_exceeds_one(t, l, s)


def value_count_upper(s: int, m: int) -> int:
    return (1 << (2 * s)) * math.factorial(s) * math.factorial(s + 1) ** m


def class_count_lower(t: int, l: int, s: int, m: int) -> int:
    k = s - l + t
    return math.factorial(k * m) // (2 * math.factorial(m) ** k)


def m_threshold(s: int) -> int:
    """Least m with 2^(2s) s! 99^m <= 100^m: a float estimate, settled exactly."""
    target = (1 << (2 * s)) * math.factorial(s)
    m = max(1, math.ceil((2 * s * math.log(2) + math.lgamma(s + 1)) / math.log(100 / 99)))
    while m > 1 and 100 ** (m - 1) >= target * 99 ** (m - 1):
        m -= 1
    while 100**m < target * 99**m:
        m += 1
    return m


def _log10_factorial(n: int) -> float:
    return math.lgamma(n + 1) / math.log(10)


def bounds_document_too_wide(t: int, l: int, s: int, m: int) -> bool:
    """Whether the bounds document for (t, l, s, m) holds an integer over the digit limit.

    Decided from logarithms when they are clear of the limit by a digit,
    and exactly otherwise.
    """
    k = s - l + t
    digits = max(
        2 * s * math.log10(2) + _log10_factorial(s) + m * _log10_factorial(s + 1),
        _log10_factorial(k * m) - math.log10(2) - k * _log10_factorial(m),
    )
    if abs(digits - STR_DIGITS_LIMIT) > 1:
        return digits > STR_DIGITS_LIMIT
    return max(value_count_upper(s, m), class_count_lower(t, l, s, m)) >= _TEN_TO_LIMIT


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _word(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",")) if text else ()


def _check_member(word, letters, counts, value) -> str | None:
    """A witness word: right Parikh vector, canonical, and the stated value."""
    if sorted(word) != sorted(a for a, c in zip(letters, counts) for _ in range(c)):
        return f"word {word} is not in the class {letters}/{counts}"
    if word > word[::-1]:
        return f"word {word} is not canonical"
    if continuant(word) != value:
        return f"word {word} has value {continuant(word)}, reported {value}"
    return None


def _check_census(job: dict, doc: dict) -> str | None:
    letters, counts = job["letters"], job["counts"]
    n_expected = class_count(counts)
    spectrum = doc["spectrum"]
    if int(doc["N"]) != n_expected:
        return f"N={doc['N']}, expected {n_expected}"
    if sum(mu * cnt for mu, cnt in spectrum) != n_expected:
        return "spectrum mass differs from N"
    if sum(cnt for _, cnt in spectrum) != int(doc["P"]):
        return "spectrum support differs from P"
    if int(doc["max_value"]) != continuant(max_arrangement(letters, counts)):
        return "max_value is not the continuant of the maximizing arrangement"
    multiplicities = {mu for mu, _ in spectrum}
    for w in doc["witnesses"]:
        if w["multiplicity"] not in multiplicities:
            return f"witness multiplicity {w['multiplicity']} is not in the spectrum"
        for text in w["words"]:
            bad = _check_member(_word(text), letters, counts, int(w["value"]))
            if bad:
                return bad
    return None


def _check_wmax(job: dict, doc: dict) -> str | None:
    if doc["verified"] is not True:
        return f"verified is {doc['verified']!r}"
    if _word(doc["word"]) != max_arrangement(job["letters"], job["counts"]):
        return f"word {doc['word']} is not the maximizing arrangement"
    return None


def _check_explore_budget(job: dict, doc: dict) -> str | None:
    letters, budget = job["letters"], job["budget"]
    scanned, parikhs, n = 0, [], len(letters)
    while True:
        for counts in compositions(n, len(letters)):
            size = class_count(counts)
            if scanned + size > budget:
                break
            scanned += size
            parikhs.append(list(counts))
        else:
            n += 1
            continue
        break
    if (doc["classes_scanned"], doc["parikhs_scanned"]) != (scanned, len(parikhs)):
        return f"scanned {doc['classes_scanned']}/{doc['parikhs_scanned']}, expected {scanned}/{len(parikhs)}"
    if doc["budget_exhausted"] is not True:
        return "budget_exhausted is not true"
    for w in doc["witnesses"]:
        if w["parikh"] not in parikhs or w["multiplicity"] != job["target_mu"]:
            return f"witness {w} is outside the scan"
        bad = _check_member(_word(w["word"]), letters, w["parikh"], int(w["value"]))
        if bad:
            return bad
    return None


def _check_explore_m_range(job: dict, doc: dict) -> str | None:
    letters = job["letters"]
    entries = doc["entries"]
    if [e["m"] for e in entries] != list(range(job["m_start"], job["m_end"] + 1)):
        return "entries do not cover the m range"
    for e in entries:
        w = e["witness"]
        if w["parikh"] != [e["m"]] * len(letters) or w["multiplicity"] != e["max_multiplicity"]:
            return f"entry {e} is inconsistent"
        bad = _check_member(_word(w["word"]), letters, w["parikh"], int(w["value"]))
        if bad:
            return bad
    return None


def _check_bounds(job: dict, doc: dict, memo: dict) -> str | None:
    t, l, s, m = job["t"], job["l"], job.get("s"), job.get("m")
    if (doc["t"], doc["l"], doc["s"], doc["m"]) != (t, l, s, m):
        return "parameters are not echoed"
    if doc["s_threshold"] != density_threshold_s(t, l):
        return f"s_threshold {doc['s_threshold']}, expected {density_threshold_s(t, l)}"
    if job["kind"] == "bounds-admissible":
        if doc["admissible_s"] != smallest_admissible_s(t, l):
            return f"admissible_s {doc['admissible_s']}, expected {smallest_admissible_s(t, l)}"
        return None
    if s not in memo:
        memo[s] = m_threshold(s)
    expected = {
        "m_threshold": memo[s],
        "admissible": is_admissible(t, l, s),
        "value_count_upper": str(value_count_upper(s, m)),
        "class_count_lower": str(class_count_lower(t, l, s, m)),
    }
    for key, want in expected.items():
        if doc[key] != want:
            return f"{key} is {doc[key]!r}, expected {want!r}"
    return None


class Gate:
    """Checks one job's outcome; remembers threshold work across passes."""

    def __init__(self):
        self._m_thresholds: dict = {}

    def check(self, job: dict, exit_code, stdout: str) -> str | None:
        """None when the job passed, otherwise why it failed."""
        if exit_code != 0:
            return f"exit {exit_code}"
        try:
            doc = json.loads(stdout)
            kind = job["kind"]
            if kind == "census":
                return _check_census(job, doc)
            if kind == "wmax":
                return _check_wmax(job, doc)
            if kind == "explore-budget":
                return _check_explore_budget(job, doc)
            if kind == "explore-m-range":
                return _check_explore_m_range(job, doc)
            return _check_bounds(job, doc, self._m_thresholds)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}"
