"""Binary words and binary codes: spans, linearity, nesting, Schur products."""

from __future__ import annotations

from typing import Iterable, Sequence

Word = tuple[int, ...]

MAX_WORD_LEN = 24          # words live in F2^n with n <= 24 (enumeration guard)
MAX_CODE_SIZE = 1 << 20    # at most 2^20 words per code
MAX_SPAN_GENERATORS = 20   # spans are enumerated as 2^k combinations


def word(bits: Iterable[int]) -> Word:
    """Coerce a 0/1 sequence into a validated word tuple."""
    w = tuple(int(b) for b in bits)
    _check_word(w)
    return w


def zero_word(n: int) -> Word:
    return (0,) * n


def xor_add(a: Word, b: Word) -> Word:
    """Component-wise sum mod 2."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x ^ y for x, y in zip(a, b))


def schur(a: Word, b: Word) -> Word:
    """Component-wise product."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x & y for x, y in zip(a, b))


def pack(w: Sequence[int]) -> int:
    """Pack a word into an int, first coordinate at the most significant bit.

    Integer order of packed values equals lexicographic order of the tuples.
    """
    v = 0
    for b in w:
        v = (v << 1) | b
    return v


def unpack(v: int, n: int) -> Word:
    return tuple((v >> (n - 1 - i)) & 1 for i in range(n))


class SpanTracker:
    """Incremental row echelon over F2: the rank, and whether a word enlarges the span."""

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, int] = {}  # leading bit position -> echelon row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: int) -> int:
        while v:
            row = self._rows.get(v.bit_length() - 1)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, w: Word) -> bool:
        """Insert a word; True iff it enlarged the span."""
        v = self._reduce(pack(w))
        if v == 0:
            return False
        self._rows[v.bit_length() - 1] = v
        return True


class Record:
    """A read-only value named by the ``_fields`` of its class, in order.

    A subclass validates its input in ``__init__`` and then stores the fields
    with ``self._store(*values)``.  Two records are equal when they have the
    same type and equal fields; a one-field record hashes as its field, and a
    record with several fields as the tuple of them.  Setting or deleting any
    attribute raises ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def _store(self, *values):
        """Store the fields; the first record of a class compiles its class's own store first.

        That store has one statement per field and no loop over ``_fields``,
        and later records of the class call it directly.  It stores with
        object.__setattr__, not through self.__dict__: reading __dict__ would
        give up CPython's inline attribute values and slow every later field
        read.  ``_key``, the field or the tuple of several, is what equality
        and hashing read.
        """
        cls = type(self)
        args = ", ".join(f"v{i}" for i in range(len(cls._fields)))
        body = [f"    _set(self, {name!r}, v{i})" for i, name in enumerate(cls._fields)]
        key = "v0" if len(cls._fields) == 1 else f"({args})"
        namespace = {"_set": object.__setattr__}
        exec("\n".join([f"def _store(self, {args}):", *body, f"    _set(self, '_key', {key})"]), namespace)
        cls._store = namespace["_store"]
        cls._store(self, *values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class BinaryCode(Record):
    """A nonempty set of equal-length binary words.

    Equal when n and the words are equal; the fields are read-only.
    """

    _fields = ("n", "words")
    n: int
    words: frozenset[Word]

    def __init__(self, n: int, words: Iterable[Word]):
        words = frozenset(words)
        _check_length(n)
        if not words:
            raise ValueError("a code must contain at least one word")
        if len(words) > MAX_CODE_SIZE:
            raise ValueError(f"code size {len(words)} exceeds the guard of {MAX_CODE_SIZE}")
        for w in words:
            _check_word(w)
            if len(w) != n:
                raise ValueError(f"word {w} does not have length {n}")
        self._store(n, words)

    @property
    def size(self) -> int:
        return len(self.words)

    def sorted_words(self) -> list[Word]:
        return sorted(self.words)

    @property
    def basis(self) -> tuple[Word, ...]:
        """A spanning subset of the code's words, chosen in lexicographic order.

        Computed on first use and kept with object.__setattr__, as Record
        stores its fields: a write to __dict__ would give up CPython's inline
        attribute values and slow every later read of n and words.
        """
        try:
            return self._basis
        except AttributeError:
            tracker = SpanTracker(self.n)
            basis = tuple(w for w in self.sorted_words() if tracker.add(w))
            object.__setattr__(self, "_basis", basis)
            return basis

    def __contains__(self, w: Word) -> bool:
        return w in self.words


def code_from_words(rows: Iterable[Iterable[int]]) -> BinaryCode:
    """Build a code from explicit word rows (deduplicated).

    The rows are converted once and validated by ``BinaryCode``; only the
    first row, whose length becomes n, is checked here, so that an empty or
    overlong first row is reported as a bad word, not as a bad length.
    """
    ws = [tuple(map(int, r)) for r in rows]
    if not ws:
        raise ValueError("a code must contain at least one word")
    _check_word(ws[0])
    return BinaryCode(n=len(ws[0]), words=ws)


def span(generators: Iterable[Iterable[int]], n: int | None = None) -> BinaryCode:
    """The F2-linear span of the given generator rows.

    ``n`` is only required when the generator list is empty (the zero code).
    """
    gens = tuple(word(g) for g in generators)
    if not gens:
        if n is None:
            raise ValueError("an empty generator list needs an explicit length")
        _check_length(n)  # before zero_word(n) allocates n entries
        return BinaryCode(n=n, words=frozenset({zero_word(n)}))
    if len(gens) > MAX_SPAN_GENERATORS:
        raise ValueError(f"{len(gens)} generators exceed the guard of {MAX_SPAN_GENERATORS}")
    if n is not None and len(gens[0]) != n:
        raise ValueError(f"generators have length {len(gens[0])}, expected {n}")
    m = len(gens[0])
    return BinaryCode(n=m, words=_span_set(gens, m))


def is_linear(code: BinaryCode) -> bool:
    """True iff the word set is an F2-subspace.

    A finite word set lies in its span of 2^rank words, so it equals that
    span exactly when its size is 2^rank.
    """
    return code.size == 1 << len(code.basis)


def is_nested(inner: BinaryCode, outer: BinaryCode) -> bool:
    """True iff every word of ``inner`` belongs to ``outer``."""
    if inner.n != outer.n:
        raise ValueError(f"length mismatch: {inner.n} vs {outer.n}")
    return inner.words <= outer.words


def schur_closed_chain(chain) -> tuple[bool, tuple[int, Word, Word] | None]:
    """Check C_i * C_i subset-of C_{i+1} for every adjacent level pair.

    Products at the top level are absorbed by the integer translates of the
    constellation, so only levels 1..L-1 are constrained.  Accepts a CodeChain
    or a plain sequence of codes; every code must be linear.  Closure implies
    nesting (w * w == w), so a chain that is not nested fails here with a
    witness of the form (level, w, w).  On failure the witness is the first
    violating (level, x, y), ordered by level, then x, then y
    lexicographically.
    """
    codes = tuple(getattr(chain, "codes", chain))
    for code in codes:
        if not is_linear(code):
            raise ValueError("Schur closure is only defined for linear chains")
    for level in range(len(codes) - 1):
        lower, upper = codes[level], codes[level + 1]
        basis = lower.basis
        # The product is bilinear over F2, so basis pairs decide closure.
        if all(schur(x, y) in upper.words for x in basis for y in basis):
            continue
        words = lower.sorted_words()
        for x in words:
            for y in words:
                if schur(x, y) not in upper.words:
                    return False, (level + 1, x, y)
    return True, None


def _span_set(gens: Sequence[Word], n: int) -> frozenset[Word]:
    vals = {0}
    for g in gens:
        gv = pack(g)
        vals |= {v ^ gv for v in vals}
    return frozenset(unpack(v, n) for v in vals)


def _check_length(n: int) -> None:
    if n < 1 or n > MAX_WORD_LEN:
        raise ValueError(f"code length must be in 1..{MAX_WORD_LEN}, got {n}")


def _check_word(w: Sequence[int]) -> None:
    if len(w) == 0:
        raise ValueError("words must have positive length")
    if len(w) > MAX_WORD_LEN:
        raise ValueError(f"word length {len(w)} exceeds the guard of {MAX_WORD_LEN}")
    for b in w:
        if b != 0 and b != 1:
            raise ValueError(f"word entries must be 0 or 1, got {b!r}")
