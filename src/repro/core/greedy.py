"""Greedy dictionary construction (paper section 3.1.1).

Optimal dictionary selection is NP-complete [Storer77]; like the paper
we run a greedy loop: on every iteration pick the candidate whose
replacement yields the largest immediate savings, replace all of its
(non-overlapping, still-intact) occurrences, and repeat until the
codeword space is exhausted or nothing saves bytes.

Savings model, in stream bits (section 3.1.3's cost accounting):

    savings(e) = uses * (L * U - C_k) - 32 * L

where ``L`` is the entry length in instructions, ``U`` the encoding's
per-instruction stream cost (32 bits, 36 for the nibble scheme),
``C_k`` the bit size of the next free codeword slot, and ``32 * L`` the
dictionary storage for the entry.

The loop uses a lazy max-heap: entry priorities only ever decrease
(occurrences get destroyed by other replacements; codeword slots only
grow), so a popped entry whose recomputed priority is unchanged is the
true maximum.

The chosen occurrences come back as two position-sorted columns,
:attr:`GreedyResult.positions` and :attr:`GreedyResult.entry_words`,
which :func:`repro.core.replace.build_tokens` walks directly;
:class:`Replacement` objects exist only in the
:attr:`GreedyResult.replacements` view.

Two implementations produce byte-identical :class:`GreedyResult`\\ s:

* :func:`greedy_reference` — the original direct transcription, kept
  as the oracle;
* the fast path (default) — driven by the interned
  :class:`~repro.core.candidates.CandidateStore` with incremental
  bookkeeping.  See ``docs/performance.md`` for why each shortcut
  preserves the reference's exact pick sequence:

  - the initial heap uses the *upper bound* ``len(occurrences)`` as the
    weight instead of scanning for valid occurrences (nothing is
    covered yet, so only self-overlap can lower the true weight; a
    stored priority that is an over-estimate is exactly what a lazy
    max-heap tolerates, and acceptance still requires a recomputed
    priority to match the stored one);
  - coverage is a ``bytearray`` probed with C-speed ``find`` instead of
    a Python ``any`` over a slice;
  - occurrence lists are compacted lazily — positions destroyed by an
    accepted entry are dropped the next time that candidate is popped,
    so each destroyed occurrence is filtered once, not once per pop;
  - per-candidate (chosen, weight) results are memoized by *epoch* (the
    number of accepted entries): within one epoch coverage and rank are
    fixed, so a re-popped candidate reuses its cached selection instead
    of rescanning (this removes the duplicated ``_valid_occurrences``
    work the reference does on accept);
  - a candidate whose surviving occurrences were once verified
    non-self-overlapping can never overlap again (positions only get
    removed), so the overlap pass is skipped from then on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import compress

from repro import observe
from repro.core.candidates import (
    Candidate,
    candidate_store,
    enumerate_candidates_reference,
)
from repro.core.dictionary import Dictionary, DictionaryEntry
from repro.core.encodings import Encoding
from repro.linker.program import Program


@dataclass(slots=True)
class Replacement:
    """One chosen occurrence: ``length`` instructions at ``position``."""

    position: int
    entry_words: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.entry_words)


@dataclass
class GreedyResult:
    """Output of dictionary construction.

    ``positions`` and ``entry_words`` are parallel columns, one entry
    per chosen occurrence, sorted by position: the occurrence at
    ``positions[k]`` is replaced by the entry ``entry_words[k]``.
    """

    dictionary: Dictionary
    positions: list[int] = field(default_factory=list)
    entry_words: list[tuple[int, ...]] = field(default_factory=list)
    # Savings actually achieved per selection step, in stream bits —
    # used by the Figure 7 analysis.
    step_savings_bits: list[int] = field(default_factory=list)

    @property
    def replacements(self) -> list[Replacement]:
        """The chosen occurrences as objects, built on each access."""
        return list(map(Replacement, self.positions, self.entry_words))


def _valid_occurrences(candidate: Candidate, covered: list[bool]) -> list[int]:
    """Non-overlapping occurrences not destroyed by earlier picks."""
    chosen: list[int] = []
    last_end = -1
    length = candidate.length
    for position in candidate.positions:
        if position < last_end:
            continue  # overlaps a previous occurrence of the same entry
        if any(covered[position : position + length]):
            continue
        chosen.append(position)
        last_end = position + length
    return chosen


def build_dictionary(
    program: Program,
    encoding: Encoding,
    max_entry_len: int = 4,
    max_codewords: int | None = None,
    position_weights: list[int] | None = None,
    implementation: str = "fast",
) -> GreedyResult:
    """Run the greedy algorithm over ``program``.

    ``max_codewords`` defaults to the encoding's capacity.

    ``position_weights`` switches the objective from static size to
    weighted benefit: occurrence at position ``p`` counts
    ``position_weights[p]`` times (e.g. its dynamic execution count, to
    minimize fetch traffic instead of ROM size — the profile-guided
    variant explored by the ``ext_dynamic`` experiment).  The entry's
    dictionary storage still counts once.

    ``implementation`` selects ``"fast"`` (default) or ``"reference"``;
    both return byte-identical results (enforced by the
    golden-equivalence test suite).
    """
    if implementation == "reference":
        select = greedy_reference
    elif implementation == "fast":
        select = _build_dictionary_fast
    else:
        raise ValueError(f"unknown greedy implementation {implementation!r}")
    with observe.stage("build_dictionary"):
        return select(
            program,
            encoding,
            max_entry_len=max_entry_len,
            max_codewords=max_codewords,
            position_weights=position_weights,
        )


def _build_dictionary_fast(
    program: Program,
    encoding: Encoding,
    max_entry_len: int,
    max_codewords: int | None,
    position_weights: list[int] | None,
) -> GreedyResult:
    capacity = min(
        encoding.capacity, max_codewords if max_codewords is not None else 1 << 30
    )
    store = candidate_store(program, max_entry_len)
    covered = bytearray(store.n)
    find = covered.find
    unc = encoding.instruction_bits
    cwbits = [encoding.codeword_bits(0)]

    seq_words = store.seq_words
    lengths = store.lengths
    nsid = len(seq_words)
    store_occ = store.occ
    # Working occurrence lists, compacted lazily; None = still pristine
    # (read from the store, which is never mutated).
    occ: list[list[int] | None] = [None] * nsid
    cache_epoch = [-1] * nsid
    cache_chosen: list[list[int] | None] = [None] * nsid
    may_overlap = [True] * nsid
    pw = position_weights

    # Initial heap with upper-bound weights (see module docstring).
    # Tie-breaks use the store's precomputed lexicographic rank — an
    # order-preserving int stand-in for comparing the words tuples, so
    # the pop order is exactly the reference's (-priority, words) order.
    lex_rank = store.lex_rank
    heap = []
    c0 = cwbits[0]
    for sid in range(nsid):
        length = lengths[sid]
        if pw is None:
            bound = len(store_occ[sid])
        else:
            bound = 0
            for p in store_occ[sid]:
                w = pw[p]
                if w > 0:
                    bound += w
        priority = bound * (length * unc - c0) - 32 * length
        if priority > 0:
            heap.append((-priority, lex_rank[sid], sid))
    heapq.heapify(heap)

    chosen_entries: list[tuple[tuple[int, ...], int]] = []  # (words, uses)
    # Entry words by replacement start position; coverage guarantees at
    # most one replacement starts at any position, so this doubles as
    # the position-sorted replacement list.
    rep_at: list[tuple[int, ...] | None] = [None] * store.n
    step_savings: list[int] = []
    epoch = 0
    push = heapq.heappush
    pop = heapq.heappop
    marks = {length: b"\x01" * length for length in range(1, max_entry_len + 1)}

    rank = 0
    cw_rank = cwbits[0]
    while heap and rank < capacity:
        neg_priority, tie, sid = pop(heap)
        length = lengths[sid]
        if cache_epoch[sid] == epoch:
            # Same epoch => same coverage and same rank as when cached,
            # so the stored priority is exact.
            chosen = cache_chosen[sid]
            current = -neg_priority
        else:
            arr = occ[sid]
            if arr is None:
                arr = store_occ[sid]
            if length == 1:
                alive = [p for p in arr if not covered[p]]
                chosen = alive  # single instructions cannot self-overlap
            else:
                alive = [p for p in arr if find(1, p, p + length) < 0]
                if may_overlap[sid]:
                    chosen = []
                    chosen_append = chosen.append
                    last_end = -1
                    for p in alive:
                        if p >= last_end:
                            chosen_append(p)
                            last_end = p + length
                    if len(chosen) == len(alive):
                        may_overlap[sid] = False
                else:
                    chosen = alive
            occ[sid] = alive
            if pw is None:
                weight = len(chosen)
            else:
                weight = 0
                for p in chosen:
                    w = pw[p]
                    if w > 0:
                        weight += w
            cache_epoch[sid] = epoch
            cache_chosen[sid] = chosen
            current = weight * (length * unc - cw_rank) - 32 * length
        if current != -neg_priority:
            if current > 0:
                push(heap, (-current, tie, sid))
            continue
        if current <= 0:
            break
        # Accept: this is the true maximum.
        key = seq_words[sid]
        chosen_entries.append((key, len(chosen)))
        step_savings.append(current)
        mark = marks[length]
        for p in chosen:
            rep_at[p] = key
            covered[p : p + length] = mark
        epoch += 1
        rank += 1
        if rank < capacity:
            while rank >= len(cwbits):
                cwbits.append(encoding.codeword_bits(len(cwbits)))
            cw_rank = cwbits[rank]

    # Rank the dictionary by static usage so the most frequent entries
    # receive the shortest codewords (paper section 3.1.3).
    order = sorted(
        range(len(chosen_entries)),
        key=lambda i: (-chosen_entries[i][1], chosen_entries[i][0]),
    )
    dictionary = Dictionary(
        [
            DictionaryEntry(words=chosen_entries[i][0], uses=chosen_entries[i][1])
            for i in order
        ]
    )
    # Every key is a non-empty tuple, so truth picks the chosen starts.
    return GreedyResult(
        dictionary=dictionary,
        positions=list(compress(range(store.n), rep_at)),
        entry_words=list(filter(None, rep_at)),
        step_savings_bits=step_savings,
    )


def greedy_reference(
    program: Program,
    encoding: Encoding,
    max_entry_len: int = 4,
    max_codewords: int | None = None,
    position_weights: list[int] | None = None,
) -> GreedyResult:
    """The original greedy loop, preserved verbatim as the oracle.

    Uses :func:`enumerate_candidates_reference` and per-pop
    ``_valid_occurrences`` rescans; the fast path is required to match
    its output byte for byte.
    """
    capacity = min(
        encoding.capacity, max_codewords if max_codewords is not None else 1 << 30
    )
    candidates = enumerate_candidates_reference(program, max_entry_len=max_entry_len)
    covered = [False] * len(program.text)

    unc = encoding.instruction_bits

    def occurrence_weight(positions: list[int]) -> int:
        if position_weights is None:
            return len(positions)
        return sum(max(position_weights[p], 0) for p in positions)

    def savings_bits(candidate: Candidate, weight: int, rank: int) -> int:
        length = candidate.length
        return weight * (length * unc - encoding.codeword_bits(rank)) - 32 * length

    # Initial heap: priority computed with the cheapest (rank 0) slot.
    heap: list[tuple[int, tuple[int, ...]]] = []
    for key, candidate in candidates.items():
        weight = occurrence_weight(_valid_occurrences(candidate, covered))
        priority = savings_bits(candidate, weight, 0)
        if priority > 0:
            heap.append((-priority, key))
    heapq.heapify(heap)

    chosen_entries: list[tuple[tuple[int, ...], int]] = []  # (words, uses)
    replacements: list[tuple[int, tuple[int, ...]]] = []  # (position, words)
    step_savings: list[int] = []

    while heap and len(chosen_entries) < capacity:
        rank = len(chosen_entries)
        neg_priority, key = heapq.heappop(heap)
        candidate = candidates[key]
        occurrences = _valid_occurrences(candidate, covered)
        current = savings_bits(candidate, occurrence_weight(occurrences), rank)
        if current != -neg_priority:
            if current > 0:
                heapq.heappush(heap, (-current, key))
            continue
        if current <= 0:
            break
        # Accept: this is the true maximum.
        chosen_entries.append((key, len(occurrences)))
        step_savings.append(current)
        for position in occurrences:
            replacements.append((position, key))
            for index in range(position, position + candidate.length):
                covered[index] = True

    # Rank the dictionary by static usage so the most frequent entries
    # receive the shortest codewords (paper section 3.1.3).
    order = sorted(
        range(len(chosen_entries)),
        key=lambda i: (-chosen_entries[i][1], chosen_entries[i][0]),
    )
    dictionary = Dictionary(
        [
            DictionaryEntry(words=chosen_entries[i][0], uses=chosen_entries[i][1])
            for i in order
        ]
    )
    replacements.sort(key=lambda rep: rep[0])
    return GreedyResult(
        dictionary=dictionary,
        positions=[position for position, _ in replacements],
        entry_words=[words for _, words in replacements],
        step_savings_bits=step_savings,
    )
