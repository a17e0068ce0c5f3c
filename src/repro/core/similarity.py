"""Similarity detection and reference-block selection.

The periodic scan of Section 4.2: every ``scan_interval`` I/Os, examine
the ``scan_window`` hottest blocks of the LRU queue, promote the blocks
whose sub-signatures are most popular (per the Heatmap) to *reference
blocks*, and try to delta-compress the remaining blocks against them.

The module separates the pure selection logic (rankable, testable against
the paper's Table 2 worked example) from the :class:`SimilarityScanner`
that walks a live cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple)

import numpy as np

from repro.core.cache import ICashCache
from repro.core.heatmap import Heatmap
from repro.core.signatures import signature_overlap
from repro.core.virtual_block import VirtualBlock
from repro.delta.encoder import Delta, encode_delta

#: Fraction of the scan window (by popularity rank) eligible to become
#: new reference blocks in one scan.
REF_CANDIDATE_FRACTION = 0.10


class SignatureIndex:
    """Incrementally maintained ``lba -> (reference, signatures)`` index.

    The direct implementation rebuilds a ``(row, value) -> references``
    map from scratch on every scan — eight dict operations per reference
    per scan.  This index instead lives across scans: the controller
    notifies it when references appear, change content, or retire, and
    each scan merely *syncs* the window's references (a no-op when
    nothing changed).

    Correctness does not depend on the notifications being complete: the
    per-scan sync re-adds any window reference whose entry is missing or
    stale, and the scanner filters candidates to the current window, so a
    stale entry for a retired reference can never be selected — it only
    wastes a dict hit until evicted.
    """

    def __init__(self) -> None:
        #: ``lba -> (block, signatures-at-insert)``; the recorded
        #: signatures let :meth:`sync` detect content refreshes.
        self._entries: Dict[int, Tuple[VirtualBlock, Tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, vb: VirtualBlock) -> None:
        """Index ``vb`` with its sub-signatures (replacing any previous
        entry for the same LBA)."""
        if not vb.signatures:
            return
        self._entries[vb.lba] = (vb, tuple(vb.signatures))

    def discard(self, lba: int) -> None:
        """Forget the reference at ``lba`` (no-op when absent)."""
        self._entries.pop(lba, None)

    def sync(self, vb: VirtualBlock) -> None:
        """Ensure the index entry for ``vb`` is current (self-healing)."""
        entry = self._entries.get(vb.lba)
        if entry is not None and entry[0] is vb \
                and entry[1] == tuple(vb.signatures):
            return
        self.add(vb)

    def match_batch(
        self, cand_sigs: np.ndarray, rank_of: Dict[int, int],
    ) -> List[Tuple[Optional[Tuple[int, int, int, VirtualBlock]], int]]:
        """Best indexed reference per candidate row, in one vectorised pass.

        ``cand_sigs`` is an ``(N, SUB_BLOCKS)`` integer matrix;
        ``rank_of`` maps reference LBAs to their popularity rank (stale
        index entries absent from it are ignored).  Each result slot is ``(count, first_row,
        rank, ref)`` for the reference minimising ``(-count, first_row,
        rank)`` — the scalar tie-break — plus ``tallies``, the number of
        references sharing at least one sub-signature (the scalar
        comparison count).  Slots with no match are ``None``.

        Returns a list of ``(best_or_none, tallies)`` pairs.
        """
        n = int(cand_sigs.shape[0]) if cand_sigs.ndim == 2 else 0
        ordered = sorted(
            (rank, lba) for lba, rank in rank_of.items()
            if lba in self._entries)
        if n == 0 or not ordered:
            return [(None, 0)] * n
        ranks = np.asarray([rank for rank, _ in ordered], dtype=np.int64)
        ref_vbs = [self._entries[lba][0] for _, lba in ordered]
        ref_sigs = np.asarray(
            [self._entries[lba][1] for _, lba in ordered], dtype=np.int64)
        eq = cand_sigs[:, None, :] == ref_sigs[None, :, :]
        counts = eq.sum(axis=2)
        matched = counts > 0
        tallies = matched.sum(axis=1)
        first_row = np.argmax(eq, axis=2)
        sub = ref_sigs.shape[1]
        # Composite minimisation key reproducing (-count, first_row,
        # rank): lexicographic because each factor strictly dominates
        # the next's range.
        key = (((sub - counts) * sub + first_row)
               * (int(ranks.max()) + 1) + ranks[None, :])
        key[~matched] = np.iinfo(np.int64).max
        best_j = np.argmin(key, axis=1)
        out: List[Tuple[Optional[Tuple[int, int, int, VirtualBlock]], int]] \
            = []
        for i in range(n):
            j = int(best_j[i])
            if not matched[i, j]:
                out.append((None, 0))
            else:
                out.append(((int(counts[i, j]), int(first_row[i, j]),
                             int(ranks[j]), ref_vbs[j]),
                            int(tallies[i])))
        return out

    def clear(self) -> None:
        self._entries.clear()


def popularity_ranking(entries: Sequence[Tuple[object, Sequence[int]]],
                       heatmap: Heatmap,
                       ) -> List[Tuple[object, int]]:
    """Rank ``(key, signatures)`` entries by Heatmap popularity, best first.

    Ties preserve input order, matching the paper's example where the
    earliest-seen block wins among equals.
    """
    scored = [(key, heatmap.popularity(sigs)) for key, sigs in entries]
    return sorted(scored, key=lambda pair: -pair[1])


def select_reference(entries: Sequence[Tuple[object, Sequence[int]]],
                     heatmap: Heatmap) -> object:
    """The single best reference among ``entries`` (Table 2's selection).

    The paper's example: after the Table 1 request sequence, block
    (A, D) at LBA3 has popularity 5 — the highest — and is selected, which
    minimises total cache space once the others delta-compress against it.
    """
    if not entries:
        raise ValueError("cannot select a reference from no candidates")
    return popularity_ranking(entries, heatmap)[0][0]


@dataclass
class Association:
    """A block newly paired with a reference, with its computed delta."""

    vb: VirtualBlock
    ref_lba: int
    delta: Delta


@dataclass
class ScanResult:
    """Outcome of one similarity scan."""

    new_references: List[VirtualBlock] = field(default_factory=list)
    associations: List[Association] = field(default_factory=list)
    blocks_examined: int = 0
    comparisons: int = 0
    #: CPU seconds the scan consumed (comparisons + delta encodes).
    cpu_time: float = 0.0


class SimilarityScanner:
    """Walks the cache's hot window selecting references and associates."""

    def __init__(self, heatmap: Heatmap, min_signature_match: int,
                 delta_accept_bytes: int, scan_compare_s: float,
                 compress_s: float) -> None:
        self.heatmap = heatmap
        self.min_signature_match = min_signature_match
        self.delta_accept_bytes = delta_accept_bytes
        self.scan_compare_s = scan_compare_s
        self.compress_s = compress_s
        self.signature_index = SignatureIndex()

    def note_reference(self, vb: VirtualBlock) -> None:
        """Controller hook: ``vb`` became (or refreshed) a reference."""
        self.signature_index.add(vb)

    def note_retired(self, lba: int) -> None:
        """Controller hook: the reference at ``lba`` was demoted/evicted."""
        self.signature_index.discard(lba)

    def scan(self, cache: ICashCache, window: int, max_new_references: int,
             content_fn: Callable[[VirtualBlock], Optional[np.ndarray]],
             ) -> ScanResult:
        """One scan pass.

        ``content_fn`` resolves a virtual block's current content without
        device I/O (RAM data, SSD-resident copies the controller already
        holds) and returns ``None`` when content is not cheaply available —
        such blocks are skipped rather than paged in, as a background scan
        must not thrash the devices.

        ``max_new_references`` lets the controller cap promotions at its
        free SSD slots.

        The result is byte-identical to the direct implementation, which
        ranks with :func:`popularity_ranking`, rebuilds a ``(row, value)
        -> references`` map each scan and keeps the first-inserted
        highest tally per candidate (the tests keep it as the oracle).
        Its insertion order is (first matching signature row, position
        in the cell's list) — popularity rank for window references,
        promotion order for mid-scan promotions — so minimising
        ``(-count, first_row, rank)`` selects the same reference.
        """
        result = ScanResult()
        candidates = [vb for vb in cache.mru_window(window) if vb.signatures]
        result.blocks_examined = len(candidates)
        if not candidates:
            return result

        # One popularity gather over the whole window, then a stable
        # argsort identical to popularity_ranking's stable sort on
        # (-popularity).
        sig_matrix = np.asarray(
            [vb.signatures for vb in candidates], dtype=np.int64)
        pops = self.heatmap.popularity_batch(sig_matrix).tolist()
        order = sorted(range(len(candidates)), key=lambda i: -pops[i])
        ranked = [(candidates[i], pops[i]) for i in order]
        ranked_sigs = sig_matrix[order]
        result.cpu_time += len(ranked) * self.scan_compare_s

        # One pass in popularity order (Table 2's semantics): a block that
        # delta-compresses against an existing reference becomes its
        # associate; a popular block no reference covers becomes a new
        # reference itself.  Promoting only the *unmatched* is what spreads
        # reference coverage across content clusters instead of piling
        # redundant references into the hottest one.
        refs: List[VirtualBlock] = [vb for vb, _ in ranked if vb.is_reference]
        # Heal the persistent index for this window (no-op per ref when
        # notifications kept it current) and rank the window's references
        # by popularity position.
        for ref in refs:
            self.signature_index.sync(ref)
        rank_of: Dict[int, int] = {
            ref.lba: pos for pos, ref in enumerate(refs)}
        next_rank = len(refs)
        # One vectorised pass against the window's references; blocks
        # promoted mid-scan are folded in per candidate below.
        base_match = self.signature_index.match_batch(ranked_sigs, rank_of)
        promoted: List[Tuple[int, VirtualBlock]] = []
        promotable = min(max_new_references,
                         max(4, int(len(ranked) * REF_CANDIDATE_FRACTION)))
        for pos, (vb, _pop) in enumerate(ranked):
            if vb.is_reference:
                continue
            if vb.is_associate and vb.has_delta:
                continue  # already well paired; reorganised lazily
            content = content_fn(vb)
            if content is None:
                continue
            best = self._best_reference(vb, base_match[pos], promoted,
                                        result)
            if best is not None and best.lba != vb.lba:
                ref_content = content_fn(best)
                if ref_content is not None:
                    delta = encode_delta(content, ref_content)
                    result.cpu_time += self.compress_s
                    if delta.size_bytes <= self.delta_accept_bytes:
                        result.associations.append(Association(
                            vb=vb, ref_lba=best.lba, delta=delta))
                        continue
            if len(result.new_references) < promotable:
                result.new_references.append(vb)
                self.signature_index.add(vb)
                rank_of[vb.lba] = next_rank
                promoted.append((next_rank, vb))
                next_rank += 1
        return result

    def _best_reference(
            self, vb: VirtualBlock,
            base: Tuple[Optional[Tuple[int, int, int, VirtualBlock]], int],
            promoted: Sequence[Tuple[int, VirtualBlock]],
            result: ScanResult) -> Optional[VirtualBlock]:
        """Reference with the highest signature overlap, if it clears the
        minimum-match bar.

        ``base`` is this candidate's precomputed slot from
        :meth:`SignatureIndex.match_batch` (window references only);
        references promoted mid-scan are tallied here, scalar-style, so
        the combined selection minimises the same ``(-count, first_row,
        rank)`` key over the same reference set.
        """
        best_entry, tally = base
        if best_entry is not None:
            count, first_row, rank, best = best_entry
            best_key: Optional[Tuple[int, int, int]] = \
                (-count, first_row, rank)
        else:
            best = None
            best_key = None
        for rank, ref in promoted:
            count = 0
            first_row = -1
            for row, (a, b) in enumerate(zip(vb.signatures, ref.signatures)):
                if a == b:
                    count += 1
                    if first_row < 0:
                        first_row = row
            if count:
                tally += 1
                key = (-count, first_row, rank)
                if best_key is None or key < best_key:
                    best_key = key
                    best = ref
        result.comparisons += tally
        result.cpu_time += tally * self.scan_compare_s
        if best is None:
            return None
        if -best_key[0] < self.min_signature_match:
            return None
        if signature_overlap(vb.signatures, best.signatures) \
                < self.min_signature_match:
            return None
        return best
