"""Direct (scalar) implementations kept as test oracles.

The production similarity scan and ingest sweep are batched; their
golden semantics are the straightforward scalar loops below, which the
equivalence tests run side by side with the production paths and
require to agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.controller import ICASHController
from repro.core.similarity import (REF_CANDIDATE_FRACTION, Association,
                                   ScanResult, SimilarityScanner,
                                   popularity_ranking)
from repro.core.signatures import signature_overlap
from repro.core.virtual_block import VirtualBlock
from repro.delta.encoder import encode_delta
from repro.delta.packer import DeltaRecord


def index_by_signature(refs: Sequence[VirtualBlock],
                       ) -> Dict[Tuple[int, int], List[VirtualBlock]]:
    """(row, value) -> reference blocks carrying that sub-signature."""
    index: Dict[Tuple[int, int], List[VirtualBlock]] = {}
    for ref in refs:
        for row, value in enumerate(ref.signatures):
            index.setdefault((row, value), []).append(ref)
    return index


class DirectScanner(SimilarityScanner):
    """The similarity scan with its index rebuilt on every pass."""

    def scan(self, cache, window, max_new_references, content_fn):
        result = ScanResult()
        candidates = [vb for vb in cache.mru_window(window)
                      if vb.signatures]
        result.blocks_examined = len(candidates)
        if not candidates:
            return result
        ranked = popularity_ranking(
            [(vb, vb.signatures) for vb in candidates], self.heatmap)
        result.cpu_time += len(ranked) * self.scan_compare_s
        refs = [vb for vb, _ in ranked if vb.is_reference]
        index = index_by_signature(refs)
        promotable = min(max_new_references,
                         max(4, int(len(ranked) * REF_CANDIDATE_FRACTION)))
        for vb, _pop in ranked:
            if vb.is_reference:
                continue
            if vb.is_associate and vb.has_delta:
                continue
            content = content_fn(vb)
            if content is None:
                continue
            best = self._direct_best_reference(vb, index, result)
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
                for row, value in enumerate(vb.signatures):
                    index.setdefault((row, value), []).append(vb)
        return result

    def _direct_best_reference(
            self, vb: VirtualBlock,
            index: Dict[Tuple[int, int], List[VirtualBlock]],
            result: ScanResult) -> Optional[VirtualBlock]:
        """Reference with the highest signature tally (first inserted
        wins ties), if it clears the minimum-match bar."""
        tallies: Dict[int, int] = {}
        by_id: Dict[int, VirtualBlock] = {}
        for row, value in enumerate(vb.signatures):
            for ref in index.get((row, value), ()):
                tallies[id(ref)] = tallies.get(id(ref), 0) + 1
                by_id[id(ref)] = ref
        result.comparisons += len(tallies)
        result.cpu_time += len(tallies) * self.scan_compare_s
        if not tallies:
            return None
        best_id = max(tallies, key=lambda k: tallies[k])
        best = by_id[best_id]
        if tallies[best_id] < self.min_signature_match:
            return None
        if signature_overlap(vb.signatures, best.signatures) \
                < self.min_signature_match:
            return None
        return best


class ScalarIngestController(ICASHController):
    """I-CASH with the ingest sweep run one block at a time: one
    best-reference lookup and one ``encode_delta`` per block, in LBA
    order."""

    def _ingest_sweep_batched(self, all_signatures, index, pending):
        config = self.config
        total = 0.0
        for lba in range(self.capacity_blocks):
            total += self.hdd.read(lba, 1)  # sequential sweep
            content = self.backing.view(lba)
            signatures = all_signatures[lba]
            best_lba = self._scalar_best_reference(signatures, index)
            if best_lba is not None:
                delta = encode_delta(content, self._ssd_data[best_lba])
                self.cpu_time += config.compress_s
                if delta.size_bytes <= config.delta_accept_bytes:
                    pending.append(DeltaRecord(lba, best_lba, delta))
                    self._map_delta(lba, best_lba)
                    continue
            promoted = self._ingest_promote(lba, content, signatures, index)
            if promoted is not None:
                total += promoted
        return total

    def _scalar_best_reference(self, signatures, index) -> Optional[int]:
        tallies: Dict[int, int] = {}
        for row, value in enumerate(signatures):
            for ref_lba in index.get((row, value), ()):
                tallies[ref_lba] = tallies.get(ref_lba, 0) + 1
        self.cpu_time += max(1, len(tallies)) * self.config.scan_compare_s
        if not tallies:
            return None
        best = max(tallies, key=lambda k: tallies[k])
        if tallies[best] < self.config.min_signature_match:
            return None
        return best
