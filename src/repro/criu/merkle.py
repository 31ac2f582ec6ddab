"""Merkle-tree verification of content-addressed snapshot layers.

Flat digesting (:meth:`CheckpointImage.compute_digest`) re-hashes the
whole image on every verification, so repairing one 256 KiB chunk of a
99 MiB snapshot costs a full-image pass to prove the repair took. The
registry layout from PR 3 already decomposes an image into per-layer
chunk windows; this module roots those chunk ids in a Merkle tree —
leaves are chunk-group digests, one tree per layer, one root over the
layer roots — so:

* verifying one chunk means hashing one leaf plus its root path
  (``O(arity * depth)`` hash operations, not ``O(leaves)``);
* repairing a damaged chunk re-verifies only its subtree: the repaired
  leaf digest is recomputed, its ancestors are re-derived from cached
  sibling digests, and the new root is compared against the sealed one;
* incremental sealing reuses every untouched node — the tree records
  exactly how many hash operations each update cost (``hash_ops``), so
  tests can assert the sublinear bound instead of trusting it.

Everything here is pure bookkeeping: no simulated time, no RNG.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# Children per internal node. 16 keeps the tree shallow (a 99 MiB
# image is ~400 chunks -> depth 3) while a single-leaf update still
# re-hashes only its own group path.
DEFAULT_ARITY = 16


def _combine(digests: Sequence[str]) -> str:
    hasher = hashlib.sha256()
    for digest in digests:
        hasher.update(digest.encode("utf-8"))
    return hasher.hexdigest()


class MerkleTree:
    """An arity-N hash tree over an ordered list of leaf digests.

    Levels are stored bottom-up: ``_levels[0]`` is the leaves,
    ``_levels[-1]`` is the single root digest. ``hash_ops`` counts
    every internal-node combine since construction — the currency the
    "re-verify only the damaged subtree" property is stated in.
    """

    def __init__(self, leaves: Sequence[str], arity: int = DEFAULT_ARITY) -> None:
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.arity = arity
        self.hash_ops = 0
        self._levels: List[List[str]] = [list(leaves)]
        self._build()

    def _build(self) -> None:
        level = self._levels[0]
        if not level:
            # Empty tree: a fixed root so images without pages still seal.
            self._levels.append([_combine(())])
            self.hash_ops += 1
            return
        while len(level) > 1:
            parents = []
            for i in range(0, len(level), self.arity):
                parents.append(_combine(level[i:i + self.arity]))
                self.hash_ops += 1
            self._levels.append(parents)
            level = parents

    # -- inspection ----------------------------------------------------------

    @property
    def root(self) -> str:
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        return len(self._levels[0])

    @property
    def depth(self) -> int:
        """Internal levels above the leaves (0 for a 1-leaf tree)."""
        return len(self._levels) - 1

    def leaf(self, index: int) -> str:
        return self._levels[0][index]

    # -- incremental update --------------------------------------------------

    def update_leaf(self, index: int, digest: str) -> int:
        """Replace one leaf and re-derive only its ancestor path.

        Sibling digests at every level are reused from the cached tree,
        so the cost is ``depth`` combines (each over ``arity`` cached
        children), not a rebuild. Returns the hash operations spent.
        """
        if not 0 <= index < len(self._levels[0]):
            raise IndexError(f"leaf {index} out of range "
                             f"(tree has {self.leaf_count})")
        before = self.hash_ops
        self._levels[0][index] = digest
        child_index = index
        for level_no in range(1, len(self._levels)):
            parent_index = child_index // self.arity
            child_level = self._levels[level_no - 1]
            start = parent_index * self.arity
            self._levels[level_no][parent_index] = _combine(
                child_level[start:start + self.arity])
            self.hash_ops += 1
            child_index = parent_index
        return self.hash_ops - before


@dataclass
class LayerTree:
    """One layer's Merkle tree plus the leaf lookup index."""

    name: str
    tree: MerkleTree
    # (vma_index, window_start) -> leaf position, so a damaged chunk
    # window resolves to its leaf in O(1) instead of a manifest scan.
    leaf_index: Dict[Tuple[int, int], int] = field(default_factory=dict)


class ImageMerkle:
    """Per-layer Merkle trees + a root over the layer roots.

    Built from a :class:`~repro.criu.pagestore.LayeredImage` at
    store-put time (the moment the registry trusts the content); the
    leaves are the layer's chunk ids, which are themselves digests over
    page content keys, so the root commits to every dumped page byte.
    """

    def __init__(self, layers: Sequence[LayerTree]) -> None:
        self.layers: Dict[str, LayerTree] = {lt.name: lt for lt in layers}
        self._order = [lt.name for lt in layers]
        self.sealed_root = self._compute_root()

    @classmethod
    def from_layered(cls, layered, arity: int = DEFAULT_ARITY) -> "ImageMerkle":
        """Build the tree set from a layered snapshot manifest."""
        layer_trees = []
        for layer in layered.layers:
            index = {(ref.vma_index, ref.window_start): pos
                     for pos, ref in enumerate(layer.chunk_refs)}
            layer_trees.append(LayerTree(
                name=layer.name,
                tree=MerkleTree([ref.chunk_id for ref in layer.chunk_refs],
                                arity=arity),
                leaf_index=index,
            ))
        return cls(layer_trees)

    def _compute_root(self) -> str:
        return _combine([f"{name}:{self.layers[name].tree.root}"
                         for name in self._order])

    # -- accounting ----------------------------------------------------------

    @property
    def hash_ops(self) -> int:
        return sum(lt.tree.hash_ops for lt in self.layers.values())

    @property
    def leaf_count(self) -> int:
        return sum(lt.tree.leaf_count for lt in self.layers.values())

    def locate(self, vma_index: int, window_start: int
               ) -> Optional[Tuple[str, int]]:
        """(layer name, leaf position) of one chunk window, O(1)."""
        for name, lt in self.layers.items():
            pos = lt.leaf_index.get((vma_index, window_start))
            if pos is not None:
                return name, pos
        return None

    # -- verification --------------------------------------------------------

    def reverify_subtree(self, vma_index: int, window_start: int,
                         chunk_digest: str) -> int:
        """Fold a repaired window back in, re-deriving only its path.

        Returns the hash operations spent. After every damaged window
        has been folded back, :meth:`root_matches_seal` proves (or
        refutes) the repair without re-hashing the untouched leaves.
        """
        located = self.locate(vma_index, window_start)
        if located is None:
            raise KeyError(
                f"no sealed leaf for vma {vma_index} window {window_start}")
        name, pos = located
        return self.layers[name].tree.update_leaf(pos, chunk_digest)

    def root_matches_seal(self) -> bool:
        """Compare the current root against the root sealed at put."""
        return self._compute_root() == self.sealed_root
