"""Term/clause indexing: set-tries, subsumption indexes, unification and path indexes."""

from .feature_index import SubsumptionIndex
from .path_index import RulePathIndex, atom_path, paths_compatible
from .set_trie import SetTrie
from .unification_index import TGDUnificationIndex

__all__ = [
    "RulePathIndex",
    "SetTrie",
    "SubsumptionIndex",
    "TGDUnificationIndex",
    "atom_path",
    "paths_compatible",
]
